//! Blocking convenience wrappers over the non-blocking engine API.
//!
//! The engines are non-blocking by design (the simulator needs `try_*` +
//! yield). On real transports (`fm-threaded` OS threads, `fm-udp`
//! processes), blocking is just spin-with-progress: retry the operation,
//! draining the network in between so flow-control credits — and, in
//! [`crate::Reliability::Retransmit`] mode, acks and retransmit timers —
//! keep circulating (this mirrors what the real FM library did inside
//! `FM_send`: poll the NIC while waiting for credits, or risk deadlock).
//!
//! Generic over any [`NetDevice`], which is why this lives in `fm-core`
//! rather than in one transport crate — as does [`run_node_threads`],
//! the one node-per-thread runner every in-process cluster shares. Never
//! call these on a simulator device: virtual time only advances when the
//! caller yields to the event loop, so a spin here would hang forever.

use std::thread;
use std::time::{Duration, Instant};

use crate::device::NetDevice;
use crate::packet::HandlerId;
use crate::{Fm1Engine, Fm2Engine, WouldBlock};

/// Upper bound on fruitless spins before declaring the cluster wedged —
/// generous, but turns a genuine deadlock into a diagnosis instead of a
/// hang.
const SPIN_LIMIT: u64 = 500_000_000;

fn spin_or_die(spins: &mut u64, what: &str) {
    *spins += 1;
    assert!(
        *spins < SPIN_LIMIT,
        "blocking {what} spun {SPIN_LIMIT} times without progress — peer gone?"
    );
    thread::yield_now();
}

/// Blocking `FM_send` on FM 1.x: retries until credits and queue space
/// admit the whole message.
pub fn fm1_send<D: NetDevice>(fm: &mut Fm1Engine<D>, dst: usize, handler: HandlerId, data: &[u8]) {
    let mut spins = 0;
    loop {
        match fm.try_send(dst, handler, data) {
            Ok(()) => return,
            Err(WouldBlock) => {
                // Drain incoming traffic: that is what returns credits.
                fm.extract();
                spin_or_die(&mut spins, "FM_send");
            }
        }
    }
}

/// Blocking gather-send on FM 2.x.
pub fn fm2_send<D: NetDevice>(fm: &Fm2Engine<D>, dst: usize, handler: HandlerId, pieces: &[&[u8]]) {
    let mut spins = 0;
    loop {
        match fm.try_send_message(dst, handler, pieces) {
            Ok(()) => return,
            Err(WouldBlock) => {
                fm.extract_all();
                spin_or_die(&mut spins, "FM_send_piece");
            }
        }
    }
}

/// Extract (unbounded) until `done()` turns true; yields between polls.
pub fn fm2_wait_until<D: NetDevice>(fm: &Fm2Engine<D>, mut done: impl FnMut() -> bool) {
    let mut spins = 0;
    while !done() {
        if fm.extract_all() == 0 {
            fm.progress();
            spin_or_die(&mut spins, "FM_extract wait");
        }
    }
}

/// FM 1.x flavour of [`fm2_wait_until`].
pub fn fm1_wait_until<D: NetDevice>(fm: &mut Fm1Engine<D>, mut done: impl FnMut() -> bool) {
    let mut spins = 0;
    while !done() {
        if fm.extract() == 0 {
            fm.progress();
            spin_or_die(&mut spins, "FM_extract wait");
        }
    }
}

/// How long [`fm2_drain_quiet`] waits with nothing arriving: several
/// times the default retransmit timeout at full backoff (12.8 ms), so a
/// peer's retransmission still finds us.
const DRAIN_QUIET: Duration = Duration::from_millis(100);

/// Cap on [`fm2_drain_quiet`]: a vanished peer must not wedge teardown.
const DRAIN_CAP: Duration = Duration::from_secs(5);

/// Keep servicing `fm` after a node program finishes, until nothing has
/// arrived for 100 ms and nothing this node sent is unacknowledged: a
/// peer still finishing may need our credits, acks and replies to its
/// retransmissions. `progress` is the caller's progress call, run after
/// every extract — `fm.progress()`, or a layer's own (`Mpi2::progress`)
/// so the layer's deferred sends flush too. Capped at 5 s.
pub fn fm2_drain_quiet<D: NetDevice>(fm: &Fm2Engine<D>, mut progress: impl FnMut()) {
    let cap = Instant::now() + DRAIN_CAP;
    let mut quiet_since = Instant::now();
    while Instant::now() < cap {
        if fm.extract_all() > 0 {
            quiet_since = Instant::now();
        }
        progress();
        if fm.unacked_packets() == 0 && quiet_since.elapsed() >= DRAIN_QUIET {
            return;
        }
        thread::yield_now();
    }
}

/// Run one node program per device, each on its own scoped OS thread
/// named `{name}-{i}`: thread `i` runs `f(i, devices[i])`. Returns every
/// node's result in node order; a panic in any node thread propagates
/// as `"node thread panicked"`.
pub fn run_node_threads<T, F, R>(name: &str, devices: Vec<T>, f: F) -> Vec<R>
where
    T: Send,
    F: Fn(usize, T) -> R + Send + Sync,
    R: Send,
{
    let f = &f;
    thread::scope(|scope| {
        let handles: Vec<_> = devices
            .into_iter()
            .enumerate()
            .map(|(i, dev)| {
                thread::Builder::new()
                    .name(format!("{name}-{i}"))
                    .spawn_scoped(scope, move || f(i, dev))
                    .expect("spawn node thread")
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("node thread panicked"))
            .collect()
    })
}
