//! `sockets_stream_udp`: one sockets-FM connection over fm-udp on the
//! loopback interface with `Reliability::Retransmit`. The writer sends
//! log-uniform 256 B - 64 KiB writes as fast as the window allows; the
//! reader checks every byte and times each write's delivery.
//!
//! Each write starts with a 16-byte header: its index and its send time
//! as nanoseconds since the run's shared time origin. The rest is the
//! write's seeded pattern.

use std::time::{Duration, Instant};

use fm_core::{Fm2Engine, NetDevice, Reliability, RetransmitConfig};
use fm_model::MachineProfile;
use fm_udp::{UdpCluster, UdpConfig};
use sockets_fm::{SocketId, SocketStack};

use crate::common::{
    spin_until, Cfg, DoneOnDrop, Lifetime, Phase, RankMain, RankOut, Timing, OP_TIMEOUT,
};
use crate::pattern::{self, Sizes};
use crate::stats::Meter;
use crate::trace::{self, span, Counted, Layer};

const MIN_BYTES: usize = 256;
const MAX_BYTES: usize = 64 * 1024;
const HEADER: usize = 16;
/// Untimed writes before timing starts.
const WARMUP: u64 = 400;
const PORT: u16 = 7;
const SIZE_STREAM: u64 = 2;
/// Longest the writer waits for its last packets to be acknowledged.
const LINGER_CAP: Duration = Duration::from_secs(5);

fn sizes(seed: u64) -> Sizes {
    Sizes::new(seed, SIZE_STREAM, WARMUP, MIN_BYTES, MAX_BYTES)
}

pub fn run(c: &Cfg, timing: Timing, traced: bool) -> Phase {
    let l = Lifetime::new(c, timing, traced);
    let ranks = UdpCluster::run(2, UdpConfig::default(), |rank, dev| {
        l.run_rank::<Stream, _>(rank, dev, "fm-udp")
    });
    // The reader must have seen exactly the writer's writes, in order.
    let (w, r) = (&ranks[0], &ranks[1]);
    let reordered = w.checksum != r.checksum || w.sock_writes != r.sock_writes;
    let mut p = Phase::from_ranks(ranks);
    p.fm_direct_msgs = p.all.fm.messages_received;
    if reordered && !l.ctl.aborted() {
        p.all.corrupt += 1;
    }
    p
}

struct Stream;

impl RankMain for Stream {
    fn rank_main<D: NetDevice + Counted + 'static>(dev: D, rank: usize, l: &Lifetime) -> RankOut {
        let fm = Fm2Engine::with_reliability(
            dev,
            MachineProfile::ppro200_fm2(),
            Reliability::Retransmit(RetransmitConfig::default()),
        );
        let stack = SocketStack::new(fm.clone());
        let mut out = RankOut::default();
        if rank == 0 {
            let _done = DoneOnDrop(&l.ctl);
            writer(&stack, l, &mut out);
        } else {
            reader(&stack, l, &mut out);
            out.sock_buffered_hwm = stack.buffered_high_water() as u64;
        }
        out.finish(&fm);
        out
    }
}

/// `SocketStack::progress`, split so the engine calls are timed as
/// fm-core spans.
fn progress<D: NetDevice + 'static>(stack: &SocketStack<D>) {
    let fm = stack.fm();
    span(Layer::FmExtract, || {
        fm.extract_all();
        fm.progress();
    });
}

/// Order checksum over the sequence of (index, length) of the writes.
fn chain(sum: u64, k: u64, len: usize) -> u64 {
    (sum.rotate_left(7) ^ k).wrapping_mul(0x100_0000_01B3) ^ len as u64
}

fn writer<D: NetDevice + 'static>(stack: &SocketStack<D>, l: &Lifetime, out: &mut RankOut) {
    let (c, ctl) = (l.c, &l.ctl);
    let sock = stack.connect_start(1, PORT);
    if !spin_until(ctl, || {
        progress(stack);
        stack.is_established(sock)
    }) {
        out.failed += 1;
        ctl.set_abort();
        return;
    }
    let mut sizes = sizes(c.seed);
    let mut buf = vec![0u8; MAX_BYTES];
    let mut deadline: Option<Instant> = None;
    let mut k = 0u64;
    loop {
        if k == WARMUP {
            out.setup = Some(l.begin.elapsed());
            let Timing::For(d) = l.timing else { break };
            deadline = Some(Instant::now() + d);
        }
        if deadline.is_some_and(|d| Instant::now() >= d) {
            break;
        }
        let len = sizes.draw();
        let msg = &mut buf[..len];
        pattern::fill(msg, pattern::key(c.seed, k));
        trace::set_op(k);
        let t = Instant::now();
        msg[..8].copy_from_slice(&k.to_le_bytes());
        msg[8..HEADER].copy_from_slice(&((t - c.t0).as_nanos() as u64).to_le_bytes());
        let mut off = 0;
        let mut tries = 0u32;
        let ok = spin_until(ctl, || {
            let n = span(Layer::SockSend, || stack.try_send(sock, &msg[off..]));
            if tries == 0 && n < len {
                out.sock_blocked += 1;
            }
            tries += 1;
            off += n;
            if n == 0 {
                progress(stack);
            }
            off == len
        });
        out.attempted += u64::from(deadline.is_some());
        if !ok {
            out.failed += 1;
            ctl.set_abort();
            break;
        }
        out.checksum = chain(out.checksum, k, len);
        out.sock_bytes += len as u64;
        k += 1;
    }
    out.sock_writes = k;
    out.lifetime_ops = k;
    stack.close(sock);
    // Drain until every data packet is acknowledged, so the reader is
    // never left waiting on a retransmission.
    let cap = Instant::now() + LINGER_CAP;
    while stack.fm().unacked_packets() > 0 && Instant::now() < cap && !ctl.aborted() {
        progress(stack);
    }
}

fn reader<D: NetDevice + 'static>(stack: &SocketStack<D>, l: &Lifetime, out: &mut RankOut) {
    let (c, ctl) = (l.c, &l.ctl);
    stack.listen(PORT);
    let mut sock: Option<SocketId> = None;
    if !spin_until(ctl, || {
        progress(stack);
        sock = stack.try_accept(PORT);
        sock.is_some()
    }) {
        ctl.set_abort();
        return;
    }
    let sock = sock.expect("accepted");
    let mut sizes = sizes(c.seed);
    let mut buf = vec![0u8; MAX_BYTES];
    let mut meter: Option<Meter> = None;
    let mut k = 0u64;
    'writes: loop {
        let len = sizes.draw();
        let mut got = 0;
        let mut last = Instant::now();
        while got < len {
            match span(Layer::SockRecv, || stack.try_recv(sock, &mut buf[got..len])) {
                Some(0) => {
                    if got > 0 {
                        out.corrupt += 1; // the stream ended inside a write
                    }
                    break 'writes;
                }
                Some(n) => {
                    got += n;
                    last = Instant::now();
                }
                None => {
                    progress(stack);
                    if last.elapsed() > OP_TIMEOUT || ctl.aborted() {
                        out.failed += 1;
                        ctl.set_abort();
                        break 'writes;
                    }
                }
            }
        }
        let end = Instant::now();
        let msg = &buf[..len];
        let idx = u64::from_le_bytes(msg[..8].try_into().expect("8 bytes"));
        let sent_ns = u64::from_le_bytes(msg[8..HEADER].try_into().expect("8 bytes"));
        if idx != k || !pattern::matches_from(msg, pattern::key(c.seed, k), HEADER) {
            out.corrupt += 1;
        }
        let sent = c.t0 + Duration::from_nanos(sent_ns);
        if k == WARMUP {
            if let Timing::For(_) = l.timing {
                meter = Some(Meter::new(sent));
            }
        }
        if let Some(m) = &mut meter {
            m.record(
                end,
                end.saturating_duration_since(sent).as_nanos() as u64,
                len as u64,
            );
        }
        out.checksum = chain(out.checksum, k, len);
        out.sock_bytes += len as u64;
        k += 1;
    }
    out.sock_writes = k;
    // Keep acknowledging until the writer has drained.
    while !ctl.is_done() && !ctl.aborted() {
        progress(stack);
    }
    out.meter = meter.map(Meter::finish);
}
