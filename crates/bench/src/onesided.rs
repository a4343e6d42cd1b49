//! One-sided put bandwidth probes: eager vs rendezvous, on every
//! substrate.
//!
//! Each probe streams `count` `size`-byte `FM_put`s from node 0 into a
//! registered arena region on node 1, keeping a small pipeline of
//! transfers outstanding so the RTS/CTS round trip amortizes, and
//! measures initiator-observed bandwidth (first put issued → last FIN
//! received). The protocol is *forced* per run — [`PutMode::Eager`]
//! staging-copies every payload regardless of size, [`PutMode::Rendezvous`]
//! takes RTS/CTS/DATA/FIN even for one byte — so the two curves cross
//! where the staging copy starts to cost more than the extra round
//! trip. The `calibrate` binary sweeps both curves and commits the
//! `*_rndv_*` headlines the CI gate watches.
//!
//! The simulator probe runs in virtual time against the modeled 1998
//! hardware; [`put_stream`] is its wall-clock mirror on any
//! [`Substrate`], exactly like the two-sided probes in
//! [`crate::substrate`].

use std::cell::Cell;
use std::rc::Rc;
use std::time::{Duration, Instant};

use fm_core::blocking::fm2_drain_quiet;
use fm_core::{Fm2Engine, NetDevice, Onesided, OnesidedConfig, OsPort, RegionHandle, SimDevice};
use fm_model::{MachineProfile, Nanos};
use myrinet_sim::{NodeId, Simulation, StepOutcome, Topology};

use crate::harness::StreamResult;
use crate::substrate::{NodeProgram, Substrate};

/// Outstanding puts kept in flight: enough to hide the RTS/CTS round
/// trips behind the previous transfers' DATA streams.
const WINDOW: usize = 8;

/// Virtual-time guard for the simulated probes.
const SIM_LIMIT: Nanos = Nanos(120_000_000_000);

/// Which protocol the probe forces for every put, regardless of size.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PutMode {
    /// Force the eager path: payload travels with the header and is
    /// staged through a receive buffer before landing in the region.
    Eager,
    /// Force RTS/CTS rendezvous: DATA segments stream straight into
    /// the registered destination, one delivery copy total.
    Rendezvous,
}

impl PutMode {
    /// Short label for tables and headline names.
    pub fn label(self) -> &'static str {
        match self {
            PutMode::Eager => "eager",
            PutMode::Rendezvous => "rndv",
        }
    }
}

/// Probe geometry shared by every substrate: a `WINDOW`-slot rotation
/// of put destinations plus one sentinel byte the sender uses to tell
/// the receiver the stream is over (the probes are one-sided — no
/// receiver-side message handler ever runs).
struct Geometry {
    arena: usize,
    sentinel_off: usize,
}

fn geometry(size: usize) -> Geometry {
    let slots = size.max(1) * WINDOW;
    Geometry {
        arena: slots + 64,
        sentinel_off: slots,
    }
}

fn mode_cfg(mode: PutMode, arena: usize) -> OnesidedConfig {
    OnesidedConfig {
        arena_bytes: arena,
        eager_max: match mode {
            PutMode::Eager => usize::MAX,
            PutMode::Rendezvous => 0,
        },
        // Wide DATA segments: the per-chunk message overhead amortizes
        // and the comparison isolates the staging copy, which is what
        // the eager/rendezvous decision is actually about.
        chunk_bytes: 64 * 1024,
    }
}

/// The whole-arena region both ends register first thing; slot 0,
/// epoch 0 on a fresh table, so the initiator can name the target's
/// region without an out-of-band handshake.
fn arena_handle() -> RegionHandle {
    RegionHandle { index: 0, epoch: 0 }
}

/// Drive the initiator side one step: drain completions, refill the
/// pipeline. Returns the number of completed puts so far.
fn pump_initiator(port: &OsPort, size: usize, count: usize, issued: &mut usize, done: &mut usize) {
    while let Some(c) = port.poll_completion() {
        assert_eq!(
            c.status,
            fm_core::OsStatus::Ok,
            "bench put failed: {:?}",
            c.status
        );
        *done += 1;
    }
    while *issued < count && *issued - *done < WINDOW {
        let off = ((*issued % WINDOW) * size) as u64;
        port.put_from(1, arena_handle(), off, arena_handle(), off as usize, size)
            .expect("bench put_from");
        *issued += 1;
    }
}

// ---------------------------------------------------------------------
// Simulator (virtual time)
// ---------------------------------------------------------------------

/// Stream `count` forced-`mode` puts of `size` bytes node 0 → node 1 on
/// the simulated cluster; bandwidth is payload bytes over the virtual
/// time at which the initiator saw the last FIN.
pub fn sim_put_stream(
    profile: MachineProfile,
    size: usize,
    count: usize,
    mode: PutMode,
) -> StreamResult {
    let geo = geometry(size);
    let mut sim = Simulation::new(profile, Topology::single_crossbar(2));

    let fm_s = Fm2Engine::new(SimDevice::new(sim.host_interface(NodeId(0))), profile);
    let mut os_s = Onesided::new(&fm_s, mode_cfg(mode, geo.arena));
    let src_h = os_s.register(0, geo.arena).expect("sender arena");
    let pattern: Vec<u8> = (0..geo.arena).map(|i| (i % 251) as u8).collect();
    os_s.port()
        .write_local(src_h, 0, &pattern)
        .expect("fill source");

    let sender_done = Rc::new(Cell::new(false));
    let done_at = Rc::new(Cell::new(Nanos::ZERO));
    let os_port_dbg = os_s.port();
    {
        let port = os_s.port();
        let fm = fm_s.clone();
        let sender_done = Rc::clone(&sender_done);
        let done_at = Rc::clone(&done_at);
        let mut issued = 0usize;
        let mut done = 0usize;
        sim.set_program(
            NodeId(0),
            Box::new(move || {
                fm.extract_all();
                os_s.progress();
                pump_initiator(&port, size, count, &mut issued, &mut done);
                // Newly issued jobs must hit the wire before sleeping —
                // `Wait` wakes on *new* activity only.
                os_s.progress();
                if done == count {
                    done_at.set(fm.now());
                    sender_done.set(true);
                    return StepOutcome::Done;
                }
                StepOutcome::Wait
            }),
        );
    }

    let fm_r = Fm2Engine::new(SimDevice::new(sim.host_interface(NodeId(1))), profile);
    let mut os_r = Onesided::new(&fm_r, mode_cfg(mode, geo.arena));
    os_r.register(0, geo.arena).expect("receiver arena");
    let copied = Rc::new(Cell::new(0u64));
    {
        let fm = fm_r.clone();
        let copied = Rc::clone(&copied);
        let sender_done = Rc::clone(&sender_done);
        sim.set_program(
            NodeId(1),
            Box::new(move || {
                fm.extract_all();
                os_r.progress();
                copied.set(fm.stats().bytes_copied);
                if sender_done.get() {
                    return StepOutcome::Done;
                }
                StepOutcome::Wait
            }),
        );
    }

    sim.run(Some(SIM_LIMIT));
    assert!(
        sender_done.get(),
        "one-sided {} stream wedged (size {size}): t={} pending={} drops={}",
        mode.label(),
        sim.now(),
        os_port_dbg.pending_ops(),
        os_port_dbg.protocol_drops(),
    );
    StreamResult {
        bytes: (size * count) as u64,
        elapsed: done_at.get(),
        unexpected: 0,
        recv_copied: copied.get(),
    }
}

// ---------------------------------------------------------------------
// Wall-clock substrates
// ---------------------------------------------------------------------

/// Shared initiator program for the threaded substrates: pipeline the
/// puts, then plant the sentinel byte so the target knows to exit.
/// Returns elapsed wall-clock nanoseconds for the `count` payload puts.
fn run_initiator<D: NetDevice>(
    fm: &Fm2Engine<D>,
    os: &mut Onesided<D>,
    size: usize,
    count: usize,
    geo: &Geometry,
) -> u64 {
    let port = os.port();
    let src_h = arena_handle();
    let pattern: Vec<u8> = (0..geo.arena).map(|i| (i % 251) as u8).collect();
    port.write_local(src_h, 0, &pattern).expect("fill source");

    let started = Instant::now();
    let mut issued = 0usize;
    let mut done = 0usize;
    let deadline = Instant::now() + Duration::from_secs(60);
    while done < count {
        fm.extract_all();
        os.progress();
        pump_initiator(&port, size, count, &mut issued, &mut done);
        assert!(
            Instant::now() < deadline,
            "one-sided stream wedged: {done}/{count} complete"
        );
        std::thread::yield_now();
    }
    let elapsed = started.elapsed().as_nanos() as u64;

    // Tell the target the stream is over: one sentinel byte it polls.
    let token = port.put(1, arena_handle(), geo.sentinel_off as u64, &[0xFF]);
    loop {
        fm.extract_all();
        os.progress();
        if let Some(c) = port.poll_completion() {
            assert_eq!(c.token, token);
            break;
        }
        assert!(Instant::now() < deadline, "sentinel put wedged");
        std::thread::yield_now();
    }
    elapsed
}

/// Shared target program: pump until the sentinel byte lands, then
/// report engine-level copied bytes (the staging-copy evidence).
fn run_target<D: NetDevice>(fm: &Fm2Engine<D>, os: &mut Onesided<D>, geo: &Geometry) -> u64 {
    let port = os.port();
    let h = arena_handle();
    let deadline = Instant::now() + Duration::from_secs(60);
    let mut sentinel = [0u8; 1];
    loop {
        fm.extract_all();
        os.progress();
        port.read_local(h, geo.sentinel_off, &mut sentinel)
            .expect("sentinel read");
        if sentinel[0] == 0xFF {
            break;
        }
        assert!(Instant::now() < deadline, "one-sided target wedged");
        std::thread::yield_now();
    }
    fm.stats().bytes_copied
}

/// Forced-`mode` put stream, rank 0 → rank 1: rank 0 returns its
/// elapsed nanoseconds, rank 1 its engine-level copied bytes.
struct PutStream {
    size: usize,
    count: usize,
    mode: PutMode,
    geo: Geometry,
}

impl NodeProgram for PutStream {
    type Out = u64;

    fn run<D: NetDevice + 'static>(&self, rank: usize, fm: &Fm2Engine<D>) -> u64 {
        let mut os = Onesided::new(fm, mode_cfg(self.mode, self.geo.arena));
        os.register(0, self.geo.arena).expect("arena");
        let r = if rank == 0 {
            run_initiator(fm, &mut os, self.size, self.count, &self.geo)
        } else {
            run_target(fm, &mut os, &self.geo)
        };
        fm2_drain_quiet(fm, || {
            os.progress();
        });
        r
    }
}

/// Wall-clock forced-`mode` put stream on `sub`. On a lossy substrate,
/// rendezvous DATA segments ride the same go-back-N machinery as every
/// other packet.
pub fn put_stream(sub: &Substrate, size: usize, count: usize, mode: PutMode) -> StreamResult {
    let program = PutStream {
        size,
        count,
        mode,
        geo: geometry(size),
    };
    let out = sub.run(2, &program);
    StreamResult {
        bytes: (size * count) as u64,
        elapsed: Nanos(out[0]),
        unexpected: 0,
        recv_copied: out[1],
    }
}

// ---------------------------------------------------------------------
// Crossover sweep
// ---------------------------------------------------------------------

/// One row of the eager/rendezvous crossover table.
#[derive(Debug, Clone, Copy)]
pub struct CrossoverRow {
    /// Put payload size in bytes.
    pub size: usize,
    /// Forced-eager delivered bandwidth.
    pub eager_mbps: f64,
    /// Forced-rendezvous delivered bandwidth.
    pub rndv_mbps: f64,
}

/// Sweep both forced modes over `sizes` with `probe` and report the
/// per-size bandwidths; the crossover is the first size where the
/// rendezvous curve wins.
pub fn put_crossover(
    probe: impl Fn(usize, usize, PutMode) -> StreamResult,
    sizes: &[usize],
    count_for: impl Fn(usize) -> usize,
) -> Vec<CrossoverRow> {
    sizes
        .iter()
        .map(|&size| {
            let n = count_for(size);
            CrossoverRow {
                size,
                eager_mbps: probe(size, n, PutMode::Eager).bandwidth().as_mbps(),
                rndv_mbps: probe(size, n, PutMode::Rendezvous).bandwidth().as_mbps(),
            }
        })
        .collect()
}

/// First swept size at which rendezvous meets or beats eager, if any.
pub fn crossover_bytes(rows: &[CrossoverRow]) -> Option<usize> {
    rows.iter()
        .find(|r| r.rndv_mbps >= r.eager_mbps)
        .map(|r| r.size)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sim_put_probe_moves_every_byte_in_both_modes() {
        let profile = MachineProfile::ppro200_fm2();
        for mode in [PutMode::Eager, PutMode::Rendezvous] {
            let r = sim_put_stream(profile, 8 * 1024, 16, mode);
            assert_eq!(r.bytes, 8 * 1024 * 16);
            assert!(r.elapsed.as_ns() > 0);
            assert!(r.bandwidth().as_mbps() > 0.0);
        }
    }

    #[test]
    fn sim_rendezvous_beats_eager_at_64k() {
        let profile = MachineProfile::ppro200_fm2();
        let eager = sim_put_stream(profile, 64 * 1024, 16, PutMode::Eager);
        let rndv = sim_put_stream(profile, 64 * 1024, 16, PutMode::Rendezvous);
        // The staging copy dominates at 64 KiB: rendezvous must win.
        assert!(
            rndv.bandwidth().as_mbps() > eager.bandwidth().as_mbps(),
            "rndv {:.2} <= eager {:.2} MB/s",
            rndv.bandwidth().as_mbps(),
            eager.bandwidth().as_mbps()
        );
        // And the receiver copies strictly less: one delivery copy per
        // message instead of staging + delivery.
        assert!(rndv.recv_copied < eager.recv_copied);
    }

    #[test]
    fn wall_clock_put_probe_measures_real_time() {
        let shm = Substrate::Shm {
            slots: crate::substrate::SHM_STREAM_DEPTH,
        };
        let r = put_stream(&shm, 16 * 1024, 16, PutMode::Rendezvous);
        assert_eq!(r.bytes, 16 * 1024 * 16);
        assert!(r.bandwidth().as_mbps() > 0.0);
        let r = put_stream(&Substrate::udp(), 4 * 1024, 16, PutMode::Eager);
        assert_eq!(r.bytes, 4 * 1024 * 16);
        assert!(r.bandwidth().as_mbps() > 0.0);
    }
}
