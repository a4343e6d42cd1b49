//! Collective-communication probes: virtual-time latency on the
//! simulated cluster and wall-clock latency on any [`Substrate`].
//!
//! The simulator probes drive the poll-based collective state machines
//! (`BarrierOp`, `AllreduceOp`, `BcastOp`) from per-node step programs,
//! so every node makes progress in lockstep virtual time — the numbers
//! are properties of the modeled 1998 hardware and the tree/ring
//! schedules, not of the bench machine. The wall-clock probe runs the
//! same collectives as blocking calls on OS threads and reports real
//! microseconds.

use std::rc::Rc;
use std::time::Instant;

use fm_core::blocking::fm2_drain_quiet;
use fm_core::{Fm2Engine, FmPacket, NetDevice, SimDevice};
use fm_model::{MachineProfile, Nanos};
use mpi_fm::{AllreduceOp, BarrierOp, BcastAlgo, BcastOp, Mpi, Mpi2, ReduceOp};
use myrinet_sim::{NodeId, Simulation, StepOutcome, Topology};

use crate::substrate::{NodeProgram, Substrate};

/// Virtual-time guard (the collective probes are short).
const SIM_LIMIT: Nanos = Nanos(120_000_000_000);

/// A poll step for one in-flight collective: true when complete.
type Poller = Box<dyn FnMut(&mut Mpi2<SimDevice>) -> bool>;

/// A factory producing iteration `iter`'s collective on `rank`.
type Spawn = dyn Fn(&mut Mpi2<SimDevice>, usize, usize) -> Poller;

/// Run `iters` back-to-back collectives on an `n`-node simulated
/// cluster and return the virtual end time (all nodes finished).
fn run_coll_sim(profile: MachineProfile, n: usize, iters: usize, spawn: Rc<Spawn>) -> Nanos {
    let mut sim: Simulation<FmPacket> = Simulation::new(profile, Topology::single_crossbar(n));
    for me in 0..n {
        let mut mpi = Mpi2::new(Fm2Engine::new(
            SimDevice::new(sim.host_interface(NodeId(me))),
            profile,
        ));
        let spawn = Rc::clone(&spawn);
        let mut iter = 0usize;
        let mut current: Option<Poller> = None;
        sim.set_program(
            NodeId(me),
            Box::new(move || {
                mpi.progress();
                loop {
                    match &mut current {
                        None if iter == iters => return StepOutcome::Done,
                        None => current = Some(spawn(&mut mpi, me, iter)),
                        Some(poll) => {
                            if !poll(&mut mpi) {
                                return StepOutcome::Wait;
                            }
                            current = None;
                            iter += 1;
                        }
                    }
                }
            }),
        );
    }
    let end = sim.run(Some(SIM_LIMIT));
    assert!(sim.all_done(), "collective probe wedged (n={n})");
    end
}

/// Mean virtual time per barrier over `iters` back-to-back barriers on
/// `n` simulated nodes.
pub fn sim_barrier_latency(profile: MachineProfile, n: usize, iters: usize) -> Nanos {
    let end = run_coll_sim(
        profile,
        n,
        iters,
        Rc::new(|mpi, _rank, _iter| {
            let mut op = BarrierOp::new(mpi);
            Box::new(move |m| op.poll(m))
        }),
    );
    Nanos(end.as_ns() / iters as u64)
}

/// Mean virtual time per sum-allreduce of `bytes` (multiple of 8) over
/// `iters` iterations on `n` simulated nodes.
pub fn sim_allreduce_latency(
    profile: MachineProfile,
    n: usize,
    bytes: usize,
    iters: usize,
) -> Nanos {
    assert_eq!(bytes % 8, 0, "f64 reduction payload");
    let end = run_coll_sim(
        profile,
        n,
        iters,
        Rc::new(move |mpi, rank, iter| {
            let contrib: Vec<u8> = (0..bytes / 8)
                .map(|j| ((j % 9 + 1) * (rank + 1) + iter % 3) as f64)
                .flat_map(f64::to_le_bytes)
                .collect();
            let mut op = AllreduceOp::new(mpi, &contrib, ReduceOp::SumF64);
            Box::new(move |m| op.poll(m))
        }),
    );
    Nanos(end.as_ns() / iters as u64)
}

/// Mean virtual time per `bytes`-sized broadcast from rank 0 with an
/// explicit algorithm, `iters` repetitions separated by barriers (the
/// barrier keeps iterations from overlapping; its cost is common to
/// every algorithm being compared).
pub fn sim_bcast_latency(
    profile: MachineProfile,
    n: usize,
    bytes: usize,
    algo: BcastAlgo,
    iters: usize,
) -> Nanos {
    let end = run_coll_sim(
        profile,
        n,
        iters,
        Rc::new(move |mpi, rank, iter| {
            let data = (rank == 0).then(|| vec![(iter % 251) as u8; bytes]);
            let mut bc = Some(BcastOp::with_algo(mpi, 0, data, bytes, algo));
            let mut bar: Option<BarrierOp> = None;
            Box::new(move |m| {
                if let Some(op) = &mut bc {
                    if !op.poll(m) {
                        return false;
                    }
                    let _ = op.take_result();
                    bc = None;
                    bar = Some(BarrierOp::new(m));
                }
                bar.as_mut().expect("barrier follows bcast").poll(m)
            })
        }),
    );
    Nanos(end.as_ns() / iters as u64)
}

/// Rank-wide timing program: a synchronizing barrier, then `iters`
/// back-to-back barriers or sum-allreduces.
struct CollLoop {
    iters: usize,
    allreduce_bytes: Option<usize>,
    hosts: Option<Vec<usize>>,
}

impl NodeProgram for CollLoop {
    type Out = f64;

    fn run<D: NetDevice + 'static>(&self, _rank: usize, fm: &Fm2Engine<D>) -> f64 {
        let mut mpi = Mpi2::new(fm.clone());
        mpi.set_coll_hosts(self.hosts.clone());
        mpi.barrier(); // synchronized start
        let t = Instant::now();
        for _ in 0..self.iters {
            match self.allreduce_bytes {
                None => mpi.barrier(),
                Some(bytes) => {
                    let contrib = vec![0u8; bytes]; // all-zero f64s
                    let _ = mpi.allreduce(&contrib, ReduceOp::SumF64);
                }
            }
        }
        let us = t.elapsed().as_secs_f64() * 1e6 / self.iters.max(1) as f64;
        fm2_drain_quiet(fm, || mpi.progress());
        us
    }
}

/// Wall-clock mean microseconds per collective on `n` ranks of `sub`
/// (rank 0's clock). `allreduce_bytes: None` times barriers, `Some(b)`
/// times `b`-byte sum-allreduces. `hier` selects the locality-aware
/// two-level schedules over the routed substrate's host map; flat runs
/// the placement-blind ones over the identical transport.
pub fn coll_latency_us(
    sub: &Substrate,
    n: usize,
    iters: usize,
    allreduce_bytes: Option<usize>,
    hier: bool,
) -> f64 {
    if let Some(bytes) = allreduce_bytes {
        assert_eq!(bytes % 8, 0, "f64 reduction payload");
    }
    let hosts = match sub {
        Substrate::Routed { hosts, .. } => hier.then(|| hosts.clone()),
        _ => {
            assert!(!hier, "hierarchical schedules need a host map");
            None
        }
    };
    let program = CollLoop {
        iters,
        allreduce_bytes,
        hosts,
    };
    sub.run(n, &program)[0]
}

#[cfg(test)]
mod tests {
    use super::*;

    const PPRO: fn() -> MachineProfile = MachineProfile::ppro200_fm2;

    #[test]
    fn barrier_latency_grows_with_log_node_count() {
        let l2 = sim_barrier_latency(PPRO(), 2, 8);
        let l8 = sim_barrier_latency(PPRO(), 8, 8);
        assert!(l2.as_ns() > 0);
        // 8 nodes = 3 dissemination rounds vs 1: more, but sublinear.
        assert!(l8 > l2, "{l8} vs {l2}");
        assert!(l8.as_ns() < 8 * l2.as_ns(), "{l8} vs {l2}");
    }

    #[test]
    fn small_allreduce_is_microseconds_scale() {
        let l = sim_allreduce_latency(PPRO(), 4, 16, 8);
        // Sanity band: a 16 B allreduce is a handful of small-message
        // latencies (~17 us each in the model), far under a millisecond.
        assert!(l.as_ns() > 10_000, "{l}");
        assert!(l.as_ns() < 1_000_000, "{l}");
    }

    #[test]
    fn wall_clock_probes_return_sane_microseconds() {
        // In-test clusters stay small: 4 ranks, or 2 hosts x 2 ranks.
        let routed = Substrate::Routed {
            hosts: crate::substrate::block_hosts(2, 2),
            retransmit: fm_core::RetransmitConfig::adaptive(),
        };
        let shm = Substrate::Shm {
            slots: crate::substrate::SHM_DEPTH,
        };
        for (sub, hier) in [(&shm, false), (&routed, false), (&routed, true)] {
            let bar = coll_latency_us(sub, 4, 16, None, hier);
            let ar = coll_latency_us(sub, 4, 16, Some(16), hier);
            assert!(bar > 0.0 && bar < 1e6, "{} barrier {bar} us", sub.name());
            assert!(ar > 0.0 && ar < 1e6, "{} allreduce {ar} us", sub.name());
        }
    }

    #[test]
    fn pipelined_bcast_beats_flat_by_1_5x_at_256k() {
        // The acceptance bar: the chain-pipelined broadcast must beat the
        // naive root-sends-to-all broadcast by >= 1.5x at 256 KiB on 4
        // nodes. (The binomial tree sits between the two.)
        const LEN: usize = 256 * 1024;
        let flat = sim_bcast_latency(PPRO(), 4, LEN, BcastAlgo::Flat, 3);
        let pipe = sim_bcast_latency(PPRO(), 4, LEN, BcastAlgo::Pipelined, 3);
        let speedup = flat.as_ns() as f64 / pipe.as_ns() as f64;
        assert!(
            speedup >= 1.5,
            "pipelined bcast speedup {speedup:.2}x (flat {flat}, pipelined {pipe})"
        );
    }
}
