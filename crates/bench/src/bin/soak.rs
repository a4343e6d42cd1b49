//! Production soak battery: adversarial workloads and the epoch-barrier
//! shuffle at million-message scale, with SLO-grade completeness checks.
//!
//! Four legs, every one at 1 % injected loss with adaptive retransmit:
//!
//! 1. `sim` — hotspot, incast, and shuffle traffic shapes on the lossy
//!    virtual-time cluster (deterministic; the bulk of the message count).
//! 2. `udp-incast` — the fan-in shape over real loopback UDP threads.
//! 3. `udp-shuffle` — the streaming-dataflow scenario: a partitioned
//!    key shuffle with epoch barriers over MPI-FM on lossy UDP; the
//!    runner enforces per-key ordering and epoch completeness inline.
//!
//! Every leg must deliver *every* message (zero FM-level loss) or the
//! process exits nonzero. Tail latencies print as `TAIL` lines for the
//! CI gate to scrape; the final line is `SOAK OK messages=<total>`.
//!
//! `--scale smoke` shrinks the battery ~100× for a quick local check.

use std::time::Instant;

use fm_bench::{lossy_udp, sim_workload_dist, workload_dist, NodeProgram};
use fm_core::blocking::fm2_drain_quiet;
use fm_core::{Fm2Engine, NetDevice};
use fm_model::workload::{Shape, WorkloadSpec};
use mpi_fm::{run_shuffle, Mpi, Mpi2, ShuffleReport, ShuffleSpec};

const DROP: f64 = 0.01;

struct ScaleCfg {
    /// Ranks × messages for each sim shape.
    sim_ranks: usize,
    sim_msgs: usize,
    /// Ranks × messages for the UDP incast leg.
    udp_ranks: usize,
    udp_msgs: usize,
    /// The UDP epoch-shuffle leg.
    shuffle: ShuffleSpec,
}

fn scale(name: &str) -> ScaleCfg {
    match name {
        // ~1M messages total: 3 sim shapes ≈ 345k + UDP incast 45k +
        // shuffle 600k records (each one FM message, barriers on top).
        "full" => ScaleCfg {
            sim_ranks: 8,
            sim_msgs: 15_000,
            udp_ranks: 4,
            udp_msgs: 15_000,
            shuffle: ShuffleSpec {
                ranks: 4,
                keys: 1024,
                records_per_epoch: 3_000,
                epochs: 50,
                payload: 32,
                seed: 0x50AC_50AC,
            },
        },
        "smoke" => ScaleCfg {
            sim_ranks: 4,
            sim_msgs: 500,
            udp_ranks: 4,
            udp_msgs: 500,
            shuffle: ShuffleSpec {
                ranks: 4,
                keys: 128,
                records_per_epoch: 200,
                epochs: 4,
                payload: 32,
                seed: 0x50AC_50AC,
            },
        },
        _ => usage(),
    }
}

fn usage() -> ! {
    eprintln!("usage: soak [--scale full|smoke]");
    std::process::exit(2)
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut scale_name = "full".to_string();
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "--scale" => scale_name = it.next().unwrap_or_else(|| usage()).clone(),
            _ => usage(),
        }
    }
    let cfg = scale(&scale_name);
    let started = Instant::now();
    let mut total_msgs = 0u64;

    // Leg 1: adversarial shapes on the deterministic lossy sim.
    for shape in [Shape::Hotspot, Shape::Incast, Shape::Shuffle] {
        let spec = WorkloadSpec::new(shape, cfg.sim_ranks, cfg.sim_msgs, 64, 0x50AC);
        let t = Instant::now();
        let d = sim_workload_dist(&spec, DROP);
        assert_eq!(d.lost, 0, "sim {} leaked messages", shape.name());
        total_msgs += d.delivered;
        println!(
            "TAIL sim_{} p50_ns={} p99_ns={} p999_ns={} msgs={} retx={} wall_ms={}",
            shape.name(),
            d.latency_ns.p50(),
            d.latency_ns.p99(),
            d.latency_ns.p999(),
            d.delivered,
            d.retransmissions,
            t.elapsed().as_millis(),
        );
    }

    // Leg 2: incast fan-in over real loopback UDP sockets.
    {
        let spec = WorkloadSpec::new(Shape::Incast, cfg.udp_ranks, cfg.udp_msgs, 64, 0x50AD);
        let t = Instant::now();
        let d = workload_dist(&lossy_udp(DROP, spec.seed), &spec);
        assert_eq!(d.lost, 0, "udp incast leaked messages");
        assert!(d.retransmissions > 0, "1% drop must force retransmits");
        total_msgs += d.delivered;
        println!(
            "TAIL udp_incast p50_ns={} p99_ns={} p999_ns={} msgs={} retx={} wall_ms={}",
            d.latency_ns.p50(),
            d.latency_ns.p99(),
            d.latency_ns.p999(),
            d.delivered,
            d.retransmissions,
            t.elapsed().as_millis(),
        );
    }

    // Leg 3: the epoch-barrier partitioned shuffle over lossy UDP — the
    // million-message streaming-dataflow acceptance run. The runner
    // panics on any per-key ordering break or incomplete epoch.
    {
        let spec = cfg.shuffle;
        let t = Instant::now();
        let reports = lossy_udp(DROP, spec.seed).run(spec.ranks, &Shuffle(spec));
        let sent: u64 = reports.iter().map(|(r, _, _)| r.records_sent).sum();
        let received: u64 = reports.iter().map(|(r, _, _)| r.records_received).sum();
        let retx: u64 = reports.iter().map(|(_, x, _)| x).sum();
        let errors: usize = reports.iter().map(|(_, _, e)| e).sum();
        assert_eq!(sent, spec.total_records(), "shuffle under-produced");
        assert_eq!(received, spec.total_records(), "shuffle FM-level loss");
        assert_eq!(errors, 0, "shuffle surfaced engine errors");
        for (rank, (r, _, _)) in reports.iter().enumerate() {
            assert_eq!(r.epochs_completed, spec.epochs, "rank {rank} epochs");
        }
        total_msgs += received;
        println!(
            "SHUFFLE records={} epochs={} ranks={} retx={} wall_ms={}",
            received,
            spec.epochs,
            spec.ranks,
            retx,
            t.elapsed().as_millis(),
        );
    }

    println!(
        "SOAK OK messages={} wall_ms={}",
        total_msgs,
        started.elapsed().as_millis()
    );
}

/// One rank of the epoch shuffle: its report, retransmissions and
/// engine errors.
struct Shuffle(ShuffleSpec);

impl NodeProgram for Shuffle {
    type Out = (ShuffleReport, u64, usize);

    fn run<D: NetDevice + 'static>(&self, _rank: usize, fm: &Fm2Engine<D>) -> Self::Out {
        let mut mpi = Mpi2::new(fm.clone());
        let report = run_shuffle(&mut mpi, self.0);
        // A peer whose final barrier (or our ack to it) was dropped
        // needs our progress to recover.
        fm2_drain_quiet(fm, || mpi.progress());
        (report, fm.stats().retransmissions, fm.take_errors().len())
    }
}
