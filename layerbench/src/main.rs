//! End-to-end and per-layer benchmark of the FM 2.x stack.
//!
//! ```text
//! layerbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! One run is one process. Each cluster has two ranks on two threads
//! while the main thread waits in `join`. Every run also computes the
//! exact myrinet-sim anchor ([`sim::anchor`]). With `--trace 0` the run sets
//! the cluster up several times (set-up time is their median), times the
//! workload for `--seconds`, and prints the end-to-end metrics. With
//! `--trace 1` it times the workload untraced for half the time, then
//! traced for the other half, and prints the per-layer metrics and the
//! tracing overhead. Every delivered byte is checked; the last line of
//! standard output is one JSON object. A corrupted delivery or a leaked
//! shared-memory segment makes the exit code nonzero.
//!
//! See README.md beside this crate for the workloads and metrics.

mod common;
mod host;
mod mpi_shm;
mod pattern;
mod shmem_shm;
mod sim;
mod sock_udp;
mod stats;
mod trace;

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::{Duration, Instant};

use common::{shm_dir, Cfg, Phase, Timing};
use trace::{ratio, Agg, Layer};

#[derive(Clone, Copy, PartialEq, Eq)]
enum Workload {
    MpiPingpongShm,
    SocketsStreamUdp,
    ShmemPutgetShm,
}

impl Workload {
    const ALL: [(&'static str, Workload); 3] = [
        ("mpi_pingpong_shm", Workload::MpiPingpongShm),
        ("sockets_stream_udp", Workload::SocketsStreamUdp),
        ("shmem_putget_shm", Workload::ShmemPutgetShm),
    ];

    fn parse(s: &str) -> Option<Workload> {
        Self::ALL.iter().find(|(n, _)| *n == s).map(|&(_, w)| w)
    }

    fn run(self, c: &Cfg, timing: Timing, traced: bool) -> Phase {
        match self {
            Workload::MpiPingpongShm => mpi_shm::run(c, timing, traced),
            Workload::SocketsStreamUdp => sock_udp::run(c, timing, traced),
            Workload::ShmemPutgetShm => shmem_shm::run(c, timing, traced),
        }
    }
}

struct Args {
    workload: Workload,
    name: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let get = |flag: &str| -> Result<&str, String> {
        argv.iter()
            .position(|a| a == flag)
            .and_then(|i| argv.get(i + 1))
            .map(String::as_str)
            .ok_or_else(|| format!("missing {flag} <value>"))
    };
    let name = get("--workload")?.to_string();
    let workload = Workload::parse(&name).ok_or_else(|| {
        let names: Vec<_> = Workload::ALL.iter().map(|(n, _)| *n).collect();
        format!("unknown workload {name:?}; one of {}", names.join(", "))
    })?;
    let seed = get("--seed")?.parse().map_err(|e| format!("--seed: {e}"))?;
    let seconds: f64 = get("--seconds")?
        .parse()
        .map_err(|e| format!("--seconds: {e}"))?;
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err("--seconds must be in (0, 600]".into());
    }
    let trace = match get("--trace")? {
        "0" => false,
        "1" => true,
        t => return Err(format!("--trace must be 0 or 1, not {t:?}")),
    };
    Ok(Args {
        workload,
        name,
        seed,
        seconds,
        trace,
    })
}

/// Timed cluster lifetimes per run; each gets an equal share of
/// `--seconds`, and the wall-clock metrics are medians across them.
const TIMED_LIFETIMES: usize = 6;
/// Set-up-only cluster lifetimes per run, besides the timed ones.
const SETUP_REPS: usize = 10;

/// Outcome accounting across every lifetime of a run.
#[derive(Default)]
struct Outcome {
    attempted: u64,
    failed: u64,
    corrupt: u64,
    leaked: usize,
}

impl Outcome {
    fn add(&mut self, p: &Phase) {
        self.attempted += p.all.attempted;
        self.failed += p.all.failed;
        self.corrupt += p.all.corrupt;
        self.leaked += p.leaked_segments;
    }
}

struct Metric {
    name: &'static str,
    value: f64,
    unit: &'static str,
}

fn m(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric { name, value, unit }
}

fn measured(p: &Phase) -> &stats::Measured {
    p.all.meter.as_ref().expect("a timed phase has a meter")
}

/// The wall-clock results of one timed lifetime.
struct Timed {
    ops_per_s: f64,
    goodput_mbps: f64,
    lat_p50_us: f64,
    lat_p99_us: f64,
}

impl Timed {
    fn of(p: &Phase) -> Timed {
        let r = measured(p);
        let q = |x| r.lat.quantile(x).unwrap_or(0.0) / 1e3;
        Timed {
            ops_per_s: r.ops_per_s,
            goodput_mbps: r.bytes_per_s / 1e6,
            lat_p50_us: q(0.5),
            lat_p99_us: q(0.99),
        }
    }
}

fn end_to_end(setups: &[f64], timed: &[Timed], a: &sim::Anchor) -> Vec<Metric> {
    let med = |f: fn(&Timed) -> f64| stats::median(&timed.iter().map(f).collect::<Vec<_>>());
    vec![
        m("setup_s", stats::median(setups), "s"),
        m("ops_per_s", med(|t| t.ops_per_s), "1/s"),
        m("goodput_mbps", med(|t| t.goodput_mbps), "MB/s"),
        m("lat_p50_us", med(|t| t.lat_p50_us), "us"),
        m("lat_p99_us", med(|t| t.lat_p99_us), "us"),
        m("rss_peak_mb", host::peak_rss_mb(), "MiB"),
        m("vlat_p50_us", a.vlat_p50_us, "us"),
        m("vlat_p99_us", a.vlat_p99_us, "us"),
        m("vgoodput_mbps", a.vgoodput_mbps, "MB/s"),
        m("mpi_efficiency_pct", a.efficiency_pct, "%"),
    ]
}

fn per_layer(
    w: Workload,
    t: &Phase,
    untraced: &Phase,
    a: &sim::Anchor,
    ref_mops: f64,
) -> Vec<Metric> {
    let agg = |l: Layer| {
        let mut s = Agg::default();
        for tr in &t.tracers {
            s.add(&tr.agg(l));
        }
        s
    };
    let eager: u64 = t.tracers.iter().map(|tr| tr.eager_puts).sum();
    let ops = t.all.lifetime_ops;
    let fm = &t.all.fm;
    let dev = &t.all.dev;
    let (send, recv, empty) = (
        agg(Layer::DevSend),
        agg(Layer::DevRecv),
        agg(Layer::DevEmpty),
    );
    let empty_ratio = ratio(empty.count, empty.count + recv.count);
    let per_k = |num, den| 1000.0 * ratio(num, den);
    // Device metrics belong to the device the workload runs on; the
    // other device reads zero.
    let on = |used: bool, v: f64| if used { v } else { 0.0 };
    let shm = matches!(w, Workload::MpiPingpongShm | Workload::ShmemPutgetShm);
    let udp = w == Workload::SocketsStreamUdp;
    let puts = shmem_shm::puts_in(ops);
    let self_of = |ls: &[Layer]| ls.iter().map(|&l| agg(l).self_ns()).sum::<u64>();
    let traced_rate = measured(t).ops_per_s;
    let plain_rate = measured(untraced).ops_per_s;
    vec![
        m("fm-shm.push_ns", on(shm, send.mean_ns()), "ns"),
        m("fm-shm.pop_ns", on(shm, recv.mean_ns()), "ns"),
        m("fm-shm.empty_poll_ratio", on(shm, empty_ratio), "ratio"),
        m(
            "fm-shm.full_per_kframe",
            on(shm, per_k(dev.full_rejections, dev.frames_sent)),
            "1/kframe",
        ),
        m(
            "fm-shm.frames_per_op",
            on(shm, ratio(dev.frames_sent, ops)),
            "frames/op",
        ),
        m("fm-udp.send_ns", on(udp, send.mean_ns()), "ns"),
        m("fm-udp.recv_ns", on(udp, recv.mean_ns()), "ns"),
        m("fm-udp.empty_poll_ratio", on(udp, empty_ratio), "ratio"),
        m(
            "fm-udp.frames_per_op",
            on(udp, ratio(dev.frames_sent, ops)),
            "frames/op",
        ),
        m(
            "fm-udp.send_retries_per_kframe",
            on(udp, per_k(dev.send_retries, dev.frames_sent)),
            "1/kframe",
        ),
        m(
            "fm-udp.acks_coalesced_per_kframe",
            on(udp, per_k(dev.acks_coalesced, dev.frames_sent)),
            "1/kframe",
        ),
        m(
            "reliable.retransmissions_per_kpkt",
            per_k(fm.retransmissions, fm.packets_sent),
            "1/kpkt",
        ),
        m(
            "reliable.rto_expiries",
            fm.retransmit_timeouts as f64,
            "count",
        ),
        m(
            "reliable.duplicates_per_kpkt",
            per_k(fm.duplicates_dropped, fm.packets_received),
            "1/kpkt",
        ),
        m(
            "reliable.acks_per_packet",
            ratio(fm.acks_sent, fm.packets_received),
            "ratio",
        ),
        m(
            "fm-core.packets_per_msg",
            ratio(fm.packets_sent, fm.messages_sent),
            "pkt/msg",
        ),
        m(
            "fm-core.credit_packets_per_msg",
            ratio(fm.credit_packets_sent, fm.messages_sent),
            "pkt/msg",
        ),
        m(
            "fm-core.copied_per_byte",
            ratio(fm.bytes_copied, fm.bytes_received),
            "ratio",
        ),
        m(
            "fm-core.credit_stalls_per_kmsg",
            per_k(fm.credit_stalls, fm.messages_sent),
            "1/kmsg",
        ),
        m(
            "fm-core.device_stalls_per_kmsg",
            per_k(fm.device_stalls, fm.messages_sent),
            "1/kmsg",
        ),
        m(
            "fm-core.pool_miss_ratio",
            ratio(fm.pool_misses, fm.pool_hits + fm.pool_misses),
            "ratio",
        ),
        m(
            "fm-core.self_ns_per_msg",
            ratio(agg(Layer::FmExtract).self_ns(), t.fm_direct_msgs),
            "ns/msg",
        ),
        m("mpi-fm.isend_ns", agg(Layer::MpiIsend).mean_ns(), "ns"),
        m(
            "mpi-fm.progress_ns_per_op",
            ratio(agg(Layer::MpiProgress).total_ns, ops),
            "ns/op",
        ),
        m(
            "mpi-fm.self_ns_per_op",
            ratio(
                self_of(&[Layer::MpiIsend, Layer::MpiIrecv, Layer::MpiProgress]),
                ops,
            ),
            "ns/op",
        ),
        m(
            "mpi-fm.unexpected_per_kmsg",
            per_k(t.all.mpi_unexpected, fm.messages_received),
            "1/kmsg",
        ),
        m(
            "mpi-fm.unexpected_hwm",
            t.all.mpi_unexpected_hwm as f64,
            "count",
        ),
        m(
            "sockets-fm.send_ns_per_kb",
            ratio(agg(Layer::SockSend).total_ns * 1024, t.all.sock_bytes),
            "ns/KiB",
        ),
        m(
            "sockets-fm.recv_ns_per_kb",
            ratio(agg(Layer::SockRecv).total_ns * 1024, t.all.sock_bytes),
            "ns/KiB",
        ),
        m(
            "sockets-fm.blocked_ratio",
            ratio(t.all.sock_blocked, t.all.sock_writes),
            "ratio",
        ),
        m(
            "sockets-fm.buffered_hwm_kb",
            t.all.sock_buffered_hwm as f64 / 1024.0,
            "KiB",
        ),
        m("shmem-fm.put_ns", agg(Layer::ShmemPut).mean_ns(), "ns"),
        m("shmem-fm.quiet_ns", agg(Layer::ShmemQuiet).mean_ns(), "ns"),
        m("shmem-fm.get_ns", agg(Layer::ShmemGet).mean_ns(), "ns"),
        m(
            "onesided.rndv_share",
            on(w == Workload::ShmemPutgetShm, 1.0 - ratio(eager, puts)),
            "ratio",
        ),
        m(
            "myrinet-sim.wall_ns_per_vus",
            ratio(a.wall_ns * 1000, a.virt_ns),
            "ns/us",
        ),
        m("host.ref_loop_mops", ref_mops, "Mop/s"),
        m(
            "trace.overhead_pct",
            100.0 * (1.0 - traced_rate / plain_rate),
            "%",
        ),
    ]
}

fn json(correct: bool, o: &Outcome, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|x| {
            let v = if x.value.is_finite() { x.value } else { 0.0 };
            format!(
                "\"{}\": {{\"value\": {v}, \"unit\": \"{}\"}}",
                x.name, x.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        o.attempted.max(1),
        o.failed,
        body.join(", ")
    )
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("layerbench: {e}");
            eprintln!("usage: layerbench --workload <name> --seed <n> --seconds <s> --trace <0|1>");
            return ExitCode::from(2);
        }
    };
    if let Err(e) = std::fs::create_dir_all(shm_dir()) {
        eprintln!("layerbench: cannot create {}: {e}", shm_dir().display());
        return ExitCode::FAILURE;
    }
    let h = host::Host::probe();
    let ref_mops = host::ref_loop_mops();
    println!(
        "# host nproc={} kernel={} cpu=\"{}\" host.ref_loop_mops={ref_mops:.1}",
        h.nproc, h.kernel, h.cpu
    );
    let c = Cfg {
        seed: args.seed,
        t0: Instant::now(),
    };
    let w = args.workload;
    let mut o = Outcome::default();
    let anchor = sim::anchor(args.seed);
    o.failed += anchor.failed;
    o.corrupt += anchor.corrupt;
    // The benchmark's own share of rss_peak_mb: the process, the
    // host probe and the anchor, before the first cluster lifetime.
    println!(
        "# rss_peak_mb before the first lifetime={:.2}",
        host::peak_rss_mb()
    );
    let metrics = if args.trace {
        let half = Duration::from_secs_f64(args.seconds / 2.0);
        let plain = w.run(&c, Timing::For(half), false);
        let traced = w.run(&c, Timing::For(half), true);
        o.add(&plain);
        o.add(&traced);
        let path = PathBuf::from(format!(
            ".bench_build/layerbench/spans-{}-s{}.json",
            args.name, args.seed
        ));
        match trace::write_chrome(&path, &traced.tracers) {
            Ok(()) => println!("# spans written to {}", path.display()),
            Err(e) => eprintln!("layerbench: writing {}: {e}", path.display()),
        }
        per_layer(w, &traced, &plain, &anchor, ref_mops)
    } else {
        let mut setups = Vec::with_capacity(SETUP_REPS + TIMED_LIFETIMES);
        for _ in 0..SETUP_REPS {
            let p = w.run(&c, Timing::SetupOnly, false);
            o.add(&p);
            setups.push(p.all.setup.unwrap_or_default().as_secs_f64());
        }
        let share = Duration::from_secs_f64(args.seconds / TIMED_LIFETIMES as f64);
        let mut timed = Vec::with_capacity(TIMED_LIFETIMES);
        for _ in 0..TIMED_LIFETIMES {
            let p = w.run(&c, Timing::For(share), false);
            o.add(&p);
            setups.push(p.all.setup.unwrap_or_default().as_secs_f64());
            let r = measured(&p);
            println!(
                "# lifetime ops={} windows={} lat_samples={} (p99 has {} above it)",
                r.ops,
                r.windows,
                r.lat.count(),
                r.lat.count() / 100
            );
            timed.push(Timed::of(&p));
        }
        println!(
            "# setups={} anchor_round_trips={}",
            setups.len(),
            anchor.rounds
        );
        end_to_end(&setups, &timed, &anchor)
    };
    let correct = o.corrupt == 0 && o.leaked == 0;
    if o.leaked > 0 {
        eprintln!(
            "layerbench: {} shared-memory segment(s) left behind",
            o.leaked
        );
    }
    if o.corrupt > 0 {
        eprintln!("layerbench: {} corrupted deliveries", o.corrupt);
    }
    println!("{}", json(correct, &o, &metrics));
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
