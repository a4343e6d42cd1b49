//! Calibration probe: prints every headline metric next to the paper's
//! number. Used while tuning the machine profiles; kept as a quick sanity
//! command (`cargo run -p fm-bench --bin calibrate --release`).
//!
//! Flags:
//!
//! * `--transport sim|udp|shm|all` — which substrate to measure. `sim`
//!   (default) runs the virtual-time probes against the modeled 1998
//!   hardware; `udp` runs the same measurement shapes as wall-clock
//!   probes over the real loopback UDP transport (two processes' worth
//!   of stack on this machine), plus mixed-locality routed collectives;
//!   `shm` runs them over the `fm-shm` mapped-ring transport; `all`
//!   runs every substrate.
//! * `--json <path>` — additionally write machine-readable results
//!   (headline + p50/p99 per size class). With one transport the file
//!   goes exactly to `<path>`; with `--transport all`, one file per
//!   transport is written as `BENCH_<transport>.json` next to `<path>`.

use fm_bench::{
    block_hosts, coll_latency_us, crossover_bytes, fm1_latency, fm1_latency_dist, fm1_stream,
    fm2_latency, fm2_latency_dist, fm2_stream, fm2_stream_dist, latency_dist, latency_table,
    lossy_udp, mpi_latency, mpi_stream, put_crossover, put_stream, sim_allreduce_latency,
    sim_barrier_latency, sim_bcast_latency, sim_put_stream, sim_workload_dist,
    size_bandwidth_table, stream_count, stream_dist, udp_churn_dist, workload_dist, BenchReport,
    CrossoverRow, Fm1Stage, MpiBinding, Substrate, WorkloadDist, SHM_DEPTH, SHM_STREAM_DEPTH,
};
use fm_core::obs::SizeHistograms;
use fm_core::RetransmitConfig;
use fm_model::halfpower::{half_power_point, peak, BandwidthPoint};
use fm_model::workload::{Shape, WorkloadSpec};
use fm_model::MachineProfile;
use mpi_fm::BcastAlgo;

fn sweep(f: impl Fn(usize) -> BandwidthPoint, sizes: &[usize]) -> Vec<BandwidthPoint> {
    sizes.iter().map(|&s| f(s)).collect()
}

/// Run every workload shape through `run`, print the tail table, and fold
/// `<prefix>_<shape>_p99_ns` / `<prefix>_<shape>_p999_ns` headlines plus
/// one latency row per shape into the report.
fn workload_battery(
    prefix: &str,
    run: impl Fn(&WorkloadSpec) -> WorkloadDist,
    report: &mut BenchReport,
) {
    println!();
    println!("--- adversarial workloads ({prefix}, 1% loss, adaptive RTO) ---");
    println!(
        "{:>10} {:>8} {:>6} {:>12} {:>12} {:>12}",
        "shape", "msgs", "retx", "p50", "p99", "p999"
    );
    for shape in Shape::ALL {
        let spec = WorkloadSpec::new(shape, 4, 400, 64, 0x50AC + shape as u64);
        let d = run(&spec);
        assert_eq!(d.lost, 0, "{prefix} {} leaked messages", shape.name());
        let h = &d.latency_ns;
        println!(
            "{:>10} {:>8} {:>6} {:>10.2}us {:>10.2}us {:>10.2}us",
            shape.name(),
            d.delivered,
            d.retransmissions,
            h.p50() as f64 / 1000.0,
            h.p99() as f64 / 1000.0,
            h.p999() as f64 / 1000.0,
        );
        report
            .headline
            .push((format!("{prefix}_{}_p99_ns", shape.name()), h.p99() as f64));
        report.headline.push((
            format!("{prefix}_{}_p999_ns", shape.name()),
            h.p999() as f64,
        ));
        report.latency.push((
            format!("{prefix}_wl_{}", shape.name()),
            fm_model::Nanos(h.mean()),
            d.latency_ns,
        ));
    }
}

/// Payload sizes swept by the eager/rendezvous crossover table; the
/// 64 KiB point is the headline the CI gate watches.
const RNDV_SIZES: [usize; 4] = [4 * 1024, 16 * 1024, 64 * 1024, 256 * 1024];

/// Put count per crossover point: a few MB of payload, clamped so the
/// per-put RTS/CTS round trips still amortize at the small end.
fn rndv_count(size: usize) -> usize {
    ((4 << 20) / size.max(1)).clamp(8, 128)
}

/// Print the eager-vs-rendezvous table and fold the `*_put_*` / `*_rndv_*`
/// headlines into the report: the 64 KiB points of both curves always,
/// the 256 KiB rendezvous point when swept.
fn rndv_battery(prefix: &str, rows: &[CrossoverRow], report: &mut BenchReport) {
    println!();
    println!("--- one-sided put: eager vs rendezvous ({prefix}) ---");
    println!("{:>8} {:>12} {:>12}", "size", "eager", "rndv");
    for r in rows {
        println!(
            "{:>8} {:>9.2} MB/s {:>9.2} MB/s",
            r.size, r.eager_mbps, r.rndv_mbps
        );
    }
    match crossover_bytes(rows) {
        Some(b) => println!("rendezvous wins from                  {b} B"),
        None => println!("rendezvous never wins in this sweep"),
    }
    for r in rows {
        let tag = match r.size {
            65536 => "64k",
            262144 => "256k",
            _ => continue,
        };
        report
            .headline
            .push((format!("{prefix}_put_eager_{tag}_mbps"), r.eager_mbps));
        report
            .headline
            .push((format!("{prefix}_put_rndv_{tag}_mbps"), r.rndv_mbps));
    }
}

fn usage() -> ! {
    eprintln!("usage: calibrate [--transport sim|udp|shm|all] [--json <path>]");
    std::process::exit(2)
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut transport = "sim".to_string();
    let mut json: Option<String> = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "--transport" => transport = it.next().unwrap_or_else(|| usage()).clone(),
            "--json" => json = Some(it.next().unwrap_or_else(|| usage()).clone()),
            _ => usage(),
        }
    }
    let both = transport == "all";
    if !both && transport != "sim" && transport != "udp" && transport != "shm" {
        usage();
    }

    let mut reports = Vec::new();
    if both || transport == "sim" {
        reports.push(calibrate_sim());
    }
    if both || transport == "udp" {
        reports.push(calibrate_udp());
    }
    if both || transport == "shm" {
        reports.push(calibrate_shm());
    }

    if let Some(path) = json {
        for r in &reports {
            let target = if both {
                // One file per transport, next to the requested path.
                let dir = std::path::Path::new(&path)
                    .parent()
                    .filter(|p| !p.as_os_str().is_empty())
                    .map(|p| p.to_path_buf())
                    .unwrap_or_else(|| std::path::PathBuf::from("."));
                dir.join(format!("BENCH_{}.json", r.transport))
            } else {
                std::path::PathBuf::from(&path)
            };
            std::fs::write(&target, r.to_json()).expect("write JSON report");
            println!("wrote {}", target.display());
        }
    }
}

/// Virtual-time calibration on the simulated Myrinet cluster, with every
/// headline printed next to the paper's number.
fn calibrate_sim() -> BenchReport {
    let sizes: Vec<usize> = (4..=11).map(|p| 1usize << p).collect(); // 16..2048
    let sparc = MachineProfile::sparc_fm1();
    let ppro = MachineProfile::ppro200_fm2();

    let fm1: Vec<_> = sweep(
        |s| fm1_stream(sparc, Fm1Stage::Full, s, stream_count(s)).point(s),
        &sizes,
    );
    let fm2: Vec<_> = sweep(|s| fm2_stream(ppro, s, stream_count(s)).point(s), &sizes);
    let mpi1: Vec<_> = sweep(
        |s| mpi_stream(MpiBinding::OverFm1, sparc, s, stream_count(s)).point(s),
        &sizes,
    );
    let mpi2: Vec<_> = sweep(
        |s| mpi_stream(MpiBinding::OverFm2, ppro, s, stream_count(s)).point(s),
        &sizes,
    );

    println!(
        "{:>8} {:>10} {:>10} {:>10} {:>10} {:>7} {:>7}",
        "size", "FM1", "MPI1", "FM2", "MPI2", "eff1%", "eff2%"
    );
    for (i, s) in sizes.iter().enumerate() {
        println!(
            "{:>8} {:>10.2} {:>10.2} {:>10.2} {:>10.2} {:>7.1} {:>7.1}",
            s,
            fm1[i].bandwidth.as_mbps(),
            mpi1[i].bandwidth.as_mbps(),
            fm2[i].bandwidth.as_mbps(),
            mpi2[i].bandwidth.as_mbps(),
            mpi1[i].bandwidth.as_mbps() / fm1[i].bandwidth.as_mbps() * 100.0,
            mpi2[i].bandwidth.as_mbps() / fm2[i].bandwidth.as_mbps() * 100.0,
        );
    }

    println!();
    println!("metric                       paper      measured");
    println!(
        "FM1 peak BW                  17.6       {:.2} MB/s",
        peak(&fm1).as_mbps()
    );
    println!(
        "FM1 N1/2                     54         {:?} B",
        half_power_point(&fm1).map(|x| x.round())
    );
    println!(
        "FM1 latency                  14 us      {}",
        fm1_latency(sparc, 16, 100)
    );
    println!(
        "FM2 peak BW                  77         {:.2} MB/s",
        peak(&fm2).as_mbps()
    );
    println!(
        "FM2 N1/2                     <256       {:?} B",
        half_power_point(&fm2).map(|x| x.round())
    );
    println!(
        "FM2 latency                  11 us      {}",
        fm2_latency(ppro, 16, 100)
    );
    println!(
        "MPI-FM1 peak                 ~5.5(20-35%) {:.2} MB/s",
        peak(&mpi1).as_mbps()
    );
    println!(
        "MPI-FM2 peak                 70         {:.2} MB/s",
        peak(&mpi2).as_mbps()
    );
    println!(
        "MPI-FM2 latency              17 us      {}",
        mpi_latency(MpiBinding::OverFm2, ppro, 16, 100)
    );
    println!(
        "MPI-FM1 latency              (n/a)      {}",
        mpi_latency(MpiBinding::OverFm1, sparc, 16, 100)
    );

    // Latency distributions: the mean the paper quotes next to the
    // percentiles the histograms expose.
    println!();
    let l1 = fm1_latency_dist(sparc, 16, 100, None);
    let l2 = fm2_latency_dist(ppro, 16, 100, None);
    latency_table(&[
        ("FM1 16B one-way", l1.mean, &l1.one_way_ns),
        ("FM2 16B one-way", l2.mean, &l2.one_way_ns),
    ]);

    // Per-message-size delivered bandwidth distribution over the FM 2.x
    // sweep (one log2 size class per measured size).
    println!();
    let mut by_size = SizeHistograms::new();
    let mut size_classes = Vec::new();
    for &s in &sizes {
        let d = fm2_stream_dist(ppro, s, stream_count(s), None);
        by_size.merge_class(s as u64, &d.per_message_kbps);
        size_classes.push((s, d.result.bandwidth().as_mbps(), d.per_message_kbps));
    }
    size_bandwidth_table(&by_size);

    // Collectives over MPI-FM2: dissemination barrier scaling, allreduce
    // at both ends of the size spectrum, and the large-bcast algorithm
    // comparison the pipelined path is judged by.
    println!();
    println!("--- collectives (virtual time, MPI-FM2 on ppro200) ---");
    let bar: Vec<(usize, fm_model::Nanos)> = [2usize, 4, 8]
        .iter()
        .map(|&n| (n, sim_barrier_latency(ppro, n, 8)))
        .collect();
    for (n, l) in &bar {
        println!("barrier n={n:<2}                          {l}");
    }
    let ar_small = sim_allreduce_latency(ppro, 4, 16, 8);
    let ar_large = sim_allreduce_latency(ppro, 4, 256 * 1024, 3);
    println!("allreduce n=4 16B                     {ar_small}");
    println!("allreduce n=4 256KB (ring)            {ar_large}");
    let bc_flat = sim_bcast_latency(ppro, 4, 256 * 1024, BcastAlgo::Flat, 3);
    let bc_binom = sim_bcast_latency(ppro, 4, 256 * 1024, BcastAlgo::Binomial, 3);
    let bc_pipe = sim_bcast_latency(ppro, 4, 256 * 1024, BcastAlgo::Pipelined, 3);
    let bc_speedup = bc_flat.as_ns() as f64 / bc_pipe.as_ns() as f64;
    println!("bcast n=4 256KB flat                  {bc_flat}");
    println!("bcast n=4 256KB binomial              {bc_binom}");
    println!("bcast n=4 256KB chain-pipelined       {bc_pipe}");
    println!("bcast pipelined speedup vs flat       {bc_speedup:.2}x");

    let mut report = BenchReport {
        transport: "sim".into(),
        headline: vec![
            ("fm1_peak_bandwidth_mbps".into(), peak(&fm1).as_mbps()),
            ("fm2_peak_bandwidth_mbps".into(), peak(&fm2).as_mbps()),
            ("mpi1_peak_bandwidth_mbps".into(), peak(&mpi1).as_mbps()),
            ("mpi2_peak_bandwidth_mbps".into(), peak(&mpi2).as_mbps()),
            ("fm1_latency_16b_one_way_ns".into(), l1.mean.as_ns() as f64),
            ("fm2_latency_16b_one_way_ns".into(), l2.mean.as_ns() as f64),
            ("barrier_n2_ns".into(), bar[0].1.as_ns() as f64),
            ("barrier_n4_ns".into(), bar[1].1.as_ns() as f64),
            ("barrier_n8_ns".into(), bar[2].1.as_ns() as f64),
            ("allreduce_n4_16b_ns".into(), ar_small.as_ns() as f64),
            ("allreduce_n4_256k_ns".into(), ar_large.as_ns() as f64),
            ("bcast_n4_256k_flat_ns".into(), bc_flat.as_ns() as f64),
            ("bcast_n4_256k_binomial_ns".into(), bc_binom.as_ns() as f64),
            ("bcast_n4_256k_pipelined_ns".into(), bc_pipe.as_ns() as f64),
            ("bcast_n4_256k_pipeline_speedup".into(), bc_speedup),
        ],
        latency: vec![
            ("fm1_16B_one_way".into(), l1.mean, l1.one_way_ns),
            ("fm2_16B_one_way".into(), l2.mean, l2.one_way_ns),
        ],
        size_classes,
    };
    workload_battery("sim", |spec| sim_workload_dist(spec, 0.01), &mut report);
    let rows = put_crossover(
        |s, n, m| sim_put_stream(ppro, s, n, m),
        &RNDV_SIZES,
        rndv_count,
    );
    rndv_battery("sim", &rows, &mut report);
    report
}

/// Wall-clock calibration over the real loopback UDP transport: the same
/// measurement shapes, run on this machine's kernel instead of the
/// modeled NIC. No paper column — the paper never had this hardware.
fn calibrate_udp() -> BenchReport {
    let sizes: Vec<usize> = (4..=11).map(|p| 1usize << p).collect();
    println!();
    println!("--- UDP loopback (wall clock, this machine, FM2 + Retransmit) ---");
    let udp = Substrate::udp();

    let mut size_classes = Vec::new();
    let mut by_size = SizeHistograms::new();
    let mut pts = Vec::new();
    for &s in &sizes {
        let d = stream_dist(&udp, s, stream_count(s));
        by_size.merge_class(s as u64, &d.per_message_kbps);
        pts.push(d.result.point(s));
        size_classes.push((s, d.result.bandwidth().as_mbps(), d.per_message_kbps));
    }
    println!("{:>8} {:>12}", "size", "UDP-FM2");
    for (s, p) in sizes.iter().zip(&pts) {
        println!("{:>8} {:>9.2} MB/s", s, p.bandwidth.as_mbps());
    }

    let lat = latency_dist(&udp, 16, 1_000);
    println!();
    latency_table(&[("UDP-FM2 16B one-way", lat.mean, &lat.one_way_ns)]);
    println!();
    size_bandwidth_table(&by_size);

    // Collectives over the real loopback transport (4 OS processes'
    // worth of stack on this machine).
    let bar4 = coll_latency_us(&udp, 4, 64, None, false);
    let ar4 = coll_latency_us(&udp, 4, 64, Some(16), false);
    println!();
    println!("barrier n=4                        {bar4:>9.1} us");
    println!("allreduce n=4 16B                  {ar4:>9.1} us");

    // Churn recovery: kill node 1 and bring it back under a bumped
    // epoch, 8 times; how long until the stream flows to the new
    // incarnation, and what the retransmit machinery paid meanwhile.
    let churn = udp_churn_dist(8);
    let rec_p50_ms = churn.recovery_ns.p50() as f64 / 1e6;
    let rec_p99_ms = churn.recovery_ns.p99() as f64 / 1e6;
    println!();
    println!(
        "churn recovery n={} cycles        p50 {rec_p50_ms:>7.1} ms  p99 {rec_p99_ms:>7.1} ms",
        churn.cycles
    );
    println!(
        "churn retransmit storm             {} retx, {} timeouts, {} stale rejected, {} rejoins",
        churn.retransmissions, churn.retransmit_timeouts, churn.stale_rejected, churn.rejoins
    );

    // Mixed-locality routed collectives: 8 ranks as 4 per host on 2
    // simulated hosts (shm within, loopback UDP across), flat schedule
    // vs the locality-aware two-level one — same transport both runs.
    let routed = Substrate::Routed {
        hosts: block_hosts(2, 4),
        retransmit: RetransmitConfig::adaptive(),
    };
    let bar_flat = coll_latency_us(&routed, 8, 64, None, false);
    let bar_hier = coll_latency_us(&routed, 8, 64, None, true);
    let ar_flat = coll_latency_us(&routed, 8, 64, Some(16), false);
    let ar_hier = coll_latency_us(&routed, 8, 64, Some(16), true);
    println!();
    println!("--- routed collectives (8 ranks = 4/host x 2 hosts, shm + UDP) ---");
    println!("barrier n=8 flat                   {bar_flat:>9.1} us");
    println!("barrier n=8 hierarchical           {bar_hier:>9.1} us");
    println!("allreduce n=8 16B flat             {ar_flat:>9.1} us");
    println!("allreduce n=8 16B hierarchical     {ar_hier:>9.1} us");
    println!(
        "hierarchical allreduce speedup     {:>9.2}x",
        ar_flat / ar_hier
    );

    let mut report = BenchReport {
        transport: "udp".into(),
        headline: vec![
            ("udp_fm2_peak_bandwidth_mbps".into(), peak(&pts).as_mbps()),
            (
                "udp_fm2_latency_16b_one_way_ns".into(),
                lat.mean.as_ns() as f64,
            ),
            ("udp_barrier_n4_us".into(), bar4),
            ("udp_allreduce_n4_16b_us".into(), ar4),
            ("udp_churn_recovery_p50_ms".into(), rec_p50_ms),
            ("udp_churn_recovery_p99_ms".into(), rec_p99_ms),
            (
                "udp_churn_retransmissions".into(),
                churn.retransmissions as f64,
            ),
            (
                "udp_churn_retransmit_timeouts".into(),
                churn.retransmit_timeouts as f64,
            ),
            (
                "udp_churn_stale_rejected".into(),
                churn.stale_rejected as f64,
            ),
            ("udp_churn_rejoins".into(), churn.rejoins as f64),
            ("routed_barrier_flat_n8_us".into(), bar_flat),
            ("routed_barrier_hier_n8_us".into(), bar_hier),
            ("routed_allreduce_flat_n8_us".into(), ar_flat),
            ("routed_allreduce_hier_n8_us".into(), ar_hier),
            ("routed_allreduce_hier_speedup_n8".into(), ar_flat / ar_hier),
        ],
        latency: vec![("udp_fm2_16B_one_way".into(), lat.mean, lat.one_way_ns)],
        size_classes,
    };
    workload_battery(
        "udp",
        |spec| workload_dist(&lossy_udp(0.01, spec.seed), spec),
        &mut report,
    );
    // Best of three trials per crossover point — loopback wall-clock
    // samples are scheduler-noisy; the least-perturbed trial is the
    // honest estimate of the transport's capability.
    let rows = put_crossover(
        |s, n, m| {
            (0..3)
                .map(|_| put_stream(&udp, s, n, m))
                .max_by(|a, b| a.bandwidth().as_mbps().total_cmp(&b.bandwidth().as_mbps()))
                .expect("at least one trial")
        },
        &RNDV_SIZES,
        rndv_count,
    );
    rndv_battery("udp", &rows, &mut report);
    report
}

/// Wall-clock calibration over the intra-host shared-memory transport:
/// the same measurement shapes as the UDP run, but through `fm-shm`'s
/// mapped rings with the engine in `TrustSubstrate` mode — the numbers
/// isolate the stack's cost when both the kernel and the reliability
/// sublayer drop out of the per-message path.
fn calibrate_shm() -> BenchReport {
    let sizes: Vec<usize> = (4..=11).map(|p| 1usize << p).collect();
    println!();
    println!("--- shared memory (wall clock, this machine, FM2 + TrustSubstrate) ---");
    let shm = Substrate::Shm { slots: SHM_DEPTH };
    let stream_shm = Substrate::Shm {
        slots: SHM_STREAM_DEPTH,
    };

    // Each transfer is only a few MB, i.e. a few milliseconds of wall
    // clock — one scheduler preemption on a time-shared box can halve a
    // sample. Quadruple the per-trial transfer (shared memory moves it
    // in milliseconds regardless) and report the best of five trials:
    // the least-perturbed trial is the honest estimate of the
    // transport's capability.
    const TRIALS: usize = 5;
    let mut size_classes = Vec::new();
    let mut by_size = SizeHistograms::new();
    let mut pts = Vec::new();
    let mut bw_2k = 0.0;
    for &s in &sizes {
        let d = (0..TRIALS)
            .map(|_| stream_dist(&stream_shm, s, 4 * stream_count(s)))
            .max_by(|a, b| {
                a.result
                    .bandwidth()
                    .as_mbps()
                    .total_cmp(&b.result.bandwidth().as_mbps())
            })
            .expect("at least one trial");
        by_size.merge_class(s as u64, &d.per_message_kbps);
        pts.push(d.result.point(s));
        if s == 2048 {
            bw_2k = d.result.bandwidth().as_mbps();
        }
        size_classes.push((s, d.result.bandwidth().as_mbps(), d.per_message_kbps));
    }
    println!("{:>8} {:>12}", "size", "SHM-FM2");
    for (s, p) in sizes.iter().zip(&pts) {
        println!("{:>8} {:>9.2} MB/s", s, p.bandwidth.as_mbps());
    }

    let lat = (0..TRIALS)
        .map(|_| latency_dist(&shm, 16, 2_000))
        .min_by_key(|d| d.mean.as_ns())
        .expect("at least one trial");
    println!();
    latency_table(&[("SHM-FM2 16B one-way", lat.mean, &lat.one_way_ns)]);
    println!();
    size_bandwidth_table(&by_size);

    // Collectives at 2, 4, and 8 co-located processes' worth of stack.
    let ns: [usize; 3] = [2, 4, 8];
    let bar: Vec<f64> = ns
        .iter()
        .map(|&n| coll_latency_us(&shm, n, 128, None, false))
        .collect();
    let ar: Vec<f64> = ns
        .iter()
        .map(|&n| coll_latency_us(&shm, n, 128, Some(16), false))
        .collect();
    println!();
    for (i, n) in ns.iter().enumerate() {
        println!("barrier n={n}                        {:>9.1} us", bar[i]);
    }
    for (i, n) in ns.iter().enumerate() {
        println!("allreduce n={n} 16B                  {:>9.1} us", ar[i]);
    }

    let mut report = BenchReport {
        transport: "shm".into(),
        headline: vec![
            ("shm_fm2_peak_bandwidth_mbps".into(), peak(&pts).as_mbps()),
            ("shm_fm2_bandwidth_2k_mbps".into(), bw_2k),
            (
                "shm_fm2_latency_16b_one_way_ns".into(),
                lat.mean.as_ns() as f64,
            ),
            ("shm_barrier_n2_us".into(), bar[0]),
            ("shm_barrier_n4_us".into(), bar[1]),
            ("shm_barrier_n8_us".into(), bar[2]),
            ("shm_allreduce_n2_16b_us".into(), ar[0]),
            ("shm_allreduce_n4_16b_us".into(), ar[1]),
            ("shm_allreduce_n8_16b_us".into(), ar[2]),
        ],
        latency: vec![("shm_fm2_16B_one_way".into(), lat.mean, lat.one_way_ns)],
        size_classes,
    };
    // Best of three trials per crossover point — one scheduler
    // preemption on a time-shared box can halve a wall-clock sample.
    let rows = put_crossover(
        |s, n, m| {
            (0..3)
                .map(|_| put_stream(&stream_shm, s, n, m))
                .max_by(|a, b| a.bandwidth().as_mbps().total_cmp(&b.bandwidth().as_mbps()))
                .expect("at least one trial")
        },
        &RNDV_SIZES,
        rndv_count,
    );
    rndv_battery("shm", &rows, &mut report);
    report
}
