//! The per-run host record, printed beside the metrics so a slow-host
//! run can be told apart from a regression.

use std::time::Instant;

pub struct Host {
    pub nproc: usize,
    pub kernel: String,
    pub cpu: String,
}

impl Host {
    pub fn probe() -> Host {
        let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
        let kernel = std::fs::read_to_string("/proc/sys/kernel/osrelease")
            .map(|s| s.trim().to_string())
            .unwrap_or_else(|_| "unknown".into());
        let cpu = std::fs::read_to_string("/proc/cpuinfo")
            .ok()
            .and_then(|s| {
                s.lines()
                    .find(|l| l.starts_with("model name"))
                    .and_then(|l| l.split(':').nth(1))
                    .map(|m| m.trim().to_string())
            })
            .unwrap_or_else(|| "unknown".into());
        Host { nproc, kernel, cpu }
    }
}

/// Iterations of the reference loop per timing.
const REF_ITERS: u64 = 20_000_000;

/// Millions of iterations per second of a fixed, memory-free integer
/// loop: the median of three timings. It tracks how fast this host's
/// CPU is running now and never scales another metric.
pub fn ref_loop_mops() -> f64 {
    let mut rates: Vec<f64> = (0..3)
        .map(|_| {
            let t = Instant::now();
            let mut x = std::hint::black_box(0x1234_5678_9ABC_DEF0u64);
            for i in 0..REF_ITERS {
                x ^= x << 13;
                x ^= x >> 7;
                x = x.wrapping_add(i);
            }
            std::hint::black_box(x);
            REF_ITERS as f64 / t.elapsed().as_secs_f64() / 1e6
        })
        .collect();
    rates.sort_by(f64::total_cmp);
    rates[1]
}

/// The process's peak resident set (`VmHWM`) in MiB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}
