//! What every workload shares: the per-rank result, the result of one
//! cluster lifetime, the cross-thread stop flags, and the code that runs
//! a workload's ranks on a cluster, traced or not.

use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

use fm_core::{Fm2Engine, FmStats, NetDevice};
use fm_shm::{ShmCluster, ShmConfig};

use crate::stats::Measured;
use crate::trace::{self, Counted, DevStats, Traced, Tracer};

/// An operation that has not completed after this long counts as
/// failed and ends the run's timed phase.
pub const OP_TIMEOUT: Duration = Duration::from_secs(2);

/// Where shared-memory segments live: inside the checkout, so a run
/// writes nowhere else.
pub fn shm_dir() -> PathBuf {
    PathBuf::from(".bench_build/layerbench/shm")
}

/// Inputs common to every cluster lifetime of one run.
pub struct Cfg {
    pub seed: u64,
    /// Time origin shared by all threads (span timestamps, and the send
    /// times the stream workload carries in its payload).
    pub t0: Instant,
}

/// Flags the rank threads of one lifetime share.
#[derive(Default)]
pub struct Ctl {
    /// Set by a rank that gave up (timeout); everyone stops.
    pub abort: AtomicBool,
    /// Set by the driving rank once its side is finished and drained.
    pub done: AtomicBool,
}

impl Ctl {
    pub fn aborted(&self) -> bool {
        self.abort.load(Ordering::Relaxed)
    }

    pub fn is_done(&self) -> bool {
        self.done.load(Ordering::Relaxed)
    }

    pub fn set_abort(&self) {
        self.abort.store(true, Ordering::Relaxed);
    }

    pub fn set_done(&self) {
        self.done.store(true, Ordering::Relaxed);
    }
}

/// Marks the driving rank's side finished when dropped, also while a
/// panic unwinds, so the serving rank never waits forever.
pub struct DoneOnDrop<'a>(pub &'a Ctl);

impl Drop for DoneOnDrop<'_> {
    fn drop(&mut self) {
        self.0.set_done();
    }
}

/// When the timed phase of a lifetime runs.
#[derive(Clone, Copy)]
pub enum Timing {
    /// Bring up, warm up and tear down: a set-up measurement only.
    SetupOnly,
    /// Then time operations for this long.
    For(Duration),
}

/// What the rank threads of one cluster lifetime share.
pub struct Lifetime<'a> {
    pub c: &'a Cfg,
    pub timing: Timing,
    /// Before the cluster was opened: the start of `setup_s`.
    pub begin: Instant,
    pub ctl: Ctl,
    traced: bool,
}

/// The code one rank thread of a workload runs, on any device.
pub trait RankMain {
    fn rank_main<D: NetDevice + Counted + 'static>(dev: D, rank: usize, l: &Lifetime) -> RankOut;
}

impl<'a> Lifetime<'a> {
    /// Call this just before the cluster is opened.
    pub fn new(c: &'a Cfg, timing: Timing, traced: bool) -> Self {
        Lifetime {
            c,
            timing,
            begin: Instant::now(),
            ctl: Ctl::default(),
            traced,
        }
    }

    /// Run rank `rank` of `W` on `dev`. A traced lifetime installs a
    /// tracer on this thread and wraps the device (named `dev_name` in
    /// the spans) in [`Traced`].
    pub fn run_rank<W: RankMain, D: NetDevice + Counted + 'static>(
        &self,
        rank: usize,
        dev: D,
        dev_name: &'static str,
    ) -> RankOut {
        if self.traced {
            trace::install(rank, dev_name, self.c.t0);
            W::rank_main(Traced::new(dev), rank, self)
        } else {
            W::rank_main(dev, rank, self)
        }
    }
}

/// One lifetime of `W` on a two-rank fm-shm cluster, with its leaked
/// segments counted after teardown.
pub fn shm_lifetime<W: RankMain>(c: &Cfg, timing: Timing, traced: bool) -> Phase {
    let cfg = ShmConfig {
        dir: shm_dir(),
        ..ShmConfig::default()
    };
    let run_id = cfg.run_id.clone();
    let l = Lifetime::new(c, timing, traced);
    let ranks = ShmCluster::run(2, cfg, |rank, dev| l.run_rank::<W, _>(rank, dev, "fm-shm"));
    let mut p = Phase::from_ranks(ranks);
    p.check_segments(&run_id);
    p
}

/// What one rank thread reports.
#[derive(Default)]
pub struct RankOut {
    /// Bring-up to first timed operation (on the driving rank).
    pub setup: Option<Duration>,
    pub meter: Option<Measured>,
    pub attempted: u64,
    pub failed: u64,
    pub corrupt: u64,
    /// Operations over the whole lifetime, warm-up included: the base
    /// of the per-operation counter ratios.
    pub lifetime_ops: u64,
    pub fm: FmStats,
    pub dev: DevStats,
    pub tracer: Option<Tracer>,
    pub mpi_unexpected: u64,
    pub mpi_unexpected_hwm: u64,
    pub sock_writes: u64,
    pub sock_blocked: u64,
    pub sock_bytes: u64,
    pub sock_buffered_hwm: u64,
    pub checksum: u64,
}

impl RankOut {
    /// Fill the engine and device counters and collect the tracer; FM
    /// errors count as failed operations.
    pub fn finish<D: NetDevice + Counted>(&mut self, fm: &Fm2Engine<D>) {
        self.fm = fm.stats();
        self.dev = fm.with_device(|d| d.dev_stats());
        self.failed += fm.take_errors().len() as u64;
        self.tracer = trace::take();
    }
}

/// One cluster lifetime, both ranks folded together.
pub struct Phase {
    /// Counts and counters of both ranks added up; set-up time and
    /// meter are the driving rank's.
    pub all: RankOut,
    pub tracers: Vec<Tracer>,
    /// Messages moved where the benchmark calls the FM engine directly:
    /// the base of the engine's self time per message.
    pub fm_direct_msgs: u64,
    /// Shared-memory segments still on disk after teardown.
    pub leaked_segments: usize,
}

fn add_stats(a: &mut FmStats, b: &FmStats) {
    a.messages_sent += b.messages_sent;
    a.bytes_sent += b.bytes_sent;
    a.messages_received += b.messages_received;
    a.bytes_received += b.bytes_received;
    a.packets_sent += b.packets_sent;
    a.packets_received += b.packets_received;
    a.credit_packets_sent += b.credit_packets_sent;
    a.bytes_copied += b.bytes_copied;
    a.credit_stalls += b.credit_stalls;
    a.device_stalls += b.device_stalls;
    a.retransmissions += b.retransmissions;
    a.acks_sent += b.acks_sent;
    a.duplicates_dropped += b.duplicates_dropped;
    a.retransmit_timeouts += b.retransmit_timeouts;
    a.errors_reported += b.errors_reported;
    a.pool_hits += b.pool_hits;
    a.pool_misses += b.pool_misses;
}

impl Phase {
    pub fn from_ranks(ranks: Vec<RankOut>) -> Phase {
        let mut a = RankOut::default();
        let mut tracers = Vec::new();
        for r in ranks {
            a.setup = a.setup.or(r.setup);
            a.meter = a.meter.or(r.meter);
            a.attempted += r.attempted;
            a.failed += r.failed;
            a.corrupt += r.corrupt;
            a.lifetime_ops = a.lifetime_ops.max(r.lifetime_ops);
            add_stats(&mut a.fm, &r.fm);
            a.dev.add(&r.dev);
            tracers.extend(r.tracer);
            a.mpi_unexpected += r.mpi_unexpected;
            a.mpi_unexpected_hwm = a.mpi_unexpected_hwm.max(r.mpi_unexpected_hwm);
            a.sock_writes = a.sock_writes.max(r.sock_writes);
            a.sock_blocked += r.sock_blocked;
            a.sock_bytes = a.sock_bytes.max(r.sock_bytes);
            a.sock_buffered_hwm = a.sock_buffered_hwm.max(r.sock_buffered_hwm);
        }
        Phase {
            all: a,
            tracers,
            fm_direct_msgs: 0,
            leaked_segments: 0,
        }
    }

    /// Count shared-memory segment files of `run_id` left in the segment
    /// directory.
    pub fn check_segments(&mut self, run_id: &str) {
        let prefix = format!("fm-shm-{run_id}-");
        self.leaked_segments = std::fs::read_dir(shm_dir())
            .map(|d| {
                d.filter_map(Result::ok)
                    .filter(|e| e.file_name().to_string_lossy().starts_with(&prefix))
                    .count()
            })
            .unwrap_or(0);
    }
}

/// Call `step` until it reports completion. Returns false when the peer
/// gave up or the operation outlived [`OP_TIMEOUT`]; the caller counts
/// that as a failed operation.
pub fn spin_until(ctl: &Ctl, mut step: impl FnMut() -> bool) -> bool {
    let start = Instant::now();
    let mut spins = 0u32;
    while !step() {
        spins = spins.wrapping_add(1);
        if spins.is_multiple_of(256) && (ctl.aborted() || start.elapsed() > OP_TIMEOUT) {
            return false;
        }
    }
    true
}
