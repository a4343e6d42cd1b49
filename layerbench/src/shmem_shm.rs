//! `shmem_putget_shm`: shmem-FM put+quiet alternating with get over
//! fm-shm, log-uniform 64 B - 256 KiB, so sizes straddle the one-sided
//! layer's 16 KiB eager limit and large puts take the RTS/CTS/DATA/FIN
//! rendezvous. Every get reads back the region the previous put wrote
//! and must return exactly its bytes.

use std::time::Instant;

use fm_core::{Fm2Engine, NetDevice};
use fm_model::MachineProfile;
use shmem_fm::Shmem;

use crate::common::{shm_lifetime, Cfg, DoneOnDrop, Lifetime, Phase, RankMain, RankOut, Timing};
use crate::pattern::{self, Sizes};
use crate::stats::Meter;
use crate::trace::{self, span, Counted, Layer};

const MIN_BYTES: usize = 64;
const MAX_BYTES: usize = 256 * 1024;
/// Symmetric heap per PE; every put lands at offset 0.
const HEAP_BYTES: usize = MAX_BYTES;
/// Untimed operations before timing starts; half of them are puts.
const WARMUP: u64 = 400;
const SIZE_STREAM: u64 = 3;

pub fn run(c: &Cfg, timing: Timing, traced: bool) -> Phase {
    shm_lifetime::<PutGet>(c, timing, traced)
}

/// Puts issued in `ops` operations: the even-numbered ones.
pub fn puts_in(ops: u64) -> u64 {
    ops.div_ceil(2)
}

struct PutGet;

impl RankMain for PutGet {
    fn rank_main<D: NetDevice + Counted + 'static>(dev: D, rank: usize, l: &Lifetime) -> RankOut {
        let fm = Fm2Engine::new(dev, MachineProfile::ppro200_fm2());
        let sh = Shmem::new(fm.clone(), HEAP_BYTES);
        // Both heaps are registered before the first put can arrive.
        sh.barrier_all();
        let mut out = RankOut::default();
        if rank == 0 {
            let _done = DoneOnDrop(&l.ctl);
            initiator(&sh, l, &mut out);
        } else {
            // The target only serves: keep the one-sided layer moving
            // until the initiator has finished.
            while !l.ctl.is_done() {
                sh.progress();
            }
        }
        out.finish(&fm);
        out
    }
}

/// `Shmem`'s put, quiet and get block until they complete, so unlike
/// the other workloads no operation here is cut off by the 2 s timeout.
fn initiator<D: NetDevice + 'static>(sh: &Shmem<D>, l: &Lifetime, out: &mut RankOut) {
    let c = l.c;
    let mut sizes = Sizes::new(c.seed, SIZE_STREAM, puts_in(WARMUP), MIN_BYTES, MAX_BYTES);
    let mut buf = vec![0u8; MAX_BYTES];
    let mut meter: Option<(Meter, Instant)> = None;
    // Length and content key of the last put the target applied.
    let mut last = (0usize, 0u64);
    let mut k = 0u64;
    loop {
        if k == WARMUP {
            out.setup = Some(l.begin.elapsed());
            let Timing::For(d) = l.timing else { break };
            let now = Instant::now();
            meter = Some((Meter::new(now), now + d));
        }
        if let Some((_, deadline)) = &meter {
            if Instant::now() >= *deadline {
                break;
            }
        }
        let timed = meter.is_some();
        trace::set_op(k);
        let (t, len) = if k.is_multiple_of(2) {
            let len = sizes.draw();
            let key = pattern::key(c.seed, k);
            pattern::fill(&mut buf[..len], key);
            let t = Instant::now();
            span(Layer::ShmemPut, || sh.put(1, 0, &buf[..len]));
            span(Layer::ShmemQuiet, || sh.quiet());
            // A refused put leaves the region as it was, so the next get
            // must still return the put before it.
            if sh.take_put_failures().is_empty() {
                last = (len, key);
            } else {
                out.failed += u64::from(timed);
            }
            (t, len)
        } else {
            let t = Instant::now();
            let got = span(Layer::ShmemGet, || sh.get(1, 0, last.0));
            if !pattern::matches(&got, last.1) {
                out.corrupt += 1;
                out.failed += u64::from(timed);
            }
            (t, last.0)
        };
        let end = Instant::now();
        out.attempted += u64::from(timed);
        if let Some((m, _)) = &mut meter {
            m.record(end, (end - t).as_nanos() as u64, len as u64);
        }
        k += 1;
    }
    out.lifetime_ops = k;
    out.meter = meter.map(|(m, _)| m.finish());
}
