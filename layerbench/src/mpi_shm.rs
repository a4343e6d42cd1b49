//! `mpi_pingpong_shm`: MPI-FM 2.x isend/irecv ping-pong over fm-shm
//! rings, one round trip outstanding, log-uniform 8 B - 4 KiB (eager).

use std::time::Instant;

use fm_core::{Fm2Engine, NetDevice};
use fm_model::MachineProfile;
use mpi_fm::{Mpi, Mpi2, ANY_TAG};

use crate::common::{
    shm_lifetime, spin_until, Cfg, DoneOnDrop, Lifetime, Phase, RankMain, RankOut, Timing,
};
use crate::pattern::{self, Sizes};
use crate::stats::Meter;
use crate::trace::{self, span, Counted, Layer};

const MIN_BYTES: usize = 8;
const MAX_BYTES: usize = 4096;
/// Untimed round trips before timing starts.
const WARMUP: u64 = 500;
/// Tags cycle below the MPI user-tag limit.
const TAG_SPACE: u64 = 1 << 30;
const SIZE_STREAM: u64 = 1;

fn sizes(seed: u64) -> Sizes {
    Sizes::new(seed, SIZE_STREAM, WARMUP, MIN_BYTES, MAX_BYTES)
}

pub fn run(c: &Cfg, timing: Timing, traced: bool) -> Phase {
    shm_lifetime::<PingPong>(c, timing, traced)
}

struct PingPong;

impl RankMain for PingPong {
    fn rank_main<D: NetDevice + Counted + 'static>(dev: D, rank: usize, l: &Lifetime) -> RankOut {
        let fm = Fm2Engine::new(dev, MachineProfile::ppro200_fm2());
        let mut mpi = Mpi2::new(fm.clone());
        let mut out = RankOut::default();
        if rank == 0 {
            let _done = DoneOnDrop(&l.ctl);
            client(&mut mpi, l, &mut out);
        } else {
            server(&mut mpi, l, &mut out);
        }
        out.mpi_unexpected = mpi.unexpected_total();
        out.mpi_unexpected_hwm = mpi.unexpected_high_water() as u64;
        out.finish(&fm);
        out
    }
}

fn progress<D: NetDevice + 'static>(mpi: &mut Mpi2<D>) {
    span(Layer::MpiProgress, || mpi.progress());
}

fn client<D: NetDevice + 'static>(mpi: &mut Mpi2<D>, l: &Lifetime, out: &mut RankOut) {
    let (c, ctl) = (l.c, &l.ctl);
    let mut sizes = sizes(c.seed);
    let mut meter: Option<(Meter, Instant)> = None;
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
        let len = sizes.draw();
        let key = pattern::key(c.seed, k);
        let data = pattern::make(len, key);
        let tag = (k % TAG_SPACE) as u32;
        trace::set_op(k);
        let t = Instant::now();
        let rreq = span(Layer::MpiIrecv, || mpi.irecv(Some(1), Some(tag), len));
        let sreq = span(Layer::MpiIsend, || mpi.isend(1, tag, data));
        let ok = spin_until(ctl, || {
            let done = rreq.is_done() && sreq.is_done();
            if !done {
                progress(mpi);
            }
            done
        });
        let end = Instant::now();
        let timed = meter.is_some();
        out.attempted += u64::from(timed);
        if !ok {
            out.failed += 1;
            ctl.set_abort();
            break;
        }
        let st = rreq.status().expect("completed receive has a status");
        let echo = rreq.take().unwrap_or_default();
        if st.src != 1 || st.tag != tag || st.len != len || !pattern::matches(&echo, key) {
            out.corrupt += 1;
            out.failed += u64::from(timed);
        }
        if let Some((m, _)) = &mut meter {
            m.record(end, (end - t).as_nanos() as u64, 2 * len as u64);
        }
        k += 1;
    }
    out.lifetime_ops = k;
    out.meter = meter.map(|(m, _)| m.finish());
}

/// Echo every message back to its sender until the client is done.
fn server<D: NetDevice + 'static>(mpi: &mut Mpi2<D>, l: &Lifetime, out: &mut RankOut) {
    let (c, ctl) = (l.c, &l.ctl);
    let mut sizes = sizes(c.seed);
    let mut k = 0u64;
    let mut req = mpi.irecv(Some(0), ANY_TAG, MAX_BYTES);
    loop {
        // The client may be between operations, so wait on its done
        // flag rather than on a timeout.
        while !req.is_done() && !ctl.is_done() && !ctl.aborted() {
            progress(mpi);
        }
        if !req.is_done() {
            break;
        }
        let st = req.status().expect("completed receive has a status");
        let data = req.take().unwrap_or_default();
        let len = sizes.draw();
        let tag = (k % TAG_SPACE) as u32;
        if st.src != 0
            || st.tag != tag
            || st.len != len
            || !pattern::matches(&data, pattern::key(c.seed, k))
        {
            out.corrupt += 1;
        }
        trace::set_op(k);
        req = span(Layer::MpiIrecv, || mpi.irecv(Some(0), ANY_TAG, MAX_BYTES));
        span(Layer::MpiIsend, || mpi.isend(0, st.tag, data));
        k += 1;
    }
    out.lifetime_ops = k;
}
