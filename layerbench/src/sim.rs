//! The simulator anchor: the exact, virtual-time end-to-end metrics
//! every run reports.
//!
//! On myrinet-sim (`ppro200_fm2` profile) a raw FM 2.x stream and an
//! MPI-FM 2.x stream carry the same seeded 16 B - 2 KiB sizes, and an
//! MPI-FM 2.x ping-pong runs over the same sizes. Virtual time makes
//! the results exact: goodput, round-trip percentiles and the paper's
//! interface efficiency (MPI goodput / FM goodput) repeat bit for bit
//! for a seed, so a protocol change that saves packets, copies or round
//! trips shows on them without noise.

use std::cell::RefCell;
use std::rc::Rc;
use std::time::Instant;

use fm_core::packet::HandlerId;
use fm_core::{Fm2Engine, FmPacket, FmStream, SimDevice};
use fm_model::{MachineProfile, Nanos};
use mpi_fm::{Mpi, Mpi2, RecvReq, SendReq};
use myrinet_sim::{NodeId, Simulation, StepOutcome, Topology};

use crate::pattern::{self, Sizes};
use crate::stats::quantile_sorted;

const MIN_BYTES: usize = 16;
const MAX_BYTES: usize = 2048;
/// Messages of each stream, and round trips of the ping-pong, per chunk.
const MSGS: usize = 2000;
/// Independent chunks: each runs its own three simulations, so queue
/// depths stay those of a 2000-message test while the seed's share of
/// the spread shrinks.
const CHUNKS: u64 = 16;
const FM_HANDLER: HandlerId = HandlerId(1);
/// Virtual-time guard: a simulation still running by then is wedged.
const SIM_LIMIT: Nanos = Nanos(60_000_000_000);
const SIZE_STREAM: u64 = 4;

/// The exact results for one seed, plus what running them cost.
pub struct Anchor {
    pub vlat_p50_us: f64,
    pub vlat_p99_us: f64,
    pub vgoodput_mbps: f64,
    pub efficiency_pct: f64,
    pub rounds: usize,
    pub corrupt: u64,
    pub failed: u64,
    /// Wall and virtual nanoseconds the three simulations took.
    pub wall_ns: u64,
    pub virt_ns: u64,
}

#[derive(Default)]
struct Tally {
    corrupt: u64,
    failed: u64,
    wall_ns: u64,
    virt_ns: u64,
}

type Shared = Rc<RefCell<Tally>>;

fn new_sim() -> Simulation<FmPacket> {
    Simulation::new(MachineProfile::ppro200_fm2(), Topology::single_crossbar(2))
}

fn engine(sim: &Simulation<FmPacket>, node: usize) -> Fm2Engine<SimDevice> {
    let dev = SimDevice::new(sim.host_interface(NodeId(node)));
    Fm2Engine::new(dev, MachineProfile::ppro200_fm2())
}

/// Run `sim` to completion and account its wall and virtual time.
/// Returns false if it wedged.
fn drive(sim: &mut Simulation<FmPacket>, t: &Shared) -> bool {
    let w = Instant::now();
    sim.run(Some(SIM_LIMIT));
    let mut t = t.borrow_mut();
    t.wall_ns += w.elapsed().as_nanos() as u64;
    t.virt_ns += sim.now().as_ns();
    sim.all_done()
}

/// Message `i` of a chunk has content key `base + i`.
fn messages(seed: u64, base: u64, sizes: &[usize]) -> Vec<Vec<u8>> {
    sizes
        .iter()
        .enumerate()
        .map(|(i, &n)| pattern::make(n, pattern::key(seed, base + i as u64)))
        .collect()
}

/// Raw FM 2.x stream node 0 -> node 1. Returns the receiver's virtual
/// completion time.
fn fm_stream(seed: u64, base: u64, sizes: &[usize], t: &Shared) -> Nanos {
    let n = sizes.len();
    let mut sim = new_sim();
    let fm_s = engine(&sim, 0);
    let fm_r = engine(&sim, 1);
    let msgs = messages(seed, base, sizes);
    {
        let fm_s = fm_s.clone();
        let mut sent = 0usize;
        sim.set_program(
            NodeId(0),
            Box::new(move || loop {
                if sent == n {
                    return StepOutcome::Done;
                }
                let send = || fm_s.try_send_message(1, FM_HANDLER, &[&msgs[sent]]);
                if send().is_err() {
                    fm_s.extract_all();
                    if send().is_err() {
                        return StepOutcome::Wait;
                    }
                }
                sent += 1;
            }),
        );
    }
    let got = Rc::new(RefCell::new(0usize));
    {
        let (got, t) = (Rc::clone(&got), Rc::clone(t));
        fm_r.set_handler(FM_HANDLER, move |stream: FmStream, src| {
            let (got, t) = (Rc::clone(&got), Rc::clone(&t));
            async move {
                let msg = stream.receive_vec(stream.msg_len()).await;
                let i = *got.borrow();
                if src != 0 || !pattern::matches(&msg, pattern::key(seed, base + i as u64)) {
                    t.borrow_mut().corrupt += 1;
                }
                *got.borrow_mut() += 1;
            }
        });
    }
    let done_at = Rc::new(RefCell::new(Nanos::ZERO));
    {
        let (got, done_at, fm_r) = (Rc::clone(&got), Rc::clone(&done_at), fm_r.clone());
        sim.set_program(
            NodeId(1),
            Box::new(move || {
                fm_r.extract_all();
                if *got.borrow() >= n {
                    *done_at.borrow_mut() = fm_r.now();
                    return StepOutcome::Done;
                }
                StepOutcome::Wait
            }),
        );
    }
    if !drive(&mut sim, t) {
        t.borrow_mut().failed += (n - *got.borrow()) as u64;
    }
    let at = *done_at.borrow();
    at
}

/// An MPI rank shared between its node program and the caller.
type Rank = Rc<RefCell<Mpi2<SimDevice>>>;

fn mpi_pair(sim: &Simulation<FmPacket>) -> (Rank, Rank) {
    let mk = |node| Rc::new(RefCell::new(Mpi2::new(engine(sim, node))));
    (mk(0), mk(1))
}

/// MPI-FM 2.x stream rank 0 -> rank 1, every receive pre-posted (the
/// standard MPI bandwidth test). Returns the receiver's virtual
/// completion time.
fn mpi_stream(seed: u64, base: u64, sizes: &[usize], t: &Shared) -> Nanos {
    let n = sizes.len();
    let mut sim = new_sim();
    let (a, b) = mpi_pair(&sim);
    {
        let mut msgs = Some(messages(seed, base, sizes));
        let mut reqs: Vec<SendReq> = Vec::with_capacity(n);
        sim.set_program(
            NodeId(0),
            Box::new(move || {
                let mut a = a.borrow_mut();
                for (i, m) in msgs.take().into_iter().flatten().enumerate() {
                    reqs.push(a.isend(1, i as u32, m));
                }
                a.progress();
                if reqs.iter().all(SendReq::is_done) {
                    StepOutcome::Done
                } else {
                    StepOutcome::Wait
                }
            }),
        );
    }
    let done_at = Rc::new(RefCell::new(Nanos::ZERO));
    let next = Rc::new(RefCell::new(0usize));
    {
        let (t, done_at, next) = (Rc::clone(t), Rc::clone(&done_at), Rc::clone(&next));
        let sizes = sizes.to_vec();
        let mut reqs: Vec<RecvReq> = Vec::new();
        sim.set_program(
            NodeId(1),
            Box::new(move || {
                let mut b = b.borrow_mut();
                if reqs.is_empty() {
                    for (i, &len) in sizes.iter().enumerate() {
                        reqs.push(b.irecv(Some(0), Some(i as u32), len));
                    }
                }
                b.progress();
                let mut i = next.borrow_mut();
                while *i < n && reqs[*i].is_done() {
                    let st = reqs[*i].status().expect("completed receive has a status");
                    let data = reqs[*i].take().unwrap_or_default();
                    let key = pattern::key(seed, base + *i as u64);
                    if st.src != 0 || st.len != sizes[*i] || !pattern::matches(&data, key) {
                        t.borrow_mut().corrupt += 1;
                    }
                    *i += 1;
                }
                if *i == n {
                    *done_at.borrow_mut() = b.fm().now();
                    StepOutcome::Done
                } else {
                    StepOutcome::Wait
                }
            }),
        );
    }
    if !drive(&mut sim, t) {
        t.borrow_mut().failed += (n - *next.borrow()) as u64;
    }
    let at = *done_at.borrow();
    at
}

/// MPI-FM 2.x ping-pong over `sizes`, one round trip outstanding.
/// Returns each round trip's virtual time in ns.
fn mpi_pingpong(seed: u64, base: u64, sizes: &[usize], t: &Shared) -> Vec<f64> {
    let n = sizes.len();
    let mut sim = new_sim();
    let (a, b) = mpi_pair(&sim);
    let rtts = Rc::new(RefCell::new(Vec::with_capacity(n)));
    {
        let (t, rtts) = (Rc::clone(t), Rc::clone(&rtts));
        let mut msgs = messages(seed, base, sizes).into_iter();
        let sizes = sizes.to_vec();
        let mut round = 0usize;
        let mut pending: Option<(RecvReq, Nanos)> = None;
        sim.set_program(
            NodeId(0),
            Box::new(move || loop {
                let mut a = a.borrow_mut();
                a.progress();
                match &pending {
                    None => {
                        let Some(m) = msgs.next() else {
                            return StepOutcome::Done;
                        };
                        let tag = round as u32;
                        let req = a.irecv(Some(1), Some(tag), sizes[round]);
                        pending = Some((req, a.fm().now()));
                        a.isend(1, tag, m);
                    }
                    Some((req, sent_at)) => {
                        if !req.is_done() {
                            return StepOutcome::Wait;
                        }
                        let st = req.status().expect("completed receive has a status");
                        let data = req.take().unwrap_or_default();
                        let key = pattern::key(seed, base + round as u64);
                        if st.src != 1 || st.len != sizes[round] || !pattern::matches(&data, key) {
                            t.borrow_mut().corrupt += 1;
                        }
                        rtts.borrow_mut()
                            .push((a.fm().now() - *sent_at).as_ns() as f64);
                        pending = None;
                        round += 1;
                    }
                }
            }),
        );
    }
    {
        let sizes = sizes.to_vec();
        let mut round = 0usize;
        let mut pending: Option<RecvReq> = None;
        sim.set_program(
            NodeId(1),
            Box::new(move || loop {
                let mut b = b.borrow_mut();
                b.progress();
                match &pending {
                    None => {
                        if round == n {
                            return StepOutcome::Done;
                        }
                        pending = Some(b.irecv(Some(0), Some(round as u32), sizes[round]));
                    }
                    Some(req) => {
                        if !req.is_done() {
                            return StepOutcome::Wait;
                        }
                        let data = req.take().unwrap_or_default();
                        b.isend(0, round as u32, data);
                        pending = None;
                        round += 1;
                    }
                }
            }),
        );
    }
    if !drive(&mut sim, t) {
        t.borrow_mut().failed += (n - rtts.borrow().len()) as u64;
    }
    let v = rtts.borrow().clone();
    v
}

fn mbps(bytes: usize, at: Nanos) -> f64 {
    bytes as f64 / at.as_ns().max(1) as f64 * 1e3
}

/// The exact simulator results for `seed`.
pub fn anchor(seed: u64) -> Anchor {
    let mut rng = Sizes::new(seed, SIZE_STREAM, 0, MIN_BYTES, MAX_BYTES);
    let t: Shared = Rc::default();
    let (mut bytes, mut fm_at, mut mpi_at) = (0, Nanos::ZERO, Nanos::ZERO);
    let mut rtts = Vec::with_capacity(MSGS * CHUNKS as usize);
    for chunk in 0..CHUNKS {
        let sizes: Vec<usize> = (0..MSGS).map(|_| rng.draw()).collect();
        let base = chunk * MSGS as u64;
        bytes += sizes.iter().sum::<usize>();
        fm_at += fm_stream(seed, base, &sizes, &t);
        mpi_at += mpi_stream(seed, base, &sizes, &t);
        rtts.extend(mpi_pingpong(seed, base, &sizes, &t));
    }
    rtts.sort_by(f64::total_cmp);
    let q = |p| {
        if rtts.is_empty() {
            0.0
        } else {
            quantile_sorted(&rtts, p) / 1e3
        }
    };
    let t = t.borrow();
    Anchor {
        vlat_p50_us: q(0.5),
        vlat_p99_us: q(0.99),
        vgoodput_mbps: mbps(bytes, mpi_at),
        efficiency_pct: 100.0 * mbps(bytes, mpi_at) / mbps(bytes, fm_at),
        rounds: rtts.len(),
        corrupt: t.corrupt,
        failed: t.failed,
        wall_ns: t.wall_ns,
        virt_ns: t.virt_ns,
    }
}
