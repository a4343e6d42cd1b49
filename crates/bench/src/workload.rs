//! Workload-driven soak probes: adversarial traffic shapes from
//! [`fm_model::workload`] driven over the simulator and the wall-clock
//! substrates, with one-way latency distributions (p50/p99/p999) as the
//! result.
//!
//! Two drivers share one [`WorkloadSpec`]:
//!
//! * [`sim_workload_dist`] — an n-node lossy myrinet-sim cluster in
//!   deterministic virtual time. Same spec + same seed ⇒ bit-identical
//!   histograms, which is what the seed-sweep determinism tests pin.
//! * [`workload_dist`] — n OS threads on a [`Substrate`], typically
//!   real loopback UDP sockets with seeded datagram loss
//!   ([`lossy_udp`]); wall-clock nanoseconds.
//!
//! Every message carries a [`STAMP_BYTES`]-byte header (send timestamp +
//! per-sender sequence) so the receiving handler measures one-way latency
//! without any out-of-band channel. Receivers know exactly how many
//! messages they must see ([`WorkloadSpec::expected_inbound`]), so a run
//! that completes proves zero FM-level loss by construction — `lost` in
//! the result is the cross-check.

use std::cell::{Cell, RefCell};
use std::rc::Rc;
use std::time::{Duration, Instant};

use fm_core::blocking::{fm2_send, fm2_wait_until};
use fm_core::packet::HandlerId;
use fm_core::{
    Fm2Engine, FmStream, LogHistogram, NetDevice, Reliability, RetransmitConfig, SimDevice,
};
use fm_model::workload::{decode_stamp, encode_stamp, WorkloadSpec, STAMP_BYTES};
use fm_model::{MachineProfile, Nanos};
use fm_udp::UdpConfig;
use myrinet_sim::fault::FaultModel;
use myrinet_sim::{NodeId, Simulation, StepOutcome, Topology};

use crate::substrate::{NodeProgram, Substrate};

/// Handler id carrying workload traffic.
const WORK: HandlerId = HandlerId(41);

/// Virtual-time guard for sim soaks — generous; a wedged run dies loudly.
const SOAK_SIM_LIMIT: Nanos = Nanos(600_000_000_000); // 600 virtual seconds

/// The measured outcome of one workload run on one transport.
#[derive(Debug, Clone)]
pub struct WorkloadDist {
    /// The spec that was driven.
    pub spec: WorkloadSpec,
    /// One-way latency samples (ns), merged across every receiver.
    pub latency_ns: LogHistogram,
    /// End-to-end run time (virtual on sim, wall-clock on UDP).
    pub elapsed: Nanos,
    /// Messages delivered to handlers, summed over ranks.
    pub delivered: u64,
    /// Expected minus delivered — nonzero means FM-level loss.
    pub lost: u64,
    /// Reliability-sublayer resends, summed over ranks (loss happened on
    /// the wire and was repaired below the FM interface).
    pub retransmissions: u64,
}

fn adaptive() -> Reliability {
    Reliability::Retransmit(RetransmitConfig::adaptive())
}

/// Drive `spec` over an n-node simulated cluster with `drop_p` seeded
/// packet loss, in deterministic virtual time.
///
/// Every rank runs its schedule concurrently: send what the window
/// admits, drain what arrived, wait otherwise. A paused rank stops
/// driving its engine entirely (no extracts, no acks) until its resume
/// wake — the honest straggler. The run completes only when every rank
/// has sent its schedule, every expected message was delivered, and
/// every retransmit window has drained.
pub fn sim_workload_dist(spec: &WorkloadSpec, drop_p: f64) -> WorkloadDist {
    let n = spec.ranks;
    let profile = MachineProfile::ppro200_fm2();
    let mut sim: Simulation<fm_core::FmPacket> =
        Simulation::new(profile, Topology::single_crossbar(n));
    if drop_p > 0.0 {
        sim.set_fault_models(vec![FaultModel::Drop {
            p: drop_p,
            seed: spec.seed,
        }]);
    }
    let engines: Vec<_> = (0..n)
        .map(|i| {
            Fm2Engine::with_reliability(
                SimDevice::new(sim.host_interface(NodeId(i))),
                profile,
                adaptive(),
            )
        })
        .collect();

    let hist = Rc::new(RefCell::new(LogHistogram::new()));
    let received: Rc<Cell<u64>> = Rc::default();
    let sent_all = Rc::new(RefCell::new(vec![false; n]));
    let all_engines = Rc::new(engines.clone());
    let expected_total = spec.total_msgs();

    for (me, fm) in engines.into_iter().enumerate() {
        {
            let hist = Rc::clone(&hist);
            let received = Rc::clone(&received);
            let fm_h = fm.clone();
            fm.set_handler(WORK, move |stream: FmStream, _src| {
                let hist = Rc::clone(&hist);
                let received = Rc::clone(&received);
                let fm = fm_h.clone();
                async move {
                    let msg = stream.receive_vec(stream.msg_len()).await;
                    let (t, _seq) = decode_stamp(&msg);
                    hist.borrow_mut()
                        .record(fm.now().as_ns().saturating_sub(t).max(1));
                    received.set(received.get() + 1);
                }
            });
        }
        let sched = spec.schedule(me);
        let pause = spec.pause.filter(|p| p.rank == me);
        let mut pause_until: Option<Nanos> = None;
        let mut pause_taken = false;
        let mut sent = 0usize;
        let mut payload = vec![0u8; spec.payload.max(STAMP_BYTES)];
        let spec = *spec;
        let sent_all = Rc::clone(&sent_all);
        let received = Rc::clone(&received);
        let all_engines = Rc::clone(&all_engines);
        sim.set_program(
            NodeId(me),
            Box::new(move || {
                let now = fm.now();
                if let Some(resume) = pause_until {
                    if now < resume {
                        // Mid-pause: do not touch the engine — a straggler
                        // neither extracts nor acks. Just re-arm the alarm.
                        fm.with_device(|d| d.request_wake(resume));
                        return StepOutcome::Wait;
                    }
                    pause_until = None;
                }
                fm.extract_all();
                while sent < sched.len() {
                    if let Some(p) = pause {
                        if !pause_taken && sent == p.after_msgs {
                            pause_taken = true;
                            let resume = now + Nanos(p.dur_ns);
                            pause_until = Some(resume);
                            fm.with_device(|d| d.request_wake(resume));
                            return StepOutcome::Wait;
                        }
                    }
                    encode_stamp(&mut payload, now.as_ns(), sent as u32);
                    if fm.try_send_message(sched[sent], WORK, &[&payload]).is_ok() {
                        sent += 1;
                    } else {
                        // Window full: an ack or credit return will wake us.
                        return StepOutcome::Wait;
                    }
                }
                if !sent_all.borrow()[me] {
                    sent_all.borrow_mut()[me] = true;
                }
                let everyone =
                    sent_all.borrow().iter().all(|&d| d) && received.get() >= spec.total_msgs();
                if everyone && all_engines.iter().all(|e| e.unacked_packets() == 0) {
                    StepOutcome::Done
                } else {
                    // Own schedule done, but the exit condition polls other
                    // nodes' state: heartbeat so the check re-runs.
                    fm.with_device(|d| {
                        let at = d.now() + Nanos::from_us(50);
                        d.request_wake(at);
                    });
                    StepOutcome::Wait
                }
            }),
        );
    }

    let end = sim.run(Some(SOAK_SIM_LIMIT));
    assert!(
        sim.all_done(),
        "{} workload wedged: {}/{} delivered",
        spec.shape.name(),
        received.get(),
        expected_total
    );
    let delivered = received.get();
    let latency_ns = hist.borrow().clone();
    WorkloadDist {
        spec: *spec,
        latency_ns,
        elapsed: end,
        delivered,
        lost: expected_total - delivered,
        retransmissions: all_engines.iter().map(|e| e.stats().retransmissions).sum(),
    }
}

/// One rank of a workload run: its schedule, paced by the spec's
/// straggler pause, then wait for its expected inbound count.
struct WorkloadRank<'a> {
    spec: &'a WorkloadSpec,
    expected: Vec<u64>,
    epoch: Instant,
}

impl NodeProgram for WorkloadRank<'_> {
    type Out = (LogHistogram, u64, u64);

    fn run<D: NetDevice + 'static>(&self, me: usize, fm: &Fm2Engine<D>) -> Self::Out {
        let (spec, epoch) = (self.spec, self.epoch);
        let hist = Rc::new(RefCell::new(LogHistogram::new()));
        let got: Rc<Cell<u64>> = Rc::default();
        {
            let hist = Rc::clone(&hist);
            let got = Rc::clone(&got);
            fm.set_handler(WORK, move |stream: FmStream, _src| {
                let hist = Rc::clone(&hist);
                let got = Rc::clone(&got);
                async move {
                    let msg = stream.receive_vec(stream.msg_len()).await;
                    let (t, _seq) = decode_stamp(&msg);
                    let now = epoch.elapsed().as_nanos() as u64;
                    hist.borrow_mut().record(now.saturating_sub(t).max(1));
                    got.set(got.get() + 1);
                }
            });
        }
        let sched = spec.schedule(me);
        let mut payload = vec![0u8; spec.payload.max(STAMP_BYTES)];
        for (i, &dst) in sched.iter().enumerate() {
            if let Some(p) = spec.pause {
                if p.rank == me && p.after_msgs == i {
                    std::thread::sleep(Duration::from_nanos(p.dur_ns));
                }
            }
            encode_stamp(&mut payload, epoch.elapsed().as_nanos() as u64, i as u32);
            fm2_send(fm, dst, WORK, &[&payload]);
            fm.progress(); // keep heartbeats and retransmit timers serviced
        }
        fm2_wait_until(fm, || got.get() >= self.expected[me]);
        let local = hist.borrow().clone();
        (local, got.get(), fm.stats().retransmissions)
    }
}

/// Drive `spec` over `spec.ranks` OS threads on `sub`. Wall-clock; the
/// loss (if any) is the substrate's own — seeded datagram drops on UDP.
///
/// A paused rank genuinely sleeps — its engine sends no heartbeats and
/// acks nothing, exactly what a stalled process looks like to its peers.
pub fn workload_dist(sub: &Substrate, spec: &WorkloadSpec) -> WorkloadDist {
    let program = WorkloadRank {
        spec,
        expected: spec.expected_inbound(),
        epoch: Instant::now(),
    };
    let out = sub.run(spec.ranks, &program);
    let elapsed = Nanos(program.epoch.elapsed().as_nanos() as u64);
    let mut latency_ns = LogHistogram::new();
    let mut delivered = 0u64;
    let mut retransmissions = 0u64;
    for (h, got, retrans) in out {
        latency_ns.merge(&h);
        delivered += got;
        retransmissions += retrans;
    }
    WorkloadDist {
        spec: *spec,
        latency_ns,
        elapsed,
        delivered,
        lost: spec.total_msgs() - delivered,
        retransmissions,
    }
}

/// The UDP substrate the soak batteries run on: `drop_outbound` datagram
/// loss seeded by `seed`, under the adaptive retransmission sublayer.
pub fn lossy_udp(drop_outbound: f64, seed: u64) -> Substrate {
    Substrate::Udp {
        cfg: UdpConfig {
            drop_outbound,
            drop_seed: seed,
            ..UdpConfig::default()
        },
        retransmit: RetransmitConfig::adaptive(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fm_model::workload::{PauseSpec, Shape};

    #[test]
    fn sim_uniform_delivers_everything_under_loss() {
        let spec = WorkloadSpec::new(Shape::Uniform, 4, 200, 64, 0xBEEF);
        let d = sim_workload_dist(&spec, 0.01);
        assert_eq!(d.lost, 0);
        assert_eq!(d.delivered, 800);
        assert!(d.retransmissions > 0, "1% drop must force retransmits");
        assert_eq!(d.latency_ns.count(), 800);
        assert!(d.latency_ns.p50() <= d.latency_ns.p99());
        assert!(d.latency_ns.p99() <= d.latency_ns.p999());
    }

    #[test]
    fn sim_incast_collapses_per_message_throughput() {
        // The fan-in bottleneck: uniform spreads 1200 messages over four
        // receivers, incast funnels 900 through one. Per-message service
        // time at the bottleneck must be visibly worse.
        let uni = sim_workload_dist(&WorkloadSpec::new(Shape::Uniform, 4, 300, 64, 7), 0.0);
        let inc = sim_workload_dist(&WorkloadSpec::new(Shape::Incast, 4, 300, 64, 7), 0.0);
        assert_eq!((uni.lost, inc.lost), (0, 0));
        let uni_per_msg = uni.elapsed.as_ns() as f64 / uni.delivered as f64;
        let inc_per_msg = inc.elapsed.as_ns() as f64 / inc.delivered as f64;
        assert!(
            inc_per_msg > uni_per_msg,
            "incast {inc_per_msg:.0} ns/msg should exceed uniform {uni_per_msg:.0} ns/msg"
        );
        // And the tail must be real: p999 strictly resolvable above p50.
        assert!(inc.latency_ns.p50() < inc.latency_ns.p999());
    }

    #[test]
    fn sim_pause_stalls_and_still_completes() {
        let mut spec = WorkloadSpec::new(Shape::Uniform, 3, 150, 64, 99);
        spec.pause = Some(PauseSpec {
            rank: 1,
            after_msgs: 50,
            dur_ns: 5_000_000, // 5 virtual ms
        });
        let paused = sim_workload_dist(&spec, 0.005);
        assert_eq!(paused.lost, 0);
        let mut nopause = spec;
        nopause.pause = None;
        let clean = sim_workload_dist(&nopause, 0.005);
        assert!(
            paused.elapsed > clean.elapsed,
            "a straggler must lengthen the run ({} vs {})",
            paused.elapsed.as_ns(),
            clean.elapsed.as_ns()
        );
    }
}
