//! One harness for every in-process wall-clock cluster, plus the
//! two-sided probes built on it.
//!
//! A [`Substrate`] spawns `n` ranks on OS threads, joins the fabric,
//! builds each rank's [`Fm2Engine`], runs a [`NodeProgram`] and drains
//! the engine before teardown. The four cases differ only in the device
//! under the engine and the engine's reliability mode:
//!
//! * [`Substrate::Threads`] — fm-threaded's in-process channel mesh;
//! * [`Substrate::Shm`] — fm-shm's mapped rings, one `/dev/shm`
//!   segment per pair;
//! * [`Substrate::Udp`] — real loopback UDP sockets;
//! * [`Substrate::Routed`] — ranks split over simulated hosts, shm
//!   within a host and loopback UDP across hosts.
//!
//! Threads and shm are lossless, so their engines run in
//! `TrustSubstrate` mode — exactly the trust FM places in Myrinet; on
//! shm the credit window is the ring depth. UDP (and therefore the
//! routed composite) really drops datagrams, so those engines run the
//! retransmission sublayer.
//!
//! Node programs are generic over the device, and [`Substrate::run`]
//! matches once per cluster, so every program is monomorphised for its
//! device: the datapath never goes through `dyn NetDevice`.
//!
//! The probes here are the wall-clock mirrors of the virtual-time probes
//! in [`crate::harness`] and share their [`LatencyDist`] /
//! [`StreamDist`] result shapes. Running one probe over two substrates
//! isolates what the device costs per message: the engine and the
//! measurement are identical, only the device under them changes.

use std::cell::{Cell, RefCell};
use std::rc::Rc;
use std::time::Instant;

use fm_core::blocking::{fm2_drain_quiet, fm2_send, fm2_wait_until, run_node_threads};
use fm_core::packet::HandlerId;
use fm_core::{Fm2Engine, FmStream, LogHistogram, NetDevice, Reliability, RetransmitConfig};
use fm_model::{MachineProfile, Nanos};
use fm_route::{HostMap, RoutedDevice};
use fm_shm::{ShmCluster, ShmConfig, ShmDevice};
use fm_threaded::ThreadedCluster;
use fm_udp::{loopback_cluster, UdpCluster, UdpConfig, DEFAULT_JOIN_TIMEOUT};

use crate::harness::{LatencyDist, StreamDist, StreamResult};

/// Shm ring depth (slots per direction) for latency and collective runs:
/// their messages are never windowed, and the small mapped footprint
/// keeps the round-trip path cache-friendly.
pub const SHM_DEPTH: u32 = 64;

/// Shm ring depth, and so credit window, for streaming runs. On a
/// time-shared machine, when sender and receiver share a core, each
/// scheduler swap drains at most one window, so the window size sets how
/// many bytes every context switch amortizes over.
pub const SHM_STREAM_DEPTH: u32 = 512;

/// The in-process clusters a [`NodeProgram`] can run on. Each case holds
/// only the configuration its callers vary.
#[derive(Debug, Clone)]
pub enum Substrate {
    /// fm-threaded's bounded channel mesh.
    Threads,
    /// fm-shm mapped rings with `slots` per direction.
    Shm {
        /// Ring depth per direction, and the engine's credit window.
        slots: u32,
    },
    /// Loopback UDP sockets.
    Udp {
        /// Socket, loss-injection and liveness settings.
        cfg: UdpConfig,
        /// The engine's retransmission sublayer.
        retransmit: RetransmitConfig,
    },
    /// Ranks placed on simulated hosts: rank `r` lives on host
    /// `hosts[r]`, same-host frames ride shm, cross-host frames UDP.
    Routed {
        /// Host id per rank.
        hosts: Vec<usize>,
        /// The engine's retransmission sublayer.
        retransmit: RetransmitConfig,
    },
}

/// A node program, run once per rank by [`Substrate::run`].
///
/// The substrate drains the engine with `fm.progress()` once `run`
/// returns. A program that layers its own deferred work on the engine
/// (MPI's pending sends, one-sided control frames) must flush it first,
/// with [`fm2_drain_quiet`] and the layer's progress call.
pub trait NodeProgram: Sync {
    /// What one rank returns.
    type Out: Send;
    /// Rank `rank`'s program over its engine.
    fn run<D: NetDevice + 'static>(&self, rank: usize, fm: &Fm2Engine<D>) -> Self::Out;
}

impl Substrate {
    /// Loopback UDP with default sockets and the fixed-constant
    /// retransmission sublayer.
    pub fn udp() -> Self {
        Substrate::Udp {
            cfg: UdpConfig::default(),
            retransmit: RetransmitConfig::default(),
        }
    }

    /// Short name for tables and assertion messages.
    pub fn name(&self) -> &'static str {
        match self {
            Substrate::Threads => "threads",
            Substrate::Shm { .. } => "shm",
            Substrate::Udp { .. } => "udp",
            Substrate::Routed { .. } => "routed",
        }
    }

    /// Run `program` on `n` ranks and return every rank's output in rank
    /// order. Panics in a rank propagate.
    pub fn run<P: NodeProgram>(&self, n: usize, program: &P) -> Vec<P::Out> {
        let profile = MachineProfile::ppro200_fm2();
        match self {
            Substrate::Threads => ThreadedCluster::run(n, |rank, dev| {
                settle(rank, Fm2Engine::new(dev, profile), program)
            }),
            Substrate::Shm { slots } => {
                let cfg = ShmConfig {
                    slots: *slots,
                    ..ShmConfig::default()
                };
                let mut profile = profile;
                profile.fm.credits_per_peer = *slots;
                ShmCluster::run(n, cfg, |rank, dev| {
                    settle(rank, Fm2Engine::new(dev, profile), program)
                })
            }
            Substrate::Udp { cfg, retransmit } => {
                let rel = Reliability::Retransmit(*retransmit);
                UdpCluster::run(n, cfg.clone(), |rank, dev| {
                    let fm = Fm2Engine::with_reliability(dev, profile, rel.clone());
                    settle(rank, fm, program)
                })
            }
            Substrate::Routed { hosts, retransmit } => {
                assert_eq!(n, hosts.len(), "one host entry per rank");
                let map = HostMap::new(hosts.clone());
                let udp = loopback_cluster(n, UdpConfig::default()).expect("bind loopback cluster");
                // Shm devices open in ascending rank order: `open` only
                // attaches downward, so this cannot deadlock.
                let shm_cfg = ShmConfig::default();
                let devices: Vec<_> = udp
                    .into_iter()
                    .enumerate()
                    .map(|(rank, udp)| {
                        let shm = ShmDevice::open(rank, n, &map.local_peers(rank), shm_cfg.clone())
                            .expect("open shm links");
                        (shm, udp)
                    })
                    .collect();
                let rel = Reliability::Retransmit(*retransmit);
                run_node_threads("fm-routed-node", devices, |rank, (mut shm, mut udp)| {
                    // Same order on every rank: no cross-fabric deadlock.
                    udp.join(DEFAULT_JOIN_TIMEOUT).expect("udp join barrier");
                    shm.join(DEFAULT_JOIN_TIMEOUT).expect("shm join barrier");
                    let dev = RoutedDevice::new(shm, udp, map.clone());
                    settle(
                        rank,
                        Fm2Engine::with_reliability(dev, profile, rel.clone()),
                        program,
                    )
                })
            }
        }
    }
}

/// The canonical mixed-locality layout: `ranks_per_host` ranks on each
/// of `num_hosts` hosts, ranks dense per host (0..k on host 0, …).
pub fn block_hosts(num_hosts: usize, ranks_per_host: usize) -> Vec<usize> {
    (0..num_hosts * ranks_per_host)
        .map(|r| r / ranks_per_host)
        .collect()
}

/// Run `program` on one rank's engine, then drain before teardown.
fn settle<D: NetDevice + 'static, P: NodeProgram>(
    rank: usize,
    fm: Fm2Engine<D>,
    program: &P,
) -> P::Out {
    let out = program.run(rank, &fm);
    fm2_drain_quiet(&fm, || {
        fm.progress();
    });
    out
}

const PING: HandlerId = HandlerId(1);
const PONG: HandlerId = HandlerId(2);

/// Ping-pong between ranks 0 and 1: an untimed warm-up, then `rounds`
/// timed round trips.
struct PingPong {
    size: usize,
    warmup: usize,
    rounds: usize,
}

impl NodeProgram for PingPong {
    type Out = Option<LatencyDist>;

    fn run<D: NetDevice + 'static>(&self, rank: usize, fm: &Fm2Engine<D>) -> Option<LatencyDist> {
        let total = self.warmup + self.rounds;
        if rank == 1 {
            let echoed: Rc<Cell<usize>> = Rc::default();
            {
                let echoed = Rc::clone(&echoed);
                // A weak handle: a strong clone inside the engine's own
                // handler table would cycle and never drop the device.
                let fm_h = fm.handle();
                fm.set_handler(PING, move |stream: FmStream, src| {
                    let echoed = Rc::clone(&echoed);
                    let fm = fm_h.clone();
                    async move {
                        let msg = stream.receive_vec(stream.msg_len()).await;
                        fm.send_from_handler(src, PONG, msg);
                        echoed.set(echoed.get() + 1);
                    }
                });
            }
            fm2_wait_until(fm, || echoed.get() == total);
            return None;
        }
        let pongs: Rc<Cell<usize>> = Rc::default();
        {
            let pongs = Rc::clone(&pongs);
            fm.set_handler(PONG, move |stream: FmStream, _| {
                let pongs = Rc::clone(&pongs);
                async move {
                    stream.skip(stream.msg_len()).await;
                    pongs.set(pongs.get() + 1);
                }
            });
        }
        let data = vec![7u8; self.size];
        for round in 0..self.warmup {
            fm2_send(fm, 1, PING, &[&data]);
            fm2_wait_until(fm, || pongs.get() == round + 1);
        }
        let mut one_way_ns = LogHistogram::new();
        let started = Instant::now();
        for round in self.warmup..total {
            let t0 = Instant::now();
            fm2_send(fm, 1, PING, &[&data]);
            fm2_wait_until(fm, || pongs.get() == round + 1);
            one_way_ns.record(t0.elapsed().as_nanos() as u64 / 2);
        }
        let mean = Nanos(started.elapsed().as_nanos() as u64 / (2 * self.rounds as u64));
        Some(LatencyDist { mean, one_way_ns })
    }
}

/// One-way latency on `sub`: half the measured wall-clock round trip,
/// `rounds` samples, with the per-round distribution. A 10 % warm-up
/// phase (min 16 rounds) runs untimed first: pools fill and queues reach
/// steady capacity before the clock starts, matching the steady-state
/// framing of the paper's latency figures.
pub fn latency_dist(sub: &Substrate, size: usize, rounds: usize) -> LatencyDist {
    let program = PingPong {
        size: size.max(1),
        warmup: (rounds / 10).max(16),
        rounds,
    };
    let mut out = sub.run(2, &program);
    out.swap_remove(0).expect("rank 0 returns the distribution")
}

/// Rank 0 streams `count` messages to rank 1, which times them.
struct Stream {
    size: usize,
    count: usize,
}

impl NodeProgram for Stream {
    type Out = Option<StreamDist>;

    fn run<D: NetDevice + 'static>(&self, rank: usize, fm: &Fm2Engine<D>) -> Option<StreamDist> {
        let (size, count) = (self.size, self.count);
        if rank == 0 {
            let data = vec![0xCDu8; size];
            for _ in 0..count {
                fm2_send(fm, 1, PING, &[&data]);
            }
            // Always 0 under TrustSubstrate; on a lossy substrate the
            // stream is over only once every packet is acknowledged.
            fm2_wait_until(fm, || fm.unacked_packets() == 0);
            return None;
        }
        let started = Instant::now();
        let got: Rc<Cell<usize>> = Rc::default();
        let per_msg = Rc::new(RefCell::new(LogHistogram::new()));
        let last_done = Rc::new(Cell::new(0u64));
        {
            let got = Rc::clone(&got);
            let per_msg = Rc::clone(&per_msg);
            let last_done = Rc::clone(&last_done);
            fm.set_handler(PING, move |stream: FmStream, _| {
                let got = Rc::clone(&got);
                let per_msg = Rc::clone(&per_msg);
                let last_done = Rc::clone(&last_done);
                async move {
                    let msg = stream.receive_vec(stream.msg_len()).await;
                    debug_assert_eq!(msg.len(), size);
                    let t = started.elapsed().as_nanos() as u64;
                    let gap = t - last_done.get();
                    last_done.set(t);
                    // KB/s per message from the inter-completion gap.
                    if let Some(kbps) = (size as u64 * 1_000_000).checked_div(gap) {
                        per_msg.borrow_mut().record(kbps);
                    }
                    got.set(got.get() + 1);
                }
            });
        }
        fm2_wait_until(fm, || got.get() == count);
        let elapsed = Nanos(started.elapsed().as_nanos() as u64);
        let per_message_kbps = per_msg.borrow().clone();
        Some(StreamDist {
            result: StreamResult {
                bytes: (size * count) as u64,
                elapsed,
                unexpected: 0,
                recv_copied: fm.stats().bytes_copied,
            },
            per_message_kbps,
        })
    }
}

/// Stream `count` `size`-byte messages rank 0 → rank 1 on `sub` and
/// measure delivered wall-clock bandwidth plus the per-message
/// distribution. The receiver's clock bounds the measurement; on a lossy
/// substrate the time covers retransmissions too.
pub fn stream_dist(sub: &Substrate, size: usize, count: usize) -> StreamDist {
    let program = Stream {
        size: size.max(1),
        count,
    };
    let mut out = sub.run(2, &program);
    out.swap_remove(1).expect("rank 1 returns the distribution")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn latency_probe_measures_real_time() {
        for sub in [Substrate::Shm { slots: SHM_DEPTH }, Substrate::udp()] {
            let d = latency_dist(&sub, 16, 30);
            assert_eq!(
                d.one_way_ns.count(),
                30,
                "{}: one sample per round",
                sub.name()
            );
            // Through the full stack: far under 10 ms one-way, and over
            // a microsecond once the kernel is in the path.
            let floor = if sub.name() == "udp" { 1_000 } else { 0 };
            assert!(d.mean.as_ns() > floor, "{}: mean = {}", sub.name(), d.mean);
            assert!(
                d.mean.as_ns() < 10_000_000,
                "{}: mean = {}",
                sub.name(),
                d.mean
            );
            assert!(d.one_way_ns.p99() >= d.one_way_ns.p50());
        }
    }

    #[test]
    fn stream_probe_delivers_everything() {
        for sub in [
            Substrate::Shm {
                slots: SHM_STREAM_DEPTH,
            },
            Substrate::udp(),
        ] {
            let d = stream_dist(&sub, 1024, 200);
            assert_eq!(d.result.bytes, 1024 * 200);
            assert!(d.result.bandwidth().as_mbps() > 0.0, "{}", sub.name());
            assert!(d.per_message_kbps.count() >= 100, "{}", sub.name());
        }
    }

    #[test]
    fn udp_stream_survives_injected_loss() {
        let sub = Substrate::Udp {
            cfg: UdpConfig {
                drop_outbound: 0.02,
                ..UdpConfig::default()
            },
            retransmit: RetransmitConfig::default(),
        };
        let d = stream_dist(&sub, 512, 100);
        assert_eq!(d.result.bytes, 512 * 100);
        assert!(d.result.bandwidth().as_mbps() > 0.0);
    }
}
