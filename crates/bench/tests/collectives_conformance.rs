//! Cross-transport conformance: the shared collective script on every
//! wall-clock substrate.
//!
//! `mpi_fm::testutil::ScriptRunner` is the *same* script the
//! deterministic simulator runs (`tests/collectives_faults.rs`). Here it
//! runs on 4 ranks of each [`Substrate`] — the threaded mesh, fm-shm
//! rings, real loopback UDP with injected datagram loss, and the routed
//! composite split over two simulated hosts (`[0,0,1,1]`: same-host
//! frames ride shm, cross-host frames UDP) — and every output must match
//! the pure model bit for bit, pipelined 256 KiB bcast and ring
//! allreduce included. Transports and placement may change how and where
//! bytes travel, never what the collectives compute.

use std::any::Any;

use fm_bench::{NodeProgram, Substrate, SHM_DEPTH};
use fm_core::blocking::fm2_drain_quiet;
use fm_core::{Fm2Engine, NetDevice, RetransmitConfig};
use fm_route::RoutedDevice;
use fm_shm::ShmDevice;
use fm_udp::{UdpConfig, UdpDevice};
use mpi_fm::testutil::{expected_outputs, ScriptRunner};
use mpi_fm::{Mpi, Mpi2};

const N: usize = 4;

/// What one rank reports after the script.
struct RankOut {
    outputs: Vec<String>,
    retransmissions: u64,
    errors: Vec<String>,
    /// Frames sent over (shm, udp), on the routed substrate.
    fabrics: Option<(u64, u64)>,
}

struct Script {
    large: bool,
}

impl NodeProgram for Script {
    type Out = RankOut;

    fn run<D: NetDevice + 'static>(&self, _rank: usize, fm: &Fm2Engine<D>) -> RankOut {
        let mut mpi = Mpi2::new(fm.clone());
        let outputs = ScriptRunner::run_blocking(&mut mpi, self.large);
        // A peer whose last packet (or our ack to it) was dropped needs
        // us alive to recover.
        fm2_drain_quiet(fm, || mpi.progress());
        let fabrics = fm.with_device(|d| {
            let routed = (d as &dyn Any).downcast_ref::<RoutedDevice<ShmDevice, UdpDevice>>()?;
            let s = routed.stats();
            Some((s.local_sent, s.remote_sent))
        });
        RankOut {
            outputs,
            retransmissions: fm.stats().retransmissions,
            errors: fm.take_errors().iter().map(|e| format!("{e:?}")).collect(),
            fabrics,
        }
    }
}

fn lossy_udp(drop_outbound: f64, drop_seed: u64) -> Substrate {
    Substrate::Udp {
        cfg: UdpConfig {
            drop_outbound,
            drop_seed,
            ..UdpConfig::default()
        },
        retransmit: RetransmitConfig::default(),
    }
}

fn routed() -> Substrate {
    Substrate::Routed {
        hosts: vec![0, 0, 1, 1],
        retransmit: RetransmitConfig::default(),
    }
}

/// Run the script on `sub`; every rank must match the model and report
/// no engine errors. Returns the per-rank reports.
fn conformant(sub: &Substrate, large: bool) -> Vec<RankOut> {
    let ranks = sub.run(N, &Script { large });
    for (rank, r) in ranks.iter().enumerate() {
        let leg = sub.name();
        assert_eq!(
            r.outputs,
            expected_outputs(rank, N, large),
            "{leg} rank {rank}"
        );
        assert!(
            r.errors.is_empty(),
            "{leg} rank {rank} engine errors: {:?}",
            r.errors
        );
    }
    ranks
}

fn outputs(ranks: &[RankOut]) -> Vec<&[String]> {
    ranks.iter().map(|r| r.outputs.as_slice()).collect()
}

#[test]
fn large_script_matches_model_on_every_substrate() {
    let legs = [
        Substrate::Threads,
        Substrate::Shm { slots: SHM_DEPTH },
        lossy_udp(0.01, 0xBEEF),
        routed(),
    ];
    let runs: Vec<_> = legs.iter().map(|sub| conformant(sub, true)).collect();
    // 1 % drop over a 256 KiB-heavy script virtually guarantees the
    // reliability layer actually worked for its living.
    let retx: u64 = runs[2].iter().map(|r| r.retransmissions).sum();
    assert!(retx > 0, "expected injected loss to force retransmits");
    // The flat schedules talk to both neighbors and both strangers, so
    // every routed rank must genuinely have used both fabrics — proof
    // the match wasn't all-UDP in disguise.
    for (rank, r) in runs[3].iter().enumerate() {
        let (shm, udp) = r.fabrics.expect("routed ranks report fabric use");
        assert!(shm > 0, "routed rank {rank} sent nothing over shm");
        assert!(udp > 0, "routed rank {rank} sent nothing over UDP");
    }
    for (sub, run) in legs.iter().zip(&runs).skip(1) {
        assert_eq!(outputs(run), outputs(&runs[0]), "{} vs threads", sub.name());
    }
}

#[test]
fn small_script_is_identical_across_loss_patterns_and_placement() {
    // The small flavor under two different loss patterns, lossless, and
    // over mixed placement: collective outcomes are independent of loss
    // and routing, so the raw outputs must agree rank for rank (pinning
    // transport-independence directly, including any formatting the
    // model comparison might normalize away).
    let seed_a = conformant(&lossy_udp(0.02, 0xA11CE), false);
    let seed_b = conformant(&lossy_udp(0.02, 0xB0B), false);
    let pure = conformant(&Substrate::udp(), false);
    let routed = conformant(&routed(), false);
    assert_eq!(
        outputs(&seed_a),
        outputs(&seed_b),
        "loss pattern changed results"
    );
    assert_eq!(
        outputs(&routed),
        outputs(&pure),
        "routed and pure-udp outputs diverged"
    );
}
