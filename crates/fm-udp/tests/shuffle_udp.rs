//! The epoch-barrier partitioned shuffle over real lossy UDP sockets.
//!
//! Four loopback-UDP ranks with 1 % injected datagram drop run the
//! streaming-dataflow scenario end to end: the reliability sublayer must
//! repair every wire loss (records and barriers alike), the runner
//! asserts per-key ordering and epoch completeness, and this test pins
//! the cross-rank conservation law — zero FM-level loss.

use fm_core::blocking::fm2_drain_quiet;
use fm_core::{Fm2Engine, Reliability, RetransmitConfig};
use fm_model::MachineProfile;
use fm_udp::{UdpCluster, UdpConfig};
use mpi_fm::{run_shuffle, Mpi, Mpi2, ShuffleSpec};

#[test]
fn shuffle_survives_one_percent_udp_drop() {
    let spec = ShuffleSpec {
        ranks: 4,
        keys: 512,
        records_per_epoch: 600,
        epochs: 5,
        payload: 32,
        seed: 0xD80B,
    };
    let cfg = UdpConfig {
        drop_outbound: 0.01,
        drop_seed: 0x5EED,
        ..UdpConfig::default()
    };
    let reports = UdpCluster::run(spec.ranks, cfg, |_, dev| {
        let fm = Fm2Engine::with_reliability(
            dev,
            MachineProfile::ppro200_fm2(),
            Reliability::Retransmit(RetransmitConfig::adaptive()),
        );
        let mut mpi = Mpi2::new(fm.clone());
        let report = run_shuffle(&mut mpi, spec);
        // A peer whose final barrier (or our ack to it) was dropped
        // needs our progress to recover.
        fm2_drain_quiet(&fm, || mpi.progress());
        let retx = mpi.fm().stats().retransmissions;
        let errors = mpi.fm().take_errors().len();
        (report, retx, errors)
    });
    let sent: u64 = reports.iter().map(|(r, _, _)| r.records_sent).sum();
    let received: u64 = reports.iter().map(|(r, _, _)| r.records_received).sum();
    let retx: u64 = reports.iter().map(|(_, x, _)| x).sum();
    let errors: usize = reports.iter().map(|(_, _, e)| e).sum();
    assert_eq!(sent, spec.total_records());
    assert_eq!(received, spec.total_records(), "FM-level loss leaked");
    assert_eq!(errors, 0, "engine surfaced protocol errors");
    assert!(retx > 0, "1% drop must force retransmissions");
    for (rank, (r, _, _)) in reports.iter().enumerate() {
        assert_eq!(r.epochs_completed, spec.epochs, "rank {rank}");
    }
}
