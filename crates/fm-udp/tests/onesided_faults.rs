//! One-sided transfers under real fault injection: seeded datagram loss
//! and a target that dies mid-rendezvous.
//!
//! The rendezvous protocol has three single-datagram control legs (RTS,
//! CTS, FIN) and a chunked DATA stream; under injected loss *any* of
//! them can vanish and the retransmission sublayer must recover all of
//! them — the initiator's completions stay `Ok` and every landed byte
//! must read back exactly. The loss schedule is seeded, so a failure
//! replays byte-for-byte.
//!
//! The churn half of the contract: a target that goes silent
//! mid-transfer (its thread simply drops the device — no goodbye,
//! exactly like SIGKILL) must surface as an `OsStatus::PeerDown`
//! completion at the initiator, never as a hang.

use std::time::{Duration, Instant};

use fm_core::blocking::fm2_drain_quiet;
use fm_core::{
    Fm2Engine, Onesided, OnesidedConfig, OsStatus, RegionHandle, Reliability, RetransmitConfig,
};
use fm_model::MachineProfile;
use fm_udp::{UdpCluster, UdpConfig, UdpDevice};

const ARENA: usize = 512 * 1024;
const PUT_BASE: usize = 4096;
const SLOT: usize = 40 * 1024;

/// Mixed put sizes: eager singles, the eager/rendezvous boundary, and
/// multi-chunk rendezvous streams (eager_max 2048, chunks of 4096).
const SIZES: [usize; 10] = [1024, 4096, 40000, 2048, 16000, 1, 2049, 40000, 8192, 33000];

fn os_cfg() -> OnesidedConfig {
    OnesidedConfig {
        arena_bytes: ARENA,
        eager_max: 2048,
        chunk_bytes: 4096,
    }
}

fn arena_handle() -> RegionHandle {
    RegionHandle { index: 0, epoch: 0 }
}

fn pattern(k: usize, len: usize) -> Vec<u8> {
    (0..len).map(|i| ((k * 13 + i) % 251 + 1) as u8).collect()
}

fn engine(dev: UdpDevice) -> Fm2Engine<UdpDevice> {
    Fm2Engine::with_reliability(
        dev,
        MachineProfile::ppro200_fm2(),
        Reliability::Retransmit(RetransmitConfig::adaptive()),
    )
}

#[test]
fn rendezvous_survives_seeded_datagram_loss_without_corruption() {
    let cfg = UdpConfig {
        drop_outbound: 0.01,
        drop_seed: 0x5EED05, // replayable: the loss schedule is fixed
        ..UdpConfig::default()
    };
    let deadline = Instant::now() + Duration::from_secs(60);
    UdpCluster::run(2, cfg, move |rank, dev| {
        let fm = engine(dev);
        let mut os = Onesided::new(&fm, os_cfg());
        let port = os.port();
        port.register(0, ARENA).expect("arena");
        if rank == 1 {
            // Target: pump until the initiator plants the done byte.
            let mut flag = [0u8; 1];
            while flag[0] != 0xFF {
                fm.extract_all();
                os.progress();
                port.read_local(arena_handle(), 0, &mut flag)
                    .expect("flag probe");
                assert!(Instant::now() < deadline, "lossy target wedged");
                std::thread::yield_now();
            }
            // The initiator may still need our acks to finish.
            fm2_drain_quiet(&fm, || {
                os.progress();
            });
            assert!(fm.take_errors().is_empty(), "target engine errors");
            return;
        }

        // Initiator: one put per slot, then read every slot back over
        // the wire and require bit-exact contents.
        let tokens: Vec<_> = SIZES
            .iter()
            .enumerate()
            .map(|(k, &len)| {
                let off = (PUT_BASE + k * SLOT) as u64;
                port.put(1, arena_handle(), off, &pattern(k, len))
            })
            .collect();
        let mut done = 0usize;
        while done < tokens.len() {
            fm.extract_all();
            os.progress();
            while let Some(c) = port.poll_completion() {
                assert_eq!(c.status, OsStatus::Ok, "put failed under loss");
                done += 1;
            }
            assert!(
                Instant::now() < deadline,
                "lossy puts wedged: {done}/{} complete, pending={}",
                tokens.len(),
                port.pending_ops()
            );
            std::thread::yield_now();
        }

        let gets: Vec<_> = SIZES
            .iter()
            .enumerate()
            .map(|(k, &len)| {
                let local = port.register_owned(vec![0u8; len]).expect("get buffer");
                let off = (PUT_BASE + k * SLOT) as u64;
                let t = port
                    .get(1, arena_handle(), off, local, 0, len)
                    .expect("issue get");
                (t, local)
            })
            .collect();
        let mut done = 0usize;
        while done < gets.len() {
            fm.extract_all();
            os.progress();
            while let Some(c) = port.poll_completion() {
                assert_eq!(c.status, OsStatus::Ok, "get failed under loss");
                done += 1;
            }
            assert!(Instant::now() < deadline, "lossy gets wedged");
            std::thread::yield_now();
        }
        for (k, (_, local)) in gets.iter().enumerate() {
            let back = port.deregister_owned(*local).expect("get buffer back");
            assert_eq!(
                back,
                pattern(k, SIZES[k]),
                "slot {k} corrupted under 1% loss"
            );
        }

        // Release the target, then settle the link.
        let t = port.put(1, arena_handle(), 0, &[0xFF]);
        loop {
            fm.extract_all();
            os.progress();
            if let Some(c) = port.poll_completion() {
                assert_eq!(c.token, t);
                assert_eq!(c.status, OsStatus::Ok);
                break;
            }
            assert!(Instant::now() < deadline, "done flag wedged");
            std::thread::yield_now();
        }
        fm2_drain_quiet(&fm, || {
            os.progress();
        });
        assert!(fm.take_errors().is_empty(), "initiator engine errors");
    });
}

#[test]
fn target_death_mid_rendezvous_completes_with_peer_down() {
    // Aggressive liveness so the Down verdict lands in hundreds of ms.
    let cfg = UdpConfig {
        heartbeat_interval: Duration::from_millis(5),
        suspect_after: Duration::from_millis(40),
        down_after: Duration::from_millis(120),
        ..UdpConfig::default()
    };
    let outcomes = UdpCluster::run(2, cfg, |rank, dev| {
        let fm = engine(dev);
        let mut os = Onesided::new(&fm, os_cfg());
        let port = os.port();
        port.register(0, ARENA).expect("arena");
        let deadline = Instant::now() + Duration::from_secs(30);
        if rank == 1 {
            // The victim: answer the RTS, land at least one DATA chunk
            // (the transfer is provably mid-flight), then die without a
            // goodbye — returning drops the engine and the socket.
            let mut first = [0u8; 1];
            while first[0] == 0 {
                fm.extract_all();
                os.progress();
                port.read_local(arena_handle(), PUT_BASE, &mut first)
                    .expect("first-byte probe");
                assert!(Instant::now() < deadline, "victim never saw DATA");
                std::thread::yield_now();
            }
            return None;
        }

        // The initiator: one long rendezvous stream (49 chunks), which
        // must complete with PeerDown once the target goes silent.
        let token = port.put(1, arena_handle(), PUT_BASE as u64, &pattern(0, 200 * 1024));
        loop {
            fm.extract_all();
            os.progress();
            if let Some(c) = port.poll_completion() {
                assert_eq!(c.token, token);
                return Some(c.status);
            }
            assert!(
                Instant::now() < deadline,
                "put to dead target hung: pending={}",
                port.pending_ops()
            );
            std::thread::yield_now();
        }
    });
    assert_eq!(
        outcomes[0],
        Some(OsStatus::PeerDown),
        "initiator must observe the target's death, not an Ok or a hang"
    );
    assert_eq!(outcomes[1], None);
}
