//! Kill/restart churn probe over real loopback UDP.
//!
//! The one wall-clock probe that cannot run on a
//! [`crate::substrate::Substrate`]: it kills a node mid-run and rebuilds
//! its device under a bumped epoch with [`fm_udp::restart_node`], so it
//! wires its two nodes by hand.

use std::cell::Cell;
use std::rc::Rc;
use std::time::{Duration, Instant};

use fm_core::blocking::fm2_send;
use fm_core::packet::HandlerId;
use fm_core::{Fm2Engine, FmStream, LogHistogram, Reliability, RetransmitConfig};
use fm_model::MachineProfile;
use fm_udp::{UdpConfig, UdpDevice};

const PING: HandlerId = HandlerId(1);

/// Result of the churn probe: how fast the membership layer readmits a
/// restarted node, and what the reliability sublayer paid during the
/// outages.
pub struct ChurnDist {
    /// Kill/restart cycles measured.
    pub cycles: usize,
    /// Wall-clock from `restart_node` to the restarted engine's first
    /// FM-level delivery (join barrier + rejoin propagation + the
    /// survivor resuming its stream), one sample per cycle, in ns.
    pub recovery_ns: LogHistogram,
    /// Survivor-side retransmissions across the whole run — the
    /// "retransmit storm" that peer abandonment and the adaptive RTO
    /// keep bounded while the victim is dark.
    pub retransmissions: u64,
    /// Survivor-side retransmit timer expiries across the run.
    pub retransmit_timeouts: u64,
    /// Down verdicts the survivor's detector issued.
    pub downs: u64,
    /// Epoch-bump rejoins the survivor admitted.
    pub rejoins: u64,
    /// Frames from dead incarnations rejected at the survivor's device.
    pub stale_rejected: u64,
}

/// Kill/restart churn probe over real loopback UDP: node 1 dies without
/// a goodbye and comes back under a bumped epoch, `cycles` times, while
/// node 0 keeps a paced stream running whenever it believes node 1 is
/// alive. Measures recovery wall-clock per cycle; aggressive liveness
/// timeouts (5/40/120 ms) keep the probe in wall-clock seconds.
pub fn udp_churn_dist(cycles: usize) -> ChurnDist {
    use fm_core::PeerEventKind;
    use fm_udp::restart_node;
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::Arc;

    let cfg = UdpConfig {
        heartbeat_interval: Duration::from_millis(5),
        suspect_after: Duration::from_millis(40),
        down_after: Duration::from_millis(120),
        ..UdpConfig::default()
    };
    let sockets: Vec<std::net::UdpSocket> = (0..2)
        .map(|_| std::net::UdpSocket::bind("127.0.0.1:0").expect("bind probe socket"))
        .collect();
    let peers: Vec<_> = sockets.iter().map(|s| s.local_addr().unwrap()).collect();
    let mut sockets = sockets.into_iter();
    let (survivor_socket, victim_socket) = (sockets.next().unwrap(), sockets.next().unwrap());

    let stop = Arc::new(AtomicBool::new(false));
    let survivor = {
        let cfg = cfg.clone();
        let peers = peers.clone();
        let stop = Arc::clone(&stop);
        std::thread::spawn(move || {
            let mut dev = UdpDevice::from_socket(survivor_socket, 0, peers, cfg).unwrap();
            dev.join(Duration::from_secs(10)).expect("probe join");
            let fm = Fm2Engine::with_reliability(
                dev,
                MachineProfile::ppro200_fm2(),
                Reliability::Retransmit(RetransmitConfig::adaptive()),
            );
            let down: Rc<Cell<bool>> = Rc::default();
            {
                let down = Rc::clone(&down);
                fm.set_peer_handler(move |ev| match ev.kind {
                    fm_core::PeerEventKind::Down => down.set(true),
                    PeerEventKind::Rejoining | PeerEventKind::Up => down.set(false),
                    PeerEventKind::Suspect => {}
                });
            }
            let payload = [0x5Au8; 64];
            while !stop.load(Ordering::Relaxed) {
                if !down.get() {
                    fm2_send(&fm, 1, PING, &[&payload]);
                }
                let pace = Instant::now();
                while pace.elapsed() < Duration::from_micros(200) {
                    fm.extract_all();
                    fm.progress();
                }
            }
            let st = fm.stats();
            let udp = fm.with_device(|d| d.stats());
            (
                st.retransmissions,
                st.retransmit_timeouts,
                udp.downs,
                udp.rejoins,
                udp.stale_rejected,
            )
        })
    };

    // A victim incarnation: join (or rejoin), receive one message to
    // prove the stream reached this life, and die without a word.
    let incarnation = |dev: UdpDevice| {
        let fm = Fm2Engine::with_reliability(
            dev,
            MachineProfile::ppro200_fm2(),
            Reliability::Retransmit(RetransmitConfig::adaptive()),
        );
        let got: Rc<Cell<usize>> = Rc::default();
        {
            let got = Rc::clone(&got);
            fm.set_handler(PING, move |stream: FmStream, _| {
                let got = Rc::clone(&got);
                async move {
                    stream.skip(stream.msg_len()).await;
                    got.set(got.get() + 1);
                }
            });
        }
        let deadline = Instant::now() + Duration::from_secs(10);
        while got.get() == 0 {
            assert!(
                Instant::now() < deadline,
                "churn probe: stream never resumed"
            );
            fm.extract_all();
            fm.progress();
        }
    };

    let mut dev = UdpDevice::from_socket(victim_socket, 1, peers.clone(), cfg.clone()).unwrap();
    dev.join(Duration::from_secs(10)).expect("probe join");
    incarnation(dev); // first life, then the engine (and socket) drops

    let mut recovery_ns = LogHistogram::new();
    for cycle in 0..cycles {
        // Let the survivor's detector reach the terminal Down verdict.
        std::thread::sleep(Duration::from_millis(250));
        let t0 = Instant::now();
        let mut dev =
            restart_node(1, peers.clone(), cycle as u64 + 1, cfg.clone()).expect("rebind victim");
        dev.join(Duration::from_secs(10)).expect("probe rejoin");
        incarnation(dev);
        recovery_ns.record(t0.elapsed().as_nanos() as u64);
    }
    stop.store(true, Ordering::Relaxed);
    let (retransmissions, retransmit_timeouts, downs, rejoins, stale_rejected) =
        survivor.join().expect("survivor thread");
    ChurnDist {
        cycles,
        recovery_ns,
        retransmissions,
        retransmit_timeouts,
        downs,
        rejoins,
        stale_rejected,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn udp_churn_probe_measures_recovery() {
        let d = udp_churn_dist(2);
        assert_eq!(d.recovery_ns.count(), 2, "one sample per cycle");
        assert!(d.recovery_ns.p50() > 0);
        assert!(d.rejoins >= 2, "every restart admitted: {}", d.rejoins);
        assert!(d.downs >= 1, "the detector fired at least once");
    }
}
