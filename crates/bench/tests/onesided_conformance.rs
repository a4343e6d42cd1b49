//! Cross-transport one-sided conformance: the same put/get/rendezvous
//! script, bit-identical everywhere.
//!
//! Every rank runs an identical poll-driven script against the
//! `fm_core::onesided` port: six content puts whose sizes straddle the
//! eager/rendezvous crossover (the big rendezvous put is issued *first*
//! and must still complete *after* the one-byte eager put — out-of-order
//! completion evidence), three refused puts (out-of-bounds eager,
//! dangling handle, out-of-bounds rendezvous), two gets that read back
//! what the rank just put, and landing verification of everything the
//! upstream neighbor wrote into this rank's arena. Each rank renders its
//! observations as a deterministic `Vec<String>`, and the battery
//! requires rank-for-rank equality across five substrates — the virtual
//! simulator, the in-process threaded mesh, real 4-rank loopback UDP
//! (with the retransmit sublayer), `fm-shm` mapped rings, and the routed
//! shm + UDP composite — plus equality with the script's computed
//! expectation. Transports may change how bytes travel, never what a
//! one-sided op does.

use std::cell::RefCell;
use std::collections::HashMap;
use std::rc::Rc;
use std::time::{Duration, Instant};

use fm_bench::{NodeProgram, Substrate, SHM_STREAM_DEPTH};
use fm_core::blocking::fm2_drain_quiet;
use fm_core::{
    Fm2Engine, NetDevice, Onesided, OnesidedConfig, OsPort, OsStatus, OsToken, RegionHandle,
    RetransmitConfig, SimDevice,
};
use fm_model::{MachineProfile, Nanos};
use myrinet_sim::{NodeId, Simulation, StepOutcome, Topology};

const N: usize = 4;

/// Arena layout: done flags in the first `N` bytes, then one 40 KiB
/// landing slot per content put starting at `PUT_BASE`. Each rank only
/// receives content puts from its upstream neighbor `(rank - 1) % N`,
/// so the slots never need a per-source dimension.
const ARENA: usize = 256 * 1024;
const PUT_BASE: usize = 4096;
const SLOT: usize = 40 * 1024;

/// Content put sizes: straddle `eager_max` (2048) on both sides, hit it
/// exactly, and include a multi-chunk rendezvous transfer (40000 bytes
/// over 4096-byte DATA chunks).
const SIZES: [usize; 6] = [1, 1024, 2048, 2049, 8192, 40000];

fn slot_off(k: usize) -> usize {
    PUT_BASE + k * SLOT
}

fn script_cfg() -> OnesidedConfig {
    OnesidedConfig {
        arena_bytes: ARENA,
        eager_max: 2048,
        chunk_bytes: 4096,
    }
}

/// Slot 0, epoch 0 on a fresh table: every rank registers its whole
/// arena first thing, so peers can name it without a handshake.
fn arena_handle() -> RegionHandle {
    RegionHandle { index: 0, epoch: 0 }
}

/// Deterministic nonzero fill for the put from `src`, slot `k`.
fn pattern_byte(src: usize, k: usize, i: usize) -> u8 {
    ((src * 31 + k * 7 + i) % 251 + 1) as u8
}

fn pattern(src: usize, k: usize, len: usize) -> Vec<u8> {
    (0..len).map(|i| pattern_byte(src, k, i)).collect()
}

/// FNV-1a 64-bit, for content fingerprints in the rank outputs.
fn fnv(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x1_0000_01b3);
    }
    h
}

const PUT_LABELS: [&str; 6] = ["put_k0", "put_k1", "put_k2", "put_k3", "put_k4", "put_k5"];
const FAIL_LABELS: [&str; 3] = ["fail_oob_eager", "fail_badhandle", "fail_oob_rndv"];

/// The per-rank script, written as a poll-driven state machine so every
/// substrate can drive it with its own progress loop. One `step` does
/// all work currently possible; after it returns, nothing more can
/// happen until new packets arrive (which is exactly the simulator's
/// `Wait` wake-up contract).
struct OsScript {
    rank: usize,
    port: OsPort,
    out: Vec<String>,
    labels: HashMap<OsToken, &'static str>,
    status: HashMap<&'static str, OsStatus>,
    completion_order: Vec<&'static str>,
    puts_issued: bool,
    gets: Option<[(OsToken, RegionHandle); 2]>,
    get_crc: [Option<u64>; 2],
    recv_crc: [Option<u64>; 6],
    done_flags_sent: bool,
    finished: bool,
}

impl OsScript {
    fn new(rank: usize, os: &Onesided<impl NetDevice>) -> Self {
        let port = os.port();
        let h = port.register(0, ARENA).expect("arena registration");
        assert_eq!(h, arena_handle());
        let mut out = Vec::new();
        // The refusals are part of the conformance surface: a second
        // window over already-registered bytes and a window past the
        // arena end must both be rejected, identically everywhere.
        out.push(match port.register(PUT_BASE, 64) {
            Err(e) => format!("reg_overlap:{e:?}"),
            Ok(h) => format!("reg_overlap:accepted {h:?}"),
        });
        out.push(match port.register(ARENA - 10, 100) {
            Err(e) => format!("reg_oob:{e:?}"),
            Ok(h) => format!("reg_oob:accepted {h:?}"),
        });
        OsScript {
            rank,
            port,
            out,
            labels: HashMap::new(),
            status: HashMap::new(),
            completion_order: Vec::new(),
            puts_issued: false,
            gets: None,
            get_crc: [None; 2],
            recv_crc: [None; 6],
            done_flags_sent: false,
            finished: false,
        }
    }

    fn dst(&self) -> usize {
        (self.rank + 1) % N
    }

    fn src(&self) -> usize {
        (self.rank + N - 1) % N
    }

    /// Drain completions and run every state transition that has become
    /// possible. Caller must flush (`os.progress()`) afterwards so
    /// anything issued here hits the wire before the driver sleeps.
    fn step(&mut self) {
        if self.finished {
            return;
        }
        while let Some(c) = self.port.poll_completion() {
            let label = *self.labels.get(&c.token).expect("completion for known op");
            match label {
                "get_k2" | "get_k5" => {
                    assert_eq!(c.status, OsStatus::Ok, "{label} failed");
                    let slot = if label == "get_k2" { 0 } else { 1 };
                    let (_, local_h) = self.gets.expect("gets issued")[slot];
                    let len = if slot == 0 { SIZES[2] } else { SIZES[5] };
                    let mut buf = vec![0u8; len];
                    self.port
                        .read_local(local_h, 0, &mut buf)
                        .expect("get buffer read");
                    self.get_crc[slot] = Some(fnv(&buf));
                }
                "done" => {}
                _ => {
                    self.status.insert(label, c.status);
                    self.completion_order.push(label);
                }
            }
        }

        if !self.puts_issued {
            self.issue_puts();
            self.puts_issued = true;
        }
        if self.gets.is_none() && self.status.len() == PUT_LABELS.len() + FAIL_LABELS.len() {
            self.issue_gets();
        }
        self.poll_landings();
        if !self.done_flags_sent
            && self.get_crc.iter().all(Option::is_some)
            && self.recv_crc.iter().all(Option::is_some)
        {
            // One flag byte to every peer; peers may exit before these
            // complete, so the completions are deliberately not awaited
            // (the post-script drain settles transport-level acks).
            for peer in (0..N).filter(|&p| p != self.rank) {
                let t = self
                    .port
                    .put(peer, arena_handle(), self.rank as u64, &[0xFF]);
                self.labels.insert(t, "done");
            }
            self.done_flags_sent = true;
        }
        if self.done_flags_sent && self.all_flags_seen() {
            self.finish();
        }
    }

    fn issue_puts(&mut self) {
        let dst = self.dst();
        // The multi-chunk rendezvous put goes first; the one-byte eager
        // put right behind it must still complete first (its ack beats
        // ten DATA chunks on any FIFO transport).
        for k in [5usize, 0, 1, 2, 3, 4] {
            let data = pattern(self.rank, k, SIZES[k]);
            let t = self
                .port
                .put(dst, arena_handle(), slot_off(k) as u64, &data);
            self.labels.insert(t, PUT_LABELS[k]);
        }
        // Refused ops: past the region end on both protocol paths, and
        // a slot that was never registered.
        let t = self
            .port
            .put(dst, arena_handle(), (ARENA - 50) as u64, &[0xAA; 100]);
        self.labels.insert(t, FAIL_LABELS[0]);
        let bad = RegionHandle {
            index: 99,
            epoch: 0,
        };
        let t = self.port.put(dst, bad, 0, &[0xBB; 16]);
        self.labels.insert(t, FAIL_LABELS[1]);
        let t = self
            .port
            .put(dst, arena_handle(), (ARENA - 50) as u64, &vec![0xCC; 5000]);
        self.labels.insert(t, FAIL_LABELS[2]);
    }

    /// Read back, over the wire, what this rank just put into the
    /// neighbor's arena: one eager-sized get and one multi-chunk get.
    fn issue_gets(&mut self) {
        let dst = self.dst();
        let mut gets = [(OsToken(0), arena_handle()); 2];
        for (slot, k) in [(0usize, 2usize), (1, 5)] {
            let local_h = self
                .port
                .register_owned(vec![0u8; SIZES[k]])
                .expect("get buffer");
            let t = self
                .port
                .get(
                    dst,
                    arena_handle(),
                    slot_off(k) as u64,
                    local_h,
                    0,
                    SIZES[k],
                )
                .expect("issue get");
            self.labels
                .insert(t, if slot == 0 { "get_k2" } else { "get_k5" });
            gets[slot] = (t, local_h);
        }
        self.gets = Some(gets);
    }

    /// Detect upstream landings by polling each slot's *last* byte
    /// (DATA chunks stream in order, so the last byte lands last),
    /// then fingerprint the whole slot.
    fn poll_landings(&mut self) {
        let src = self.src();
        for (k, &len) in SIZES.iter().enumerate() {
            if self.recv_crc[k].is_some() {
                continue;
            }
            let mut last = [0u8; 1];
            self.port
                .read_local(arena_handle(), slot_off(k) + len - 1, &mut last)
                .expect("landing probe");
            if last[0] == pattern_byte(src, k, len - 1) {
                let mut buf = vec![0u8; len];
                self.port
                    .read_local(arena_handle(), slot_off(k), &mut buf)
                    .expect("landing read");
                self.recv_crc[k] = Some(fnv(&buf));
            }
        }
    }

    fn all_flags_seen(&self) -> bool {
        let mut flags = [0u8; N];
        self.port
            .read_local(arena_handle(), 0, &mut flags)
            .expect("flag read");
        (0..N).filter(|&p| p != self.rank).all(|p| flags[p] == 0xFF)
    }

    /// Assemble the deterministic output in fixed label order (arrival
    /// order of completions differs across transports; the one ordering
    /// fact that *is* transport-invariant is recorded as a line).
    fn finish(&mut self) {
        for label in PUT_LABELS.iter().chain(FAIL_LABELS.iter()) {
            let s = self.status.get(label).expect("all puts completed");
            self.out.push(format!("{label}:{s:?}"));
        }
        let pos = |l: &str| {
            self.completion_order
                .iter()
                .position(|&x| x == l)
                .expect("completed")
        };
        self.out
            .push(format!("eager_first:{}", pos("put_k0") < pos("put_k5")));
        self.out
            .push(format!("get_k2:{:016x}", self.get_crc[0].unwrap()));
        self.out
            .push(format!("get_k5:{:016x}", self.get_crc[1].unwrap()));
        for (k, crc) in self.recv_crc.iter().enumerate() {
            self.out.push(format!("recv_k{k}:{:016x}", crc.unwrap()));
        }
        // The refused puts aimed at the arena tail; their refusal must
        // have left those bytes untouched. Checked only now, when the
        // upstream neighbor's whole script is known to have completed.
        let mut tail = [0u8; 50];
        self.port
            .read_local(arena_handle(), ARENA - 50, &mut tail)
            .expect("tail read");
        self.out
            .push(format!("tail_clean:{}", tail.iter().all(|&b| b == 0)));
        self.finished = true;
    }
}

/// What every transport must produce for `rank`, computed from first
/// principles (so four transports agreeing on a wrong answer still
/// fails).
fn expected_outputs(rank: usize) -> Vec<String> {
    let src = (rank + N - 1) % N;
    let mut out = vec!["reg_overlap:Overlap".into(), "reg_oob:OutOfBounds".into()];
    for label in PUT_LABELS {
        out.push(format!("{label}:Ok"));
    }
    out.push("fail_oob_eager:OutOfBounds".into());
    out.push("fail_badhandle:BadHandle".into());
    out.push("fail_oob_rndv:OutOfBounds".into());
    out.push("eager_first:true".into());
    out.push(format!("get_k2:{:016x}", fnv(&pattern(rank, 2, SIZES[2]))));
    out.push(format!("get_k5:{:016x}", fnv(&pattern(rank, 5, SIZES[5]))));
    for (k, &len) in SIZES.iter().enumerate() {
        out.push(format!("recv_k{k}:{:016x}", fnv(&pattern(src, k, len))));
    }
    out.push("tail_clean:true".into());
    out
}

/// The script as a wall-clock node program: pump it to completion, then
/// keep servicing the engine and the one-sided port until the link has
/// been quiet for a while and nothing is unacknowledged — peers still
/// mid-script may need our acks, retransmissions and queued done flags.
struct Conformance;

impl NodeProgram for Conformance {
    type Out = Vec<String>;

    fn run<D: NetDevice + 'static>(&self, rank: usize, fm: &Fm2Engine<D>) -> Vec<String> {
        let mut os = Onesided::new(fm, script_cfg());
        let mut script = OsScript::new(rank, &os);
        let deadline = Instant::now() + Duration::from_secs(60);
        while !script.finished {
            fm.extract_all();
            os.progress();
            script.step();
            os.progress();
            assert!(
                Instant::now() < deadline,
                "rank {rank} conformance script wedged: pending={} drops={}",
                script.port.pending_ops(),
                script.port.protocol_drops(),
            );
            std::thread::yield_now();
        }
        fm2_drain_quiet(fm, || {
            os.progress();
        });
        script.out
    }
}

/// Virtual-time guard for the simulated run.
const SIM_LIMIT: Nanos = Nanos(60_000_000_000);

fn sim_outputs() -> Vec<Vec<String>> {
    let profile = MachineProfile::ppro200_fm2();
    let mut sim = Simulation::new(profile, Topology::single_crossbar(N));
    let outs: Vec<Rc<RefCell<Option<Vec<String>>>>> =
        (0..N).map(|_| Rc::new(RefCell::new(None))).collect();
    for (rank, slot) in outs.iter().enumerate() {
        let fm = Fm2Engine::new(SimDevice::new(sim.host_interface(NodeId(rank))), profile);
        let mut os = Onesided::new(&fm, script_cfg());
        let mut script = OsScript::new(rank, &os);
        let out = Rc::clone(slot);
        sim.set_program(
            NodeId(rank),
            Box::new(move || {
                fm.extract_all();
                os.progress();
                script.step();
                // Anything the step issued must hit the wire before
                // sleeping — `Wait` wakes on *new* activity only.
                os.progress();
                if script.finished {
                    *out.borrow_mut() = Some(script.out.clone());
                    return StepOutcome::Done;
                }
                StepOutcome::Wait
            }),
        );
    }
    sim.run(Some(SIM_LIMIT));
    outs.iter()
        .enumerate()
        .map(|(rank, o)| {
            o.borrow()
                .clone()
                .unwrap_or_else(|| panic!("sim rank {rank} never finished (t={})", sim.now()))
        })
        .collect()
}

/// Deep fm-shm rings, as in the streaming probes.
fn shm() -> Substrate {
    Substrate::Shm {
        slots: SHM_STREAM_DEPTH,
    }
}

/// The routed shm + UDP composite over two simulated hosts.
fn routed() -> Substrate {
    Substrate::Routed {
        hosts: vec![0, 0, 1, 1],
        retransmit: RetransmitConfig::default(),
    }
}

/// Every wall-clock leg.
fn substrates() -> [Substrate; 4] {
    [Substrate::Threads, Substrate::udp(), shm(), routed()]
}

fn outputs(sub: &Substrate) -> Vec<Vec<String>> {
    sub.run(N, &Conformance)
}

fn assert_conformant(transport: &str, results: &[Vec<String>]) {
    assert_eq!(results.len(), N);
    for (rank, got) in results.iter().enumerate() {
        assert_eq!(
            *got,
            expected_outputs(rank),
            "{transport} rank {rank} diverged"
        );
    }
}

#[test]
fn sim_matches_expectation() {
    assert_conformant("sim", &sim_outputs());
}

#[test]
fn threaded_matches_expectation() {
    assert_conformant("threaded", &outputs(&Substrate::Threads));
}

#[test]
fn udp_matches_expectation() {
    assert_conformant("udp", &outputs(&Substrate::udp()));
}

#[test]
fn shm_matches_expectation() {
    assert_conformant("shm", &outputs(&shm()));
}

#[test]
fn routed_matches_expectation() {
    assert_conformant("routed", &outputs(&routed()));
}

#[test]
fn all_transports_bit_identical() {
    // The decisive check: rank-for-rank equality of the raw outputs
    // across every substrate, not merely each one matching the
    // expectation (pins transport-independence directly, including any
    // formatting the per-transport asserts might normalize away).
    let sim = sim_outputs();
    for sub in substrates() {
        assert_eq!(sim, outputs(&sub), "sim vs {} diverged", sub.name());
    }
}
