//! One-sided `FM_put` / `FM_get` with an eager/rendezvous switch
//! (ROADMAP item 3).
//!
//! The FM 2.x stream API still stages every large payload through the
//! eager path: the sender copies into pool frames, the receiver's
//! handler copies into the destination. Following the RDMA-channel
//! design of MPICH2-over-InfiniBand (see PAPERS.md), this module adds:
//!
//! * a **registered receive-buffer table** — [`OsPort::register`] /
//!   [`OsPort::deregister`] hand out epoch-stamped [`RegionHandle`]s
//!   over windows of a node-local arena (bounds- and overlap-checked)
//!   or over caller-owned buffers;
//! * **one-sided primitives** — [`OsPort::put`] / [`OsPort::put_from`]
//!   / [`OsPort::get`] address a *remote* region by handle + offset and
//!   complete with an [`OsCompletion`] token;
//! * a **rendezvous protocol** for large transfers — RTS carries the
//!   region handle + offset + length, CTS grants a transfer credit,
//!   DATA segments then stream through a per-packet *sink* handler
//!   straight into the registered destination (no staging copy), and
//!   FIN completes the initiator with a local notification;
//! * an **eager path** for small transfers (header + payload in one FM
//!   message, staged and copied at the receiver) and a size threshold
//!   ([`OnesidedConfig::eager_max`]) switching between the two — the
//!   crossover is measured, not assumed, by `calibrate`'s rendezvous
//!   sweep.
//!
//! The protocol core (`OsCore` behind [`OsPort`]) is sans-IO: it
//! consumes packets and emits control frames / send jobs without
//! touching an engine; [`Onesided`] drives it over an [`Fm2Engine`],
//! streaming DATA chunks with gather/scatter.

use std::cell::RefCell;
use std::collections::{HashMap, HashSet, VecDeque};
use std::rc::Rc;

use crate::device::NetDevice;
use crate::error::WouldBlock;
use crate::fm2::{Fm2Engine, SendStream, SinkMeta};
use crate::packet::HandlerId;

/// Handler id carrying one-sided control traffic (RTS/CTS/FIN/GET) and
/// rendezvous DATA segments. Installed as a per-packet sink.
pub const ONESIDED_HANDLER: HandlerId = HandlerId(140);
/// Handler id carrying eager puts (header + payload in one message).
pub const OS_EAGER_HANDLER: HandlerId = HandlerId(141);

/// Bytes of the on-wire op header. Smaller than every profile's MTU, so
/// the header always lands whole in the first packet of its message.
pub const OP_HDR_BYTES: usize = 40;

const OP_PUT_EAGER: u32 = 1;
const OP_RTS: u32 = 2;
const OP_CTS: u32 = 3;
const OP_DATA: u32 = 4;
const OP_FIN: u32 = 5;
const OP_GET: u32 = 6;

/// Tuning knobs for a one-sided port.
#[derive(Debug, Clone, Copy)]
pub struct OnesidedConfig {
    /// Bytes of node-local arena backing [`OsPort::register`] windows.
    pub arena_bytes: usize,
    /// Largest put sent eagerly; anything bigger goes through RTS/CTS
    /// rendezvous. The `calibrate` crossover sweep measures where this
    /// should sit per transport.
    pub eager_max: usize,
    /// Chunk size for rendezvous DATA segments (each chunk is one FM
    /// message).
    pub chunk_bytes: usize,
}

impl Default for OnesidedConfig {
    fn default() -> Self {
        OnesidedConfig {
            arena_bytes: 1 << 20,
            eager_max: 16 * 1024,
            chunk_bytes: 16 * 1024,
        }
    }
}

// ----------------------------------------------------------------------
// Wire header
// ----------------------------------------------------------------------

/// The 40-byte op header prefixed to every one-sided message. Field
/// meaning depends on `op`; unused fields are zero.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct OpHeader {
    op: u32,
    a: u32,
    b: u32,
    c: u32,
    d: u64,
    e: u64,
    f: u64,
}

impl OpHeader {
    fn zero(op: u32) -> Self {
        OpHeader {
            op,
            a: 0,
            b: 0,
            c: 0,
            d: 0,
            e: 0,
            f: 0,
        }
    }

    fn encode(&self) -> [u8; OP_HDR_BYTES] {
        let mut out = [0u8; OP_HDR_BYTES];
        out[0..4].copy_from_slice(&self.op.to_le_bytes());
        out[4..8].copy_from_slice(&self.a.to_le_bytes());
        out[8..12].copy_from_slice(&self.b.to_le_bytes());
        out[12..16].copy_from_slice(&self.c.to_le_bytes());
        out[16..24].copy_from_slice(&self.d.to_le_bytes());
        out[24..32].copy_from_slice(&self.e.to_le_bytes());
        out[32..40].copy_from_slice(&self.f.to_le_bytes());
        out
    }

    fn decode(buf: &[u8]) -> Option<Self> {
        if buf.len() < OP_HDR_BYTES {
            return None;
        }
        let u32_at = |i: usize| u32::from_le_bytes(buf[i..i + 4].try_into().unwrap());
        let u64_at = |i: usize| u64::from_le_bytes(buf[i..i + 8].try_into().unwrap());
        Some(OpHeader {
            op: u32_at(0),
            a: u32_at(4),
            b: u32_at(8),
            c: u32_at(12),
            d: u64_at(16),
            e: u64_at(24),
            f: u64_at(32),
        })
    }
}

// ----------------------------------------------------------------------
// Public result types
// ----------------------------------------------------------------------

/// Opaque handle to a registered receive region. Handles are
/// epoch-stamped: reusing one after `deregister` is refused with
/// [`OsStatus::Deregistered`], never silently aliased.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct RegionHandle {
    /// Slot index in the owner's region table.
    pub index: u32,
    /// Epoch stamp; bumped every time the slot is freed.
    pub epoch: u32,
}

/// Completion token returned by [`OsPort::put`] / [`OsPort::get`];
/// matched against [`OsCompletion::token`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct OsToken(pub u32);

/// Remote outcome of a one-sided op, reported in its FIN / completion.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OsStatus {
    /// The transfer landed (or was sourced) in full.
    Ok,
    /// The region handle's slot index does not exist at the target.
    BadHandle,
    /// Offset + length exceed the registered region's bounds.
    OutOfBounds,
    /// The handle's epoch is stale: the region was deregistered.
    Deregistered,
    /// The peer died mid-transfer; the op was aborted locally.
    PeerDown,
}

impl OsStatus {
    fn to_wire(self) -> u32 {
        match self {
            OsStatus::Ok => 0,
            OsStatus::BadHandle => 1,
            OsStatus::OutOfBounds => 2,
            OsStatus::Deregistered => 3,
            OsStatus::PeerDown => 4,
        }
    }

    fn from_wire(v: u32) -> Self {
        match v {
            1 => OsStatus::BadHandle,
            2 => OsStatus::OutOfBounds,
            3 => OsStatus::Deregistered,
            4 => OsStatus::PeerDown,
            _ => OsStatus::Ok,
        }
    }
}

/// Error from a *local* region-table operation, reported immediately
/// (unlike [`OsStatus`], which travels back in a FIN).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OsError {
    /// Slot index out of range.
    BadHandle,
    /// Window exceeds the arena, region bounds, or is empty.
    OutOfBounds,
    /// Stale epoch: the region was deregistered.
    Deregistered,
    /// The requested arena window overlaps an existing registration.
    Overlap,
    /// The region is pinned by an in-flight transfer and cannot be
    /// deregistered yet — handles never dangle.
    RegionBusy,
}

/// Local notification that a one-sided op finished.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OsCompletion {
    /// Token the op was issued under.
    pub token: OsToken,
    /// Remote (or abort) outcome.
    pub status: OsStatus,
}

// ----------------------------------------------------------------------
// Region table
// ----------------------------------------------------------------------

enum RegionKind {
    /// Window into the node-local arena (overlap-checked).
    Arena { offset: usize, len: usize },
    /// Caller-owned buffer adopted wholesale (overlap-exempt).
    Owned(Vec<u8>),
}

struct Slot {
    epoch: u32,
    kind: Option<RegionKind>,
    pins: u32,
}

struct RegionTable {
    arena: Vec<u8>,
    slots: Vec<Slot>,
    free: Vec<usize>,
}

impl RegionTable {
    fn new(arena_bytes: usize) -> Self {
        RegionTable {
            arena: vec![0u8; arena_bytes],
            slots: Vec::new(),
            free: Vec::new(),
        }
    }

    fn alloc_slot(&mut self, kind: RegionKind) -> RegionHandle {
        if let Some(i) = self.free.pop() {
            let s = &mut self.slots[i];
            debug_assert!(s.kind.is_none() && s.pins == 0);
            s.kind = Some(kind);
            RegionHandle {
                index: i as u32,
                epoch: s.epoch,
            }
        } else {
            self.slots.push(Slot {
                epoch: 0,
                kind: Some(kind),
                pins: 0,
            });
            RegionHandle {
                index: (self.slots.len() - 1) as u32,
                epoch: 0,
            }
        }
    }

    fn register(&mut self, offset: usize, len: usize) -> Result<RegionHandle, OsError> {
        if len == 0
            || offset
                .checked_add(len)
                .is_none_or(|end| end > self.arena.len())
        {
            return Err(OsError::OutOfBounds);
        }
        for s in &self.slots {
            if let Some(RegionKind::Arena { offset: o, len: l }) = &s.kind {
                if offset < o + l && *o < offset + len {
                    return Err(OsError::Overlap);
                }
            }
        }
        Ok(self.alloc_slot(RegionKind::Arena { offset, len }))
    }

    fn register_owned(&mut self, buf: Vec<u8>) -> Result<RegionHandle, OsError> {
        if buf.is_empty() {
            return Err(OsError::OutOfBounds);
        }
        Ok(self.alloc_slot(RegionKind::Owned(buf)))
    }

    /// Validate a handle + window without touching data. `OsStatus`
    /// form, for wire-originated accesses.
    fn check(&self, index: u32, epoch: u32, offset: u64, len: u64) -> OsStatus {
        let Some(s) = self.slots.get(index as usize) else {
            return OsStatus::BadHandle;
        };
        if s.epoch != epoch || s.kind.is_none() {
            return OsStatus::Deregistered;
        }
        let rlen = self.region_len(index) as u64;
        if len == 0 || offset.checked_add(len).is_none_or(|end| end > rlen) {
            return OsStatus::OutOfBounds;
        }
        OsStatus::Ok
    }

    /// Like [`check`](Self::check) but reporting a local [`OsError`].
    fn check_local(&self, h: RegionHandle, offset: usize, len: usize) -> Result<(), OsError> {
        match self.check(h.index, h.epoch, offset as u64, len as u64) {
            OsStatus::Ok => Ok(()),
            OsStatus::BadHandle => Err(OsError::BadHandle),
            OsStatus::OutOfBounds => Err(OsError::OutOfBounds),
            _ => Err(OsError::Deregistered),
        }
    }

    fn region_len(&self, index: u32) -> usize {
        match &self.slots[index as usize].kind {
            Some(RegionKind::Arena { len, .. }) => *len,
            Some(RegionKind::Owned(v)) => v.len(),
            None => 0,
        }
    }

    fn deregister(&mut self, h: RegionHandle) -> Result<RegionKind, OsError> {
        let Some(s) = self.slots.get_mut(h.index as usize) else {
            return Err(OsError::BadHandle);
        };
        if s.epoch != h.epoch || s.kind.is_none() {
            return Err(OsError::Deregistered);
        }
        if s.pins > 0 {
            return Err(OsError::RegionBusy);
        }
        let kind = s.kind.take().expect("checked above");
        s.epoch = s.epoch.wrapping_add(1);
        self.free.push(h.index as usize);
        Ok(kind)
    }

    fn pin(&mut self, index: u32) {
        self.slots[index as usize].pins += 1;
    }

    fn unpin(&mut self, index: u32) {
        let s = &mut self.slots[index as usize];
        debug_assert!(s.pins > 0, "unbalanced unpin");
        s.pins = s.pins.saturating_sub(1);
    }

    /// Copy `data` into the region at `offset`. Bounds must have been
    /// validated (the region is pinned, so it cannot have moved).
    fn write(&mut self, index: u32, offset: usize, data: &[u8]) {
        match self.slots[index as usize].kind.as_mut() {
            Some(RegionKind::Arena { offset: base, .. }) => {
                let at = *base + offset;
                self.arena[at..at + data.len()].copy_from_slice(data);
            }
            Some(RegionKind::Owned(v)) => {
                v[offset..offset + data.len()].copy_from_slice(data);
            }
            None => debug_assert!(false, "write to freed region"),
        }
    }

    fn read(&self, index: u32, offset: usize, out: &mut [u8]) {
        out.copy_from_slice(self.slice(index, offset, out.len()));
    }

    /// Borrow `len` bytes of the region starting at `offset`.
    fn slice(&self, index: u32, offset: usize, len: usize) -> &[u8] {
        match self.slots[index as usize].kind.as_ref() {
            Some(RegionKind::Arena { offset: base, .. }) => {
                &self.arena[base + offset..base + offset + len]
            }
            Some(RegionKind::Owned(v)) => &v[offset..offset + len],
            None => panic!("slice of freed region"),
        }
    }
}

// ----------------------------------------------------------------------
// Sans-IO protocol core
// ----------------------------------------------------------------------

/// Source bytes for an outbound job: parked copy or pinned region.
enum JobSrc {
    Owned(Vec<u8>),
    Region { index: u32, offset: usize },
}

enum JobKind {
    /// One eager message: op header + whole payload.
    Eager { hdr: OpHeader },
    /// Rendezvous DATA: chunk-sized messages tagged with the transfer
    /// credit granted by the receiver's CTS.
    Data { xfer: u32 },
}

struct SendJob {
    dst: usize,
    kind: JobKind,
    src: JobSrc,
    len: usize,
    cursor: usize,
}

enum OpKind {
    /// Eager put in flight; completed by the target's FIN.
    EagerPut,
    /// RTS sent, waiting for CTS; the payload source is parked here.
    RndvWait { src: JobSrc, len: usize },
    /// CTS received, DATA streaming; completed by the target's FIN.
    RndvData,
    /// Get in flight; completed locally when the reply grant fills.
    Get { grant_key: (usize, u32) },
}

struct OpState {
    dst: usize,
    kind: OpKind,
}

/// Where a filled grant reports to.
#[derive(Clone, Copy)]
enum GrantOrigin {
    /// Rendezvous put target: send FIN(token) back to the initiator.
    PutFin { token: u32 },
    /// Get initiator: complete the local op.
    GetLocal { token: u32 },
    /// Externally granted ([`OsPort::grant_from`]): surface through
    /// [`OsPort::take_grant_complete`].
    External,
}

struct Grant {
    slot: u32,
    offset: usize,
    len: usize,
    cursor: usize,
    origin: GrantOrigin,
}

/// The engine-agnostic protocol state machine. Drivers feed it packets
/// ([`OsCore::on_packet`]) and drain its outbox / job queue.
struct OsCore {
    cfg: OnesidedConfig,
    regions: RegionTable,
    /// Outstanding initiator-side ops, keyed by token.
    ops: HashMap<u32, OpState>,
    /// Inbound transfer credits, keyed by (sending peer, xfer id).
    grants: HashMap<(usize, u32), Grant>,
    /// In-progress multi-packet DATA messages: (src, msg_seq) → grant.
    rx: HashMap<(usize, u32), (usize, u32)>,
    /// Control frames awaiting a credit slot on the wire.
    outbox: VecDeque<(usize, OpHeader)>,
    /// Payload jobs awaiting streaming by the driver.
    jobs: VecDeque<SendJob>,
    completions: VecDeque<OsCompletion>,
    completed_grants: HashSet<(usize, u32)>,
    /// Bytes copied by sink handlers, to be charged to the engine's
    /// memcpy cost model by the driver.
    pending_copy_bytes: u64,
    /// Malformed or unmatchable packets dropped by the protocol.
    protocol_drops: u64,
    next_token: u32,
    next_xfer: Vec<u32>,
}

impl OsCore {
    fn new(num_nodes: usize, cfg: OnesidedConfig) -> Self {
        OsCore {
            cfg,
            regions: RegionTable::new(cfg.arena_bytes),
            ops: HashMap::new(),
            grants: HashMap::new(),
            rx: HashMap::new(),
            outbox: VecDeque::new(),
            jobs: VecDeque::new(),
            completions: VecDeque::new(),
            completed_grants: HashSet::new(),
            pending_copy_bytes: 0,
            protocol_drops: 0,
            next_token: 0,
            next_xfer: vec![0; num_nodes.max(1)],
        }
    }

    fn alloc_token(&mut self) -> u32 {
        loop {
            let t = self.next_token;
            self.next_token = self.next_token.wrapping_add(1);
            if !self.ops.contains_key(&t) {
                return t;
            }
        }
    }

    fn alloc_xfer(&mut self, peer: usize) -> u32 {
        if peer >= self.next_xfer.len() {
            self.next_xfer.resize(peer + 1, 0);
        }
        loop {
            let x = self.next_xfer[peer];
            self.next_xfer[peer] = self.next_xfer[peer].wrapping_add(1);
            if !self.grants.contains_key(&(peer, x)) {
                return x;
            }
        }
    }

    fn complete(&mut self, token: u32, status: OsStatus) {
        self.completions.push_back(OsCompletion {
            token: OsToken(token),
            status,
        });
    }

    fn finish_job_src(&mut self, src: &JobSrc) {
        if let JobSrc::Region { index, .. } = src {
            self.regions.unpin(*index);
        }
    }

    // -- initiator-side API ------------------------------------------

    fn put_bytes(
        &mut self,
        dst: usize,
        h: RegionHandle,
        offset: u64,
        src: JobSrc,
        len: usize,
    ) -> OsToken {
        let token = self.alloc_token();
        if len == 0 {
            self.finish_job_src(&src);
            self.complete(token, OsStatus::Ok);
            return OsToken(token);
        }
        let hdr = OpHeader {
            a: token,
            b: h.index,
            c: h.epoch,
            d: offset,
            e: len as u64,
            ..OpHeader::zero(0)
        };
        if len <= self.cfg.eager_max {
            self.ops.insert(
                token,
                OpState {
                    dst,
                    kind: OpKind::EagerPut,
                },
            );
            self.jobs.push_back(SendJob {
                dst,
                kind: JobKind::Eager {
                    hdr: OpHeader {
                        op: OP_PUT_EAGER,
                        ..hdr
                    },
                },
                src,
                len,
                cursor: 0,
            });
        } else {
            self.ops.insert(
                token,
                OpState {
                    dst,
                    kind: OpKind::RndvWait { src, len },
                },
            );
            self.outbox.push_back((dst, OpHeader { op: OP_RTS, ..hdr }));
        }
        OsToken(token)
    }

    fn put(&mut self, dst: usize, h: RegionHandle, offset: u64, data: &[u8]) -> OsToken {
        self.put_bytes(dst, h, offset, JobSrc::Owned(data.to_vec()), data.len())
    }

    fn put_from(
        &mut self,
        dst: usize,
        dst_h: RegionHandle,
        dst_off: u64,
        src_h: RegionHandle,
        src_off: usize,
        len: usize,
    ) -> Result<OsToken, OsError> {
        if len > 0 {
            self.regions.check_local(src_h, src_off, len)?;
            self.regions.pin(src_h.index);
        }
        Ok(self.put_bytes(
            dst,
            dst_h,
            dst_off,
            JobSrc::Region {
                index: src_h.index,
                offset: src_off,
            },
            len,
        ))
    }

    fn get(
        &mut self,
        dst: usize,
        remote_h: RegionHandle,
        remote_off: u64,
        local_h: RegionHandle,
        local_off: usize,
        len: usize,
    ) -> Result<OsToken, OsError> {
        let token = self.alloc_token();
        if len == 0 {
            self.complete(token, OsStatus::Ok);
            return Ok(OsToken(token));
        }
        self.regions.check_local(local_h, local_off, len)?;
        self.regions.pin(local_h.index);
        let xfer = self.alloc_xfer(dst);
        self.grants.insert(
            (dst, xfer),
            Grant {
                slot: local_h.index,
                offset: local_off,
                len,
                cursor: 0,
                origin: GrantOrigin::GetLocal { token },
            },
        );
        self.ops.insert(
            token,
            OpState {
                dst,
                kind: OpKind::Get {
                    grant_key: (dst, xfer),
                },
            },
        );
        self.outbox.push_back((
            dst,
            OpHeader {
                op: OP_GET,
                a: token,
                b: remote_h.index,
                c: remote_h.epoch,
                d: remote_off,
                e: len as u64,
                f: xfer as u64,
            },
        ));
        Ok(OsToken(token))
    }

    fn grant_from(
        &mut self,
        src_peer: usize,
        h: RegionHandle,
        offset: usize,
        len: usize,
    ) -> Result<u32, OsError> {
        self.regions.check_local(h, offset, len)?;
        self.regions.pin(h.index);
        let xfer = self.alloc_xfer(src_peer);
        self.grants.insert(
            (src_peer, xfer),
            Grant {
                slot: h.index,
                offset,
                len,
                cursor: 0,
                origin: GrantOrigin::External,
            },
        );
        Ok(xfer)
    }

    fn send_granted(&mut self, dst: usize, xfer: u32, data: Vec<u8>) {
        if data.is_empty() {
            return;
        }
        let len = data.len();
        self.jobs.push_back(SendJob {
            dst,
            kind: JobKind::Data { xfer },
            src: JobSrc::Owned(data),
            len,
            cursor: 0,
        });
    }

    // -- packet ingestion (sink handler) -----------------------------

    fn on_packet(&mut self, src: usize, meta: SinkMeta, payload: &[u8]) {
        if meta.first {
            let Some(hdr) = OpHeader::decode(payload) else {
                self.protocol_drops += 1;
                return;
            };
            match hdr.op {
                OP_RTS => self.on_rts(src, hdr),
                OP_CTS => self.on_cts(src, hdr),
                OP_FIN => self.on_fin(hdr),
                OP_GET => self.on_get(src, hdr),
                OP_DATA => {
                    let key = (src, hdr.a);
                    self.write_grant(key, &payload[OP_HDR_BYTES..]);
                    if !meta.last {
                        self.rx.insert((src, meta.msg_seq), key);
                    }
                }
                _ => self.protocol_drops += 1,
            }
        } else {
            let rxk = (src, meta.msg_seq);
            let Some(&key) = self.rx.get(&rxk) else {
                self.protocol_drops += 1;
                return;
            };
            self.write_grant(key, payload);
            if meta.last {
                self.rx.remove(&rxk);
            }
        }
    }

    fn on_rts(&mut self, src: usize, hdr: OpHeader) {
        let status = self.regions.check(hdr.b, hdr.c, hdr.d, hdr.e);
        if status != OsStatus::Ok {
            self.outbox.push_back((
                src,
                OpHeader {
                    op: OP_FIN,
                    a: hdr.a,
                    b: status.to_wire(),
                    ..OpHeader::zero(OP_FIN)
                },
            ));
            return;
        }
        self.regions.pin(hdr.b);
        let xfer = self.alloc_xfer(src);
        self.grants.insert(
            (src, xfer),
            Grant {
                slot: hdr.b,
                offset: hdr.d as usize,
                len: hdr.e as usize,
                cursor: 0,
                origin: GrantOrigin::PutFin { token: hdr.a },
            },
        );
        self.outbox.push_back((
            src,
            OpHeader {
                op: OP_CTS,
                a: hdr.a,
                b: xfer,
                ..OpHeader::zero(OP_CTS)
            },
        ));
    }

    fn on_cts(&mut self, src: usize, hdr: OpHeader) {
        let token = hdr.a;
        let Some(op) = self.ops.remove(&token) else {
            return; // stale CTS (op aborted): ignore
        };
        match op.kind {
            OpKind::RndvWait { src: data_src, len } => {
                self.jobs.push_back(SendJob {
                    dst: src,
                    kind: JobKind::Data { xfer: hdr.b },
                    src: data_src,
                    len,
                    cursor: 0,
                });
                self.ops.insert(
                    token,
                    OpState {
                        dst: op.dst,
                        kind: OpKind::RndvData,
                    },
                );
            }
            kind => {
                // CTS for an op not in RndvWait: protocol violation;
                // put the op back untouched.
                self.protocol_drops += 1;
                self.ops.insert(token, OpState { dst: op.dst, kind });
            }
        }
    }

    fn on_fin(&mut self, hdr: OpHeader) {
        let token = hdr.a;
        let status = OsStatus::from_wire(hdr.b);
        let Some(op) = self.ops.remove(&token) else {
            return; // duplicate / stale FIN
        };
        match op.kind {
            OpKind::EagerPut | OpKind::RndvData => {}
            OpKind::RndvWait { src, .. } => {
                // Target refused the RTS; release the parked source.
                self.finish_job_src(&src);
            }
            OpKind::Get { grant_key } => {
                // Gets only receive FINs on error: tear the grant down.
                if let Some(g) = self.grants.remove(&grant_key) {
                    self.regions.unpin(g.slot);
                }
            }
        }
        self.complete(token, status);
    }

    fn on_get(&mut self, src: usize, hdr: OpHeader) {
        let status = self.regions.check(hdr.b, hdr.c, hdr.d, hdr.e);
        if status != OsStatus::Ok {
            self.outbox.push_back((
                src,
                OpHeader {
                    op: OP_FIN,
                    a: hdr.a,
                    b: status.to_wire(),
                    ..OpHeader::zero(OP_FIN)
                },
            ));
            return;
        }
        self.regions.pin(hdr.b);
        self.jobs.push_back(SendJob {
            dst: src,
            kind: JobKind::Data { xfer: hdr.f as u32 },
            src: JobSrc::Region {
                index: hdr.b,
                offset: hdr.d as usize,
            },
            len: hdr.e as usize,
            cursor: 0,
        });
    }

    fn write_grant(&mut self, key: (usize, u32), data: &[u8]) {
        let Some(g) = self.grants.get_mut(&key) else {
            self.protocol_drops += 1;
            return;
        };
        if g.cursor + data.len() > g.len {
            self.protocol_drops += 1;
            return;
        }
        let (slot, at) = (g.slot, g.offset + g.cursor);
        g.cursor += data.len();
        let done = g.cursor == g.len;
        let origin = g.origin;
        self.regions.write(slot, at, data);
        self.pending_copy_bytes += data.len() as u64;
        if done {
            self.grants.remove(&key);
            self.regions.unpin(slot);
            match origin {
                GrantOrigin::PutFin { token } => self.outbox.push_back((
                    key.0,
                    OpHeader {
                        op: OP_FIN,
                        a: token,
                        b: OsStatus::Ok.to_wire(),
                        ..OpHeader::zero(OP_FIN)
                    },
                )),
                GrantOrigin::GetLocal { token } => {
                    self.ops.remove(&token);
                    self.complete(token, OsStatus::Ok);
                }
                GrantOrigin::External => {
                    self.completed_grants.insert(key);
                }
            }
        }
    }

    /// Apply an eager put delivered as one assembled message (fast
    /// handler, FM 2.x async fallback, or FM 1.x assembly).
    fn apply_eager_put(&mut self, src: usize, hdr: OpHeader, body: &[u8]) {
        let mut status = self.regions.check(hdr.b, hdr.c, hdr.d, hdr.e);
        if status == OsStatus::Ok && body.len() as u64 != hdr.e {
            self.protocol_drops += 1;
            status = OsStatus::OutOfBounds;
        }
        if status == OsStatus::Ok {
            self.regions.write(hdr.b, hdr.d as usize, body);
            self.pending_copy_bytes += body.len() as u64;
        }
        self.outbox.push_back((
            src,
            OpHeader {
                op: OP_FIN,
                a: hdr.a,
                b: status.to_wire(),
                ..OpHeader::zero(OP_FIN)
            },
        ));
    }

    // -- peer failure -------------------------------------------------

    /// Abort everything addressed to (or fed by) downed peers: ops
    /// complete with [`OsStatus::PeerDown`] instead of hanging.
    fn abort_peers(&mut self, downed: &[usize]) {
        let dead = |p: usize| downed.contains(&p);
        let tokens: Vec<u32> = self
            .ops
            .iter()
            .filter(|(_, op)| dead(op.dst))
            .map(|(&t, _)| t)
            .collect();
        for t in tokens {
            let op = self.ops.remove(&t).expect("collected above");
            match op.kind {
                OpKind::EagerPut | OpKind::RndvData => {}
                OpKind::RndvWait { src, .. } => self.finish_job_src(&src),
                OpKind::Get { grant_key } => {
                    if let Some(g) = self.grants.remove(&grant_key) {
                        self.regions.unpin(g.slot);
                    }
                }
            }
            self.complete(t, OsStatus::PeerDown);
        }
        let gone: Vec<(usize, u32)> = self
            .grants
            .keys()
            .filter(|(p, _)| dead(*p))
            .copied()
            .collect();
        for key in gone {
            let g = self.grants.remove(&key).expect("collected above");
            self.regions.unpin(g.slot);
        }
        self.rx.retain(|(p, _), _| !dead(*p));
        self.outbox.retain(|(d, _)| !dead(*d));
        let mut keep = VecDeque::with_capacity(self.jobs.len());
        while let Some(job) = self.jobs.pop_front() {
            if dead(job.dst) {
                self.finish_job_src(&job.src);
            } else {
                keep.push_back(job);
            }
        }
        self.jobs = keep;
    }

    fn take_pending_copy(&mut self) -> u64 {
        std::mem::take(&mut self.pending_copy_bytes)
    }
}

// ----------------------------------------------------------------------
// OsPort: the shared state handle
// ----------------------------------------------------------------------

/// Clonable handle to a node's one-sided state (region table, ops,
/// grants). All registration and transfer-initiation APIs live here;
/// the engine driver ([`Onesided`]) moves its queued work onto the
/// wire.
#[derive(Clone)]
pub struct OsPort {
    core: Rc<RefCell<OsCore>>,
}

impl OsPort {
    /// `FM_register`: expose the arena window `[offset, offset+len)`
    /// for remote puts/gets. Refused if out of arena bounds or
    /// overlapping an existing registration.
    pub fn register(&self, offset: usize, len: usize) -> Result<RegionHandle, OsError> {
        self.core.borrow_mut().regions.register(offset, len)
    }

    /// Register a caller-owned buffer as a receive region (used by
    /// layered libraries landing data in their own allocations).
    pub fn register_owned(&self, buf: Vec<u8>) -> Result<RegionHandle, OsError> {
        self.core.borrow_mut().regions.register_owned(buf)
    }

    /// `FM_deregister`: retire a region handle. Refused with
    /// [`OsError::RegionBusy`] while any transfer is pinned on it, so
    /// handles never dangle; the slot's epoch is bumped so stale
    /// handles are detected, not aliased.
    pub fn deregister(&self, h: RegionHandle) -> Result<(), OsError> {
        self.core.borrow_mut().regions.deregister(h).map(|_| ())
    }

    /// Deregister an [`register_owned`](Self::register_owned) region
    /// and recover its buffer.
    pub fn deregister_owned(&self, h: RegionHandle) -> Result<Vec<u8>, OsError> {
        let mut core = self.core.borrow_mut();
        // Refuse (without freeing) if this is an arena region.
        {
            let slot = core
                .regions
                .slots
                .get(h.index as usize)
                .ok_or(OsError::BadHandle)?;
            if slot.epoch == h.epoch && matches!(slot.kind, Some(RegionKind::Arena { .. })) {
                return Err(OsError::BadHandle);
            }
        }
        match core.regions.deregister(h)? {
            RegionKind::Owned(v) => Ok(v),
            RegionKind::Arena { .. } => unreachable!("filtered above"),
        }
    }

    /// Copy into a local registered region (local store).
    pub fn write_local(&self, h: RegionHandle, offset: usize, data: &[u8]) -> Result<(), OsError> {
        let mut core = self.core.borrow_mut();
        core.regions.check_local(h, offset, data.len())?;
        core.regions.write(h.index, offset, data);
        Ok(())
    }

    /// Copy out of a local registered region (local load).
    pub fn read_local(
        &self,
        h: RegionHandle,
        offset: usize,
        out: &mut [u8],
    ) -> Result<(), OsError> {
        let core = self.core.borrow();
        core.regions.check_local(h, offset, out.len())?;
        core.regions.read(h.index, offset, out);
        Ok(())
    }

    /// `FM_put`: copy `data` into the remote region `h` at `offset`.
    /// The payload is captured immediately (the caller's buffer is free
    /// on return); completion arrives as an [`OsCompletion`]. Small
    /// puts go eagerly, large ones via rendezvous.
    pub fn put(&self, dst: usize, h: RegionHandle, offset: u64, data: &[u8]) -> OsToken {
        self.core.borrow_mut().put(dst, h, offset, data)
    }

    /// Zero-copy `FM_put`: source the payload from a *local* registered
    /// region instead of copying it. The source region is pinned until
    /// the transfer leaves the node; steady-state this path allocates
    /// nothing.
    pub fn put_from(
        &self,
        dst: usize,
        dst_h: RegionHandle,
        dst_off: u64,
        src_h: RegionHandle,
        src_off: usize,
        len: usize,
    ) -> Result<OsToken, OsError> {
        self.core
            .borrow_mut()
            .put_from(dst, dst_h, dst_off, src_h, src_off, len)
    }

    /// `FM_get`: fetch `len` bytes of remote region `remote_h` at
    /// `remote_off` into the local region `local_h` at `local_off`.
    /// Always rendezvous-shaped (the reply streams into the local
    /// region through the sink with no staging copy).
    pub fn get(
        &self,
        dst: usize,
        remote_h: RegionHandle,
        remote_off: u64,
        local_h: RegionHandle,
        local_off: usize,
        len: usize,
    ) -> Result<OsToken, OsError> {
        self.core
            .borrow_mut()
            .get(dst, remote_h, remote_off, local_h, local_off, len)
    }

    /// Grant `src_peer` a transfer credit into local region `h` at
    /// `offset` (out-of-band rendezvous for layered libraries: the
    /// returned xfer id travels in the library's own CTS). Completion
    /// is observed with [`take_grant_complete`](Self::take_grant_complete).
    pub fn grant_from(
        &self,
        src_peer: usize,
        h: RegionHandle,
        offset: usize,
        len: usize,
    ) -> Result<u32, OsError> {
        self.core.borrow_mut().grant_from(src_peer, h, offset, len)
    }

    /// Stream `data` into a transfer credit previously granted by `dst`
    /// (the counterpart of [`grant_from`](Self::grant_from)).
    pub fn send_granted(&self, dst: usize, xfer: u32, data: Vec<u8>) {
        self.core.borrow_mut().send_granted(dst, xfer, data)
    }

    /// True once the grant `xfer` from `peer` has been filled; consumes
    /// the completion record.
    pub fn take_grant_complete(&self, peer: usize, xfer: u32) -> bool {
        self.core
            .borrow_mut()
            .completed_grants
            .remove(&(peer, xfer))
    }

    /// Pop the next completion notification, if any.
    pub fn poll_completion(&self) -> Option<OsCompletion> {
        self.core.borrow_mut().completions.pop_front()
    }

    /// Outstanding initiator-side ops (puts/gets not yet completed).
    pub fn pending_ops(&self) -> usize {
        self.core.borrow().ops.len()
    }

    /// Malformed or unmatchable protocol packets dropped so far.
    pub fn protocol_drops(&self) -> u64 {
        self.core.borrow().protocol_drops
    }
}

// ----------------------------------------------------------------------
// FM 2.x driver
// ----------------------------------------------------------------------

struct OpenChunk {
    ss: SendStream,
    hdr: [u8; OP_HDR_BYTES],
    hdr_off: usize,
    chunk_len: usize,
    chunk_off: usize,
}

struct ActiveSend {
    job: SendJob,
    open: Option<OpenChunk>,
}

/// One-sided port over an [`Fm2Engine`]: DATA chunks are gather-sent
/// straight out of the source region (no send staging copy) and land in
/// the destination region through a per-packet sink handler (no receive
/// staging copy) — one delivery copy end to end, zero allocations per
/// message in steady state.
pub struct Onesided<D: NetDevice> {
    fm: Fm2Engine<D>,
    port: OsPort,
    active: Option<ActiveSend>,
    notify: Option<Box<dyn FnMut(OsCompletion)>>,
}

impl<D: NetDevice> Onesided<D> {
    /// Attach a one-sided port to `fm`, installing its sink (control +
    /// DATA) and eager handlers.
    pub fn new(fm: &Fm2Engine<D>, cfg: OnesidedConfig) -> Self {
        let core = Rc::new(RefCell::new(OsCore::new(fm.num_nodes(), cfg)));
        let c = Rc::clone(&core);
        fm.set_sink_handler(ONESIDED_HANDLER, move |src, meta, payload| {
            c.borrow_mut().on_packet(src, meta, payload);
        });
        // Single-packet eager puts: zero-copy view, applied in place.
        let c = Rc::clone(&core);
        fm.set_fast_handler(OS_EAGER_HANDLER, move |src, payload| {
            let mut core = c.borrow_mut();
            match OpHeader::decode(payload) {
                Some(hdr) if hdr.op == OP_PUT_EAGER => {
                    core.apply_eager_put(src, hdr, &payload[OP_HDR_BYTES..]);
                }
                _ => core.protocol_drops += 1,
            }
        });
        // Multi-packet eager puts: the honest staged path (header read,
        // payload assembled in a temporary, then copied into place).
        let c = Rc::clone(&core);
        fm.set_handler(OS_EAGER_HANDLER, move |stream, src| {
            let c = Rc::clone(&c);
            async move {
                let mut hdr = [0u8; OP_HDR_BYTES];
                stream.receive(&mut hdr).await;
                let body = stream.receive_vec(stream.remaining()).await;
                let mut core = c.borrow_mut();
                match OpHeader::decode(&hdr) {
                    Some(h) if h.op == OP_PUT_EAGER => core.apply_eager_put(src, h, &body),
                    _ => core.protocol_drops += 1,
                }
            }
        });
        Onesided {
            fm: fm.clone(),
            port: OsPort { core },
            active: None,
            notify: None,
        }
    }

    /// The shared state handle (registration + transfer APIs). Clone it
    /// freely; the driver and all clones see the same tables.
    pub fn port(&self) -> OsPort {
        self.port.clone()
    }

    /// Install the local completion-notification handler, called from
    /// [`progress`](Self::progress) as FINs arrive. Without one,
    /// completions queue for [`OsPort::poll_completion`].
    pub fn set_notify<F: FnMut(OsCompletion) + 'static>(&mut self, f: F) {
        self.notify = Some(Box::new(f));
    }

    /// See [`OsPort::register`].
    pub fn register(&self, offset: usize, len: usize) -> Result<RegionHandle, OsError> {
        self.port.register(offset, len)
    }

    /// See [`OsPort::register_owned`].
    pub fn register_owned(&self, buf: Vec<u8>) -> Result<RegionHandle, OsError> {
        self.port.register_owned(buf)
    }

    /// See [`OsPort::deregister`].
    pub fn deregister(&self, h: RegionHandle) -> Result<(), OsError> {
        self.port.deregister(h)
    }

    /// See [`OsPort::deregister_owned`].
    pub fn deregister_owned(&self, h: RegionHandle) -> Result<Vec<u8>, OsError> {
        self.port.deregister_owned(h)
    }

    /// See [`OsPort::put`].
    pub fn put(&self, dst: usize, h: RegionHandle, offset: u64, data: &[u8]) -> OsToken {
        self.port.put(dst, h, offset, data)
    }

    /// See [`OsPort::put_from`].
    pub fn put_from(
        &self,
        dst: usize,
        dst_h: RegionHandle,
        dst_off: u64,
        src_h: RegionHandle,
        src_off: usize,
        len: usize,
    ) -> Result<OsToken, OsError> {
        self.port.put_from(dst, dst_h, dst_off, src_h, src_off, len)
    }

    /// See [`OsPort::get`].
    pub fn get(
        &self,
        dst: usize,
        remote_h: RegionHandle,
        remote_off: u64,
        local_h: RegionHandle,
        local_off: usize,
        len: usize,
    ) -> Result<OsToken, OsError> {
        self.port
            .get(dst, remote_h, remote_off, local_h, local_off, len)
    }

    /// See [`OsPort::poll_completion`].
    pub fn poll_completion(&self) -> Option<OsCompletion> {
        self.port.poll_completion()
    }

    /// See [`OsPort::pending_ops`].
    pub fn pending_ops(&self) -> usize {
        self.port.pending_ops()
    }

    /// Move queued protocol work onto the wire: charge sink copies to
    /// the cost model, abort ops to downed peers, flush control frames,
    /// stream DATA/eager jobs as credits allow, and deliver completion
    /// notifications. Returns `true` when nothing remains queued.
    /// Call from the transport's pump loop alongside `extract`.
    pub fn progress(&mut self) -> bool {
        self.fm.progress();
        let copied = self.port.core.borrow_mut().take_pending_copy();
        if copied > 0 {
            self.fm.charge_memcpy(copied as usize);
        }
        if self.fm.has_downed_peers() {
            let downed = self.fm.downed_peers();
            if let Some(act) = self.active.take() {
                if downed.contains(&act.job.dst) {
                    self.port.core.borrow_mut().finish_job_src(&act.job.src);
                } else {
                    self.active = Some(act);
                }
            }
            self.port.core.borrow_mut().abort_peers(&downed);
        }
        let mut blocked = false;
        loop {
            let next = self.port.core.borrow_mut().outbox.pop_front();
            let Some((dst, hdr)) = next else { break };
            if self
                .fm
                .try_send_message(dst, ONESIDED_HANDLER, &[&hdr.encode()])
                .is_err()
            {
                self.port.core.borrow_mut().outbox.push_front((dst, hdr));
                blocked = true;
                break;
            }
        }
        while !blocked {
            if self.active.is_none() {
                let Some(job) = self.port.core.borrow_mut().jobs.pop_front() else {
                    break;
                };
                self.active = Some(ActiveSend { job, open: None });
            }
            if self.pump_active() {
                let act = self.active.take().expect("pump_active had an active job");
                self.port.core.borrow_mut().finish_job_src(&act.job.src);
            } else {
                blocked = true;
            }
        }
        if self.notify.is_some() {
            while let Some(c) = self.port.poll_completion() {
                if let Some(f) = self.notify.as_mut() {
                    f(c);
                }
            }
        }
        let core = self.port.core.borrow();
        !blocked && core.outbox.is_empty() && core.jobs.is_empty() && self.active.is_none()
    }

    /// Stream the active job as far as credits allow. Returns `true`
    /// when the job is fully on the wire.
    fn pump_active(&mut self) -> bool {
        let act = self.active.as_mut().expect("caller checked");
        let chunk_max = {
            let core = self.port.core.borrow();
            core.cfg.chunk_bytes.max(1)
        };
        loop {
            if act.open.is_none() {
                if act.job.cursor >= act.job.len {
                    return true;
                }
                let (hdr, clen, handler) = match &act.job.kind {
                    JobKind::Eager { hdr } => (*hdr, act.job.len, OS_EAGER_HANDLER),
                    JobKind::Data { xfer } => (
                        OpHeader {
                            a: *xfer,
                            ..OpHeader::zero(OP_DATA)
                        },
                        chunk_max.min(act.job.len - act.job.cursor),
                        ONESIDED_HANDLER,
                    ),
                };
                let ss = self
                    .fm
                    .begin_message(act.job.dst, OP_HDR_BYTES + clen, handler);
                act.open = Some(OpenChunk {
                    ss,
                    hdr: hdr.encode(),
                    hdr_off: 0,
                    chunk_len: clen,
                    chunk_off: 0,
                });
            }
            let open = act.open.as_mut().expect("just ensured");
            while open.hdr_off < OP_HDR_BYTES {
                match self
                    .fm
                    .try_send_piece(&mut open.ss, &open.hdr[open.hdr_off..])
                {
                    Ok(n) => open.hdr_off += n,
                    Err(WouldBlock) => return false,
                }
            }
            while open.chunk_off < open.chunk_len {
                let at = act.job.cursor + open.chunk_off;
                let want = open.chunk_len - open.chunk_off;
                let sent = {
                    let core = self.port.core.borrow();
                    let piece: &[u8] = match &act.job.src {
                        JobSrc::Owned(v) => &v[at..at + want],
                        JobSrc::Region { index, offset } => {
                            core.regions.slice(*index, offset + at, want)
                        }
                    };
                    self.fm.try_send_piece(&mut open.ss, piece)
                };
                match sent {
                    Ok(n) => open.chunk_off += n,
                    Err(WouldBlock) => return false,
                }
            }
            match self.fm.try_end_message(&mut open.ss) {
                Ok(()) => {
                    act.job.cursor += open.chunk_len;
                    act.open = None;
                }
                Err(WouldBlock) => return false,
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::device::{LoopbackDevice, LoopbackPair};
    use fm_model::MachineProfile;

    const ARENA: usize = 1 << 16;

    fn cfg() -> OnesidedConfig {
        OnesidedConfig {
            arena_bytes: ARENA,
            eager_max: 2 * 1024,
            chunk_bytes: 4 * 1024,
        }
    }

    fn pattern(len: usize, seed: u8) -> Vec<u8> {
        (0..len)
            .map(|i| (i as u8).wrapping_mul(31).wrapping_add(seed))
            .collect()
    }

    struct Pair {
        a: Onesided<LoopbackDevice>,
        b: Onesided<LoopbackDevice>,
    }

    impl Pair {
        fn new() -> Self {
            let (da, db) = LoopbackPair::new(256);
            let fa = Fm2Engine::new(da, MachineProfile::ppro200_fm2());
            let fb = Fm2Engine::new(db, MachineProfile::ppro200_fm2());
            Pair {
                a: Onesided::new(&fa, cfg()),
                b: Onesided::new(&fb, cfg()),
            }
        }

        fn pump_once(&mut self) {
            self.a.progress();
            self.b.progress();
            self.a
                .fm
                .with_device(|x| self.b.fm.with_device(|y| LoopbackPair::deliver(x, y)));
            self.a.fm.extract_all();
            self.b.fm.extract_all();
        }

        fn pump_until(&mut self, mut done: impl FnMut(&mut Self) -> bool) {
            for _ in 0..10_000 {
                self.pump_once();
                if done(self) {
                    return;
                }
            }
            panic!("pump_until: no progress after 10k rounds");
        }

        fn wait_completion(&mut self, on: char, token: OsToken) -> OsStatus {
            let mut got = None;
            self.pump_until(|p| {
                let port = if on == 'a' { p.a.port() } else { p.b.port() };
                while let Some(c) = port.poll_completion() {
                    if c.token == token {
                        got = Some(c.status);
                    }
                }
                got.is_some()
            });
            got.expect("completion observed")
        }
    }

    #[test]
    fn register_rejects_out_of_bounds_and_overlap() {
        let p = Pair::new();
        let port = p.a.port();
        assert_eq!(port.register(0, 0), Err(OsError::OutOfBounds));
        assert_eq!(port.register(ARENA - 8, 16), Err(OsError::OutOfBounds));
        let h = port.register(1024, 512).unwrap();
        assert_eq!(port.register(1024, 512), Err(OsError::Overlap));
        assert_eq!(port.register(1535, 8), Err(OsError::Overlap));
        assert_eq!(port.register(512, 600), Err(OsError::Overlap));
        // Adjacent windows are fine.
        let h2 = port.register(1536, 64).unwrap();
        port.deregister(h).unwrap();
        port.deregister(h2).unwrap();
        // Freed window can be re-registered; the reused slot carries a
        // bumped epoch, so the old handle is detectably stale.
        let h3 = port.register(1024, 512).unwrap();
        assert!(h3.index == h.index || h3.index == h2.index);
        assert_ne!((h3.index, h3.epoch), (h.index, h.epoch));
        assert_eq!(port.deregister(h), Err(OsError::Deregistered));
        port.deregister(h3).unwrap();
    }

    #[test]
    fn eager_put_roundtrip() {
        let mut p = Pair::new();
        let dst = p.b.register(0, 4096).unwrap();
        let data = pattern(1000, 7);
        let tok = p.a.put(1, dst, 100, &data);
        assert_eq!(p.wait_completion('a', tok), OsStatus::Ok);
        let mut out = vec![0u8; 1000];
        p.b.port().read_local(dst, 100, &mut out).unwrap();
        assert_eq!(out, data);
    }

    #[test]
    fn rendezvous_put_roundtrip_multi_chunk() {
        let mut p = Pair::new();
        let dst = p.b.register(0, 40 * 1024).unwrap();
        let data = pattern(20 * 1024 + 13, 3); // > eager_max, > chunk
        let tok = p.a.put(1, dst, 512, &data);
        assert_eq!(p.wait_completion('a', tok), OsStatus::Ok);
        let mut out = vec![0u8; data.len()];
        p.b.port().read_local(dst, 512, &mut out).unwrap();
        assert_eq!(out, data);
    }

    #[test]
    fn put_from_registered_source() {
        let mut p = Pair::new();
        let dst = p.b.register(0, 32 * 1024).unwrap();
        let src = p.a.register(0, 32 * 1024).unwrap();
        let data = pattern(9 * 1024, 5);
        p.a.port().write_local(src, 256, &data).unwrap();
        let tok = p.a.put_from(1, dst, 0, src, 256, data.len()).unwrap();
        assert_eq!(p.wait_completion('a', tok), OsStatus::Ok);
        let mut out = vec![0u8; data.len()];
        p.b.port().read_local(dst, 0, &mut out).unwrap();
        assert_eq!(out, data);
        // Source was unpinned once streamed: deregister succeeds.
        p.a.deregister(src).unwrap();
    }

    #[test]
    fn get_roundtrip() {
        let mut p = Pair::new();
        let remote = p.b.register(0, 32 * 1024).unwrap();
        let local = p.a.register(0, 32 * 1024).unwrap();
        let data = pattern(10 * 1024, 9);
        p.b.port().write_local(remote, 64, &data).unwrap();
        let tok = p.a.get(1, remote, 64, local, 128, data.len()).unwrap();
        assert_eq!(p.wait_completion('a', tok), OsStatus::Ok);
        let mut out = vec![0u8; data.len()];
        p.a.port().read_local(local, 128, &mut out).unwrap();
        assert_eq!(out, data);
    }

    #[test]
    fn error_completions_report_remote_failures() {
        let mut p = Pair::new();
        let real = p.b.register(0, 1024).unwrap();
        // Bad slot index.
        let bogus = RegionHandle {
            index: 99,
            epoch: 0,
        };
        let t1 = p.a.put(1, bogus, 0, &pattern(100, 1));
        assert_eq!(p.wait_completion('a', t1), OsStatus::BadHandle);
        // Out of bounds (eager and rendezvous shapes).
        let t2 = p.a.put(1, real, 1000, &pattern(100, 2));
        assert_eq!(p.wait_completion('a', t2), OsStatus::OutOfBounds);
        let t3 = p.a.put(1, real, 0, &pattern(8 * 1024, 3));
        assert_eq!(p.wait_completion('a', t3), OsStatus::OutOfBounds);
        // Use after deregister.
        p.b.deregister(real).unwrap();
        let t4 = p.a.put(1, real, 0, &pattern(100, 4));
        assert_eq!(p.wait_completion('a', t4), OsStatus::Deregistered);
        // Get against a deregistered region errors too (FIN path).
        let local = p.a.register(0, 1024).unwrap();
        let t5 = p.a.get(1, real, 0, local, 0, 64).unwrap();
        assert_eq!(p.wait_completion('a', t5), OsStatus::Deregistered);
        p.a.deregister(local).unwrap();
    }

    #[test]
    fn deregister_refused_while_pinned_then_allowed() {
        let mut p = Pair::new();
        let dst = p.b.register(0, 32 * 1024).unwrap();
        let src = p.a.register(0, 32 * 1024).unwrap();
        let data = pattern(12 * 1024, 11);
        p.a.port().write_local(src, 0, &data).unwrap();
        let tok = p.a.put_from(1, dst, 0, src, 0, data.len()).unwrap();
        // The source is pinned while the rendezvous is outstanding.
        assert_eq!(p.a.deregister(src), Err(OsError::RegionBusy));
        assert_eq!(p.wait_completion('a', tok), OsStatus::Ok);
        p.a.deregister(src).unwrap();
        p.b.deregister(dst).unwrap();
    }

    #[test]
    fn out_of_order_completions() {
        let mut p = Pair::new();
        let dst = p.b.register(0, 64 * 1024).unwrap();
        // Issue a big rendezvous put, then a small eager put. The eager
        // one overtakes (no RTS/CTS round trip before its data).
        let big = pattern(24 * 1024, 21);
        let small = pattern(256, 22);
        let t_big = p.a.put(1, dst, 0, &big);
        let t_small = p.a.put(1, dst, 32 * 1024, &small);
        let mut order = Vec::new();
        p.pump_until(|p| {
            while let Some(c) = p.a.port().poll_completion() {
                assert_eq!(c.status, OsStatus::Ok);
                order.push(c.token);
            }
            order.len() == 2
        });
        assert!(order.contains(&t_big) && order.contains(&t_small));
        let mut out = vec![0u8; big.len()];
        p.b.port().read_local(dst, 0, &mut out).unwrap();
        assert_eq!(out, big);
        let mut out = vec![0u8; small.len()];
        p.b.port().read_local(dst, 32 * 1024, &mut out).unwrap();
        assert_eq!(out, small);
    }

    #[test]
    fn self_put_and_get() {
        let mut p = Pair::new();
        let region = p.a.register(0, 32 * 1024).unwrap();
        let small = pattern(512, 31);
        let t1 = p.a.put(0, region, 0, &small);
        assert_eq!(p.wait_completion('a', t1), OsStatus::Ok);
        let big = pattern(12 * 1024, 32);
        let t2 = p.a.put(0, region, 1024, &big);
        assert_eq!(p.wait_completion('a', t2), OsStatus::Ok);
        let mut out = vec![0u8; big.len()];
        p.a.port().read_local(region, 1024, &mut out).unwrap();
        assert_eq!(out, big);
        let scratch = p.a.register_owned(vec![0u8; 512]).unwrap();
        let t3 = p.a.get(0, region, 0, scratch, 0, 512).unwrap();
        assert_eq!(p.wait_completion('a', t3), OsStatus::Ok);
        let out = p.a.deregister_owned(scratch).unwrap();
        assert_eq!(out, small);
    }

    #[test]
    fn grant_from_and_send_granted() {
        let mut p = Pair::new();
        // b grants a a transfer into an owned buffer (the mpi-fm
        // rendezvous shape: the xfer id travels out of band).
        let buf = p.b.register_owned(vec![0u8; 8 * 1024]).unwrap();
        let xfer = p.b.port().grant_from(0, buf, 0, 8 * 1024).unwrap();
        let data = pattern(8 * 1024, 41);
        p.a.port().send_granted(1, xfer, data.clone());
        p.pump_until(|p| p.b.port().take_grant_complete(0, xfer));
        let out = p.b.deregister_owned(buf).unwrap();
        assert_eq!(out, data);
    }
}
