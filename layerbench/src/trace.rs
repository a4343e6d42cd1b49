//! Spans recorded from outside the program, around each call into a
//! layer.
//!
//! A rank thread that traces installs a [`Tracer`] in a thread-local
//! slot. [`span`] times a call into an upper layer (MPI, sockets,
//! shmem, the FM engine) and [`Traced`] wraps a [`NetDevice`] so every
//! device call becomes a leaf span under whatever layer call made it.
//! Per layer the tracer keeps a count, the total time and the time its
//! direct children took, so self time is total minus children. The
//! first [`MAX_SPANS`] spans of each thread are kept whole (name, start,
//! end, parent, operation id) and written out at the end of the run.
//! Without an installed tracer [`span`] costs one thread-local check.

use std::cell::RefCell;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

use fm_core::device::{DeviceFull, NetDevice, PeerEvent};
use fm_core::onesided::OS_EAGER_HANDLER;
use fm_core::packet::{FmPacket, PacketFlags};
use fm_model::Nanos;
use fm_shm::ShmDevice;
use fm_udp::UdpDevice;

/// The layer boundaries the benchmark times.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layer {
    /// A device accepted a packet.
    DevSend,
    /// A device refused a packet (queue or ring full).
    DevFull,
    /// A device returned a packet.
    DevRecv,
    /// A device poll that found nothing.
    DevEmpty,
    FmExtract,
    MpiIsend,
    MpiIrecv,
    MpiProgress,
    SockSend,
    SockRecv,
    ShmemPut,
    ShmemQuiet,
    ShmemGet,
}

const LAYERS: usize = 13;

impl Layer {
    fn name(self, dev: &str) -> String {
        match self {
            Layer::DevSend => format!("{dev}.send"),
            Layer::DevFull => format!("{dev}.send_full"),
            Layer::DevRecv => format!("{dev}.recv"),
            Layer::DevEmpty => format!("{dev}.recv_empty"),
            Layer::FmExtract => "fm-core.extract_all+progress".into(),
            Layer::MpiIsend => "mpi-fm.isend".into(),
            Layer::MpiIrecv => "mpi-fm.irecv".into(),
            Layer::MpiProgress => "mpi-fm.progress".into(),
            Layer::SockSend => "sockets-fm.try_send".into(),
            Layer::SockRecv => "sockets-fm.try_recv".into(),
            Layer::ShmemPut => "shmem-fm.put".into(),
            Layer::ShmemQuiet => "shmem-fm.quiet".into(),
            Layer::ShmemGet => "shmem-fm.get".into(),
        }
    }
}

/// Whole spans kept per thread; later spans are only aggregated.
pub const MAX_SPANS: usize = 100_000;

const NO_PARENT: u32 = u32::MAX;

#[derive(Debug, Clone, Copy, Default)]
pub struct Agg {
    pub count: u64,
    pub total_ns: u64,
    /// Time spent in direct children.
    pub child_ns: u64,
}

impl Agg {
    pub fn mean_ns(&self) -> f64 {
        ratio(self.total_ns, self.count)
    }

    pub fn self_ns(&self) -> u64 {
        self.total_ns.saturating_sub(self.child_ns)
    }

    pub fn add(&mut self, o: &Agg) {
        self.count += o.count;
        self.total_ns += o.total_ns;
        self.child_ns += o.child_ns;
    }
}

/// `num / den`, or 0 when nothing was counted.
pub fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

#[derive(Debug, Clone, Copy)]
struct Span {
    layer: Layer,
    op: u64,
    start_ns: u64,
    end_ns: u64,
    parent: u32,
}

struct Open {
    start: Instant,
    child_ns: u64,
    idx: u32,
}

pub struct Tracer {
    rank: usize,
    dev: &'static str,
    t0: Instant,
    op: u64,
    stack: Vec<Open>,
    aggs: [Agg; LAYERS],
    spans: Vec<Span>,
    /// Eager puts sent by this thread's device: first frames on the
    /// one-sided layer's eager handler, which carries nothing else.
    pub eager_puts: u64,
}

thread_local! {
    static TRACER: RefCell<Option<Tracer>> = const { RefCell::new(None) };
}

/// Start tracing on this thread; `dev` names the device layer.
pub fn install(rank: usize, dev: &'static str, t0: Instant) {
    TRACER.with(|t| {
        *t.borrow_mut() = Some(Tracer {
            rank,
            dev,
            t0,
            op: 0,
            stack: Vec::new(),
            aggs: [Agg::default(); LAYERS],
            spans: Vec::with_capacity(MAX_SPANS),
            eager_puts: 0,
        })
    });
}

/// Stop tracing on this thread and hand back what was recorded.
pub fn take() -> Option<Tracer> {
    TRACER.with(|t| t.borrow_mut().take())
}

/// Spans recorded from now on belong to operation `op`.
pub fn set_op(op: u64) {
    TRACER.with(|t| {
        if let Some(tr) = t.borrow_mut().as_mut() {
            tr.op = op;
        }
    });
}

/// Run `f` as one call into `layer`.
pub fn span<R>(layer: Layer, f: impl FnOnce() -> R) -> R {
    let on = TRACER.with(|t| {
        let mut g = t.borrow_mut();
        let Some(tr) = g.as_mut() else {
            return false;
        };
        let start = Instant::now();
        let idx = tr.open_record(layer, start);
        tr.stack.push(Open {
            start,
            child_ns: 0,
            idx,
        });
        true
    });
    if !on {
        return f();
    }
    let r = f();
    let end = Instant::now();
    TRACER.with(|t| {
        if let Some(tr) = t.borrow_mut().as_mut() {
            let open = tr.stack.pop().expect("span stack balanced");
            tr.close(layer, open.start, end, open.child_ns, open.idx);
        }
    });
    r
}

impl Tracer {
    fn open_record(&mut self, layer: Layer, start: Instant) -> u32 {
        if self.spans.len() >= MAX_SPANS {
            return NO_PARENT;
        }
        let parent = self.stack.last().map_or(NO_PARENT, |o| o.idx);
        self.spans.push(Span {
            layer,
            op: self.op,
            start_ns: start.saturating_duration_since(self.t0).as_nanos() as u64,
            end_ns: 0,
            parent,
        });
        (self.spans.len() - 1) as u32
    }

    fn close(&mut self, layer: Layer, start: Instant, end: Instant, child_ns: u64, idx: u32) {
        let dur = end.saturating_duration_since(start).as_nanos() as u64;
        let a = &mut self.aggs[layer as usize];
        a.count += 1;
        a.total_ns += dur;
        a.child_ns += child_ns;
        if let Some(parent) = self.stack.last_mut() {
            parent.child_ns += dur;
        }
        if let Some(s) = self.spans.get_mut(idx as usize) {
            s.end_ns = end.saturating_duration_since(self.t0).as_nanos() as u64;
        }
    }

    fn leaf(&mut self, layer: Layer, start: Instant, end: Instant, keep: bool) {
        let idx = if keep {
            self.open_record(layer, start)
        } else {
            NO_PARENT
        };
        self.close(layer, start, end, 0, idx);
    }

    pub fn agg(&self, layer: Layer) -> Agg {
        self.aggs[layer as usize]
    }
}

/// Write every kept span of `tracers` as a chrome://tracing JSON array.
/// `tid` is the rank; a span's `id` and `parent` index that rank's spans.
pub fn write_chrome(path: &Path, tracers: &[Tracer]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(out, "[")?;
    let mut first = true;
    for tr in tracers {
        for (i, s) in tr.spans.iter().enumerate() {
            if s.end_ns == 0 {
                continue; // still open when the thread stopped tracing
            }
            let sep = if first { "" } else { "," };
            first = false;
            let parent = if s.parent == NO_PARENT {
                -1
            } else {
                i64::from(s.parent)
            };
            writeln!(
                out,
                "{sep}{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":0,\"tid\":{},\"ts\":{:.3},\"dur\":{:.3},\"args\":{{\"id\":{i},\"parent\":{parent},\"op\":{}}}}}",
                s.layer.name(tr.dev),
                tr.rank,
                s.start_ns as f64 / 1e3,
                s.end_ns.saturating_sub(s.start_ns) as f64 / 1e3,
                s.op
            )?;
        }
    }
    writeln!(out, "]")?;
    out.flush()
}

/// Device-level counters the per-layer metrics need.
#[derive(Debug, Clone, Copy, Default)]
pub struct DevStats {
    pub frames_sent: u64,
    pub full_rejections: u64,
    pub send_retries: u64,
    pub acks_coalesced: u64,
}

impl DevStats {
    pub fn add(&mut self, o: &DevStats) {
        self.frames_sent += o.frames_sent;
        self.full_rejections += o.full_rejections;
        self.send_retries += o.send_retries;
        self.acks_coalesced += o.acks_coalesced;
    }
}

/// Devices whose counters the benchmark reads.
pub trait Counted {
    fn dev_stats(&self) -> DevStats;
}

impl Counted for ShmDevice {
    fn dev_stats(&self) -> DevStats {
        let s = self.stats();
        DevStats {
            frames_sent: s.frames_sent,
            full_rejections: s.full_rejections,
            ..DevStats::default()
        }
    }
}

impl Counted for UdpDevice {
    fn dev_stats(&self) -> DevStats {
        let s = self.stats();
        DevStats {
            frames_sent: s.frames_sent,
            send_retries: s.send_retries,
            acks_coalesced: s.acks_coalesced,
            ..DevStats::default()
        }
    }
}

impl<D: Counted> Counted for Traced<D> {
    fn dev_stats(&self) -> DevStats {
        self.inner.dev_stats()
    }
}

/// A [`NetDevice`] that times every call into the device it wraps.
pub struct Traced<D> {
    inner: D,
}

impl<D> Traced<D> {
    pub fn new(inner: D) -> Self {
        Traced { inner }
    }
}

fn with_tracer(f: impl FnOnce(&mut Tracer)) {
    TRACER.with(|t| {
        if let Some(tr) = t.borrow_mut().as_mut() {
            f(tr);
        }
    });
}

impl<D: NetDevice> NetDevice for Traced<D> {
    fn node_id(&self) -> usize {
        self.inner.node_id()
    }

    fn num_nodes(&self) -> usize {
        self.inner.num_nodes()
    }

    fn try_send(&mut self, pkt: FmPacket) -> Result<(), DeviceFull> {
        let eager_put =
            pkt.header.handler == OS_EAGER_HANDLER && pkt.header.flags.contains(PacketFlags::FIRST);
        let start = Instant::now();
        let r = self.inner.try_send(pkt);
        let end = Instant::now();
        with_tracer(|tr| {
            let layer = if r.is_ok() {
                Layer::DevSend
            } else {
                Layer::DevFull
            };
            tr.leaf(layer, start, end, r.is_ok());
            if r.is_ok() && eager_put {
                tr.eager_puts += 1;
            }
        });
        r
    }

    fn try_recv(&mut self) -> Option<FmPacket> {
        let start = Instant::now();
        let r = self.inner.try_recv();
        let end = Instant::now();
        with_tracer(|tr| {
            let layer = if r.is_some() {
                Layer::DevRecv
            } else {
                Layer::DevEmpty
            };
            tr.leaf(layer, start, end, r.is_some());
        });
        r
    }

    fn send_space(&self) -> usize {
        self.inner.send_space()
    }

    fn now(&self) -> Nanos {
        self.inner.now()
    }

    fn charge(&mut self, cost: Nanos) {
        self.inner.charge(cost);
    }

    fn request_wake(&mut self, at: Nanos) {
        self.inner.request_wake(at);
    }

    fn is_lossy(&self) -> bool {
        self.inner.is_lossy()
    }

    fn last_sent_serial(&self) -> Option<u64> {
        self.inner.last_sent_serial()
    }

    fn last_recv_serial(&self) -> Option<u64> {
        self.inner.last_recv_serial()
    }

    fn poll_event(&mut self) -> Option<PeerEvent> {
        self.inner.poll_event()
    }
}
