//! Shared measurement harness for the figure-reproduction benches.
//!
//! Every paper figure is regenerated by a bench target under `benches/`;
//! the heavy lifting — building a two-node simulated cluster, running a
//! bandwidth stream or a ping-pong in virtual time, and summarizing curves
//! — lives here so the bench binaries stay declarative.
//!
//! Most measurements run on the discrete-event simulator
//! ([`myrinet_sim`]), in *virtual* time: the numbers are properties of the
//! modeled 1998 hardware, not of the machine running the bench. The
//! probes built on [`substrate::Substrate`] are the exception — real
//! wall-clock measurements over the in-process thread mesh, the `fm-shm`
//! mapped rings, loopback `fm-udp`, or the locality-split composite of
//! the last two, for calibrating what the software stack costs on the
//! machine actually running it.

#![forbid(unsafe_code)]

pub mod collectives;
pub mod harness;
pub mod onesided;
pub mod report;
pub mod substrate;
pub mod udp;
pub mod workload;

pub use collectives::{
    coll_latency_us, sim_allreduce_latency, sim_barrier_latency, sim_bcast_latency,
};
pub use harness::*;
pub use onesided::{
    crossover_bytes, put_crossover, put_stream, sim_put_stream, CrossoverRow, PutMode,
};
pub use report::*;
pub use substrate::{
    block_hosts, latency_dist, stream_dist, NodeProgram, Substrate, SHM_DEPTH, SHM_STREAM_DEPTH,
};
pub use udp::{udp_churn_dist, ChurnDist};
pub use workload::{lossy_udp, sim_workload_dist, workload_dist, WorkloadDist};
