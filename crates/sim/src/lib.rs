//! Deterministic discrete-event simulation engine.
//!
//! This crate is the substrate for the MSCCL++ reproduction: it provides a
//! virtual clock, an event queue with deterministic tie-breaking, cooperative
//! *processes* (the simulated GPU thread blocks and CPU proxy threads),
//! monotonic *cells* (the simulated semaphores, FIFO counters, and barriers),
//! and *resources* (the simulated interconnect links and DMA engines, which
//! serialize work and thereby model bandwidth contention).
//!
//! The engine is generic over a *world* type `W` that holds all domain state
//! (GPU memories, topology, cost model). Processes receive `&mut W` on every
//! step, so all data movement is real: bytes are copied between simulated
//! GPU memories and reductions are actually computed, which lets benchmarks
//! verify functional correctness of every collective before trusting a
//! virtual timing.
//!
//! # Example
//!
//! ```
//! use sim::{Engine, Process, Step, Ctx, Duration};
//!
//! struct Counter { left: u32 }
//! impl Process<u64> for Counter {
//!     fn step(&mut self, ctx: &mut Ctx<'_, u64>) -> Step {
//!         if self.left == 0 {
//!             return Step::Done;
//!         }
//!         self.left -= 1;
//!         *ctx.world += 1;
//!         Step::Yield(Duration::from_ns(10.0))
//!     }
//! }
//!
//! let mut engine = Engine::new(0u64);
//! engine.spawn(Counter { left: 3 });
//! engine.run().unwrap();
//! assert_eq!(*engine.world(), 3);
//! assert_eq!(engine.now().as_ns(), 30.0);
//! ```

mod calendar;
mod depgraph;
mod engine;
mod fault;
mod intern;
pub mod json;
mod metrics;
mod process;
pub mod telemetry;
mod time;
mod trace;
mod vclock;

pub use depgraph::{AcquireRec, DepGraph, DepNode, IssueRec, WakeCause};
pub use engine::{
    BlockedProcess, CellId, Ctx, DeadlockError, Engine, ProcId, ResourceId, SimError, SpanLabelId,
    TimeoutError,
};
pub use fault::{FaultEvent, FaultKind, FaultPlan, FaultTarget, PathState, SimRng};
pub use metrics::{CounterId, Metrics, ResourceStat};
pub use process::{Process, Step};
pub use telemetry::{Sample, Sampler, SamplerConfig};
pub use time::{Duration, Time};
pub use trace::{HighlightSegment, Trace, TraceEvent, TraceEventKind};
pub use vclock::VClock;
