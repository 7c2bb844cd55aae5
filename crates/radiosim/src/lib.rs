#![warn(missing_docs)]

//! Slot-synchronous radio network simulator.
//!
//! The paper's model (§II): time is divided into discrete slots synchronized
//! between all nodes; nodes wake up *asynchronously and spontaneously*; in
//! each slot a node either transmits a message or listens; reception is
//! decided by an interference model (the SINR physical model, or a baseline).
//!
//! The simulator is deterministic: every run is a pure function of the
//! topology, the protocol, the wake-up schedule, and a `u64` seed. Each node
//! draws from its own seeded RNG so results do not depend on iteration
//! order.
//!
//! * [`Protocol`] — the per-node automaton interface (`begin_slot` decides
//!   transmit/listen, `end_slot` consumes this slot's receptions; a
//!   [`Quiet`] promise lets the engine park the node between
//!   transmissions).
//! * [`Simulator`] — drives all nodes slot by slot against an
//!   [`InterferenceModel`](sinr_model::InterferenceModel).
//! * [`WakeupSchedule`] — synchronous, uniformly random, or staggered
//!   spontaneous wake-up times.
//! * [`SimStats`] — per-node timing and channel counters. Recorded runs
//!   ([`Simulator::run_recorded`]) stream wake/transmit/receive/done
//!   events and engine spans into a [`sinr_obs::Recorder`].
//!
//! # Example
//!
//! A trivial protocol where every node transmits its id with probability
//! 1/2 per slot until it has heard some neighbor:
//!
//! ```
//! use sinr_geometry::{placement, UnitDiskGraph};
//! use sinr_model::GraphModel;
//! use sinr_radiosim::{Action, NodeCtx, Protocol, Simulator, SlotRng, WakeupSchedule};
//!
//! struct Gossip { heard: bool }
//!
//! impl Protocol for Gossip {
//!     type Message = usize;
//!     fn begin_slot<R: SlotRng + ?Sized>(&mut self, ctx: &NodeCtx, rng: &mut R) -> Action<usize> {
//!         if rng.chance(0.5) { Action::Transmit(ctx.id) } else { Action::Listen }
//!     }
//!     fn end_slot(&mut self, _ctx: &NodeCtx, received: &[(usize, usize)]) {
//!         if !received.is_empty() { self.heard = true; }
//!     }
//!     fn is_done(&self) -> bool { self.heard }
//! }
//!
//! // A small dense placement: every node is guaranteed a neighbor.
//! let g = UnitDiskGraph::new(placement::uniform(10, 0.7, 0.7, 1), 1.0);
//! let mut sim = Simulator::new(g, GraphModel::new(), WakeupSchedule::Synchronous, 7, |_id| {
//!     Gossip { heard: false }
//! });
//! let outcome = sim.run(10_000);
//! assert!(outcome.all_done);
//! ```

mod calendar;
pub mod energy;
pub mod engine;
mod prefetch;
pub mod protocol;
pub mod stats;
pub mod wakeup;

pub use engine::{NodeFlags, RunOutcome, Simulator, StepView, PREFETCH_MIN_NODE_BYTES};
pub use prefetch::prefetch;
pub use protocol::{Action, NodeCtx, Protocol, Quiet, SlotRng};
pub use stats::SimStats;
pub use wakeup::WakeupSchedule;
