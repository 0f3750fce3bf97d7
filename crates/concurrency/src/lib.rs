//! # youtopia-concurrency
//!
//! Optimistic multiversion concurrency control for Youtopia updates
//! (Sections 3–5 of the paper): the chase-step scheduler (Algorithms 3 and 4),
//! retroactive read-query conflict detection, and the three cascading-abort
//! dependency trackers `NAIVE`, `COARSE` and `PRECISE` whose behaviour the
//! paper's experiments (Figures 3 and 4) compare. Algorithm 4's bookkeeping —
//! each update's stored reads, logged writes and read dependencies, with the
//! conflict check and the cascade over them — is one crate-private value,
//! which the engine's sequencer and the [`ConcurrentRun`] reference each
//! hold; [`TrackerKind`] picks the tracker.
//!
//! A [`ConcurrentRun`] takes a database, a mapping set and a batch of initial
//! operations; it interleaves the resulting updates at chase-step granularity,
//! lets new updates proceed while older ones wait for (simulated) frontier
//! operations, and aborts-and-restarts updates whose reads were premature.
//!
//! The service form of the same machinery is the long-lived
//! [`ExchangeEngine`]: [`ExchangeEngine::submit`] accepts updates at any time,
//! blocked chases surface as [`ExchangeEngine::pending_frontiers`] and resume
//! via [`ExchangeEngine::answer`]; [`UpdateExchange`] is a thin single-update
//! façade over it. An engine owns no thread: its sequencer runs on whichever
//! caller drives or waits on it (see the `engine` module docs).
//!
//! ```
//! use youtopia_concurrency::{ConcurrentRun, SchedulerConfig, TrackerKind};
//! use youtopia_core::{InitialOp, RandomResolver};
//! use youtopia_mappings::{satisfies_all, MappingSet};
//! use youtopia_storage::{Database, UpdateId, Value};
//!
//! let mut db = Database::new();
//! db.add_relation("C", ["city"]).unwrap();
//! db.add_relation("S", ["code", "location", "city_served"]).unwrap();
//! let mut mappings = MappingSet::new();
//! mappings.add_parsed(db.catalog(), "sigma1: C(c) -> exists a, l. S(a, l, c)").unwrap();
//!
//! let c = db.relation_id("C").unwrap();
//! let ops = vec![
//!     InitialOp::Insert { relation: c, values: vec![Value::constant("Ithaca")] },
//!     InitialOp::Insert { relation: c, values: vec![Value::constant("Syracuse")] },
//! ];
//! let mut run = ConcurrentRun::new(db, mappings, ops, 1,
//!     SchedulerConfig::with_tracker(TrackerKind::Precise));
//! let metrics = run.run(&mut RandomResolver::seeded(0)).unwrap();
//! assert_eq!(metrics.workload_size, 2);
//! let (db, mappings, _) = run.into_parts();
//! assert!(satisfies_all(&db.snapshot(UpdateId::OMNISCIENT), &mappings));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod builder;
pub mod durable;
pub mod engine;
pub mod exchange;
pub mod metrics;
pub mod replicate;
pub mod scheduler;
mod sequencer;
mod validation;

pub use builder::EngineBuilder;
pub use durable::{decode_record, DurabilityConfig, RecoveryError, WalRecord};
pub use engine::{
    AnswerOutcome, ClientId, ExchangeEngine, Priority, ResolverPump, RetryAfter, SubmitError,
    SweepReport, UpdateHandle, UpdateStatus,
};
pub use exchange::{DbRef, DbRefMut, UpdateExchange};
pub use metrics::{AveragedMetrics, RunMetrics};
pub use replicate::{SyncError, SyncReport};
pub use scheduler::{ConcurrentRun, SchedulerConfig};
pub use validation::TrackerKind;
