//! # youtopia-concurrency
//!
//! Optimistic multiversion concurrency control for Youtopia updates
//! (Sections 3–5 of the paper): the chase-step scheduler (Algorithms 3 and 4),
//! retroactive read-query conflict detection, and the three cascading-abort
//! dependency trackers `NAIVE`, `COARSE` and `PRECISE` whose behaviour the
//! paper's experiments (Figures 3 and 4) compare.
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
pub mod conflict;
pub mod deps;
pub mod durable;
pub mod engine;
pub mod error;
pub mod exchange;
pub mod log;
pub mod metrics;
pub mod replicate;
pub mod scheduler;
mod sequencer;
pub mod viewmaint;

pub use builder::EngineBuilder;
pub use conflict::{change_conflicts_with_reader_keyed, direct_conflicts, DirectConflict};
pub use deps::{
    CoarseTracker, DependencyTracker, HybridTracker, NaiveTracker, PreciseTracker, TrackerKind,
};
pub use durable::{decode_record, DurabilityConfig, RecoveryError, WalRecord};
pub use engine::{
    AnswerOutcome, ClientId, ExchangeEngine, Priority, ResolverPump, RetryAfter, SubmitError,
    SweepReport, UpdateHandle, UpdateStatus,
};
pub use error::EngineError;
pub use exchange::{DbRef, DbRefMut, UpdateExchange};
pub use log::{ReadLog, WriteLog};
pub use metrics::{AveragedMetrics, RunMetrics};
pub use replicate::{SyncError, SyncReport};
pub use scheduler::{ConcurrentRun, SchedulerConfig, SchedulingPolicy};
pub use viewmaint::ViolationIndexStats;
