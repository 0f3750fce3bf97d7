//! # Youtopia — cooperative update exchange (VLDB 2009), reproduced in Rust
//!
//! This crate is the facade of the workspace reproducing *Cooperative Update
//! Exchange in the Youtopia System* (Kot & Koch, VLDB 2009). It re-exports the
//! public API of the five underlying crates:
//!
//! | Module | Crate | Contents |
//! |--------|-------|----------|
//! | [`storage`] | `youtopia-storage` | labeled nulls, multiversion tuples, conjunctive queries |
//! | [`mappings`] | `youtopia-mappings` | tgds, parser, violations, violation queries, mapping graph |
//! | [`chase`] | `youtopia-core` | the cooperative forward/backward chase, frontier operations, resolvers |
//! | [`concurrency`] | `youtopia-concurrency` | the long-lived `ExchangeEngine`, optimistic schedulers, conflict detection, NAIVE/COARSE/PRECISE |
//! | [`replication`] | `youtopia-replication` | state-vector delta sync between replicated engines |
//! | [`workload`] | `youtopia-workload` | Section 6 generators, experiment runner, figure reports |
//!
//! The most common entry points are also re-exported at the top level. The
//! primary one is the long-lived [`ExchangeEngine`]: submit updates at any
//! time, surface blocked chases with
//! [`pending_frontiers`](ExchangeEngine::pending_frontiers), resume them with
//! [`answer`](ExchangeEngine::answer):
//!
//! ```
//! use youtopia::{
//!     satisfies_all, Database, EngineBuilder, InitialOp, MappingSet, UpdateId, Value,
//! };
//!
//! let mut db = Database::new();
//! db.add_relation("C", ["city"]).unwrap();
//! db.add_relation("S", ["code", "location", "city_served"]).unwrap();
//! let mut mappings = MappingSet::new();
//! mappings.add_parsed(db.catalog(), "sigma1: C(c) -> exists a, l. S(a, l, c)").unwrap();
//!
//! // A long-lived service: it outlives any one update, and whoever waits on
//! // it drives its chase.
//! let c = db.relation_id("C").unwrap();
//! let engine = EngineBuilder::new().build(db, mappings).unwrap();
//! let handle = engine
//!     .submit(InitialOp::Insert { relation: c, values: vec![Value::constant("Ithaca")] })
//!     .unwrap();
//! // σ1's repair is deterministic here (S is empty), so no frontier question
//! // arises; a blocked chase would appear in `engine.pending_frontiers()`
//! // until `engine.answer(token, decision)` resumed it.
//! let report = handle.wait().unwrap();
//! assert!(report.terminated);
//! let (db, mappings, metrics) = engine.shutdown();
//! assert_eq!(metrics.workload_size, 1);
//! assert!(satisfies_all(&db.snapshot(UpdateId::OMNISCIENT), &mappings));
//! ```
//!
//! The one-update-at-a-time [`UpdateExchange`] facade survives as a thin
//! engine client (see `examples/quickstart.rs`), and `examples/live_session.rs`
//! walks the full submit → pending → answer lifecycle.
//!
//! See `examples/` for runnable walk-throughs of the paper's scenarios and
//! `crates/bench` for the Figure 3 / Figure 4 harnesses.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

/// The relational storage substrate (re-export of `youtopia-storage`).
pub use youtopia_storage as storage;

/// Schema mappings and violations (re-export of `youtopia-mappings`).
pub use youtopia_mappings as mappings;

/// The cooperative chase (re-export of `youtopia-core`).
pub use youtopia_core as chase;

/// Optimistic concurrency control (re-export of `youtopia-concurrency`).
pub use youtopia_concurrency as concurrency;

/// State-vector delta sync between replicated engines (re-export of
/// `youtopia-replication`).
pub use youtopia_replication as replication;

/// Synthetic workloads and the Section 6 experiment harness (re-export of
/// `youtopia-workload`).
pub use youtopia_workload as workload;

pub use youtopia_concurrency::{
    AnswerOutcome, ClientId, ConcurrentRun, DurabilityConfig, EngineBuilder, EngineError,
    ExchangeEngine, Priority, RecoveryError, ResolverPump, RetryAfter, RunMetrics, SchedulerConfig,
    SubmitError, SweepReport, TrackerKind, UpdateExchange, UpdateHandle, UpdateStatus,
    ViolationIndexStats,
};
pub use youtopia_core::{
    AutoDecision, ChaseError, EscalationPolicy, ExpandResolver, FrontierDecision, FrontierRequest,
    FrontierResolver, FrontierToken, InitialOp, LookupError, PendingFrontier, PositiveAction,
    RandomResolver, ResolutionOrigin, ScriptedResolver, UnifyResolver, UpdateExecution,
    UpdateReport, UpdateState,
};
pub use youtopia_mappings::{
    find_violations, satisfies_all, MappingGraph, MappingSet, Tgd, Violation, ViolationKind,
};
pub use youtopia_replication::{
    EventStamp, LinkFaults, NodeId, ReplicaNode, ReplicaSet, StateVector, SyncError, SyncReport,
    Topology,
};
pub use youtopia_storage::{
    DataView, Database, NullId, RelationId, Snapshot, Symbol, Tuple, TupleId, UpdateId, Value,
    Write,
};
pub use youtopia_workload::{
    run_experiment, run_million_user_day, ArrivalProcess, ExperimentConfig, LatencySummary,
    ScenarioConfig, ScenarioReport, WorkloadKind,
};
