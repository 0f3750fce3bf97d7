//! # youtopia-core
//!
//! The paper's primary contribution: **cooperative update exchange** — a chase
//! that combines deterministic constraint repair with human intervention
//! (Sections 2.1–2.4 of *Cooperative Update Exchange in the Youtopia System*,
//! VLDB 2009).
//!
//! * The **forward chase** repairs LHS-violations by generating the missing
//!   RHS tuples; when a generated tuple has an existing, *more specific*
//!   counterpart the chase stops and emits **positive frontier tuples**, which
//!   a user resolves by **expanding** or **unifying** them
//!   ([`frontier`], [`update`]).
//! * The **backward chase** repairs RHS-violations by deleting witness
//!   tuples; with more than one candidate it emits **negative frontier
//!   tuples** and the user picks the subset to delete.
//! * An update (Definition 2.6) is executed as a sequence of **chase steps**
//!   (Algorithm 2), each exposing its writes and read queries — the interface
//!   the optimistic concurrency control of `youtopia-concurrency` builds on.
//! * [`resolver`] supplies the human decisions; [`RandomResolver`] is the
//!   simulated user of the Section 6 experiments.
//! * [`FrontierToken`] / [`PendingFrontier`] are the currency of the pull-based
//!   service API: a long-lived engine (in `youtopia-concurrency`) surfaces
//!   blocked chases as pending frontiers and resumes them when a token is
//!   answered. The single-update facade `UpdateExchange` lives there too.
//!
//! ```
//! use youtopia_core::{InitialOp, UpdateExecution, UpdateState};
//! use youtopia_mappings::MappingSet;
//! use youtopia_storage::{Database, UpdateId, Value};
//!
//! let mut db = Database::new();
//! db.add_relation("A", ["location", "name"]).unwrap();
//! db.add_relation("T", ["attraction", "company", "tour_start"]).unwrap();
//! db.add_relation("R", ["company", "attraction", "review"]).unwrap();
//! let mut mappings = MappingSet::new();
//! mappings
//!     .add_parsed(db.catalog(), "sigma3: A(l, n) & T(n, c, cs) -> exists r. R(c, n, r)")
//!     .unwrap();
//! db.insert_by_name("A", &["Niagara Falls", "Niagara Falls"], UpdateId(0));
//!
//! // One update: insert a tour, then chase until σ3's repair is done.
//! let t = db.relation_id("T").unwrap();
//! let values = vec![
//!     Value::constant("Niagara Falls"),
//!     Value::constant("ABC Tours"),
//!     Value::constant("Toronto"),
//! ];
//! let mut exec = UpdateExecution::new(UpdateId(1), InitialOp::Insert { relation: t, values });
//! while exec.state() == UpdateState::Ready {
//!     exec.step(&mut db, &mappings).unwrap();
//! }
//! // σ3 fired: the review table now holds a placeholder with a labeled null.
//! let r = db.relation_id("R").unwrap();
//! assert_eq!(db.visible_count(r, UpdateId::OMNISCIENT), 1);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod codec;
pub mod error;
pub mod frontier;
pub mod querying;
pub mod read_query;
pub mod replication;
pub mod resolver;
pub mod update;

pub use codec::{
    decode_chase_error, decode_decision, decode_initial_op, encode_chase_error, encode_decision,
    encode_initial_op,
};
pub use error::{ChaseError, LookupError};
pub use frontier::{
    AutoDecision, EscalationPolicy, FrontierDecision, FrontierRequest, FrontierToken,
    FrontierTuple, NegativeFrontier, PendingFrontier, PositiveAction, PositiveFrontier,
    ResolutionOrigin,
};
pub use querying::{
    answer, keyword_search, AnswerRow, KeywordHit, QuerySemantics, RepositoryQuery,
};
pub use read_query::{more_specific_tuples, ReadQuery};
pub use replication::{
    decode_delta_batch, decode_state_vector, encode_delta_batch, encode_state_vector, DeltaBatch,
    DeltaEntry, EventStamp, NodeId, ReplicationEvent, StateVector,
};
pub use resolver::{
    ExpandResolver, FrontierResolver, RandomResolver, ScriptedResolver, UnifyResolver,
};
pub use update::{
    ChaseMode, InitialOp, StepOutcome, UpdateExecution, UpdateReport, UpdateState, UpdateStats,
};
