//! # youtopia-replication
//!
//! State-vector delta sync between replicated Youtopia nodes: the policy
//! layer over the engine-side mechanism in `youtopia_concurrency::replicate`.
//!
//! The paper's CUP tree connects *different* schemas with mappings; this
//! crate handles the orthogonal deployment axis of running the **same**
//! exchange on several nodes. Each [`ReplicaNode`] owns a replicated
//! [`ExchangeEngine`](youtopia_concurrency::ExchangeEngine); nodes gossip
//! per-origin event-log suffixes ("deltas") selected by [`StateVector`]
//! comparison, and every node folds the merged event set in one canonical
//! order — so nodes that have seen the same events render **byte-identical
//! databases**, no matter the topology, delivery order, duplication, or
//! partition history.
//!
//! * [`ReplicaNode`] — one replicated engine: when events land behind the
//!   canonical fold (concurrent activity across a partition), the engine
//!   refolds its merged logs in place from the genesis database.
//! * [`ReplicaSet`] — N nodes wired by a [`Topology`] over in-process links
//!   with injectable [`LinkFaults`] (reorder, duplication) and explicit
//!   [`partition`](ReplicaSet::partition) / [`heal`](ReplicaSet::heal).
//! * [`ReplicaSet::converge`] — the test oracle: sync rounds plus a seeded
//!   resolver answering stalled frontiers on one node at a time, until every
//!   node holds the same events and the fold is everywhere complete.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod link;
mod node;
mod set;

pub use link::{LinkFaults, Topology};
pub use node::ReplicaNode;
pub use set::{HarnessError, ReplicaSet, RoundReport};

// The vocabulary types callers need alongside the harness.
pub use youtopia_concurrency::replicate::{SyncError, SyncReport};
pub use youtopia_core::replication::{
    DeltaBatch, EventStamp, NodeId, ReplicationEvent, StateVector,
};
