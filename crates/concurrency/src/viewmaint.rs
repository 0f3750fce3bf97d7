//! The engine-shared **violation index**: incremental view maintenance for
//! every live update's violation queue, over one committed-write delta feed.
//!
//! # What is shared, and why
//!
//! Delta-driven chase executions keep a queue of outstanding violations and
//! must answer, at the start of every step, *which watched relations changed
//! since I last looked?* The historical answer was per-update: each
//! [`UpdateExecution`](youtopia_core::UpdateExecution) kept its own epoch
//! watermark per indexed relation and re-probed every one of them, every
//! step. With `n` live updates each watching `r` relations, one round of the
//! engine costs `O(n·r)` epoch probes — detection work that grows with the
//! number of *concurrent updates*, not with the amount of *change*.
//!
//! The violation index inverts that. The storage layer maintains **one**
//! append-only log of committed relation mutations (the violation feed,
//! [`youtopia_storage::feed`]; one entry per write-epoch bump, in commit
//! order). Every live execution holds a plain integer
//! cursor into the log and replays only the window it missed. The log is
//! written once per commit regardless of how many updates are live, and each
//! consumer's replay is proportional to the deltas *it* missed — so per-step
//! detection cost is independent of the number of concurrent updates. That is
//! the property the `chase/shared_index` benchmark group pins.
//!
//! The referee is a [`ConcurrentRun`](crate::ConcurrentRun) under
//! [`ChaseMode::FullRecheck`](youtopia_core::ChaseMode), which re-validates
//! every queue in full and never consults the feed — a test oracle only, since
//! every engine chases from the feed: `tests/viewmaint_equivalence.rs` pins
//! the engine equal to it (the per-update watermark path itself is gone).
//!
//! # Lifecycle
//!
//! * **Feed** — every committed mutation appends its relation id
//!   ([`VersionStore`](youtopia_storage::VersionStore) hooks in
//!   `insert_new` / `push_version` / `rollback_update`).
//! * **Cursors** — each execution advances its cursor to the feed's sequence
//!   at the end of every dirty-check; a freshly admitted or queue-empty
//!   execution jumps straight to the current sequence (nothing behind it can
//!   matter — an empty queue has no watched relations).
//! * **Truncation** — quiescence GC clears the backlog (see [`clear`]), and
//!   the store's backlog cap ([`youtopia_storage::DELTA_BACKLOG_CAP`])
//!   unconditionally bounds it for engines that never go quiescent. A cursor behind the
//!   truncation point observes a *gap*
//!   (`dirty_relations` returns `None`) and falls back to treating its whole
//!   interest set as dirty; the per-violation epoch compare downstream then
//!   filters exactly. Truncation is therefore always safe — it costs time,
//!   never correctness.

use youtopia_storage::Database;

/// A point-in-time observation of the shared violation index, exposed by
/// [`ExchangeEngine::violation_index`](crate::ExchangeEngine::violation_index)
/// for monitoring and tests (e.g. the long-lived-engine memory-bound test).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ViolationIndexStats {
    /// The feed's current delta sequence number: total committed relation
    /// mutations so far (monotonic across truncation).
    pub delta_seq: u64,
    /// Retained (not yet truncated) delta entries. Bounded by
    /// [`ViolationIndexStats::backlog_cap`] and cleared at quiescence.
    pub backlog_len: usize,
    /// The unconditional retention bound of this store,
    /// [`DELTA_BACKLOG_CAP`](youtopia_storage::DELTA_BACKLOG_CAP).
    pub backlog_cap: usize,
}

/// Observes the index backing `db`.
pub fn stats(db: &Database) -> ViolationIndexStats {
    ViolationIndexStats {
        delta_seq: db.delta_seq(),
        backlog_len: db.delta_backlog_len(),
        backlog_cap: db.version_store().delta_backlog_cap(),
    }
}

/// Drops the retained delta backlog, returning how many entries were freed.
/// Sound only when no live execution's cursor still needs the window — the
/// engine calls this at quiescence GC, where every cursor is provably dead;
/// any stale cursor that somehow survives observes a gap, not a missed delta.
pub fn clear(db: &mut Database) -> usize {
    let freed = db.delta_backlog_len();
    db.truncate_delta_backlog();
    freed
}

#[cfg(test)]
mod tests {
    use super::*;
    use youtopia_storage::{UpdateId, DELTA_BACKLOG_CAP};

    #[test]
    fn stats_track_the_feed_and_clear_frees_the_backlog() {
        let mut db = Database::new();
        db.add_relation("R", ["a"]).unwrap();
        assert_eq!(
            stats(&db),
            ViolationIndexStats { backlog_cap: DELTA_BACKLOG_CAP, ..Default::default() }
        );
        db.insert_by_name("R", &["x"], UpdateId(1));
        db.insert_by_name("R", &["y"], UpdateId(1));
        assert_eq!(stats(&db).delta_seq, 2);
        assert_eq!(stats(&db).backlog_len, 2);
        assert_eq!(clear(&mut db), 2);
        // The sequence is monotonic across truncation; only retention drops.
        assert_eq!(stats(&db).delta_seq, 2);
        assert_eq!(stats(&db).backlog_len, 0);
    }
}
