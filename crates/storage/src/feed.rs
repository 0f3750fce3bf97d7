//! The violation feed: the committed-write delta log the engine-shared
//! violation index is built on, answered by [`Database::delta_seq`] and
//! [`Database::dirty_relations`].
//!
//! The chase's delta-driven violation queue needs one question answered at the
//! start of every step: *which of the relations my queued violations read were
//! mutated since my previous step?* The original (per-update) answer probes
//! every indexed relation's write epoch and compares it against a per-update
//! watermark — cost proportional to the update's queue footprint, per update,
//! per step. The shared answer is this feed: the store keeps **one**
//! append-only log of committed relation mutations ([`VersionStore`] appends
//! exactly one entry per write-epoch bump), and every live update holds a
//! plain integer cursor into it. A step replays only the window its cursor
//! missed, so the cost of detection bookkeeping depends on *what changed
//! since the update last looked* — independent of how many updates are live,
//! which is what makes detection flat under concurrency.
//!
//! Truncation is always safe: when the backlog no longer reaches back to a
//! cursor (quiescence GC cleared it, or the unconditional cap dropped old
//! entries), [`Database::dirty_relations`] answers `None` and the consumer
//! treats its whole interest set as dirty — the per-violation epoch compare
//! downstream then filters exactly, so the fallback costs time, never
//! correctness.
//!
//! [`VersionStore`]: crate::VersionStore

use crate::database::Database;
use crate::schema::RelationId;

impl Database {
    /// The current delta sequence number: the total number of relation
    /// mutations committed so far.
    pub fn delta_seq(&self) -> u64 {
        self.version_store().delta_seq()
    }

    /// The subset of `interest` (in `interest` order) mutated in the delta
    /// window `[since, delta_seq())`. Returns `None` when the backlog no
    /// longer reaches back to `since`; the caller must then treat all of
    /// `interest` as dirty.
    pub fn dirty_relations(&self, since: u64, interest: &[RelationId]) -> Option<Vec<RelationId>> {
        self.version_store().dirty_in_window(since, interest)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::version::{UpdateId, Write};

    fn fixture() -> (Database, RelationId, RelationId) {
        let mut db = Database::new();
        let r = db.add_relation("R", ["a"]).unwrap();
        let s = db.add_relation("S", ["x"]).unwrap();
        (db, r, s)
    }

    #[test]
    fn deltas_record_every_mutation_in_commit_order() {
        let (mut db, r, s) = fixture();
        assert_eq!(db.delta_seq(), 0);
        db.insert_by_name("R", &["a"], UpdateId(1));
        db.insert_by_name("S", &["b"], UpdateId(1));
        let t = db.insert_by_name("R", &["c"], UpdateId(1));
        assert_eq!(db.delta_seq(), 3);
        let window: Vec<RelationId> = db.version_store().deltas_since(0).unwrap().collect();
        assert_eq!(window, vec![r, s, r]);
        // Deletes and rollbacks feed the log too.
        db.apply(&Write::Delete { relation: r, tuple: t }, UpdateId(2)).unwrap();
        assert_eq!(db.delta_seq(), 4);
        db.rollback_update(UpdateId(2));
        assert_eq!(db.delta_seq(), 5);
        // A no-op write (deleting an unknown tuple) records nothing, exactly
        // like the epoch it mirrors.
        db.apply(&Write::Delete { relation: r, tuple: crate::TupleId(99) }, UpdateId(3)).unwrap();
        assert_eq!(db.delta_seq(), 5);
    }

    #[test]
    fn dirty_relations_filters_by_interest_and_window() {
        let (mut db, r, s) = fixture();
        db.insert_by_name("R", &["a"], UpdateId(1));
        let cursor = db.delta_seq();
        db.insert_by_name("S", &["b"], UpdateId(1));
        assert_eq!(db.dirty_relations(cursor, &[r, s]), Some(vec![s]));
        assert_eq!(db.dirty_relations(cursor, &[r]), Some(vec![]));
        assert_eq!(db.dirty_relations(db.delta_seq(), &[r, s]), Some(vec![]));
    }

    #[test]
    fn truncation_is_detected_not_silently_skipped() {
        let (mut db, r, _) = fixture();
        db.insert_by_name("R", &["a"], UpdateId(1));
        let cursor = 0;
        assert!(db.dirty_relations(cursor, &[r]).is_some());
        db.truncate_delta_backlog();
        assert_eq!(db.delta_backlog_len(), 0);
        // The sequence keeps counting from where it was.
        assert_eq!(db.delta_seq(), 1);
        assert_eq!(db.dirty_relations(cursor, &[r]), None, "gap must be observable");
        // A cursor taken after truncation works normally again.
        let fresh = db.delta_seq();
        db.insert_by_name("R", &["b"], UpdateId(1));
        assert_eq!(db.dirty_relations(fresh, &[r]), Some(vec![r]));
        // A cursor from the future (e.g. a mismatched store) is a gap too.
        assert_eq!(db.dirty_relations(1_000, &[r]), None);
    }

    #[test]
    fn backlog_cap_bounds_memory_and_surfaces_as_a_gap() {
        let (mut db, r, _) = fixture();
        // One more mutation than the cap: the very first delta is dropped.
        for _ in 0..(32 * 1024 + 1) {
            db.insert_by_name("R", &["v"], UpdateId(1));
        }
        assert_eq!(db.version_store().delta_backlog_len(), 32 * 1024);
        assert_eq!(db.dirty_relations(0, &[r]), None, "dropped window is a gap");
        assert_eq!(db.dirty_relations(1, &[r]), Some(vec![r]), "the retained window still answers");
    }

    #[test]
    fn backlog_cap_is_configurable_per_store() {
        let (mut db, r, _) = fixture();
        db.store_mut().set_delta_backlog_cap(4);
        assert_eq!(db.version_store().delta_backlog_cap(), 4);
        for _ in 0..10 {
            db.insert_by_name("R", &["v"], UpdateId(1));
        }
        assert_eq!(db.version_store().delta_backlog_len(), 4);
        assert_eq!(db.dirty_relations(0, &[r]), None, "pre-cap window is a gap");
        assert_eq!(db.dirty_relations(6, &[r]), Some(vec![r]), "retained window answers");
        // The cap clamps to 1: a zero cap would make every window a gap forever.
        db.store_mut().set_delta_backlog_cap(0);
        db.insert_by_name("R", &["w"], UpdateId(1));
        assert_eq!(db.version_store().delta_backlog_len(), 1);
    }
}
