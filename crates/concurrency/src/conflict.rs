//! Direct conflict detection (Algorithm 4's inner check).
//!
//! After a chase step of update `j` performs its writes, every stored read
//! query of every update numbered above `j` is checked: if a write
//! retroactively changes the query's answer, that reader read prematurely and
//! must abort.

use youtopia_mappings::MappingSet;
use youtopia_storage::{Database, TupleChange, UpdateId};

use crate::log::ReadLog;

/// A direct conflict: `reader` stored a read query whose answer was
/// retroactively changed by a write of `writer`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct DirectConflict {
    /// The lower-numbered update whose write caused the conflict.
    pub writer: UpdateId,
    /// The higher-numbered update that must abort.
    pub reader: UpdateId,
    /// Index of the offending change within the step's change list (for
    /// diagnostics).
    pub change_index: usize,
}

/// The Algorithm 4 inner check, keyed by relation: does `change`
/// retroactively affect any stored read query of `reader`? Only the queries
/// whose footprint touches the changed relation (plus the wildcards) are
/// evaluated — the others cannot be affected. Shared by the scheduler's
/// abort collection and [`direct_conflicts`].
pub fn change_conflicts_with_reader_keyed(
    db: &Database,
    mappings: &MappingSet,
    change: &TupleChange,
    reader: UpdateId,
    read_log: &ReadLog,
) -> bool {
    // The reader's own snapshot is the context in which its queries were (and
    // would be re-) evaluated.
    let snapshot = db.snapshot(reader);
    read_log
        .reads_touching(reader, change.relation())
        .any(|q| q.affected_by(&snapshot, mappings, change))
}

/// Finds every direct conflict caused by the given changes of `writer`
/// (Algorithm 4: "for all writes w performed by the step, for all stored read
/// queries q of updates numbered i > j …").
///
/// The read log is keyed by relation, so for each change only the readers
/// whose stored queries touch the changed relation (plus the wildcard
/// readers) are consulted — not every higher-numbered reader. Queries that
/// cannot read the changed relation can never be retroactively affected, so
/// the keyed walk finds exactly the conflicts the exhaustive one would.
pub fn direct_conflicts(
    db: &Database,
    mappings: &MappingSet,
    writer: UpdateId,
    changes: &[TupleChange],
    read_log: &ReadLog,
) -> Vec<DirectConflict> {
    let mut conflicts = Vec::new();
    for (change_index, change) in changes.iter().enumerate() {
        for reader in read_log.readers_above_touching(writer, change.relation()) {
            if change_conflicts_with_reader_keyed(db, mappings, change, reader, read_log) {
                conflicts.push(DirectConflict { writer, reader, change_index });
            }
        }
    }
    conflicts
}

#[cfg(test)]
mod tests {
    use super::*;
    use youtopia_core::ReadQuery;
    use youtopia_mappings::{ViolationQuery, ViolationSeed};
    use youtopia_storage::{Value, Write};

    #[test]
    fn premature_reader_is_detected() {
        // Update 2 read σ3's violation query (and saw no violation); update 1
        // then deletes the review, retroactively changing that answer — the
        // Example 3.1 situation.
        let mut db = Database::new();
        db.add_relation("A", ["location", "name"]).unwrap();
        db.add_relation("T", ["attraction", "company", "tour_start"]).unwrap();
        db.add_relation("R", ["company", "attraction", "review"]).unwrap();
        let mut mappings = MappingSet::new();
        mappings
            .add_parsed(db.catalog(), "sigma3: A(l, n) & T(n, c, cs) -> exists r. R(c, n, r)")
            .unwrap();
        let u0 = UpdateId(0);
        db.insert_by_name("A", &["Geneva", "Geneva Winery"], u0);
        db.insert_by_name("T", &["Geneva Winery", "XYZ", "Syracuse"], u0);
        let review = db.insert_by_name("R", &["XYZ", "Geneva Winery", "Great!"], u0);

        let mut read_log = ReadLog::new();
        let sigma3 = mappings.by_name("sigma3").unwrap().id;
        read_log.record(
            UpdateId(2),
            vec![ReadQuery::Violation(ViolationQuery {
                mapping: sigma3,
                seed: ViolationSeed::Full,
            })],
            &mappings,
        );

        // Update 1 (lower number) deletes the review.
        let r = db.relation_id("R").unwrap();
        let applied =
            db.apply_all(&[Write::Delete { relation: r, tuple: review }], UpdateId(1)).unwrap();
        let changes: Vec<TupleChange> = applied.into_iter().flat_map(|w| w.changes).collect();

        let conflicts = direct_conflicts(&db, &mappings, UpdateId(1), &changes, &read_log);
        assert_eq!(conflicts.len(), 1);
        assert_eq!(conflicts[0].reader, UpdateId(2));
        assert_eq!(conflicts[0].writer, UpdateId(1));

        // A reader below the writer is never considered.
        let mut low_log = ReadLog::new();
        low_log.record(
            UpdateId(0),
            vec![ReadQuery::Violation(ViolationQuery {
                mapping: sigma3,
                seed: ViolationSeed::Full,
            })],
            &mappings,
        );
        assert!(direct_conflicts(&db, &mappings, UpdateId(1), &changes, &low_log).is_empty());
    }

    #[test]
    fn unrelated_writes_do_not_conflict() {
        let mut db = Database::new();
        db.add_relation("C", ["city"]).unwrap();
        db.add_relation("S", ["code", "location", "city_served"]).unwrap();
        db.add_relation("Other", ["x"]).unwrap();
        let mut mappings = MappingSet::new();
        mappings.add_parsed(db.catalog(), "sigma1: C(c) -> exists a, l. S(a, l, c)").unwrap();

        let mut read_log = ReadLog::new();
        let sigma1 = mappings.by_name("sigma1").unwrap().id;
        read_log.record(
            UpdateId(5),
            vec![ReadQuery::Violation(ViolationQuery {
                mapping: sigma1,
                seed: ViolationSeed::Full,
            })],
            &mappings,
        );

        let other = db.relation_id("Other").unwrap();
        let applied = db
            .apply_all(
                &[Write::Insert { relation: other, values: vec![Value::constant("v")] }],
                UpdateId(1),
            )
            .unwrap();
        let changes: Vec<TupleChange> = applied.into_iter().flat_map(|w| w.changes).collect();
        assert!(direct_conflicts(&db, &mappings, UpdateId(1), &changes, &read_log).is_empty());
    }
}
