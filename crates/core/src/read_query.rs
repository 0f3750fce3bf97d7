//! The read queries a chase step performs (Section 4.2).
//!
//! A chase step reads the database for two reasons: to discover the new
//! violations its writes caused (*violation queries*) and to gather the
//! information needed to correct a violation (*correction queries*). The
//! concurrency layer logs these queries and later checks whether a write by a
//! lower-numbered update retroactively changes their answers (Algorithm 4).

use youtopia_mappings::{change_affects_query, MappingSet, ViolationQuery};
use youtopia_storage::{
    is_more_specific, probe_smallest, DataView, NullId, RelationId, TupleChange, TupleData, TupleId,
};

/// A read query performed by a chase step.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub enum ReadQuery {
    /// A violation query (Section 4.2, Example 4.1): which violations of a
    /// mapping are consistent with a written tuple?
    Violation(ViolationQuery),
    /// Correction query: find the tuples of `relation` that are more specific
    /// than the generated frontier tuple `pattern`.
    MoreSpecific {
        /// Relation of the generated tuple.
        relation: RelationId,
        /// The generated tuple's values.
        pattern: TupleData,
    },
    /// Correction query: find every tuple containing the labeled null `null`
    /// (posed before a unification so all occurrences can be rewritten).
    NullOccurrences {
        /// The null being unified away.
        null: NullId,
    },
}

impl ReadQuery {
    /// The relations this query reads. For violation queries this is every
    /// relation of the mapping (the `COARSE` tracker's granularity); the two
    /// correction-query forms are checked exactly against writes, so the
    /// relation set is only used as a pre-filter.
    pub fn relations_read(&self, mappings: &MappingSet) -> Vec<RelationId> {
        match self {
            ReadQuery::Violation(q) => q.relations_read(mappings),
            ReadQuery::MoreSpecific { relation, .. } => vec![*relation],
            // A null may occur anywhere; callers treat this as "all relations".
            ReadQuery::NullOccurrences { .. } => Vec::new(),
        }
    }

    /// Whether this is a violation query (relation-granular for `COARSE`) or a
    /// correction query (always checked exactly).
    pub fn is_violation_query(&self) -> bool {
        matches!(self, ReadQuery::Violation(_))
    }

    /// Evaluates the query's answer cardinality on a view (used by tests and
    /// diagnostics; the chase itself evaluates the queries inline).
    pub fn answer_size(&self, view: &dyn DataView, mappings: &MappingSet) -> usize {
        match self {
            ReadQuery::Violation(q) => q.evaluate(view, mappings).len(),
            ReadQuery::MoreSpecific { relation, pattern } => {
                more_specific_tuples(view, *relation, pattern).len()
            }
            ReadQuery::NullOccurrences { null } => view.null_occurrences(*null).len(),
        }
    }

    /// Does `change` retroactively change the answer to this query
    /// (Algorithm 4)? Correction queries are checked without touching the
    /// database: "a given tuple write changes the answer to a correction query
    /// either on all databases, or on none" (Section 5). Violation queries are
    /// checked by delta evaluation against the view.
    pub fn affected_by(
        &self,
        view: &dyn DataView,
        mappings: &MappingSet,
        change: &TupleChange,
    ) -> bool {
        match self {
            ReadQuery::Violation(q) => change_affects_query(view, mappings, q, change),
            ReadQuery::MoreSpecific { relation, pattern } => {
                if change.relation() != *relation {
                    return false;
                }
                match change {
                    TupleChange::Inserted { values, .. } => is_more_specific(values, pattern),
                    TupleChange::Deleted { old, .. } => is_more_specific(old, pattern),
                    TupleChange::Modified { old, new, .. } => {
                        is_more_specific(old, pattern) != is_more_specific(new, pattern)
                            || is_more_specific(new, pattern)
                    }
                }
            }
            ReadQuery::NullOccurrences { null } => match change {
                TupleChange::Inserted { values, .. } => {
                    youtopia_storage::contains_null(values, *null)
                }
                TupleChange::Deleted { old, .. } => youtopia_storage::contains_null(old, *null),
                TupleChange::Modified { old, new, .. } => {
                    youtopia_storage::contains_null(old, *null)
                        || youtopia_storage::contains_null(new, *null)
                }
            },
        }
    }
}

/// The answer to the "find more specific tuples" correction query: the
/// visible tuples of `relation` more specific than `pattern`, in `TupleId`
/// order — exactly the order of `view.scan(relation)` filtered by
/// [`is_more_specific`], which is what frontier candidate lists (and so the
/// schedule) are built from.
///
/// A homomorphism is the identity on constants, so every answer carries the
/// pattern's constant at each constant column. The query therefore probes
/// the column index on the constant column whose bucket is smallest
/// ([`probe_smallest`]) and sorts the probe's rows by id, since bucket order
/// is append order, not id order. It scans only when the pattern has no
/// constant.
pub fn more_specific_tuples(
    view: &dyn DataView,
    relation: RelationId,
    pattern: &TupleData,
) -> Vec<(TupleId, TupleData)> {
    let constants =
        pattern.iter().enumerate().filter(|(_, value)| value.is_const()).map(|(c, v)| (c, *v));
    let mut rows = probe_smallest(view, relation, constants);
    rows.retain(|(_, data)| is_more_specific(data, pattern));
    rows.sort_unstable_by_key(|(id, _)| *id);
    rows
}

#[cfg(test)]
mod tests {
    use super::*;
    use youtopia_mappings::ViolationSeed;
    use youtopia_storage::{Database, UpdateId, Value, Write};

    fn setup() -> (Database, MappingSet) {
        let mut db = Database::new();
        db.add_relation("C", ["city"]).unwrap();
        db.add_relation("S", ["code", "location", "city_served"]).unwrap();
        let mut set = MappingSet::new();
        set.add_parsed(db.catalog(), "sigma1: C(c) -> exists a, l. S(a, l, c)").unwrap();
        (db, set)
    }

    #[test]
    fn more_specific_query_and_affectedness() {
        let (mut db, set) = setup();
        let c = db.relation_id("C").unwrap();
        let x = db.fresh_null();
        let pattern: TupleData = vec![Value::Null(x)].into();
        let q = ReadQuery::MoreSpecific { relation: c, pattern: pattern.clone() };

        let snap = db.snapshot(UpdateId::OMNISCIENT);
        assert_eq!(q.answer_size(&snap, &set), 0);
        assert!(!q.is_violation_query());
        assert_eq!(q.relations_read(&set), vec![c]);

        // Inserting any C tuple changes the answer (it is more specific than x).
        let changes = db
            .apply(
                &Write::Insert { relation: c, values: vec![Value::constant("NYC")] },
                UpdateId(1),
            )
            .unwrap();
        let snap = db.snapshot(UpdateId::OMNISCIENT);
        assert!(q.affected_by(&snap, &set, &changes[0]));
        assert_eq!(q.answer_size(&snap, &set), 1);
        assert_eq!(more_specific_tuples(&snap, c, &pattern).len(), 1);

        // An insert into an unrelated relation does not affect it.
        let s = db.relation_id("S").unwrap();
        let changes = db
            .apply(
                &Write::Insert {
                    relation: s,
                    values: vec![Value::constant("a"), Value::constant("b"), Value::constant("c")],
                },
                UpdateId(1),
            )
            .unwrap();
        let snap = db.snapshot(UpdateId::OMNISCIENT);
        assert!(!q.affected_by(&snap, &set, &changes[0]));
    }

    #[test]
    fn null_occurrence_query_affectedness() {
        let (mut db, _set) = setup();
        let c = db.relation_id("C").unwrap();
        let x = db.fresh_null();
        let q = ReadQuery::NullOccurrences { null: x };
        assert!(q.relations_read(&MappingSet::new()).is_empty());

        let with_null = db
            .apply(&Write::Insert { relation: c, values: vec![Value::Null(x)] }, UpdateId(1))
            .unwrap();
        let without_null = db
            .apply(&Write::Insert { relation: c, values: vec![Value::constant("k")] }, UpdateId(1))
            .unwrap();
        let set = MappingSet::new();
        let snap = db.snapshot(UpdateId::OMNISCIENT);
        assert!(q.affected_by(&snap, &set, &with_null[0]));
        assert!(!q.affected_by(&snap, &set, &without_null[0]));
        assert_eq!(q.answer_size(&snap, &set), 1);

        // Replacing the null modifies the tuple: still affects the query.
        let modified = db
            .apply(&Write::NullReplace { null: x, replacement: Value::constant("z") }, UpdateId(1))
            .unwrap();
        let snap = db.snapshot(UpdateId::OMNISCIENT);
        assert!(q.affected_by(&snap, &set, &modified[0]));
    }

    #[test]
    fn violation_query_affectedness_delegates_to_delta_evaluation() {
        let (mut db, set) = setup();
        let c = db.relation_id("C").unwrap();
        let s = db.relation_id("S").unwrap();
        let sigma1 = set.by_name("sigma1").unwrap().id;
        let q = ReadQuery::Violation(ViolationQuery { mapping: sigma1, seed: ViolationSeed::Full });
        assert!(q.is_violation_query());
        assert_eq!(q.relations_read(&set).len(), 2);

        // Inserting a city with no airport changes the (initially empty) answer.
        let changes = db
            .apply(
                &Write::Insert { relation: c, values: vec![Value::constant("Ithaca")] },
                UpdateId(1),
            )
            .unwrap();
        let snap = db.snapshot(UpdateId::OMNISCIENT);
        assert!(q.affected_by(&snap, &set, &changes[0]));
        assert_eq!(q.answer_size(&snap, &set), 1);

        // Supplying the airport changes it back.
        let changes = db
            .apply(
                &Write::Insert {
                    relation: s,
                    values: vec![
                        Value::constant("ITH"),
                        Value::constant("Ithaca"),
                        Value::constant("Ithaca"),
                    ],
                },
                UpdateId(1),
            )
            .unwrap();
        let snap = db.snapshot(UpdateId::OMNISCIENT);
        assert!(q.affected_by(&snap, &set, &changes[0]));
        assert_eq!(q.answer_size(&snap, &set), 0);
    }
}
