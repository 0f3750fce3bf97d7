//! Property-based tests for the storage substrate.

use proptest::prelude::*;
use youtopia_storage::{
    is_more_specific, specialization, substitute_nulls, Database, NullId, UpdateId, Value, Write,
};

/// Strategy producing a value: constant from a small pool, or a labeled null.
fn value_strategy() -> impl Strategy<Value = Value> {
    prop_oneof![
        (0u32..8).prop_map(|i| Value::constant(&format!("c{i}"))),
        (0u64..6).prop_map(|i| Value::Null(NullId(i))),
    ]
}

fn tuple_strategy(arity: usize) -> impl Strategy<Value = Vec<Value>> {
    prop::collection::vec(value_strategy(), arity)
}

proptest! {
    /// Specificity is reflexive.
    #[test]
    fn specificity_reflexive(t in tuple_strategy(4)) {
        prop_assert!(is_more_specific(&t, &t));
    }

    /// Specificity is transitive: a ≤ b and b ≤ c implies a ≤ c
    /// (where `x ≤ y` means "x is more specific than y").
    #[test]
    fn specificity_transitive(a in tuple_strategy(3), b in tuple_strategy(3), c in tuple_strategy(3)) {
        if is_more_specific(&a, &b) && is_more_specific(&b, &c) {
            prop_assert!(is_more_specific(&a, &c));
        }
    }

    /// Applying the witnessing substitution of `specialization(general, specific)`
    /// to `general` yields exactly `specific`.
    #[test]
    fn specialization_substitution_is_a_witness(general in tuple_strategy(4), specific in tuple_strategy(4)) {
        if let Some(subst) = specialization(&general, &specific) {
            let (rewritten, _) = substitute_nulls(&general, &subst);
            prop_assert_eq!(rewritten, specific);
        }
    }

    /// A ground tuple (no nulls) is more specific than any tuple it specialises,
    /// and nothing other than an equal tuple is more general than it while also
    /// being ground.
    #[test]
    fn ground_tuples_are_maximally_specific(t in tuple_strategy(3)) {
        let ground: Vec<Value> = t
            .iter()
            .map(|v| match v {
                Value::Null(n) => Value::constant(&format!("g{}", n.0)),
                c => *c,
            })
            .collect();
        // Equal nulls receive equal constants, so the grounding is always a
        // consistent specialisation witness.
        prop_assert!(is_more_specific(&ground, &t));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Visibility: a tuple written by update `w` is visible to reader `r` iff
    /// `w <= r` (absent interfering writes), and rollback removes it for all.
    #[test]
    fn visibility_and_rollback(writer in 1u64..20, reader in 1u64..20, vals in tuple_strategy(2)) {
        let mut db = Database::new();
        let rel = db.add_relation("R", ["a", "b"]).unwrap();
        db.apply(&Write::Insert { relation: rel, values: vals }, UpdateId(writer)).unwrap();
        let visible = db.visible_count(rel, UpdateId(reader)) == 1;
        prop_assert_eq!(visible, writer <= reader);
        db.rollback_update(UpdateId(writer));
        prop_assert_eq!(db.visible_count(rel, UpdateId::OMNISCIENT), 0);
    }

    /// Null-replacement removes every visible occurrence of the null and never
    /// changes the number of visible tuples.
    #[test]
    fn null_replacement_is_global(tuples in prop::collection::vec(tuple_strategy(3), 1..10), null in 0u64..6) {
        let mut db = Database::new();
        let rel = db.add_relation("R", ["a", "b", "c"]).unwrap();
        for t in &tuples {
            db.apply(&Write::Insert { relation: rel, values: t.clone() }, UpdateId(1)).unwrap();
        }
        let before = db.visible_count(rel, UpdateId::OMNISCIENT);
        db.apply(
            &Write::NullReplace { null: NullId(null), replacement: Value::constant("REPL") },
            UpdateId(1),
        )
        .unwrap();
        prop_assert_eq!(db.visible_count(rel, UpdateId::OMNISCIENT), before);
        prop_assert!(db.null_occurrences(NullId(null), UpdateId::OMNISCIENT).is_empty());
        for (_, data) in db.scan(rel, UpdateId::OMNISCIENT) {
            prop_assert!(!data.contains(&Value::Null(NullId(null))));
        }
    }

    /// Candidate (index) lookups agree with a full scan filter.
    #[test]
    fn candidates_agree_with_scan(tuples in prop::collection::vec(tuple_strategy(2), 0..12), probe in value_strategy(), col in 0usize..2) {
        let mut db = Database::new();
        let rel = db.add_relation("R", ["a", "b"]).unwrap();
        for t in &tuples {
            db.apply(&Write::Insert { relation: rel, values: t.clone() }, UpdateId(1)).unwrap();
        }
        let reader = UpdateId::OMNISCIENT;
        let mut from_scan: Vec<_> = db
            .scan(rel, reader)
            .into_iter()
            .filter(|(_, data)| data[col] == probe)
            .map(|(id, _)| id)
            .collect();
        let mut from_index: Vec<_> = db.candidates(rel, col, probe, reader).into_iter().map(|(id, _)| id).collect();
        from_scan.sort();
        from_index.sort();
        prop_assert_eq!(from_scan, from_index);
    }
}

/// `Database` (and everything reachable from a shared borrow of it — the
/// memoising caches included) must stay `Send + Sync`: the engine keeps it
/// behind one mutex that whichever caller thread holds it reads and writes,
/// and a `&Database` may cross threads.
#[test]
fn database_and_views_are_send_and_sync() {
    fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<Database>();
    assert_send_sync::<youtopia_storage::VersionStore>();
    assert_send_sync::<youtopia_storage::Snapshot<'static>>();
}

/// Real-contention audit of the per-relation memo caches: many threads hammer
/// `scan` / `visible_count` / `candidates` / `fresh_null` on one shared
/// database at different reader numbers (so they race on inserting into the
/// `Mutex`-guarded visible-set and count caches) and every answer must match
/// the single-threaded truth computed up front.
#[test]
fn memo_caches_answer_correctly_under_contention() {
    let mut db = Database::new();
    let rel = db.add_relation("R", ["a", "b"]).unwrap();
    for i in 0..200u64 {
        let writer = UpdateId(1 + (i % 10));
        db.apply(
            &Write::Insert {
                relation: rel,
                values: vec![Value::constant(&format!("k{}", i % 7)), Value::constant("v")],
            },
            writer,
        )
        .unwrap();
    }
    // Single-threaded truth per reader, computed before any concurrency.
    let readers: Vec<UpdateId> = (0..12u64).map(UpdateId).collect();
    let expected_counts: Vec<usize> = readers.iter().map(|r| db.scan(rel, *r).len()).collect();
    let nulls_before = db.null_counter();

    let db = &db;
    std::thread::scope(|scope| {
        for t in 0..4 {
            let readers = &readers;
            let expected_counts = &expected_counts;
            scope.spawn(move || {
                for round in 0..50 {
                    let reader = readers[(t + round) % readers.len()];
                    let expect = expected_counts[(t + round) % readers.len()];
                    assert_eq!(db.visible_count(rel, reader), expect);
                    assert_eq!(db.scan(rel, reader).len(), expect);
                    let probe = Value::constant(&format!("k{}", round % 7));
                    for (_, data) in db.candidates(rel, 0, probe, reader) {
                        assert_eq!(data[0], probe);
                    }
                    // Null allocation through a shared borrow must never
                    // hand out duplicates (checked via the total below).
                    db.fresh_null();
                }
            });
        }
    });
    assert_eq!(db.null_counter(), nulls_before + 4 * 50, "every fresh_null must be distinct");
}
