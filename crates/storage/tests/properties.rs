//! Property-based tests for the storage substrate.

use proptest::prelude::*;
use youtopia_storage::{
    is_more_specific, specialization, substitute_nulls, Database, NullId, RelationId, TupleData,
    TupleId, UpdateId, Value, Write,
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
}

/// Every row of `rel` visible to `reader`, read straight off the version
/// chains: the reference the store's read paths are checked against.
fn chain_rows(db: &Database, rel: RelationId, reader: UpdateId) -> Vec<(TupleId, TupleData)> {
    let store = db.version_store().relation(rel).unwrap();
    store
        .tuple_ids()
        .filter_map(|t| store.chain(t)?.visible_data(reader).map(|d| (t, d.clone())))
        .collect()
}

/// Checks `scan`, `visible_count` and `candidates` against [`chain_rows`] at
/// readers below, between and above the writers 1–6, probing every value any
/// version of `rel` ever held (stale index entries included).
fn assert_reads_match_chains(db: &Database, rel: RelationId) {
    let store = db.version_store().relation(rel).unwrap();
    let mut probes: Vec<(usize, Value)> = store
        .tuple_ids()
        .flat_map(|t| store.chain(t).unwrap().versions())
        .filter_map(|v| v.data.as_ref())
        .flat_map(|d| d.iter().copied().enumerate())
        .collect();
    probes.sort();
    probes.dedup();
    for reader in [0, 1, 3, 5].map(UpdateId).into_iter().chain([UpdateId::OMNISCIENT]) {
        let rows = chain_rows(db, rel, reader);
        assert_eq!(db.scan(rel, reader), rows, "scan of {rel} at {reader:?}");
        assert_eq!(db.visible_count(rel, reader), rows.len(), "count of {rel} at {reader:?}");
        for &(column, value) in &probes {
            let mut got = db.candidates(rel, column, value, reader);
            got.sort_by_key(|(t, _)| *t);
            let want: Vec<_> = rows.iter().filter(|(_, d)| d[column] == value).cloned().collect();
            assert_eq!(got, want, "{rel}[{column}] = {value:?} at {reader:?}");
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Reads interleaved with a history of inserts, deletes, null
    /// replacements and rollbacks by updates 1–6 always answer what the
    /// version chains hold. Reading before each write fills the row memo, so
    /// every write lands on a warm memo and must invalidate exactly the
    /// readers that can see it.
    #[test]
    fn reads_between_writes_match_the_version_chains(
        ops in prop::collection::vec((0u8..5, 0u64..1_000, 0u64..1_000), 0..40)
    ) {
        let mut db = Database::new();
        let r = db.add_relation("R", ["a", "b"]).unwrap();
        let s = db.add_relation("S", ["c"]).unwrap();
        let check = |db: &Database| {
            assert_reads_match_chains(db, r);
            assert_reads_match_chains(db, s);
        };
        for (kind, pick, other) in ops {
            check(&db);
            let writer = UpdateId(1 + pick % 6);
            let value = |k: u64, db: &Database| match k % 4 {
                0 => Value::Null(db.fresh_null()),
                1 => Value::Null(NullId(k % (db.null_counter() + 1))),
                _ => Value::constant(&format!("k{}", k % 5)),
            };
            let _ = match kind {
                0 => {
                    let values = vec![value(other, &db), value(other / 7, &db)];
                    db.apply(&Write::Insert { relation: r, values }, writer)
                }
                1 => {
                    let values = vec![value(other, &db)];
                    db.apply(&Write::Insert { relation: s, values }, writer)
                }
                2 => {
                    let relation = if other % 2 == 0 { r } else { s };
                    let rows = chain_rows(&db, relation, UpdateId::OMNISCIENT);
                    if rows.is_empty() {
                        continue;
                    }
                    let tuple = rows[(other as usize / 2) % rows.len()].0;
                    db.apply(&Write::Delete { relation, tuple }, writer)
                }
                3 => {
                    let null = NullId(other % (db.null_counter() + 1));
                    let replacement = value(other / 3, &db);
                    if replacement == Value::Null(null) {
                        continue;
                    }
                    db.apply(&Write::NullReplace { null, replacement }, writer)
                }
                _ => {
                    db.rollback_update(writer);
                    Ok(Vec::new())
                }
            };
            check(&db);
        }
    }
}

/// `Database` (and everything reachable from a shared borrow of it — the
/// row memo included) must stay `Send + Sync`: the engine keeps it
/// behind one mutex that whichever caller thread holds it reads and writes,
/// and a `&Database` may cross threads.
#[test]
fn database_and_views_are_send_and_sync() {
    fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<Database>();
    assert_send_sync::<youtopia_storage::VersionStore>();
    assert_send_sync::<youtopia_storage::Snapshot<'static>>();
}

/// Real-contention audit of the shared read path: many threads hammer `scan` /
/// `visible_count` / `candidates` / `fresh_null` on one shared database at
/// different reader numbers (so they race on filling the `Mutex`-guarded row
/// memo and on the null counter) and every answer must match the
/// single-threaded truth computed up front.
#[test]
fn shared_reads_answer_correctly_under_contention() {
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
