//! Micro-benchmarks for violation detection: the incremental violation
//! queries a chase step poses (Section 4.2) and full-relation scans, the
//! "find more specific tuples" correction query a forward repair poses, plus
//! the per-write "does this change the answer?" check used by conflict
//! detection and the `PRECISE` tracker.

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use youtopia_core::more_specific_tuples;
use youtopia_mappings::{
    change_affects_query, find_violations, violations_from_change, MappingSet, ViolationQuery,
    ViolationSeed,
};
use youtopia_storage::{Database, TupleChange, TupleData, UpdateId, Value, Write};

/// A travel-style database with `per_relation` rows in each relation.
fn setup(per_relation: usize) -> (Database, MappingSet, TupleChange) {
    let mut db = Database::new();
    db.add_relation("A", ["location", "name"]).unwrap();
    db.add_relation("T", ["attraction", "company", "tour_start"]).unwrap();
    db.add_relation("R", ["company", "attraction", "review"]).unwrap();
    let mut mappings = MappingSet::new();
    mappings
        .add_parsed(db.catalog(), "sigma3: A(l, n) & T(n, c, cs) -> exists r. R(c, n, r)")
        .unwrap();
    let u = UpdateId(0);
    for i in 0..per_relation {
        db.insert_by_name("A", &[&format!("loc{i}"), &format!("attr{i}")], u);
        db.insert_by_name(
            "T",
            &[&format!("attr{i}"), &format!("co{i}"), &format!("city{}", i % 10)],
            u,
        );
        db.insert_by_name("R", &[&format!("co{i}"), &format!("attr{i}"), "fine"], u);
    }
    // The change we repeatedly check: a brand-new tour without a review.
    let t = db.relation_id("T").unwrap();
    let changes = db
        .apply(
            &Write::Insert {
                relation: t,
                values: vec![
                    Value::constant("attr3"),
                    Value::constant("newco"),
                    Value::constant("city0"),
                ],
            },
            UpdateId(1),
        )
        .unwrap();
    (db, mappings, changes[0].clone())
}

fn bench_incremental_detection(c: &mut Criterion) {
    let mut group = c.benchmark_group("violations/incremental");
    group.sample_size(15);
    for size in [100usize, 500, 1_000] {
        let (db, mappings, change) = setup(size);
        group.bench_with_input(BenchmarkId::from_parameter(size), &size, |b, _| {
            let snap = db.snapshot(UpdateId::OMNISCIENT);
            b.iter(|| black_box(violations_from_change(&snap, &mappings, &change).1.len()))
        });
    }
    group.finish();
}

fn bench_full_scan_detection(c: &mut Criterion) {
    let mut group = c.benchmark_group("violations/full_scan");
    group.sample_size(15);
    for size in [100usize, 500] {
        let (db, mappings, _) = setup(size);
        group.bench_with_input(BenchmarkId::from_parameter(size), &size, |b, _| {
            let snap = db.snapshot(UpdateId::OMNISCIENT);
            b.iter(|| black_box(find_violations(&snap, &mappings).len()))
        });
    }
    group.finish();
}

fn bench_affectedness_check(c: &mut Criterion) {
    let mut group = c.benchmark_group("violations/affected_by_change");
    group.sample_size(15);
    for size in [100usize, 1_000] {
        let (db, mappings, change) = setup(size);
        let sigma3 = mappings.by_name("sigma3").unwrap().id;
        let query = ViolationQuery { mapping: sigma3, seed: ViolationSeed::Full };
        group.bench_with_input(BenchmarkId::from_parameter(size), &size, |b, _| {
            let snap = db.snapshot(UpdateId::OMNISCIENT);
            b.iter(|| black_box(change_affects_query(&snap, &mappings, &query, &change)))
        });
    }
    group.finish();
}

/// The correction query for a frontier tuple `R('co3', 'attr3', x)` against
/// a grown `R`: one matching row however large the relation is, so the time
/// must stay flat in `size` (an index probe, not a scan of `R`).
fn bench_more_specific(c: &mut Criterion) {
    let mut group = c.benchmark_group("violations/more_specific");
    group.sample_size(15);
    for size in [1_000usize, 10_000] {
        let (db, _, _) = setup(size);
        let r = db.relation_id("R").unwrap();
        let pattern: TupleData =
            vec![Value::constant("co3"), Value::constant("attr3"), Value::Null(db.fresh_null())]
                .into();
        group.bench_with_input(BenchmarkId::from_parameter(size), &size, |b, _| {
            let snap = db.snapshot(UpdateId::OMNISCIENT);
            b.iter(|| black_box(more_specific_tuples(&snap, r, &pattern).len()))
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_incremental_detection,
    bench_full_scan_detection,
    bench_affectedness_check,
    bench_more_specific
);
criterion_main!(benches);
