//! Micro-benchmarks for the storage substrate: inserts, visibility-filtered
//! scans, index probes, null-replacement, specificity checks and snapshot
//! encode/decode.

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use youtopia_storage::{
    deserialize_database, is_more_specific, serialize_database, Database, NullId, UpdateId, Value,
    Write,
};

fn populated(rows: usize) -> Database {
    let mut db = Database::new();
    db.add_relation("R", ["a", "b", "c"]).unwrap();
    let rel = db.relation_id("R").unwrap();
    for i in 0..rows {
        db.apply(
            &Write::Insert {
                relation: rel,
                values: vec![
                    Value::constant(&format!("k{}", i % 50)),
                    Value::constant(&format!("v{i}")),
                    Value::Null(NullId(i as u64)),
                ],
            },
            UpdateId(1 + (i % 7) as u64),
        )
        .unwrap();
    }
    db
}

fn bench_inserts(c: &mut Criterion) {
    c.bench_function("storage/insert_1k_tuples", |b| {
        b.iter(|| {
            let db = populated(1_000);
            black_box(db.total_visible(UpdateId::OMNISCIENT))
        })
    });
}

fn bench_scans_and_probes(c: &mut Criterion) {
    let db = populated(2_000);
    let rel = db.relation_id("R").unwrap();
    let mut group = c.benchmark_group("storage/read");
    group.bench_function("scan_visible", |b| {
        b.iter(|| black_box(db.scan(rel, UpdateId::OMNISCIENT).len()))
    });
    group.bench_function("scan_low_visibility", |b| {
        b.iter(|| black_box(db.scan(rel, UpdateId(2)).len()))
    });
    group.bench_function("index_probe", |b| {
        b.iter(|| {
            black_box(db.candidates(rel, 0, Value::constant("k7"), UpdateId::OMNISCIENT).len())
        })
    });
    group.bench_function("null_occurrences", |b| {
        b.iter(|| black_box(db.null_occurrences(NullId(500), UpdateId::OMNISCIENT).len()))
    });
    // The chase re-probes a handful of hot (column, value) keys every step;
    // each probe walks its 40-entry bucket afresh.
    group.bench_function("hot_key_probes", |b| {
        b.iter(|| {
            let mut total = 0usize;
            for i in 0..8 {
                let key = Value::constant(&format!("k{i}"));
                total += db.candidates(rel, 0, key, UpdateId::OMNISCIENT).len();
            }
            black_box(total)
        })
    });
    group.finish();
}

fn bench_null_replacement(c: &mut Criterion) {
    c.bench_function("storage/null_replace_in_2k", |b| {
        b.iter_batched(
            || populated(2_000),
            |mut db| {
                db.apply(
                    &Write::NullReplace { null: NullId(100), replacement: Value::constant("done") },
                    UpdateId(9),
                )
                .unwrap()
            },
            criterion::BatchSize::SmallInput,
        )
    });
}

fn bench_specificity(c: &mut Criterion) {
    let mut group = c.benchmark_group("storage/specificity");
    for arity in [2usize, 4, 8] {
        let general: Vec<Value> = (0..arity).map(|i| Value::Null(NullId(i as u64 % 3))).collect();
        let specific: Vec<Value> =
            (0..arity).map(|i| Value::constant(&format!("c{}", i % 3))).collect();
        group.bench_with_input(BenchmarkId::from_parameter(arity), &arity, |b, _| {
            b.iter(|| black_box(is_more_specific(&specific, &general)))
        });
    }
    group.finish();
}

/// Two relations of `rows` tuples each whose constants cycle through
/// `distinct` strings. Every tenth `R` tuple holds a labeled null that is
/// replaced afterwards, so its chain has two versions.
fn snapshot_db(rows: usize, distinct: usize) -> Database {
    let mut db = Database::new();
    let r = db.add_relation("R", ["a", "b", "c"]).unwrap();
    let s = db.add_relation("S", ["a", "b"]).unwrap();
    let constant = |i: usize| Value::constant(&format!("c{}", i % distinct));
    let mut nulls = Vec::new();
    for i in 0..rows {
        let null = (i % 10 == 0).then(|| db.fresh_null());
        nulls.extend(null);
        let last = null.map_or_else(|| constant(3 * i + 2), Value::Null);
        let writer = UpdateId(1 + (i % 7) as u64);
        let values = vec![constant(3 * i), constant(3 * i + 1), last];
        db.apply(&Write::Insert { relation: r, values }, writer).unwrap();
        let values = vec![constant(2 * i), constant(i)];
        db.apply(&Write::Insert { relation: s, values }, writer).unwrap();
    }
    for (i, null) in nulls.into_iter().enumerate() {
        db.apply(&Write::NullReplace { null, replacement: constant(i) }, UpdateId(8)).unwrap();
    }
    db
}

/// Snapshot codec in two shapes: few constants used over and over (the
/// paper fixture's shape) and mostly-unique constants (a database grown by
/// long cascades).
fn bench_snapshots(c: &mut Criterion) {
    let mut group = c.benchmark_group("storage/snapshot");
    for (shape, distinct) in [("repeated", 64), ("unique", usize::MAX)] {
        let db = snapshot_db(5_000, distinct);
        let bytes = serialize_database(&db);
        group.bench_with_input(BenchmarkId::new("encode", shape), &db, |b, db| {
            b.iter(|| serialize_database(db).len())
        });
        group.bench_with_input(BenchmarkId::new("decode", shape), &bytes, |b, bytes| {
            // Decoded databases are dropped after the batch, untimed.
            let mut decoded = Vec::new();
            b.iter(|| decoded.push(deserialize_database(bytes).unwrap()));
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_inserts,
    bench_scans_and_probes,
    bench_null_replacement,
    bench_specificity,
    bench_snapshots
);
criterion_main!(benches);
