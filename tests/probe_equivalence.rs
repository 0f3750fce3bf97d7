//! Differential tests for the chase's index-probing read path: the
//! correction query (`more_specific_tuples`), conjunctive-query evaluation
//! (`evaluate`) and violation queries must answer exactly what a
//! scan-and-filter or nested-loop reference answers, whichever index bucket
//! they choose to probe.
//!
//! The generated databases mix inserts, deletes, null replacements and
//! rolled-back updates. Null replacements append a tuple's new version to
//! buckets that already hold later tuple ids, so buckets carry stale entries
//! and fall out of `TupleId` order; rollbacks leave stale entries behind too.
//! Every database is queried at several reader numbers, through a plain
//! `Snapshot` and through `OverlaySnapshot`s with `Hide` and `Present`
//! overrides.

use std::cell::{Cell, RefCell};

use proptest::prelude::*;
use youtopia::chase::more_specific_tuples;
use youtopia::mappings::{ViolationKind, ViolationQuery, ViolationSeed};
use youtopia::storage::{
    evaluate, is_more_specific, restrict, Atom, Bindings, Catalog, OverlaySnapshot, QueryMatch,
    Term, TupleData,
};
use youtopia::{
    DataView, Database, MappingSet, NullId, RelationId, Symbol, TupleId, UpdateId, Value, Write,
};

/// Constants the generated tuples draw from: few, so buckets collide.
const CONSTANTS: [&str; 3] = ["c0", "c1", "c2"];

/// The readers every database is queried at (plus `OMNISCIENT`).
const READERS: [u64; 4] = [0, 1, 3, 5];

/// One generated operation: `(kind, a, b, c, writer)`.
type Op = (u8, u64, u64, u64, u64);

fn schema() -> (Database, MappingSet) {
    let mut db = Database::new();
    db.add_relation("R", ["a", "b", "c"]).unwrap();
    db.add_relation("S", ["a", "b"]).unwrap();
    let mut mappings = MappingSet::new();
    mappings
        .add_parsed_many(
            db.catalog(),
            "
            join: R(x, y, z) & S(y, z) -> exists w. R(z, w, x)
            copy: S(x, y) -> exists z. R(x, y, z)
            pinned: R(x, 'c1', y) & S(y, y) -> S(x, 'c0')
            ",
        )
        .unwrap();
    (db, mappings)
}

/// A value for a generated tuple: one of the constants, one of the nulls
/// minted so far, or a fresh null.
fn pick_value(db: &Database, nulls: &mut Vec<NullId>, code: u64) -> Value {
    let code = code as usize;
    match code % 5 {
        0..=2 => Value::constant(CONSTANTS[code % 3]),
        3 if !nulls.is_empty() => Value::Null(nulls[(code / 5) % nulls.len()]),
        _ => {
            let null = db.fresh_null();
            nulls.push(null);
            Value::Null(null)
        }
    }
}

/// Plays the generated operations into a fresh database.
fn build(ops: &[Op]) -> (Database, MappingSet, Vec<NullId>) {
    let (mut db, mappings) = schema();
    let r = db.relation_id("R").unwrap();
    let s = db.relation_id("S").unwrap();
    let mut nulls = Vec::new();
    for &(kind, a, b, c, writer) in ops {
        let writer = UpdateId(writer);
        match kind % 6 {
            0 | 1 => {
                let (relation, arity) = if kind % 6 == 0 { (r, 3) } else { (s, 2) };
                let values: Vec<Value> = [a, b, c][..arity]
                    .iter()
                    .map(|&code| pick_value(&db, &mut nulls, code))
                    .collect();
                db.apply(&Write::Insert { relation, values }, writer).unwrap();
            }
            2 => {
                let relation = if a % 2 == 0 { r } else { s };
                let rows = db.scan(relation, writer);
                if !rows.is_empty() {
                    let tuple = rows[(b as usize) % rows.len()].0;
                    db.apply(&Write::Delete { relation, tuple }, writer).unwrap();
                }
            }
            3 | 4 => {
                if !nulls.is_empty() {
                    let null = nulls[(a as usize) % nulls.len()];
                    let replacement = if b % 3 == 0 && nulls.len() > 1 {
                        Value::Null(nulls[(c as usize) % nulls.len()])
                    } else {
                        Value::constant(CONSTANTS[(c as usize) % 3])
                    };
                    if replacement != Value::Null(null) {
                        db.apply(&Write::NullReplace { null, replacement }, writer).unwrap();
                    }
                }
            }
            _ => {
                db.rollback_update(writer);
            }
        }
    }
    (db, mappings, nulls)
}

fn ops_strategy() -> impl Strategy<Value = Vec<Op>> {
    prop::collection::vec((0u8..6, 0u64..1_000, 0u64..1_000, 0u64..1_000, 1u64..6), 5..60)
}

/// The correction query's definition: scan, then filter.
fn more_specific_reference(
    view: &dyn DataView,
    relation: RelationId,
    pattern: &TupleData,
) -> Vec<(TupleId, TupleData)> {
    view.scan(relation).into_iter().filter(|(_, data)| is_more_specific(data, pattern)).collect()
}

/// Conjunctive-query evaluation by nested loops over full scans, in atom
/// order, sorted by matched tuple ids.
fn evaluate_reference(view: &dyn DataView, atoms: &[Atom], seed: &Bindings) -> Vec<QueryMatch> {
    let mut partial = vec![QueryMatch { bindings: seed.clone(), tuples: Vec::new() }];
    for atom in atoms {
        let rows = view.scan(atom.relation);
        partial = partial
            .iter()
            .flat_map(|m| {
                rows.iter().filter_map(move |(id, data)| {
                    atom.match_tuple(data, &m.bindings).map(|bindings| {
                        let mut tuples = m.tuples.clone();
                        tuples.push(*id);
                        QueryMatch { bindings, tuples }
                    })
                })
            })
            .collect();
    }
    sorted(partial)
}

fn sorted(mut matches: Vec<QueryMatch>) -> Vec<QueryMatch> {
    matches.sort_by(|a, b| a.tuples.cmp(&b.tuples));
    matches
}

/// A violation query's answer by the nested-loop reference.
fn violations_reference(
    view: &dyn DataView,
    mappings: &MappingSet,
    query: &ViolationQuery,
) -> Vec<youtopia::mappings::Violation> {
    let tgd = mappings.get(query.mapping);
    let (seed, kind) = match &query.seed {
        ViolationSeed::Lhs { atom_index, values } => {
            match tgd.lhs[*atom_index].match_tuple(values, &Bindings::new()) {
                Some(b) => (b, ViolationKind::Lhs),
                None => return Vec::new(),
            }
        }
        ViolationSeed::Rhs { atom_index, values } => {
            match tgd.rhs[*atom_index].match_tuple(values, &Bindings::new()) {
                Some(b) => (restrict(&b, tgd.frontier_vars()), ViolationKind::Rhs),
                None => return Vec::new(),
            }
        }
        ViolationSeed::Full => (Bindings::new(), ViolationKind::Lhs),
    };
    let mut out: Vec<_> = evaluate_reference(view, &tgd.lhs, &seed)
        .into_iter()
        .filter(|m| {
            let frontier = restrict(&m.bindings, tgd.frontier_vars());
            evaluate_reference(view, &tgd.rhs, &frontier).is_empty()
        })
        .map(|m| youtopia::mappings::Violation {
            mapping: query.mapping,
            kind,
            lhs_bindings: m.bindings,
            witness: m.tuples,
        })
        .collect();
    out.sort();
    out.dedup();
    out
}

/// Patterns for the correction query: all-constant, mixed, repeated nulls,
/// nulls present in the database, and constant-free ones (which must scan).
fn patterns(nulls: &[NullId]) -> Vec<Vec<Value>> {
    let c = |i: usize| Value::constant(CONSTANTS[i]);
    let fresh = Value::Null(NullId(1_000_000));
    let other = Value::Null(NullId(1_000_001));
    let known = nulls.first().map_or(fresh, |n| Value::Null(*n));
    let mut out = vec![
        vec![fresh, other, fresh],
        vec![fresh, fresh, fresh],
        vec![c(0), fresh, other],
        vec![fresh, c(1), fresh],
        vec![c(0), c(1), fresh],
        vec![c(2), c(2), c(2)],
        vec![known, c(0), fresh],
        vec![c(1), known, known],
        vec![fresh, other],
        vec![c(0), fresh],
        vec![fresh, c(1)],
        vec![known, known],
        vec![c(1), c(0)],
    ];
    for (i, n) in nulls.iter().enumerate().take(3) {
        out.push(vec![Value::Null(*n), c(i % 3), fresh]);
        out.push(vec![c(i % 3), Value::Null(*n)]);
    }
    out
}

fn queries(db: &Database) -> Vec<(Vec<Atom>, Bindings)> {
    let r = db.relation_id("R").unwrap();
    let s = db.relation_id("S").unwrap();
    let v = Term::var;
    let k = |i: usize| Term::constant(CONSTANTS[i]);
    let mut seeded = Bindings::new();
    seeded.insert(Symbol::intern("y"), Value::constant("c1"));
    vec![
        (vec![Atom::new(r, vec![v("x"), v("y"), v("z")])], Bindings::new()),
        (
            vec![Atom::new(r, vec![v("x"), v("y"), v("z")]), Atom::new(s, vec![v("y"), v("z")])],
            Bindings::new(),
        ),
        (
            vec![Atom::new(r, vec![v("x"), k(1), v("z")]), Atom::new(s, vec![v("z"), v("x")])],
            seeded.clone(),
        ),
        (vec![Atom::new(s, vec![v("x"), v("x")])], Bindings::new()),
        (
            vec![
                Atom::new(r, vec![v("x"), v("y"), v("x")]),
                Atom::new(s, vec![v("y"), v("w")]),
                Atom::new(r, vec![v("w"), k(0), v("u")]),
            ],
            Bindings::new(),
        ),
        (vec![Atom::new(r, vec![k(0), v("y"), k(2)]), Atom::new(s, vec![v("y"), k(0)])], seeded),
    ]
}

/// The views a database is checked through at one reader: the snapshot, and
/// overlays that hide a visible tuple, rewrite one, and restore one the
/// reader cannot see.
fn check_views(db: &Database, mappings: &MappingSet, nulls: &[NullId], reader: UpdateId) {
    let snap = db.snapshot(reader);
    let r = db.relation_id("R").unwrap();
    let s = db.relation_id("S").unwrap();
    check_view(&snap, db, mappings, nulls, "snapshot");

    let visible = snap.scan(r);
    let invisible: Vec<TupleId> = db
        .version_store()
        .relation(r)
        .unwrap()
        .tuple_ids()
        .filter(|id| snap.tuple(r, *id).is_none())
        .collect();
    let c0 = Value::constant("c0");
    if let Some((id, data)) = visible.first() {
        let hidden = OverlaySnapshot::new(&snap).hide(r, *id);
        check_view(&hidden, db, mappings, nulls, "hide");
        let rewritten: TupleData = vec![c0, data[1], c0].into();
        let present = OverlaySnapshot::new(&snap).with_tuple(r, *id, rewritten);
        check_view(&present, db, mappings, nulls, "present (rewrite)");
    }
    if let Some(id) = invisible.first() {
        let restored: TupleData = vec![c0, Value::constant("c1"), c0].into();
        let present = OverlaySnapshot::new(&snap).with_tuple(r, *id, restored);
        check_view(&present, db, mappings, nulls, "present (restore)");
    }
    if let (Some((rid, _)), Some((sid, sdata))) = (visible.last(), snap.scan(s).first()) {
        let mixed = OverlaySnapshot::new(&snap).hide(r, *rid).with_tuple(
            s,
            *sid,
            vec![sdata[1], sdata[0]].into(),
        );
        check_view(&mixed, db, mappings, nulls, "hide + present");
    }
}

fn check_view(
    view: &dyn DataView,
    db: &Database,
    mappings: &MappingSet,
    nulls: &[NullId],
    label: &str,
) {
    for relation in [db.relation_id("R").unwrap(), db.relation_id("S").unwrap()] {
        let arity = db.schema(relation).arity();
        for pattern in patterns(nulls).into_iter().filter(|p| p.len() == arity) {
            let pattern: TupleData = pattern.into();
            assert_eq!(
                more_specific_tuples(view, relation, &pattern),
                more_specific_reference(view, relation, &pattern),
                "{label}: more_specific_tuples({relation:?}, {pattern:?}) must equal the \
                 scan-and-filter answer, in order"
            );
        }
    }
    for (atoms, seed) in queries(db) {
        assert_eq!(
            sorted(evaluate(view, &atoms, &seed, None)),
            evaluate_reference(view, &atoms, &seed),
            "{label}: evaluate({atoms:?}) must find the nested-loop match set"
        );
    }
    let mut violation_queries = Vec::new();
    for tgd in mappings.iter() {
        violation_queries.push(ViolationQuery { mapping: tgd.id, seed: ViolationSeed::Full });
        for (side, atoms) in [(0, &tgd.lhs), (1, &tgd.rhs)] {
            for (atom_index, atom) in atoms.iter().enumerate() {
                for (_, values) in view.scan(atom.relation) {
                    let seed = if side == 0 {
                        ViolationSeed::Lhs { atom_index, values }
                    } else {
                        ViolationSeed::Rhs { atom_index, values }
                    };
                    violation_queries.push(ViolationQuery { mapping: tgd.id, seed });
                }
            }
        }
    }
    for query in &violation_queries {
        assert_eq!(
            query.evaluate(view, mappings),
            violations_reference(view, mappings, query),
            "{label}: violation query {query:?} must match the nested-loop reference"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Correction queries, conjunctive queries and violation queries agree
    /// with their references on generated histories, at every reader and
    /// through every overlay shape.
    #[test]
    fn probes_answer_what_scans_answer(ops in ops_strategy()) {
        let (db, mappings, nulls) = build(&ops);
        for reader in READERS.iter().map(|&r| UpdateId(r)).chain([UpdateId::OMNISCIENT]) {
            check_views(&db, &mappings, &nulls, reader);
        }
    }
}

/// A view that records which column each candidate probe used.
struct Recording<'a, V: DataView> {
    inner: &'a V,
    probes: RefCell<Vec<usize>>,
    scans: Cell<usize>,
}

impl<'a, V: DataView> Recording<'a, V> {
    fn new(inner: &'a V) -> Self {
        Recording { inner, probes: RefCell::new(Vec::new()), scans: Cell::new(0) }
    }
}

impl<V: DataView> DataView for Recording<'_, V> {
    fn catalog(&self) -> &Catalog {
        self.inner.catalog()
    }
    fn tuple(&self, relation: RelationId, tuple: TupleId) -> Option<TupleData> {
        self.inner.tuple(relation, tuple)
    }
    fn scan(&self, relation: RelationId) -> Vec<(TupleId, TupleData)> {
        self.scans.set(self.scans.get() + 1);
        self.inner.scan(relation)
    }
    fn candidates(
        &self,
        relation: RelationId,
        column: usize,
        value: Value,
    ) -> Vec<(TupleId, TupleData)> {
        self.probes.borrow_mut().push(column);
        self.inner.candidates(relation, column, value)
    }
    fn null_occurrences(&self, null: NullId) -> Vec<(RelationId, TupleId, TupleData)> {
        self.inner.null_occurrences(null)
    }
    fn size_estimate(&self, relation: RelationId, probe: Option<(usize, Value)>) -> usize {
        self.inner.size_estimate(relation, probe)
    }
}

/// Both reads probe the smallest bucket even when it is not the first bound
/// (or constant) column: `R('hot', 'rare', _)` must read column 1's one row,
/// not column 0's hundred.
#[test]
fn the_smallest_bucket_is_probed_not_the_first_bound_column() {
    let mut db = Database::new();
    let r = db.add_relation("R", ["a", "b", "c"]).unwrap();
    for i in 0..100 {
        db.insert_by_name(
            "R",
            &["hot", &format!("common{}", i % 2), &format!("v{i}")],
            UpdateId(1),
        );
    }
    let rare = db.insert_by_name("R", &["hot", "rare", "v"], UpdateId(1));
    let snap = db.snapshot(UpdateId::OMNISCIENT);

    let pattern: TupleData =
        vec![Value::constant("hot"), Value::constant("rare"), Value::Null(NullId(99))].into();
    let view = Recording::new(&snap);
    let found = more_specific_tuples(&view, r, &pattern);
    assert_eq!(found, more_specific_reference(&snap, r, &pattern));
    assert_eq!(found.iter().map(|(id, _)| *id).collect::<Vec<_>>(), vec![rare]);
    assert_eq!(*view.probes.borrow(), vec![1], "probe column 1 (bucket of 1), not column 0 (101)");
    assert_eq!(view.scans.get(), 0);

    let atom = Atom::new(r, vec![Term::constant("hot"), Term::constant("rare"), Term::var("c")]);
    let view = Recording::new(&snap);
    let matches = evaluate(&view, std::slice::from_ref(&atom), &Bindings::new(), None);
    assert_eq!(sorted(matches), evaluate_reference(&snap, &[atom], &Bindings::new()));
    assert_eq!(*view.probes.borrow(), vec![1]);
    assert_eq!(view.scans.get(), 0);
}

/// A null replacement appends the earlier tuple's new version to a bucket
/// behind a later tuple, so the probe returns `[t2, t1]`; the correction
/// query must still answer in scan (`TupleId`) order, `[t1, t2]`.
#[test]
fn correction_answers_keep_tuple_id_order_when_buckets_do_not() {
    let mut db = Database::new();
    let r = db.add_relation("R", ["a", "b"]).unwrap();
    let x = db.fresh_null();
    let q = Value::constant("q");
    let c = Value::constant("c");
    let t1 = db
        .apply(&Write::Insert { relation: r, values: vec![Value::Null(x), q] }, UpdateId(1))
        .unwrap()[0]
        .tuple();
    let t2 = db.apply(&Write::Insert { relation: r, values: vec![c, q] }, UpdateId(1)).unwrap()[0]
        .tuple();
    db.apply(&Write::NullReplace { null: x, replacement: c }, UpdateId(1)).unwrap();
    assert!(t1 < t2);

    let snap = db.snapshot(UpdateId::OMNISCIENT);
    let bucket: Vec<TupleId> = snap.candidates(r, 0, c).into_iter().map(|(id, _)| id).collect();
    assert_eq!(bucket, vec![t2, t1], "precondition: the `c` bucket is out of id order");

    let pattern: TupleData = vec![c, Value::Null(NullId(99))].into();
    let found = more_specific_tuples(&snap, r, &pattern);
    assert_eq!(found.iter().map(|(id, _)| *id).collect::<Vec<_>>(), vec![t1, t2]);
    assert_eq!(found, more_specific_reference(&snap, r, &pattern));
}
