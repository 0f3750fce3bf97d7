//! Algorithm 4's bookkeeping as one value: the stored read queries, the
//! logged writes and the read dependencies of every update, and the conflict
//! checks the optimistic scheduler runs against them. The
//! [`ExchangeEngine`](crate::ExchangeEngine)'s sequencer and the
//! [`ConcurrentRun`](crate::ConcurrentRun) reference hold one each.
//!
//! * **Reads** are retained: a stored query stays live — and keeps taking
//!   part in conflict checks — until its update is forgotten (it aborts,
//!   fails or is evicted) or the run goes quiescent. This is what lets the
//!   chase memoise a violation's repair plan across steps: the plan's
//!   correction queries were stored when it was computed, and a later write
//!   that retroactively changes one of their answers still aborts the owner.
//!   Exact duplicates are stored once. Reads are keyed by relation, so a
//!   change consults only the readers with a query over the changed relation;
//!   queries whose relations are unknown up front
//!   ([`ReadQuery::NullOccurrences`] — a null may occur anywhere) are
//!   *wildcards*, consulted for every change.
//! * **Writes** are keyed by update, with a relation → writer index, so a
//!   dependency walk visits only the changes below the reader to the
//!   relations a query reads, and forgetting an update costs its own entries.
//! * **Dependencies** (Section 5.1): when an update aborts, every update that
//!   read data its writes affected must abort as well (a *cascading* abort).
//!   [`TrackerKind`] picks how accurately who read from whom is known:
//!   `NAIVE` assumes every later update read from every earlier one;
//!   `COARSE` makes a violation query over relations `{R₁ … Rₖ}` depend on
//!   every earlier writer of any `Rᵢ` and checks correction queries exactly
//!   against the logged changes, without touching the database; `PRECISE`
//!   checks every logged change of a lower-numbered update exactly (delta
//!   evaluation for violation queries), so only writes that actually change a
//!   read query's answer create dependencies.

use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::ops::Bound::{Excluded, Unbounded};

use youtopia_core::ReadQuery;
use youtopia_mappings::MappingSet;
use youtopia_storage::{AppliedWrite, DataView, Database, RelationId, TupleChange, UpdateId};

use crate::metrics::RunMetrics;

/// Which dependency-tracking algorithm a run uses.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum TrackerKind {
    /// Abort every higher-numbered update (the strawman of Section 5.1).
    Naive,
    /// Relation-granular dependencies for violation queries; exact for
    /// correction queries.
    Coarse,
    /// Exact dependencies for every read query.
    Precise,
}

impl TrackerKind {
    /// The paper's name for the algorithm.
    pub fn name(&self) -> &'static str {
        match self {
            TrackerKind::Naive => "NAIVE",
            TrackerKind::Coarse => "COARSE",
            TrackerKind::Precise => "PRECISE",
        }
    }

    /// The three algorithms evaluated in the paper's figures, in the order the
    /// figures list them.
    pub fn all() -> [TrackerKind; 3] {
        [TrackerKind::Coarse, TrackerKind::Precise, TrackerKind::Naive]
    }
}

impl std::fmt::Display for TrackerKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// The change a rollback performs when it undoes `change`: rolling back an
/// insert deletes the tuple, rolling back a delete revives it, rolling back a
/// modification swaps the images.
fn invert_change(change: &TupleChange) -> TupleChange {
    match change {
        TupleChange::Inserted { relation, tuple, values } => {
            TupleChange::Deleted { relation: *relation, tuple: *tuple, old: values.clone() }
        }
        TupleChange::Deleted { relation, tuple, old } => {
            TupleChange::Inserted { relation: *relation, tuple: *tuple, values: old.clone() }
        }
        TupleChange::Modified { relation, tuple, old, new } => TupleChange::Modified {
            relation: *relation,
            tuple: *tuple,
            old: new.clone(),
            new: old.clone(),
        },
    }
}

/// The reads, writes and dependencies of every update still in play (see the
/// module docs).
pub(crate) struct Validation {
    tracker: TrackerKind,
    /// update → its distinct stored queries, each with the relations it reads
    /// (empty: a wildcard).
    reads: HashMap<UpdateId, HashMap<ReadQuery, Vec<RelationId>>>,
    /// relation → updates with a stored query reading it.
    readers: HashMap<RelationId, BTreeSet<UpdateId>>,
    /// Updates with a stored wildcard query.
    wildcard_readers: BTreeSet<UpdateId>,
    /// update → its logged writes, in step order.
    writes: BTreeMap<UpdateId, Vec<AppliedWrite>>,
    /// relation → writer → the (write, change) positions in `writes` of the
    /// writer's changes to the relation.
    writers: HashMap<RelationId, BTreeMap<UpdateId, Vec<(u32, u32)>>>,
    /// reader → the lower-numbered updates it read from (`NAIVE` keeps none).
    deps: BTreeMap<UpdateId, BTreeSet<UpdateId>>,
}

impl Validation {
    /// Empty bookkeeping for `tracker`.
    pub(crate) fn new(tracker: TrackerKind) -> Validation {
        Validation {
            tracker,
            reads: HashMap::new(),
            readers: HashMap::new(),
            wildcard_readers: BTreeSet::new(),
            writes: BTreeMap::new(),
            writers: HashMap::new(),
            deps: BTreeMap::new(),
        }
    }

    /// Logs a chase step's writes, keyed by their update. The step's reads
    /// go through [`Self::record_reads`].
    pub(crate) fn log_writes(&mut self, writes: &[AppliedWrite]) {
        for w in writes {
            let logged = self.writes.entry(w.update).or_default();
            let entry = logged.len() as u32;
            for (c, change) in w.changes.iter().enumerate() {
                let by_writer = self.writers.entry(change.relation()).or_default();
                by_writer.entry(w.update).or_default().push((entry, c as u32));
            }
            logged.push(w.clone());
        }
    }

    /// Records the read queries `reader` performed on its snapshot (a step or
    /// a frontier resolution): the dependencies each creates under the
    /// tracker, and the query itself, retained until `reader` is forgotten.
    /// Recording inside the action that read is what guarantees any later
    /// write sees these reads when it validates.
    pub(crate) fn record_reads(
        &mut self,
        db: &Database,
        mappings: &MappingSet,
        reader: UpdateId,
        reads: &[ReadQuery],
    ) {
        if reads.is_empty() {
            return;
        }
        let view = db.snapshot(reader);
        let mut sources = self.deps.remove(&reader).unwrap_or_default();
        for query in reads {
            let relations = query.relations_read(mappings);
            self.add_sources(&mut sources, &view, mappings, reader, query, &relations);
            let stored = self.reads.entry(reader).or_default();
            if stored.contains_key(query) {
                continue;
            }
            if relations.is_empty() {
                self.wildcard_readers.insert(reader);
            }
            for &relation in &relations {
                self.readers.entry(relation).or_default().insert(reader);
            }
            stored.insert(query.clone(), relations);
        }
        if self.tracker != TrackerKind::Naive {
            self.deps.insert(reader, sources);
        }
    }

    /// Adds to `sources` the lower-numbered updates `reader` read from by
    /// posing `query` over `relations`, as the tracker judges it.
    fn add_sources(
        &self,
        sources: &mut BTreeSet<UpdateId>,
        view: &dyn DataView,
        mappings: &MappingSet,
        reader: UpdateId,
        query: &ReadQuery,
        relations: &[RelationId],
    ) {
        match self.tracker {
            TrackerKind::Naive => {}
            // Conservative: any earlier writer of any relation the mapping
            // mentions may be the source of a dependency.
            TrackerKind::Coarse if query.is_violation_query() => {
                for by_writer in relations.iter().filter_map(|r| self.writers.get(r)) {
                    sources.extend(by_writer.range(..reader).map(|(writer, _)| *writer));
                }
            }
            // Exact: `COARSE` correction queries are checked against the
            // logged changes without touching the database, `PRECISE`
            // violation queries by delta evaluation on the reader's view.
            TrackerKind::Coarse | TrackerKind::Precise => {
                for (writer, change) in self.changes_below(reader, relations) {
                    if !sources.contains(&writer) && query.affected_by(view, mappings, change) {
                        sources.insert(writer);
                    }
                }
            }
        }
    }

    /// The logged changes of updates below `reader` to one of `relations`,
    /// with their writers; every change below `reader` when `relations` is
    /// empty (a wildcard query may read anything).
    fn changes_below(
        &self,
        reader: UpdateId,
        relations: &[RelationId],
    ) -> Vec<(UpdateId, &TupleChange)> {
        if relations.is_empty() {
            return self
                .writes
                .range(..reader)
                .flat_map(|(&writer, logged)| {
                    logged.iter().flat_map(move |w| w.changes.iter().map(move |c| (writer, c)))
                })
                .collect();
        }
        let mut out = Vec::new();
        for by_writer in relations.iter().filter_map(|r| self.writers.get(r)) {
            for (&writer, positions) in by_writer.range(..reader) {
                let logged = &self.writes[&writer];
                out.extend(
                    positions
                        .iter()
                        .map(|&(e, c)| (writer, &logged[e as usize].changes[c as usize])),
                );
            }
        }
        out
    }

    /// The stored queries of `update` a change to `relation` could affect:
    /// those reading the relation, and the wildcards.
    pub(crate) fn reads_touching(
        &self,
        update: UpdateId,
        relation: RelationId,
    ) -> impl Iterator<Item = &ReadQuery> {
        self.reads
            .get(&update)
            .into_iter()
            .flatten()
            .filter(move |(_, relations)| relations.is_empty() || relations.contains(&relation))
            .map(|(query, _)| query)
    }

    /// Algorithm 4's inner check: the updates above `writer`, ascending, with
    /// a stored query whose answer `change` retroactively changes. Only the
    /// readers of the changed relation and the wildcard readers are
    /// consulted, and of each only the queries [`Self::reads_touching`]
    /// names, evaluated on the reader's own snapshot.
    fn conflicting_readers(
        &self,
        db: &Database,
        mappings: &MappingSet,
        writer: UpdateId,
        change: &TupleChange,
    ) -> Vec<UpdateId> {
        let relation = change.relation();
        let above = (Excluded(writer), Unbounded);
        let candidates: BTreeSet<UpdateId> = self
            .wildcard_readers
            .range(above)
            .chain(self.readers.get(&relation).into_iter().flat_map(|r| r.range(above)))
            .copied()
            .collect();
        candidates
            .into_iter()
            .filter(|&reader| {
                let view = db.snapshot(reader);
                self.reads_touching(reader, relation)
                    .any(|q| q.affected_by(&view, mappings, change))
            })
            .collect()
    }

    /// The updates that must cascade-abort when `aborted` aborts: every
    /// update numbered above it (`NAIVE`; `end` is one past the highest
    /// number admitted, and retained numbers are consecutive) or the
    /// recorded readers of its writes.
    fn dependents_of(&self, aborted: UpdateId, end: UpdateId) -> Vec<UpdateId> {
        match self.tracker {
            TrackerKind::Naive => (aborted.0 + 1..end.0).map(UpdateId).collect(),
            TrackerKind::Coarse | TrackerKind::Precise => self
                .deps
                .iter()
                .filter(|(_, sources)| sources.contains(&aborted))
                .map(|(reader, _)| *reader)
                .collect(),
        }
    }

    /// Algorithm 4 after a step of `writer`: the updates to abort — every
    /// reader whose stored query one of the step's changes retroactively
    /// changed, and transitively everyone above `writer` who read from one.
    /// Each request is counted in `metrics`, even for an update already
    /// marked: the paper's updates are "frequently marked for abortion
    /// multiple times" before the consolidated abort. `end` is as for
    /// `NAIVE`'s cascade.
    pub(crate) fn collect_aborts(
        &self,
        db: &Database,
        mappings: &MappingSet,
        writer: UpdateId,
        writes: &[AppliedWrite],
        end: UpdateId,
        metrics: &mut RunMetrics,
    ) -> BTreeSet<UpdateId> {
        let mut pending = BTreeSet::new();
        for change in writes.iter().flat_map(|w| &w.changes) {
            for reader in self.conflicting_readers(db, mappings, writer, change) {
                metrics.direct_conflict_requests += 1;
                pending.insert(reader);
                let mut stack = vec![reader];
                let mut visited = BTreeSet::from([reader]);
                while let Some(a) = stack.pop() {
                    for dependent in self.dependents_of(a, end) {
                        if dependent <= writer {
                            continue;
                        }
                        metrics.cascading_abort_requests += 1;
                        pending.insert(dependent);
                        if visited.insert(dependent) {
                            stack.push(dependent);
                        }
                    }
                }
            }
        }
        pending
    }

    /// A rollback is a write like any other: the updates above `victim` whose
    /// stored reads the inverses of its `writes` (as [`Self::forget`] returned
    /// them) retroactively change, in the order they are found, each counted
    /// once as a direct conflict request. Checked exactly, per read query —
    /// never through the dependencies, whose conservative answers would make
    /// `NAIVE`'s abort waves feed on themselves.
    pub(crate) fn rollback_conflicts(
        &self,
        db: &Database,
        mappings: &MappingSet,
        victim: UpdateId,
        writes: &[AppliedWrite],
        metrics: &mut RunMetrics,
    ) -> Vec<UpdateId> {
        let mut readers: Vec<UpdateId> = Vec::new();
        for change in writes.iter().flat_map(|w| &w.changes).map(invert_change) {
            for reader in self.conflicting_readers(db, mappings, victim, &change) {
                if !readers.contains(&reader) {
                    readers.push(reader);
                }
            }
        }
        metrics.direct_conflict_requests += readers.len();
        readers
    }

    /// Drops everything kept for `update` — its stored reads, its
    /// dependencies both ways and its logged writes, which it returns in step
    /// order — once it aborts, fails or is evicted. This is the only way a
    /// stored read dies before quiescence: a memoised repair plan's queries
    /// must outlive the step that computed the plan.
    pub(crate) fn forget(&mut self, update: UpdateId) -> Vec<AppliedWrite> {
        for relations in self.reads.remove(&update).into_iter().flat_map(|r| r.into_values()) {
            if relations.is_empty() {
                self.wildcard_readers.remove(&update);
            }
            for relation in relations {
                if let Some(readers) = self.readers.get_mut(&relation) {
                    readers.remove(&update);
                }
            }
        }
        self.deps.remove(&update);
        for sources in self.deps.values_mut() {
            sources.remove(&update);
        }
        let writes = self.writes.remove(&update).unwrap_or_default();
        for change in writes.iter().flat_map(|w| &w.changes) {
            if let Some(by_writer) = self.writers.get_mut(&change.relation()) {
                by_writer.remove(&update);
            }
        }
        writes
    }

    /// Updates with logged writes.
    #[cfg(test)]
    pub(crate) fn writers(&self) -> impl Iterator<Item = UpdateId> + '_ {
        self.writes.keys().copied()
    }

    /// The recorded read dependencies of `reader` (who it read from).
    #[cfg(test)]
    pub(crate) fn dependencies_of(&self, reader: UpdateId) -> Vec<UpdateId> {
        self.deps.get(&reader).map(|s| s.iter().copied().collect()).unwrap_or_default()
    }

    /// Number of stored read queries.
    #[cfg(test)]
    fn stored_reads(&self) -> usize {
        self.reads.values().map(HashMap::len).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use youtopia_mappings::{ViolationQuery, ViolationSeed};
    use youtopia_storage::{NullId, TupleId, Value, Write};

    fn applied_to(update: u64, seq: u64, relation: RelationId) -> AppliedWrite {
        AppliedWrite {
            update: UpdateId(update),
            seq,
            write: Write::Insert { relation, values: vec![Value::constant("v")] },
            changes: vec![TupleChange::Inserted {
                relation,
                tuple: TupleId(seq),
                values: vec![Value::constant("v")].into(),
            }],
        }
    }

    fn seqs(changes: Vec<(UpdateId, &TupleChange)>) -> Vec<u64> {
        let mut seqs: Vec<u64> = changes.iter().map(|(_, c)| c.tuple().0).collect();
        seqs.sort_unstable();
        seqs
    }

    fn violation(mappings: &MappingSet, name: &str) -> ReadQuery {
        let mapping = mappings.by_name(name).unwrap().id;
        ReadQuery::Violation(ViolationQuery { mapping, seed: ViolationSeed::Full })
    }

    fn more_specific(relation: RelationId, value: &str) -> ReadQuery {
        ReadQuery::MoreSpecific { relation, pattern: vec![Value::constant(value)].into() }
    }

    #[test]
    fn writes_filter_by_reader_and_forget_per_update() {
        let r0 = RelationId(0);
        let mut v = Validation::new(TrackerKind::Precise);
        v.log_writes(&[applied_to(1, 1, r0), applied_to(3, 2, r0), applied_to(5, 3, r0)]);
        assert_eq!(v.writers().collect::<Vec<_>>(), vec![UpdateId(1), UpdateId(3), UpdateId(5)]);
        assert_eq!(seqs(v.changes_below(UpdateId(4), &[])), vec![1, 2]);
        assert!(v.changes_below(UpdateId(1), &[]).is_empty());
        let forgotten = v.forget(UpdateId(3));
        assert_eq!(forgotten.iter().map(|w| w.seq).collect::<Vec<_>>(), vec![2]);
        assert!(v.forget(UpdateId(3)).is_empty());
        assert_eq!(v.writers().count(), 2);
        assert_eq!(seqs(v.changes_below(UpdateId(9), &[])), vec![1, 3]);
    }

    #[test]
    fn relation_index_filters_changes() {
        let (r0, r1, r2) = (RelationId(0), RelationId(1), RelationId(2));
        let mut v = Validation::new(TrackerKind::Precise);
        v.log_writes(&[applied_to(1, 1, r0), applied_to(2, 2, r1), applied_to(3, 3, r0)]);

        // Keyed lookups agree with filtering the full log.
        let touching_r0 = v.changes_below(UpdateId(9), &[r0]);
        assert!(touching_r0.iter().all(|(_, c)| c.relation() == r0));
        assert_eq!(seqs(touching_r0), vec![1, 3]);
        assert_eq!(seqs(v.changes_below(UpdateId(3), &[r0])), vec![1]);
        assert!(v.changes_below(UpdateId(9), &[r2]).is_empty());
        // Several relations merge; each change comes with its writer.
        let merged = v.changes_below(UpdateId(9), &[r1, r0]);
        assert!(merged.iter().all(|(writer, c)| writer.0 == c.tuple().0));
        assert_eq!(seqs(merged), vec![1, 2, 3]);
        // The empty relation list is the wildcard: every change qualifies.
        assert_eq!(v.changes_below(UpdateId(9), &[]).len(), 3);
        // The index survives forgetting.
        v.forget(UpdateId(1));
        assert_eq!(seqs(v.changes_below(UpdateId(9), &[r0])), vec![3]);
        assert_eq!(seqs(v.changes_below(UpdateId(9), &[r1])), vec![2]);
    }

    #[test]
    fn reads_track_readers() {
        let db = Database::new();
        let mappings = MappingSet::new();
        let mut v = Validation::new(TrackerKind::Precise);
        assert_eq!(v.stored_reads(), 0);
        v.record_reads(
            &db,
            &mappings,
            UpdateId(2),
            &[ReadQuery::NullOccurrences { null: NullId(1) }],
        );
        v.record_reads(
            &db,
            &mappings,
            UpdateId(5),
            &[ReadQuery::NullOccurrences { null: NullId(2) }],
        );
        v.record_reads(
            &db,
            &mappings,
            UpdateId(5),
            &[ReadQuery::NullOccurrences { null: NullId(3) }],
        );
        assert_eq!(v.stored_reads(), 3);
        // Null-occurrence queries are wildcards: every relation routes to them.
        let r = RelationId(0);
        assert_eq!(v.reads_touching(UpdateId(5), r).count(), 2);
        assert_eq!(v.reads_touching(UpdateId(9), r).count(), 0);
        assert_eq!(v.wildcard_readers.range(UpdateId(2)..).count(), 2);
        // A change holding nulls 1 and 2 concerns both readers, but a writer
        // never conflicts with its own reads or lower-numbered readers'.
        let change = TupleChange::Inserted {
            relation: r,
            tuple: TupleId(1),
            values: vec![Value::Null(NullId(1)), Value::Null(NullId(2))].into(),
        };
        let conflicts = |writer| v.conflicting_readers(&db, &mappings, UpdateId(writer), &change);
        assert_eq!(conflicts(1), vec![UpdateId(2), UpdateId(5)]);
        assert_eq!(conflicts(2), vec![UpdateId(5)]);
        assert!(conflicts(5).is_empty());
        v.forget(UpdateId(5));
        assert_eq!(v.wildcard_readers.iter().copied().collect::<Vec<_>>(), vec![UpdateId(2)]);
        assert_eq!(v.stored_reads(), 1);
    }

    #[test]
    fn duplicate_queries_are_stored_once() {
        let db = Database::new();
        let mappings = MappingSet::new();
        let mut v = Validation::new(TrackerKind::Precise);
        let q = more_specific(RelationId(0), "a");
        // The reference full-recheck chase re-poses the same correction query
        // every step; one copy is kept but the read stays live.
        v.record_reads(&db, &mappings, UpdateId(4), std::slice::from_ref(&q));
        v.record_reads(&db, &mappings, UpdateId(4), &[q.clone(), q.clone()]);
        assert_eq!(v.stored_reads(), 1);
        assert_eq!(v.reads_touching(UpdateId(4), RelationId(0)).count(), 1);
        // A different query for the same update still records.
        v.record_reads(
            &db,
            &mappings,
            UpdateId(4),
            &[ReadQuery::NullOccurrences { null: NullId(1) }],
        );
        assert_eq!(v.stored_reads(), 2);
        // After forgetting, the same query records afresh.
        v.forget(UpdateId(4));
        assert_eq!(v.stored_reads(), 0);
        v.record_reads(&db, &mappings, UpdateId(4), &[q]);
        assert_eq!(v.stored_reads(), 1);
    }

    #[test]
    fn relation_index_routes_readers() {
        let mut db = Database::new();
        db.add_relation("R0", ["x"]).unwrap();
        db.add_relation("R1", ["x"]).unwrap();
        let mappings = MappingSet::new();
        let (r0, r1) = (RelationId(0), RelationId(1));
        let mut v = Validation::new(TrackerKind::Precise);
        // Update 3 reads R0, update 4 is a wildcard reader of null 7, update 5
        // reads R1.
        v.record_reads(&db, &mappings, UpdateId(3), &[more_specific(r0, "a")]);
        v.record_reads(
            &db,
            &mappings,
            UpdateId(4),
            &[ReadQuery::NullOccurrences { null: NullId(7) }],
        );
        v.record_reads(&db, &mappings, UpdateId(5), &[more_specific(r1, "b")]);

        // Per-reader query filtering matches the footprints.
        assert_eq!(v.reads_touching(UpdateId(3), r0).count(), 1);
        assert_eq!(v.reads_touching(UpdateId(3), r1).count(), 0);
        assert_eq!(v.reads_touching(UpdateId(4), r1).count(), 1, "wildcards always qualify");

        // A change to R0 consults only the R0 reader and the wildcard reader:
        // an `a` row conflicts with update 3, a row holding null 7 with
        // update 4, and nothing reaches update 5.
        let insert = |relation, value: Value| TupleChange::Inserted {
            relation,
            tuple: TupleId(1),
            values: vec![value].into(),
        };
        let conflicts = |v: &Validation, writer, change: &TupleChange| {
            v.conflicting_readers(&db, &mappings, UpdateId(writer), change)
        };
        assert_eq!(conflicts(&v, 0, &insert(r0, Value::constant("a"))), vec![UpdateId(3)]);
        assert_eq!(conflicts(&v, 0, &insert(r0, Value::Null(NullId(7)))), vec![UpdateId(4)]);
        assert!(conflicts(&v, 0, &insert(r0, Value::constant("b"))).is_empty());
        assert_eq!(conflicts(&v, 0, &insert(r1, Value::constant("b"))), vec![UpdateId(5)]);
        // The writer filter still applies.
        assert!(conflicts(&v, 4, &insert(r0, Value::constant("a"))).is_empty());
        assert_eq!(conflicts(&v, 3, &insert(r0, Value::Null(NullId(7)))), vec![UpdateId(4)]);
        assert!(conflicts(&v, 4, &insert(r0, Value::Null(NullId(7)))).is_empty());
        // Forgetting removes the update from every index.
        v.forget(UpdateId(4));
        assert!(conflicts(&v, 0, &insert(r1, Value::Null(NullId(7)))).is_empty());
        assert!(v.readers.values().all(|readers| !readers.contains(&UpdateId(4))));
    }

    /// Small scenario: update 1 inserts a city (writes C), update 3 poses σ1's
    /// violation query (reads C and S) and a null-occurrence correction query.
    fn scenario() -> (Database, MappingSet, Vec<AppliedWrite>, Vec<ReadQuery>) {
        let mut db = Database::new();
        db.add_relation("C", ["city"]).unwrap();
        db.add_relation("S", ["code", "location", "city_served"]).unwrap();
        let mut mappings = MappingSet::new();
        mappings.add_parsed(db.catalog(), "sigma1: C(c) -> exists a, l. S(a, l, c)").unwrap();

        let c = db.relation_id("C").unwrap();
        let writes = db
            .apply_all(
                &[Write::Insert { relation: c, values: vec![Value::constant("Ithaca")] }],
                UpdateId(1),
            )
            .unwrap();
        let reads =
            vec![violation(&mappings, "sigma1"), ReadQuery::NullOccurrences { null: NullId(99) }];
        (db, mappings, writes, reads)
    }

    #[test]
    fn naive_aborts_everything_above() {
        let v = Validation::new(TrackerKind::Naive);
        let end = UpdateId(5);
        assert_eq!(v.dependents_of(UpdateId(2), end), vec![UpdateId(3), UpdateId(4)]);
        assert!(v.dependents_of(UpdateId(4), end).is_empty());
        assert!(v.dependencies_of(UpdateId(3)).is_empty());
    }

    #[test]
    fn coarse_uses_relation_granularity() {
        let (db, mappings, writes, reads) = scenario();
        let mut v = Validation::new(TrackerKind::Coarse);
        v.log_writes(&writes);

        v.record_reads(&db, &mappings, UpdateId(3), &reads);
        // The violation query reads C (written by update 1) → dependency, even
        // though the correction query is unaffected.
        assert_eq!(v.dependencies_of(UpdateId(3)), vec![UpdateId(1)]);
        assert_eq!(v.dependents_of(UpdateId(1), UpdateId(9)), vec![UpdateId(3)]);

        // COARSE is conservative: a write to C by update 2 that could not
        // possibly affect the query still creates a dependency once update 3
        // re-reads.
        let mut db2 = db.clone();
        let c = db2.relation_id("C").unwrap();
        let w2 = db2
            .apply_all(
                &[Write::Insert { relation: c, values: vec![Value::constant("Unrelated")] }],
                UpdateId(2),
            )
            .unwrap();
        v.log_writes(&w2);
        v.record_reads(&db2, &mappings, UpdateId(3), &reads);
        assert_eq!(v.dependencies_of(UpdateId(3)), vec![UpdateId(1), UpdateId(2)]);

        v.forget(UpdateId(3));
        assert!(v.dependencies_of(UpdateId(3)).is_empty());
        v.record_reads(&db2, &mappings, UpdateId(3), &reads);
        v.forget(UpdateId(1));
        assert!(v.dependents_of(UpdateId(1), UpdateId(9)).is_empty());
        assert_eq!(v.dependencies_of(UpdateId(3)), vec![UpdateId(2)]);
    }

    #[test]
    fn precise_only_records_real_dependencies() {
        let (db, mappings, writes, reads) = scenario();
        let mut v = Validation::new(TrackerKind::Precise);
        v.log_writes(&writes);

        v.record_reads(&db, &mappings, UpdateId(3), &reads);
        // Update 1's city insert genuinely changes σ1's violation-query answer.
        assert_eq!(v.dependencies_of(UpdateId(3)), vec![UpdateId(1)]);

        // A second city insert by update 2 also changes the full-scan answer,
        // but an *unrelated* S row does not.
        let mut db2 = db.clone();
        let s = db2.relation_id("S").unwrap();
        let w2 = db2
            .apply_all(
                &[Write::Insert {
                    relation: s,
                    values: vec![
                        Value::constant("ZZZ"),
                        Value::constant("Nowhere"),
                        Value::constant("Nowhere"),
                    ],
                }],
                UpdateId(2),
            )
            .unwrap();
        let mut v2 = Validation::new(TrackerKind::Precise);
        v2.log_writes(&writes);
        v2.log_writes(&w2);
        v2.record_reads(&db2, &mappings, UpdateId(3), &reads);
        // The S row serves no city that is in C, so it does not change the
        // violation query's answer: only update 1 is a dependency.
        assert_eq!(v2.dependencies_of(UpdateId(3)), vec![UpdateId(1)]);
        v2.forget(UpdateId(1));
        assert_eq!(v2.dependencies_of(UpdateId(3)), vec![]);
    }

    #[test]
    fn tracker_kind_names() {
        assert_eq!(TrackerKind::Naive.name(), "NAIVE");
        assert_eq!(TrackerKind::Coarse.name(), "COARSE");
        assert_eq!(TrackerKind::all().len(), 3);
        assert_eq!(TrackerKind::Precise.to_string(), "PRECISE");
    }

    /// The Figure 2 relations σ3 reads, with one attraction, tour and review.
    fn example_3_1() -> (Database, MappingSet, TupleId) {
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
        (db, mappings, review)
    }

    #[test]
    fn premature_reader_is_detected() {
        // Update 2 read σ3's violation query (and saw no violation); update 1
        // then deletes the review, retroactively changing that answer — the
        // Example 3.1 situation.
        let (mut db, mappings, review) = example_3_1();
        let mut v = Validation::new(TrackerKind::Precise);
        v.record_reads(&db, &mappings, UpdateId(2), &[violation(&mappings, "sigma3")]);

        // Update 1 (lower number) deletes the review.
        let r = db.relation_id("R").unwrap();
        let applied =
            db.apply_all(&[Write::Delete { relation: r, tuple: review }], UpdateId(1)).unwrap();
        let mut metrics = RunMetrics::default();
        let aborts =
            v.collect_aborts(&db, &mappings, UpdateId(1), &applied, UpdateId(3), &mut metrics);
        assert_eq!(aborts.into_iter().collect::<Vec<_>>(), vec![UpdateId(2)]);
        assert_eq!(metrics.direct_conflict_requests, 1);
        assert_eq!(metrics.cascading_abort_requests, 0);

        // A reader below the writer is never considered.
        let mut low = Validation::new(TrackerKind::Precise);
        low.record_reads(&db, &mappings, UpdateId(0), &[violation(&mappings, "sigma3")]);
        assert!(low
            .collect_aborts(&db, &mappings, UpdateId(1), &applied, UpdateId(3), &mut metrics)
            .is_empty());
    }

    #[test]
    fn rollbacks_are_validated_like_writes() {
        // Update 1 deleted the review and update 2 then saw σ3 violated; rolling
        // update 1 back revives the review, which changes update 2's answer.
        let (mut db, mappings, review) = example_3_1();
        let r = db.relation_id("R").unwrap();
        let applied =
            db.apply_all(&[Write::Delete { relation: r, tuple: review }], UpdateId(1)).unwrap();
        let mut v = Validation::new(TrackerKind::Naive);
        v.log_writes(&applied);
        v.record_reads(&db, &mappings, UpdateId(2), &[violation(&mappings, "sigma3")]);
        v.record_reads(&db, &mappings, UpdateId(3), &[more_specific(r, "Elsewhere")]);

        let undone = v.forget(UpdateId(1));
        db.rollback_update(UpdateId(1));
        let mut metrics = RunMetrics::default();
        let readers = v.rollback_conflicts(&db, &mappings, UpdateId(1), &undone, &mut metrics);
        assert_eq!(readers, vec![UpdateId(2)], "only exact conflicts, never NAIVE's cascade");
        assert_eq!(metrics.direct_conflict_requests, 1);
        assert!(v.rollback_conflicts(&db, &mappings, UpdateId(1), &[], &mut metrics).is_empty());
    }

    #[test]
    fn unrelated_writes_do_not_conflict() {
        let mut db = Database::new();
        db.add_relation("C", ["city"]).unwrap();
        db.add_relation("S", ["code", "location", "city_served"]).unwrap();
        db.add_relation("Other", ["x"]).unwrap();
        let mut mappings = MappingSet::new();
        mappings.add_parsed(db.catalog(), "sigma1: C(c) -> exists a, l. S(a, l, c)").unwrap();

        let mut v = Validation::new(TrackerKind::Precise);
        v.record_reads(&db, &mappings, UpdateId(5), &[violation(&mappings, "sigma1")]);

        let other = db.relation_id("Other").unwrap();
        let applied = db
            .apply_all(
                &[Write::Insert { relation: other, values: vec![Value::constant("v")] }],
                UpdateId(1),
            )
            .unwrap();
        let mut metrics = RunMetrics::default();
        assert!(v
            .collect_aborts(&db, &mappings, UpdateId(1), &applied, UpdateId(6), &mut metrics)
            .is_empty());
        assert_eq!(metrics, RunMetrics::default());
    }
}
