//! Write and read logs kept by the optimistic scheduler (Algorithm 4) — by
//! [`ConcurrentRun`](crate::ConcurrentRun) directly and by the
//! [`ExchangeEngine`](crate::ExchangeEngine) in its sequencer state.
//!
//! Both logs are keyed by relation: the write log keeps a relation →
//! (entry, change) index so dependency trackers only examine writes that
//! touch the relations a read query reads, and the read log keeps a relation
//! → readers index so conflict detection only consults readers whose stored
//! queries touch a changed relation — instead of every higher-numbered reader
//! × every change. Queries whose relation set is unknown up front
//! ([`ReadQuery::NullOccurrences`] — a null may occur anywhere) are filed as
//! *wildcards* and consulted for every change.

use std::collections::{BTreeSet, HashMap, HashSet};

use youtopia_core::ReadQuery;
use youtopia_mappings::MappingSet;
use youtopia_storage::{AppliedWrite, RelationId, TupleChange, UpdateId};

/// The log of all writes performed so far, used to compute read dependencies
/// (`COARSE` scans it at relation granularity, `PRECISE` re-checks each entry
/// exactly) and to answer "which updates wrote to relation R".
#[derive(Clone, Debug, Default)]
pub struct WriteLog {
    entries: Vec<AppliedWrite>,
    /// relation → (entry index, change index) pairs of changes touching it,
    /// in log order.
    by_relation: HashMap<RelationId, Vec<(u32, u32)>>,
}

impl WriteLog {
    /// Creates an empty log.
    pub fn new() -> WriteLog {
        WriteLog::default()
    }

    /// Appends the writes of a chase step.
    pub fn push_all(&mut self, writes: &[AppliedWrite]) {
        for w in writes {
            let entry = self.entries.len() as u32;
            for (c, change) in w.changes.iter().enumerate() {
                self.by_relation.entry(change.relation()).or_default().push((entry, c as u32));
            }
            self.entries.push(w.clone());
        }
    }

    /// All logged writes.
    pub fn entries(&self) -> &[AppliedWrite] {
        &self.entries
    }

    /// Writes performed by updates with a number strictly below `reader`
    /// (the only writes that can create read dependencies for `reader`).
    pub fn entries_before(&self, reader: UpdateId) -> impl Iterator<Item = &AppliedWrite> {
        self.entries.iter().filter(move |w| w.update < reader)
    }

    /// Tuple-level changes performed by updates below `reader`.
    pub fn changes_before(
        &self,
        reader: UpdateId,
    ) -> impl Iterator<Item = (&AppliedWrite, &TupleChange)> {
        self.entries_before(reader).flat_map(|w| w.changes.iter().map(move |c| (w, c)))
    }

    /// Tuple-level changes performed by updates below `reader` that touch one
    /// of `relations`, in log order. An empty relation list means "could read
    /// anything" (the wildcard correction queries) and returns every change.
    /// This is the per-relation fast path the dependency trackers use: a read
    /// query's dependencies can only come from writes to relations it reads.
    pub fn changes_before_touching(
        &self,
        reader: UpdateId,
        relations: &[RelationId],
    ) -> Vec<(&AppliedWrite, &TupleChange)> {
        if relations.is_empty() {
            return self.changes_before(reader).collect();
        }
        // A change touches exactly one relation and `relations` has no
        // duplicates, so the merged index pairs are distinct; sorting restores
        // log order across relations. The reader filter is applied while
        // collecting so the sort only sees the (usually small) relevant
        // prefix, not the whole per-relation history.
        let mut refs: Vec<(u32, u32)> = Vec::new();
        for relation in relations {
            if let Some(pairs) = self.by_relation.get(relation) {
                refs.extend(
                    pairs
                        .iter()
                        .copied()
                        .filter(|&(e, _)| self.entries[e as usize].update < reader),
                );
            }
        }
        refs.sort_unstable();
        refs.into_iter()
            .map(|(e, c)| {
                let entry = &self.entries[e as usize];
                (entry, &entry.changes[c as usize])
            })
            .collect()
    }

    /// The logged tuple changes of one update, in log order. The engine
    /// captures these just before a validated abort: their inverses are what
    /// the rollback does to the database, checked against the read log like
    /// any other write.
    pub fn changes_of(&self, update: UpdateId) -> impl Iterator<Item = &TupleChange> {
        self.entries.iter().filter(move |w| w.update == update).flat_map(|w| w.changes.iter())
    }

    /// Drops every write logged for `update` (called when the update aborts —
    /// its writes have been rolled back and no longer create dependencies).
    pub fn remove_update(&mut self, update: UpdateId) {
        self.entries.retain(|w| w.update != update);
        // Entry indices shifted: rebuild the relation index.
        self.by_relation.clear();
        for (entry, w) in self.entries.iter().enumerate() {
            for (c, change) in w.changes.iter().enumerate() {
                self.by_relation
                    .entry(change.relation())
                    .or_default()
                    .push((entry as u32, c as u32));
            }
        }
    }

    /// Number of logged writes.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the log is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

/// One stored read query together with its precomputed relation footprint.
#[derive(Clone, Debug)]
struct StoredRead {
    query: ReadQuery,
    /// Relations the query reads; empty means "unknown / any relation"
    /// (wildcard).
    relations: Vec<RelationId>,
}

/// The stored read queries of every update (Algorithm 4: "store Q for future
/// checks"), indexed by the relations each query reads.
///
/// Stored reads are *retained*: once recorded they stay live — and keep
/// participating in conflict checks — until the update aborts
/// ([`ReadLog::clear`]) or the run ends. This is what lets the chase memoise
/// a violation's repair plan across steps: the plan's correction queries were
/// logged when the plan was computed, and a later write that retroactively
/// changes one of their answers still aborts the owner even though the plan
/// is never re-executed. Exact duplicates are stored once (the reference
/// full-recheck chase re-poses identical correction queries every step;
/// collapsing them keeps the log small without changing any conflict
/// decision, which is per-query set membership).
#[derive(Clone, Debug, Default)]
pub struct ReadLog {
    by_update: HashMap<UpdateId, Vec<StoredRead>>,
    /// update → the distinct queries already stored for it (duplicate filter).
    seen_by_update: HashMap<UpdateId, HashSet<ReadQuery>>,
    /// relation → updates with at least one stored query reading it.
    readers_by_relation: HashMap<RelationId, BTreeSet<UpdateId>>,
    /// Updates with at least one wildcard query (consulted for every change).
    wildcard_readers: BTreeSet<UpdateId>,
}

impl ReadLog {
    /// Creates an empty log.
    pub fn new() -> ReadLog {
        ReadLog::default()
    }

    /// Logs the read queries an update performed in one step, skipping exact
    /// duplicates of queries already stored for the update. The mapping set
    /// is needed to resolve each query's relation footprint once, at record
    /// time, so later conflict checks are index lookups.
    pub fn record(
        &mut self,
        update: UpdateId,
        reads: impl IntoIterator<Item = ReadQuery>,
        mappings: &MappingSet,
    ) {
        let entry = self.by_update.entry(update).or_default();
        let seen = self.seen_by_update.entry(update).or_default();
        for query in reads {
            if !seen.insert(query.clone()) {
                continue;
            }
            let relations = query.relations_read(mappings);
            if relations.is_empty() {
                self.wildcard_readers.insert(update);
            } else {
                for &relation in &relations {
                    self.readers_by_relation.entry(relation).or_default().insert(update);
                }
            }
            entry.push(StoredRead { query, relations });
        }
    }

    /// The stored read queries of `update` that could be affected by a write
    /// to `relation`: queries whose footprint contains the relation, plus the
    /// wildcard queries.
    pub fn reads_touching(
        &self,
        update: UpdateId,
        relation: RelationId,
    ) -> impl Iterator<Item = &ReadQuery> {
        self.by_update
            .get(&update)
            .into_iter()
            .flatten()
            .filter(move |r| r.relations.is_empty() || r.relations.contains(&relation))
            .map(|r| &r.query)
    }

    /// Updates above `writer` with at least one stored query that a write to
    /// `relation` could affect (queries reading the relation, plus wildcard
    /// readers), in ascending order. This is the keyed fast path of the
    /// Algorithm 4 conflict check: readers whose queries cannot touch the
    /// changed relation are never consulted.
    pub fn readers_above_touching(&self, writer: UpdateId, relation: RelationId) -> Vec<UpdateId> {
        let mut ids: Vec<UpdateId> =
            self.wildcard_readers.iter().copied().filter(|u| *u > writer).collect();
        if let Some(readers) = self.readers_by_relation.get(&relation) {
            for &u in readers {
                if u > writer && !ids.contains(&u) {
                    ids.push(u);
                }
            }
        }
        ids.sort();
        ids
    }

    /// Clears the stored reads of an update (called when it aborts and
    /// restarts from scratch). This is the only way retained reads die: a
    /// memoised repair plan's queries must outlive the plan's computation
    /// step, so per-step expiry would lose conflicts.
    pub fn clear(&mut self, update: UpdateId) {
        self.by_update.remove(&update);
        self.seen_by_update.remove(&update);
        self.wildcard_readers.remove(&update);
        for readers in self.readers_by_relation.values_mut() {
            readers.remove(&update);
        }
    }

    /// Total number of stored read queries.
    pub fn len(&self) -> usize {
        self.by_update.values().map(Vec::len).sum()
    }

    /// Whether no reads are stored at all.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use youtopia_storage::{NullId, RelationId, Value, Write};

    fn applied(update: u64, seq: u64) -> AppliedWrite {
        applied_to(update, seq, RelationId(0))
    }

    fn applied_to(update: u64, seq: u64, relation: RelationId) -> AppliedWrite {
        AppliedWrite {
            update: UpdateId(update),
            seq,
            write: Write::Insert { relation, values: vec![Value::constant("v")] },
            changes: vec![TupleChange::Inserted {
                relation,
                tuple: youtopia_storage::TupleId(seq),
                values: vec![Value::constant("v")].into(),
            }],
        }
    }

    #[test]
    fn write_log_filters_by_reader() {
        let mut log = WriteLog::new();
        log.push_all(&[applied(1, 1), applied(3, 2), applied(5, 3)]);
        assert_eq!(log.len(), 3);
        assert!(!log.is_empty());
        assert_eq!(log.entries_before(UpdateId(4)).count(), 2);
        assert_eq!(log.changes_before(UpdateId(4)).count(), 2);
        assert_eq!(log.entries_before(UpdateId(1)).count(), 0);
        assert_eq!(log.changes_of(UpdateId(3)).count(), 1);
        log.remove_update(UpdateId(3));
        assert_eq!(log.changes_of(UpdateId(3)).count(), 0);
        assert_eq!(log.len(), 2);
        assert_eq!(log.entries().len(), 2);
    }

    #[test]
    fn write_log_relation_index_filters_changes() {
        let r0 = RelationId(0);
        let r1 = RelationId(1);
        let r2 = RelationId(2);
        let mut log = WriteLog::new();
        log.push_all(&[applied_to(1, 1, r0), applied_to(2, 2, r1), applied_to(3, 3, r0)]);

        // Keyed lookups agree with filtering the full log.
        let touching_r0 = log.changes_before_touching(UpdateId(9), &[r0]);
        assert_eq!(touching_r0.len(), 2);
        assert!(touching_r0.iter().all(|(_, c)| c.relation() == r0));
        // Log order is preserved across the index.
        assert_eq!(touching_r0[0].0.seq, 1);
        assert_eq!(touching_r0[1].0.seq, 3);
        assert_eq!(log.changes_before_touching(UpdateId(3), &[r0]).len(), 1);
        assert!(log.changes_before_touching(UpdateId(9), &[r2]).is_empty());
        // Several relations merge in log order.
        let merged = log.changes_before_touching(UpdateId(9), &[r1, r0]);
        assert_eq!(merged.iter().map(|(w, _)| w.seq).collect::<Vec<_>>(), vec![1, 2, 3]);
        // The empty relation list is the wildcard: every change qualifies.
        assert_eq!(log.changes_before_touching(UpdateId(9), &[]).len(), 3);
        // The index survives removals.
        log.remove_update(UpdateId(1));
        assert_eq!(log.changes_before_touching(UpdateId(9), &[r0]).len(), 1);
        assert_eq!(log.changes_before_touching(UpdateId(9), &[r1]).len(), 1);
    }

    #[test]
    fn read_log_tracks_readers() {
        let mappings = MappingSet::new();
        let mut log = ReadLog::new();
        assert!(log.is_empty());
        log.record(UpdateId(2), vec![ReadQuery::NullOccurrences { null: NullId(1) }], &mappings);
        log.record(UpdateId(5), vec![ReadQuery::NullOccurrences { null: NullId(2) }], &mappings);
        log.record(UpdateId(5), vec![ReadQuery::NullOccurrences { null: NullId(3) }], &mappings);
        assert_eq!(log.len(), 3);
        // Null-occurrence queries are wildcards: every relation routes to them.
        let r = RelationId(0);
        assert_eq!(log.reads_touching(UpdateId(5), r).count(), 2);
        assert_eq!(log.reads_touching(UpdateId(9), r).count(), 0);
        assert_eq!(log.readers_above_touching(UpdateId(1), r), vec![UpdateId(2), UpdateId(5)]);
        assert_eq!(log.readers_above_touching(UpdateId(2), r), vec![UpdateId(5)]);
        log.clear(UpdateId(5));
        assert_eq!(log.readers_above_touching(UpdateId(1), r), vec![UpdateId(2)]);
    }

    #[test]
    fn read_log_stores_duplicate_queries_once() {
        let mappings = MappingSet::new();
        let mut log = ReadLog::new();
        let q = ReadQuery::MoreSpecific {
            relation: RelationId(0),
            pattern: vec![Value::constant("a")].into(),
        };
        // The reference full-recheck chase re-poses the same correction query
        // every step; the log keeps one copy but the read stays live.
        log.record(UpdateId(4), vec![q.clone()], &mappings);
        log.record(UpdateId(4), vec![q.clone(), q.clone()], &mappings);
        assert_eq!(log.len(), 1);
        assert_eq!(log.reads_touching(UpdateId(4), RelationId(0)).count(), 1);
        assert_eq!(log.readers_above_touching(UpdateId(0), RelationId(0)), vec![UpdateId(4)]);
        // A different query for the same update still records.
        log.record(UpdateId(4), vec![ReadQuery::NullOccurrences { null: NullId(1) }], &mappings);
        assert_eq!(log.len(), 2);
        // After a clear the same query records afresh.
        log.clear(UpdateId(4));
        assert!(log.is_empty());
        log.record(UpdateId(4), vec![q], &mappings);
        assert_eq!(log.len(), 1);
    }

    #[test]
    fn read_log_relation_index_routes_readers() {
        let mappings = MappingSet::new();
        let r0 = RelationId(0);
        let r1 = RelationId(1);
        let mut log = ReadLog::new();
        // Update 3 reads relation 0 (exact footprint), update 4 is a wildcard
        // reader, update 5 reads relation 1.
        log.record(
            UpdateId(3),
            vec![ReadQuery::MoreSpecific {
                relation: r0,
                pattern: vec![Value::constant("a")].into(),
            }],
            &mappings,
        );
        log.record(UpdateId(4), vec![ReadQuery::NullOccurrences { null: NullId(7) }], &mappings);
        log.record(
            UpdateId(5),
            vec![ReadQuery::MoreSpecific {
                relation: r1,
                pattern: vec![Value::constant("b")].into(),
            }],
            &mappings,
        );

        // A write to r0 consults the r0 reader and the wildcard reader only.
        assert_eq!(log.readers_above_touching(UpdateId(0), r0), vec![UpdateId(3), UpdateId(4)]);
        assert_eq!(log.readers_above_touching(UpdateId(0), r1), vec![UpdateId(4), UpdateId(5)]);
        // The writer filter still applies.
        assert_eq!(log.readers_above_touching(UpdateId(4), r0), vec![]);
        // Per-reader query filtering matches the footprints.
        assert_eq!(log.reads_touching(UpdateId(3), r0).count(), 1);
        assert_eq!(log.reads_touching(UpdateId(3), r1).count(), 0);
        assert_eq!(log.reads_touching(UpdateId(4), r1).count(), 1, "wildcards always qualify");
        // Clearing removes the update from every index.
        log.clear(UpdateId(4));
        assert_eq!(log.readers_above_touching(UpdateId(0), r1), vec![UpdateId(5)]);
    }
}
