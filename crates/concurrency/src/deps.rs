//! Read-dependency tracking: the `NAÏVE`, `COARSE` and `PRECISE` algorithms of
//! Section 5.1.
//!
//! When an update aborts, every update that has read data affected by its
//! writes must abort as well (a *cascading* abort). The three trackers differ
//! in how accurately they know who read from whom:
//!
//! * [`NaiveTracker`] — assume everyone later read from everyone earlier:
//!   abort every update with a higher number.
//! * [`CoarseTracker`] — a violation query over relations `{R₁ … Rₖ}` creates
//!   a dependency on every update that previously wrote *any* tuple of one of
//!   the `Rᵢ`; correction queries are checked exactly against the in-memory
//!   write log, without touching the database.
//! * [`PreciseTracker`] — every logged write of a lower-numbered update is
//!   checked exactly (delta evaluation for violation queries); only writes
//!   that actually change a read query's answer create dependencies.

use std::collections::{BTreeMap, BTreeSet, HashMap};

use youtopia_core::ReadQuery;
use youtopia_mappings::MappingSet;
use youtopia_storage::{AppliedWrite, DataView, RelationId, UpdateId};

use crate::log::WriteLog;

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

    /// Builds the tracker.
    pub fn build(&self) -> Box<dyn DependencyTracker> {
        match self {
            TrackerKind::Naive => Box::new(NaiveTracker),
            TrackerKind::Coarse => Box::new(CoarseTracker::default()),
            TrackerKind::Precise => Box::new(PreciseTracker::default()),
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

/// Tracks which updates read from which (lower-numbered) updates.
///
/// `Send` so the engine can keep the boxed tracker in its sequencer state,
/// which driving and entering caller threads take turns holding.
pub trait DependencyTracker: Send {
    /// The algorithm's name (`NAIVE`, `COARSE`, `PRECISE`).
    fn name(&self) -> &'static str;

    /// Records the writes of a chase step (needed by `COARSE`'s relation-level
    /// bookkeeping; `NAIVE` and `PRECISE` rely on the shared write log).
    fn record_writes(&mut self, writer: UpdateId, writes: &[AppliedWrite]);

    /// Records the read dependencies created by `reader` performing `reads` on
    /// its snapshot `view`. `write_log` is the scheduler's log of prior
    /// changes.
    fn record_reads(
        &mut self,
        reader: UpdateId,
        reads: &[ReadQuery],
        write_log: &WriteLog,
        view: &dyn DataView,
        mappings: &MappingSet,
    );

    /// The updates that must cascade-abort when `aborted` aborts — i.e. the
    /// updates that have read from it. `all_updates` is the set of update
    /// numbers in the run (used by `NAIVE`).
    fn dependents_of(&self, aborted: UpdateId, all_updates: &[UpdateId]) -> Vec<UpdateId>;

    /// The recorded read dependencies of an update (who it read from), for
    /// diagnostics and tests.
    fn dependencies_of(&self, reader: UpdateId) -> Vec<UpdateId>;

    /// Clears all bookkeeping for an update (called when it aborts: after the
    /// restart it re-accumulates dependencies from scratch).
    fn clear_update(&mut self, update: UpdateId);
}

/// The strawman: when update `i` aborts, abort every update numbered above it.
#[derive(Clone, Debug, Default)]
pub struct NaiveTracker;

impl DependencyTracker for NaiveTracker {
    fn name(&self) -> &'static str {
        "NAIVE"
    }

    fn record_writes(&mut self, _writer: UpdateId, _writes: &[AppliedWrite]) {}

    fn record_reads(
        &mut self,
        _reader: UpdateId,
        _reads: &[ReadQuery],
        _write_log: &WriteLog,
        _view: &dyn DataView,
        _mappings: &MappingSet,
    ) {
    }

    fn dependents_of(&self, aborted: UpdateId, all_updates: &[UpdateId]) -> Vec<UpdateId> {
        let mut out: Vec<UpdateId> = all_updates.iter().copied().filter(|u| *u > aborted).collect();
        out.sort();
        out
    }

    fn dependencies_of(&self, _reader: UpdateId) -> Vec<UpdateId> {
        Vec::new()
    }

    fn clear_update(&mut self, _update: UpdateId) {}
}

/// Relation-granular dependencies for violation queries, exact dependencies
/// for correction queries.
#[derive(Clone, Debug, Default)]
pub struct CoarseTracker {
    /// Which updates have written to each relation.
    writers_by_relation: HashMap<RelationId, BTreeSet<UpdateId>>,
    /// reader → the lower-numbered updates it depends on.
    deps: BTreeMap<UpdateId, BTreeSet<UpdateId>>,
}

impl DependencyTracker for CoarseTracker {
    fn name(&self) -> &'static str {
        "COARSE"
    }

    fn record_writes(&mut self, writer: UpdateId, writes: &[AppliedWrite]) {
        for w in writes {
            for change in &w.changes {
                self.writers_by_relation.entry(change.relation()).or_default().insert(writer);
            }
        }
    }

    fn record_reads(
        &mut self,
        reader: UpdateId,
        reads: &[ReadQuery],
        write_log: &WriteLog,
        view: &dyn DataView,
        mappings: &MappingSet,
    ) {
        let entry = self.deps.entry(reader).or_default();
        for read in reads {
            if read.is_violation_query() {
                // Conservative: any earlier writer of any relation the mapping
                // mentions may be the source of a dependency.
                for relation in read.relations_read(mappings) {
                    if let Some(writers) = self.writers_by_relation.get(&relation) {
                        entry.extend(writers.iter().copied().filter(|w| *w < reader));
                    }
                }
            } else {
                // Correction queries: exact, computed from the in-memory write
                // log without touching the database. The relation-keyed log
                // hands back only the changes the query could read.
                for (w, change) in
                    write_log.changes_before_touching(reader, &read.relations_read(mappings))
                {
                    if read.affected_by(view, mappings, change) {
                        entry.insert(w.update);
                    }
                }
            }
        }
    }

    fn dependents_of(&self, aborted: UpdateId, _all_updates: &[UpdateId]) -> Vec<UpdateId> {
        self.deps
            .iter()
            .filter(|(_, sources)| sources.contains(&aborted))
            .map(|(reader, _)| *reader)
            .collect()
    }

    fn dependencies_of(&self, reader: UpdateId) -> Vec<UpdateId> {
        self.deps.get(&reader).map(|s| s.iter().copied().collect()).unwrap_or_default()
    }

    fn clear_update(&mut self, update: UpdateId) {
        self.deps.remove(&update);
        for writers in self.writers_by_relation.values_mut() {
            writers.remove(&update);
        }
        for sources in self.deps.values_mut() {
            sources.remove(&update);
        }
    }
}

/// Exact dependencies: for each read query, determine precisely which logged
/// writes changed its answer.
#[derive(Clone, Debug, Default)]
pub struct PreciseTracker {
    deps: BTreeMap<UpdateId, BTreeSet<UpdateId>>,
}

impl DependencyTracker for PreciseTracker {
    fn name(&self) -> &'static str {
        "PRECISE"
    }

    fn record_writes(&mut self, _writer: UpdateId, _writes: &[AppliedWrite]) {}

    fn record_reads(
        &mut self,
        reader: UpdateId,
        reads: &[ReadQuery],
        write_log: &WriteLog,
        view: &dyn DataView,
        mappings: &MappingSet,
    ) {
        let entry = self.deps.entry(reader).or_default();
        for read in reads {
            // A query's dependencies can only come from writes to relations it
            // reads; the relation-keyed write log skips everything else. An
            // empty footprint (null-occurrence queries) falls back to the full
            // log.
            for (w, change) in
                write_log.changes_before_touching(reader, &read.relations_read(mappings))
            {
                if !entry.contains(&w.update) && read.affected_by(view, mappings, change) {
                    entry.insert(w.update);
                }
            }
        }
    }

    fn dependents_of(&self, aborted: UpdateId, _all_updates: &[UpdateId]) -> Vec<UpdateId> {
        self.deps
            .iter()
            .filter(|(_, sources)| sources.contains(&aborted))
            .map(|(reader, _)| *reader)
            .collect()
    }

    fn dependencies_of(&self, reader: UpdateId) -> Vec<UpdateId> {
        self.deps.get(&reader).map(|s| s.iter().copied().collect()).unwrap_or_default()
    }

    fn clear_update(&mut self, update: UpdateId) {
        self.deps.remove(&update);
        for sources in self.deps.values_mut() {
            sources.remove(&update);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use youtopia_mappings::{ViolationQuery, ViolationSeed};
    use youtopia_storage::{Database, Value, Write};

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
        let sigma1 = mappings.by_name("sigma1").unwrap().id;
        let reads = vec![
            ReadQuery::Violation(ViolationQuery { mapping: sigma1, seed: ViolationSeed::Full }),
            ReadQuery::NullOccurrences { null: youtopia_storage::NullId(99) },
        ];
        (db, mappings, writes, reads)
    }

    #[test]
    fn naive_aborts_everything_above() {
        let tracker = NaiveTracker;
        let all = vec![UpdateId(1), UpdateId(2), UpdateId(3), UpdateId(4)];
        assert_eq!(tracker.dependents_of(UpdateId(2), &all), vec![UpdateId(3), UpdateId(4)]);
        assert!(tracker.dependents_of(UpdateId(4), &all).is_empty());
        assert_eq!(tracker.name(), "NAIVE");
        assert!(tracker.dependencies_of(UpdateId(3)).is_empty());
    }

    #[test]
    fn coarse_uses_relation_granularity() {
        let (db, mappings, writes, reads) = scenario();
        let mut tracker = CoarseTracker::default();
        let mut log = WriteLog::new();
        log.push_all(&writes);
        tracker.record_writes(UpdateId(1), &writes);

        let snap = db.snapshot(UpdateId(3));
        tracker.record_reads(UpdateId(3), &reads, &log, &snap, &mappings);
        // The violation query reads C (written by update 1) → dependency, even
        // though the correction query is unaffected.
        assert_eq!(tracker.dependencies_of(UpdateId(3)), vec![UpdateId(1)]);
        assert_eq!(tracker.dependents_of(UpdateId(1), &[]), vec![UpdateId(3)]);

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
        tracker.record_writes(UpdateId(2), &w2);
        log.push_all(&w2);
        let snap2 = db2.snapshot(UpdateId(3));
        tracker.record_reads(UpdateId(3), &reads, &log, &snap2, &mappings);
        assert_eq!(tracker.dependencies_of(UpdateId(3)), vec![UpdateId(1), UpdateId(2)]);

        tracker.clear_update(UpdateId(3));
        assert!(tracker.dependencies_of(UpdateId(3)).is_empty());
        tracker.clear_update(UpdateId(1));
        assert!(tracker.dependents_of(UpdateId(1), &[]).is_empty());
    }

    #[test]
    fn precise_only_records_real_dependencies() {
        let (db, mappings, writes, reads) = scenario();
        let mut tracker = PreciseTracker::default();
        let mut log = WriteLog::new();
        log.push_all(&writes);

        let snap = db.snapshot(UpdateId(3));
        tracker.record_reads(UpdateId(3), &reads, &log, &snap, &mappings);
        // Update 1's city insert genuinely changes σ1's violation-query answer.
        assert_eq!(tracker.dependencies_of(UpdateId(3)), vec![UpdateId(1)]);

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
        log.push_all(&w2);
        let mut tracker2 = PreciseTracker::default();
        let snap2 = db2.snapshot(UpdateId(3));
        tracker2.record_reads(UpdateId(3), &reads, &log, &snap2, &mappings);
        // The S row serves no city that is in C, so it does not change the
        // violation query's answer: only update 1 is a dependency.
        assert_eq!(tracker2.dependencies_of(UpdateId(3)), vec![UpdateId(1)]);
        assert_eq!(tracker2.name(), "PRECISE");
        tracker2.clear_update(UpdateId(1));
        assert_eq!(tracker2.dependencies_of(UpdateId(3)), vec![]);
    }

    #[test]
    fn tracker_kind_builders() {
        assert_eq!(TrackerKind::Naive.build().name(), "NAIVE");
        assert_eq!(TrackerKind::Coarse.build().name(), "COARSE");
        assert_eq!(TrackerKind::Precise.build().name(), "PRECISE");
        assert_eq!(TrackerKind::all().len(), 3);
        assert_eq!(TrackerKind::Precise.to_string(), "PRECISE");
    }
}
