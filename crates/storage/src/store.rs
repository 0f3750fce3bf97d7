//! The multiversion tuple store, split out of [`crate::Database`].
//!
//! [`VersionStore`] owns everything that holds tuple *data*: the per-relation
//! [`RelationStore`]s (version chains, column indexes and the per-reader row
//! memo that full scans fill), the tuple → relation map and the labeled-null
//! occurrence index. [`crate::Database`] keeps the catalog and the id
//! allocators and delegates all data access here. The split gives the read
//! path a single owner: every mutation funnels through `VersionStore`, which
//! is what lets each write invalidate its relation's row memo and bump its
//! write epoch ([`VersionStore::relation_epoch`]) exactly once. That epoch is
//! the only change signal the chase needs to re-validate queued violations.

use std::collections::BTreeSet;

use crate::fxhash::FxHashMap;
use crate::relation::RelationStore;
use crate::schema::RelationId;
use crate::tuple::{self, TupleData, TupleId};
use crate::value::NullId;
use crate::version::{TupleVersion, UpdateId, VersionChain};

/// Versioned tuple storage for all relations of one database.
#[derive(Clone, Debug, Default)]
pub struct VersionStore {
    relations: Vec<RelationStore>,
    /// Which relation each tuple id belongs to.
    tuple_locations: FxHashMap<TupleId, RelationId>,
    /// Tuples whose some version contains a given labeled null
    /// (stale-tolerant: lookups re-check visible data).
    null_occurrences: FxHashMap<NullId, BTreeSet<TupleId>>,
}

impl VersionStore {
    /// Creates an empty store.
    pub fn new() -> VersionStore {
        VersionStore::default()
    }

    /// Registers storage for a newly added relation.
    pub fn add_relation(&mut self, id: RelationId, arity: usize) {
        self.relations.push(RelationStore::new(id, arity));
    }

    /// The per-relation store, if the relation exists.
    pub fn relation(&self, relation: RelationId) -> Option<&RelationStore> {
        self.relations.get(relation.0 as usize)
    }

    /// Number of relations with storage.
    pub fn relation_count(&self) -> usize {
        self.relations.len()
    }

    /// The write epoch of a relation: bumped on every mutation of that
    /// relation (insert, new version, rollback), `0` for unknown relations.
    /// Equal epochs guarantee identical relation contents, which lets derived
    /// state — the chase's violation queue, memoised repair plans — validate
    /// with an integer compare instead of re-evaluating queries.
    pub fn relation_epoch(&self, relation: RelationId) -> u64 {
        self.relation(relation).map(|s| s.epoch()).unwrap_or(0)
    }

    /// Registers a brand-new logical tuple.
    pub(crate) fn insert_new(
        &mut self,
        relation: RelationId,
        tuple: TupleId,
        version: TupleVersion,
    ) {
        if let Some(data) = &version.data {
            self.register_nulls(tuple, data);
        }
        self.relations[relation.0 as usize].insert_new(tuple, version);
        self.tuple_locations.insert(tuple, relation);
    }

    /// Installs a decoded relation's version chains (strictly increasing tuple
    /// ids) into its empty storage in one pass: chains, column index, null
    /// index and tuple locations. Leaves what inserting every chain's first
    /// version and pushing the rest would, with `relation_epoch` advanced by
    /// the version count. Fails with the first tuple id already placed in
    /// another relation.
    pub(crate) fn restore_relation(
        &mut self,
        relation: RelationId,
        chains: Vec<(TupleId, VersionChain)>,
    ) -> Result<(), TupleId> {
        self.tuple_locations.reserve(chains.len());
        for (tuple, chain) in &chains {
            if self.tuple_locations.insert(*tuple, relation).is_some() {
                return Err(*tuple);
            }
            for data in chain.versions().iter().filter_map(|v| v.data.as_ref()) {
                self.register_nulls(*tuple, data);
            }
        }
        self.relations[relation.0 as usize].restore_chains(chains);
        Ok(())
    }

    /// Appends a version to an existing tuple, keeping the null index fresh.
    pub(crate) fn push_version(
        &mut self,
        relation: RelationId,
        tuple: TupleId,
        version: TupleVersion,
    ) -> bool {
        if let Some(data) = &version.data {
            self.register_nulls(tuple, data);
        }
        self.relations[relation.0 as usize].push_version(tuple, version)
    }

    /// Records which tuples mention which labeled nulls.
    pub(crate) fn register_nulls(&mut self, tuple: TupleId, data: &TupleData) {
        for null in tuple::nulls_of(data) {
            self.null_occurrences.entry(null).or_default().insert(tuple);
        }
    }

    /// Data of a tuple as visible to `reader`.
    pub fn visible(
        &self,
        relation: RelationId,
        tuple: TupleId,
        reader: UpdateId,
    ) -> Option<TupleData> {
        self.relation(relation).and_then(|s| s.visible(tuple, reader))
    }

    /// The relation a tuple id belongs to (regardless of visibility).
    pub fn tuple_relation(&self, tuple: TupleId) -> Option<RelationId> {
        self.tuple_locations.get(&tuple).copied()
    }

    /// All tuples of `relation` visible to `reader`.
    pub fn scan(&self, relation: RelationId, reader: UpdateId) -> Vec<(TupleId, TupleData)> {
        self.relation(relation).map(|s| s.scan(reader)).unwrap_or_default()
    }

    /// Tuples of `relation` visible to `reader` with `value` at `column`.
    pub fn candidates(
        &self,
        relation: RelationId,
        column: usize,
        value: crate::value::Value,
        reader: UpdateId,
    ) -> Vec<(TupleId, TupleData)> {
        self.relation(relation).map(|s| s.candidates(column, value, reader)).unwrap_or_default()
    }

    /// Number of tuples of `relation` visible to `reader`.
    pub fn visible_count(&self, relation: RelationId, reader: UpdateId) -> usize {
        self.relation(relation).map(|s| s.visible_count(reader)).unwrap_or(0)
    }

    /// Total number of visible tuples across all relations.
    pub fn total_visible(&self, reader: UpdateId) -> usize {
        self.relations.iter().map(|s| s.visible_count(reader)).sum()
    }

    /// The full version chain of a tuple (diagnostics and tests).
    pub fn version_chain(&self, relation: RelationId, tuple: TupleId) -> Option<&VersionChain> {
        self.relation(relation).and_then(|s| s.chain(tuple))
    }

    /// Tuples visible to `reader` that contain the labeled null `null`,
    /// across all relations.
    pub fn null_occurrences(
        &self,
        null: NullId,
        reader: UpdateId,
    ) -> Vec<(RelationId, TupleId, TupleData)> {
        let Some(set) = self.null_occurrences.get(&null) else { return Vec::new() };
        let mut out = Vec::new();
        for &tuple in set {
            let Some(&relation) = self.tuple_locations.get(&tuple) else { continue };
            if let Some(data) = self.visible(relation, tuple, reader) {
                if tuple::contains_null(&data, null) {
                    out.push((relation, tuple, data));
                }
            }
        }
        out
    }

    /// Tuple ids whose some version mentions `null` (unfiltered; callers
    /// re-check visibility).
    pub(crate) fn tuples_mentioning(&self, null: NullId) -> Vec<TupleId> {
        self.null_occurrences.get(&null).map(|s| s.iter().copied().collect()).unwrap_or_default()
    }

    /// Removes every version written by `update`; returns the ids of logical
    /// tuples that disappeared entirely.
    pub fn rollback_update(&mut self, update: UpdateId) -> Vec<TupleId> {
        let mut vanished = Vec::new();
        for idx in 0..self.relations.len() {
            for id in self.relations[idx].remove_versions_of(update) {
                self.tuple_locations.remove(&id);
                vanished.push(id);
            }
        }
        vanished
    }
}
