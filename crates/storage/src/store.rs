//! The multiversion tuple store, split out of [`crate::Database`].
//!
//! [`VersionStore`] owns everything that holds tuple *data*: the per-relation
//! [`RelationStore`]s (version chains, column indexes and the per-reader row
//! memo that full scans fill), the tuple → relation map and the labeled-null
//! occurrence index. [`crate::Database`] keeps the catalog and the id
//! allocators and delegates all data access here. The split gives the read
//! path a single owner: every mutation funnels through `VersionStore`, which
//! is what lets the row memos be invalidated exactly once per write.

use std::collections::{BTreeSet, VecDeque};

use crate::fxhash::{FxHashMap, FxHashSet};
use crate::relation::RelationStore;
use crate::schema::RelationId;
use crate::tuple::{self, TupleData, TupleId};
use crate::value::NullId;
use crate::version::{TupleVersion, UpdateId, VersionChain};

/// Default upper bound on retained write deltas. The backlog is normally
/// truncated at engine quiescence; the cap is the unconditional backstop for
/// engines that never go quiescent. Consumers whose cursor falls behind the
/// truncation point fall back to treating every indexed relation as dirty,
/// which the per-entry epoch compare then filters exactly — truncation is
/// always safe, only (slightly) slower. Only this crate's unit tests shrink
/// it, per store.
pub const DELTA_BACKLOG_CAP: usize = 32 * 1024;

/// Versioned tuple storage for all relations of one database.
#[derive(Clone, Debug)]
pub struct VersionStore {
    relations: Vec<RelationStore>,
    /// Which relation each tuple id belongs to.
    tuple_locations: FxHashMap<TupleId, RelationId>,
    /// Tuples whose some version contains a given labeled null
    /// (stale-tolerant: lookups re-check visible data).
    null_occurrences: FxHashMap<NullId, BTreeSet<TupleId>>,
    /// Delta number of the oldest retained entry of `deltas`: entry `i` of the
    /// queue is delta `delta_base + i`. Monotonically increasing; advanced by
    /// truncation (and by the cap) so cursors can detect a gap.
    delta_base: u64,
    /// The committed write-delta log: one relation id per relation mutation,
    /// in commit order — the feed the shared violation index replays. Every
    /// mutation that bumps a relation's write epoch appends exactly one entry,
    /// so a cursor over this queue sees precisely the epoch moves it missed.
    deltas: VecDeque<RelationId>,
    /// This store's backlog bound (defaults to [`DELTA_BACKLOG_CAP`]).
    delta_backlog_cap: usize,
}

impl Default for VersionStore {
    fn default() -> VersionStore {
        VersionStore {
            relations: Vec::new(),
            tuple_locations: FxHashMap::default(),
            null_occurrences: FxHashMap::default(),
            delta_base: 0,
            deltas: VecDeque::new(),
            delta_backlog_cap: DELTA_BACKLOG_CAP,
        }
    }
}

impl VersionStore {
    /// Creates an empty store.
    pub fn new() -> VersionStore {
        VersionStore::default()
    }

    /// This store's delta-backlog bound.
    pub fn delta_backlog_cap(&self) -> usize {
        self.delta_backlog_cap
    }

    /// Overrides the delta-backlog bound (minimum 1). Shrinking below the
    /// current backlog takes effect on the next mutation; consumers behind the
    /// new truncation point observe a gap, exactly as under the default cap.
    #[cfg(test)]
    pub(crate) fn set_delta_backlog_cap(&mut self, cap: usize) {
        self.delta_backlog_cap = cap.max(1);
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

    /// Appends one entry to the write-delta log, enforcing the backlog cap.
    fn note_delta(&mut self, relation: RelationId) {
        if self.deltas.len() >= self.delta_backlog_cap {
            let drop = self.deltas.len() - self.delta_backlog_cap + 1;
            self.deltas.drain(..drop);
            self.delta_base += drop as u64;
        }
        self.deltas.push_back(relation);
    }

    /// The global delta sequence number: the number of relation mutations
    /// committed so far. A consumer that remembers this value can later ask
    /// [`VersionStore::deltas_since`] which relations changed in between.
    pub fn delta_seq(&self) -> u64 {
        self.delta_base + self.deltas.len() as u64
    }

    /// The relation mutations committed in the window `[since, delta_seq())`,
    /// in commit order. Returns `None` when the backlog no longer reaches back
    /// to `since` (it was truncated, or `since` is from a different store
    /// history): the caller must then treat everything it watches as dirty.
    pub fn deltas_since(&self, since: u64) -> Option<impl Iterator<Item = RelationId> + '_> {
        if since < self.delta_base || since > self.delta_seq() {
            return None;
        }
        let skip = (since - self.delta_base) as usize;
        Some(self.deltas.iter().skip(skip).copied())
    }

    /// The subset of `interest` (in `interest` order) mutated in the window
    /// `[since, delta_seq())`, or `None` when the backlog was truncated past
    /// `since` (see [`VersionStore::deltas_since`]).
    pub fn dirty_in_window(&self, since: u64, interest: &[RelationId]) -> Option<Vec<RelationId>> {
        let window: FxHashSet<RelationId> = self.deltas_since(since)?.collect();
        Some(interest.iter().copied().filter(|r| window.contains(r)).collect())
    }

    /// Drops the whole delta backlog, advancing the base watermark so stale
    /// cursors observe a gap (and fall back to full revalidation) instead of
    /// silently missing deltas. Called at engine quiescence, where no live
    /// cursor exists.
    pub fn truncate_delta_backlog(&mut self) {
        self.delta_base += self.deltas.len() as u64;
        self.deltas.clear();
    }

    /// Number of retained delta entries (diagnostics and memory-bound tests).
    pub fn delta_backlog_len(&self) -> usize {
        self.deltas.len()
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
        self.note_delta(relation);
    }

    /// Installs a decoded relation's version chains (strictly increasing tuple
    /// ids) into its empty storage in one pass: chains, column index, null
    /// index and tuple locations. Leaves what inserting every chain's first
    /// version and pushing the rest would, with `relation_epoch` and
    /// [`VersionStore::delta_seq`] advanced by the version count, except that
    /// the new deltas are truncated on arrival: no cursor can predate a
    /// restore. Fails with the first tuple id already placed in another
    /// relation.
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
        let versions = self.relations[relation.0 as usize].restore_chains(chains);
        self.truncate_delta_backlog();
        self.delta_base += versions;
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
        let pushed = self.relations[relation.0 as usize].push_version(tuple, version);
        if pushed {
            self.note_delta(relation);
        }
        pushed
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
            let store = &mut self.relations[idx];
            let before = store.epoch();
            let removed = store.remove_versions_of(update);
            let touched = store.epoch() != before;
            let relation = store.id();
            for id in removed {
                self.tuple_locations.remove(&id);
                vanished.push(id);
            }
            if touched {
                self.note_delta(relation);
            }
        }
        vanished
    }
}
