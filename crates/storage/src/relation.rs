//! Per-relation tuple storage: version chains plus a column index and a
//! per-reader visible-set cache.

use std::collections::{BTreeMap, HashMap};
use std::sync::{Arc, Mutex, MutexGuard};

use crate::schema::RelationId;
use crate::tuple::{TupleData, TupleId};
use crate::value::Value;
use crate::version::{TupleVersion, UpdateId, VersionChain};

/// Upper bound on distinct readers memoised per relation between writes. The
/// cache is cleared wholesale on every mutation, so the bound only matters for
/// long read-mostly phases with very many concurrent readers.
const VISIBLE_CACHE_MAX_READERS: usize = 128;

/// The memoised visible rows of one relation for one reader.
type VisibleRows = Arc<Vec<(TupleId, TupleData)>>;

/// Upper bound on memoised `(reader, column, value)` candidate probes per
/// relation between writes. Probes are much more numerous than full scans
/// (every violation-query join leg issues one), so the bound is wider than
/// [`VISIBLE_CACHE_MAX_READERS`].
const CANDIDATE_CACHE_MAX_ENTRIES: usize = 1024;

/// Storage for the tuples of one relation.
///
/// Tuples are kept in a [`BTreeMap`] keyed by [`TupleId`] so iteration order is
/// deterministic (ids are assigned in insertion order), which keeps chase runs
/// and experiments reproducible under a fixed seed.
///
/// Reads are accelerated by a *visible-set cache*: the first
/// [`RelationStore::scan`] (or [`RelationStore::visible_count`]) for a given
/// reader materialises that reader's visible rows once; subsequent reads by
/// the same reader are served from the cache until the next write to this
/// relation invalidates it. Violation-query evaluation performs many scans and
/// candidate probes per chase step between writes, so this removes the
/// walk-every-version-chain cost from the hot read path.
#[derive(Debug)]
pub struct RelationStore {
    id: RelationId,
    arity: usize,
    tuples: BTreeMap<TupleId, VersionChain>,
    /// Column index: for each attribute position, value → tuple ids whose
    /// *some* version carries that value at that position. Entries are never
    /// removed (stale-tolerant); lookups re-check visible data.
    index: Vec<HashMap<Value, Vec<TupleId>>>,
    /// Write epoch: bumped on every mutation of this relation (insert, new
    /// version, rollback). Readers that cached derived state (visible sets,
    /// violation checks, repair plans) validate it with a single integer
    /// compare instead of re-reading the data.
    epoch: u64,
    /// reader → visible rows, invalidated on every mutation *visible to that
    /// reader* (a write by update `w` can only change the visible set of
    /// readers with number ≥ `w`). Behind a mutex (not a `RefCell`) so
    /// `&RelationStore` stays `Sync` and the parallel experiment sweep can
    /// share a fixture database across worker threads.
    visible_cache: Mutex<HashMap<UpdateId, VisibleRows>>,
    /// reader → visible-row count. Separate from the row cache so count-only
    /// paths (`visible_count`, `total_visible`) never pay for materialising
    /// rows.
    count_cache: Mutex<HashMap<UpdateId, usize>>,
    /// (reader, column, value) → visible candidate rows: the per-column
    /// *visible-value* memo. Candidate probes dominate the read half of a
    /// chase step (one per join leg per violation query), and between writes
    /// the same probes repeat across steps; memoising them turns the repeated
    /// bucket-walk + version-chain filter into one hash lookup. Invalidated
    /// exactly like the visible-set memos: a write by update `w` drops entries
    /// of readers ≥ `w`.
    candidate_cache: Mutex<HashMap<(UpdateId, usize, Value), VisibleRows>>,
}

impl Clone for RelationStore {
    fn clone(&self) -> RelationStore {
        // The cache is a pure memo: a clone starts cold. The epoch is carried
        // over so epoch-validated state behaves the same on either copy.
        RelationStore {
            id: self.id,
            arity: self.arity,
            tuples: self.tuples.clone(),
            index: self.index.clone(),
            epoch: self.epoch,
            visible_cache: Mutex::new(HashMap::new()),
            count_cache: Mutex::new(HashMap::new()),
            candidate_cache: Mutex::new(HashMap::new()),
        }
    }
}

impl RelationStore {
    /// Creates an empty store for a relation of the given arity.
    pub fn new(id: RelationId, arity: usize) -> RelationStore {
        RelationStore {
            id,
            arity,
            tuples: BTreeMap::new(),
            index: vec![HashMap::new(); arity],
            epoch: 0,
            visible_cache: Mutex::new(HashMap::new()),
            count_cache: Mutex::new(HashMap::new()),
            candidate_cache: Mutex::new(HashMap::new()),
        }
    }

    /// Relation id.
    pub fn id(&self) -> RelationId {
        self.id
    }

    /// Declared arity.
    pub fn arity(&self) -> usize {
        self.arity
    }

    /// The relation's write epoch: monotonically increasing, bumped on every
    /// mutation. Equal epochs guarantee identical relation contents, so any
    /// derived state (cached visible sets, still-violated checks, memoised
    /// repair plans) can be validated with one integer compare.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Registers a mutation performed by `writer`: bumps the write epoch and
    /// drops the memoised visible sets and counts of every reader the
    /// mutation is visible to. A version written by update `w` is only ever
    /// visible to readers with number ≥ `w`, so lower-numbered readers' memos
    /// are still exact and survive the write.
    fn note_mutation(&mut self, writer: UpdateId) {
        self.epoch += 1;
        // `get_mut` needs no lock: `&mut self` proves exclusive access.
        self.visible_cache
            .get_mut()
            .unwrap_or_else(|e| e.into_inner())
            .retain(|reader, _| *reader < writer);
        self.count_cache
            .get_mut()
            .unwrap_or_else(|e| e.into_inner())
            .retain(|reader, _| *reader < writer);
        self.candidate_cache
            .get_mut()
            .unwrap_or_else(|e| e.into_inner())
            .retain(|(reader, _, _), _| *reader < writer);
    }

    fn cache(&self) -> MutexGuard<'_, HashMap<UpdateId, VisibleRows>> {
        self.visible_cache.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// The rows visible to `reader`, memoised until the next write.
    fn visible_rows(&self, reader: UpdateId) -> VisibleRows {
        if let Some(rows) = self.cache().get(&reader) {
            return rows.clone();
        }
        let rows: VisibleRows = Arc::new(
            self.tuples
                .iter()
                .filter_map(|(id, chain)| chain.visible_data(reader).map(|d| (*id, d.clone())))
                .collect(),
        );
        let mut cache = self.cache();
        if cache.len() >= VISIBLE_CACHE_MAX_READERS {
            cache.clear();
        }
        cache.insert(reader, rows.clone());
        rows
    }

    /// Registers a brand-new logical tuple with its initial version.
    pub fn insert_new(&mut self, tuple: TupleId, version: TupleVersion) {
        self.note_mutation(version.update);
        if let Some(data) = &version.data {
            self.index_values(tuple, data);
        }
        self.tuples.insert(tuple, VersionChain::new(version));
    }

    /// Appends a version to an existing tuple's chain. Returns `false` if the
    /// tuple is unknown.
    pub fn push_version(&mut self, tuple: TupleId, version: TupleVersion) -> bool {
        match self.tuples.get_mut(&tuple) {
            Some(chain) => {
                let writer = version.update;
                if let Some(data) = &version.data {
                    let data = data.clone();
                    chain.push(version);
                    self.index_values(tuple, &data);
                } else {
                    chain.push(version);
                }
                self.note_mutation(writer);
                true
            }
            None => false,
        }
    }

    fn index_values(&mut self, tuple: TupleId, data: &TupleData) {
        for (col, value) in data.iter().enumerate() {
            let bucket = self.index[col].entry(*value).or_default();
            if bucket.last() != Some(&tuple) {
                bucket.push(tuple);
            }
        }
    }

    /// Whether the logical tuple exists in the store (any version).
    pub fn contains(&self, tuple: TupleId) -> bool {
        self.tuples.contains_key(&tuple)
    }

    /// Returns the version chain of a tuple.
    pub fn chain(&self, tuple: TupleId) -> Option<&VersionChain> {
        self.tuples.get(&tuple)
    }

    /// Data of `tuple` visible to `reader`, if the tuple exists and is not
    /// deleted for that reader.
    pub fn visible(&self, tuple: TupleId, reader: UpdateId) -> Option<TupleData> {
        self.tuples.get(&tuple).and_then(|c| c.visible_data(reader)).cloned()
    }

    /// All tuples visible to `reader`, in tuple-id order.
    pub fn scan(&self, reader: UpdateId) -> Vec<(TupleId, TupleData)> {
        (*self.visible_rows(reader)).clone()
    }

    /// Number of tuples visible to `reader`. Served from the row cache when a
    /// scan already materialised it, and from a count memo otherwise —
    /// counting never materialises rows.
    pub fn visible_count(&self, reader: UpdateId) -> usize {
        if let Some(rows) = self.cache().get(&reader) {
            return rows.len();
        }
        let mut counts = self.count_cache.lock().unwrap_or_else(|e| e.into_inner());
        if let Some(&count) = counts.get(&reader) {
            return count;
        }
        let count = self.tuples.values().filter(|c| c.visible_data(reader).is_some()).count();
        if counts.len() >= VISIBLE_CACHE_MAX_READERS {
            counts.clear();
        }
        counts.insert(reader, count);
        count
    }

    /// Tuples visible to `reader` whose value at `column` equals `value`,
    /// memoised per `(reader, column, value)` until the next write visible to
    /// that reader.
    ///
    /// Uses the column index as a candidate filter and re-checks against the
    /// visible version, so stale index entries are harmless.
    pub fn candidates(
        &self,
        column: usize,
        value: Value,
        reader: UpdateId,
    ) -> Vec<(TupleId, TupleData)> {
        {
            let memo = self.candidate_cache.lock().unwrap_or_else(|e| e.into_inner());
            if let Some(rows) = memo.get(&(reader, column, value)) {
                return (**rows).clone();
            }
        }
        let mut seen = Vec::new();
        let mut out = Vec::new();
        // Bucket order is the index's *append* order (stale entries included).
        let bucket =
            self.index.get(column).and_then(|m| m.get(&value)).map_or(&[][..], Vec::as_slice);
        for &tid in bucket {
            if seen.contains(&tid) {
                continue;
            }
            seen.push(tid);
            if let Some(data) = self.visible(tid, reader) {
                if data.get(column) == Some(&value) {
                    out.push((tid, data));
                }
            }
        }
        let mut memo = self.candidate_cache.lock().unwrap_or_else(|e| e.into_inner());
        if memo.len() >= CANDIDATE_CACHE_MAX_ENTRIES {
            memo.clear();
        }
        memo.insert((reader, column, value), Arc::new(out.clone()));
        out
    }

    /// An O(1), reader-independent upper bound on the rows a read returns:
    /// with `Some((column, value))` the length of that column's index bucket
    /// (stale entries included, so it bounds [`RelationStore::candidates`]
    /// for every reader), with `None` the logical tuple count (which bounds
    /// [`RelationStore::scan`]). Reads no version chain and takes no lock.
    pub fn size_estimate(&self, probe: Option<(usize, Value)>) -> usize {
        match probe {
            Some((column, value)) => {
                self.index.get(column).and_then(|m| m.get(&value)).map_or(0, Vec::len)
            }
            None => self.logical_len(),
        }
    }

    /// Removes every version created by `update`. Returns the ids of logical
    /// tuples that vanished entirely (their only versions belonged to the
    /// aborted update).
    pub fn remove_versions_of(&mut self, update: UpdateId) -> Vec<TupleId> {
        let mut removed = Vec::new();
        let ids: Vec<TupleId> = self.tuples.keys().copied().collect();
        let mut touched = false;
        for id in ids {
            let empty = {
                let chain = self.tuples.get_mut(&id).expect("id listed above");
                if !chain.written_by(update) {
                    continue;
                }
                touched = true;
                chain.remove_versions_of(update)
            };
            if empty {
                self.tuples.remove(&id);
                removed.push(id);
            }
        }
        if touched {
            // Rolling back `update`'s versions can only change what readers
            // numbered ≥ `update` see.
            self.note_mutation(update);
        }
        removed
    }

    /// Total number of logical tuples (including deleted / invisible ones).
    pub fn logical_len(&self) -> usize {
        self.tuples.len()
    }

    /// Iterates over all logical tuple ids (deterministic order).
    pub fn tuple_ids(&self) -> impl Iterator<Item = TupleId> + '_ {
        self.tuples.keys().copied()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::value::{NullId, Value as V};

    fn data(vals: &[V]) -> TupleData {
        vals.to_vec().into()
    }

    fn version(update: u64, seq: u64, vals: Option<&[V]>) -> TupleVersion {
        TupleVersion { update: UpdateId(update), seq, data: vals.map(data) }
    }

    #[test]
    fn insert_scan_and_candidates() {
        let mut store = RelationStore::new(RelationId(0), 2);
        let a = V::constant("a");
        let b = V::constant("b");
        store.insert_new(TupleId(1), version(1, 1, Some(&[a, b])));
        store.insert_new(TupleId(2), version(1, 2, Some(&[a, a])));

        let scan = store.scan(UpdateId::OMNISCIENT);
        assert_eq!(scan.len(), 2);
        assert_eq!(scan[0].0, TupleId(1));

        let by_a = store.candidates(0, a, UpdateId::OMNISCIENT);
        assert_eq!(by_a.len(), 2);
        let by_b = store.candidates(1, b, UpdateId::OMNISCIENT);
        assert_eq!(by_b.len(), 1);
        assert_eq!(by_b[0].0, TupleId(1));
        assert!(store.candidates(1, V::constant("zzz"), UpdateId::OMNISCIENT).is_empty());
    }

    #[test]
    fn visibility_through_store() {
        let mut store = RelationStore::new(RelationId(0), 1);
        let a = V::constant("a");
        store.insert_new(TupleId(1), version(5, 1, Some(&[a])));
        assert!(store.visible(TupleId(1), UpdateId(4)).is_none());
        assert!(store.visible(TupleId(1), UpdateId(5)).is_some());
        assert_eq!(store.visible_count(UpdateId(4)), 0);
        assert_eq!(store.visible_count(UpdateId(9)), 1);
    }

    #[test]
    fn tombstone_and_candidate_filtering() {
        let mut store = RelationStore::new(RelationId(0), 1);
        let a = V::constant("a");
        store.insert_new(TupleId(1), version(1, 1, Some(&[a])));
        store.push_version(TupleId(1), version(2, 2, None));
        // Reader 1 still sees it, reader 2 does not.
        assert_eq!(store.candidates(0, a, UpdateId(1)).len(), 1);
        assert!(store.candidates(0, a, UpdateId(2)).is_empty());
        assert!(store.scan(UpdateId(2)).is_empty());
    }

    #[test]
    fn stale_index_entries_are_filtered() {
        let mut store = RelationStore::new(RelationId(0), 1);
        let x1 = V::Null(NullId(1));
        let c = V::constant("c");
        store.insert_new(TupleId(1), version(1, 1, Some(&[x1])));
        // Null-replacement: new version with the constant.
        store.push_version(TupleId(1), version(1, 2, Some(&[c])));
        // Old index entry for x1 must not produce a match any more.
        assert!(store.candidates(0, x1, UpdateId::OMNISCIENT).is_empty());
        assert_eq!(store.candidates(0, c, UpdateId::OMNISCIENT).len(), 1);
    }

    #[test]
    fn size_estimate_bounds_every_reader_without_reading_chains() {
        let mut store = RelationStore::new(RelationId(0), 2);
        let x1 = V::Null(NullId(1));
        let a = V::constant("a");
        let c = V::constant("c");
        store.insert_new(TupleId(1), version(1, 1, Some(&[a, x1])));
        store.insert_new(TupleId(2), version(2, 2, Some(&[a, c])));
        store.push_version(TupleId(1), version(3, 3, Some(&[a, c])));
        store.push_version(TupleId(2), version(4, 4, None));
        // Buckets keep stale entries: x1's survives the replacement, and
        // tuple 1's new version re-enters the `a` bucket behind tuple 2.
        assert_eq!(store.size_estimate(Some((1, x1))), 1);
        assert_eq!(store.size_estimate(Some((1, c))), 2);
        assert_eq!(store.size_estimate(Some((0, a))), 3);
        assert_eq!(store.size_estimate(Some((0, c))), 0);
        assert_eq!(store.size_estimate(Some((7, a))), 0);
        assert_eq!(store.size_estimate(None), 2);
        for reader in 0..6 {
            let reader = UpdateId(reader);
            for (col, value) in [(0, a), (1, x1), (1, c)] {
                assert!(
                    store.candidates(col, value, reader).len()
                        <= store.size_estimate(Some((col, value)))
                );
            }
            assert!(store.visible_count(reader) <= store.size_estimate(None));
        }
    }

    #[test]
    fn remove_versions_of_update() {
        let mut store = RelationStore::new(RelationId(0), 1);
        let a = V::constant("a");
        let b = V::constant("b");
        store.insert_new(TupleId(1), version(1, 1, Some(&[a])));
        store.insert_new(TupleId(2), version(2, 2, Some(&[b])));
        store.push_version(TupleId(1), version(2, 3, None));

        let gone = store.remove_versions_of(UpdateId(2));
        assert_eq!(gone, vec![TupleId(2)]);
        assert!(!store.contains(TupleId(2)));
        // Tuple 1 is visible again: update 2's tombstone was rolled back.
        assert!(store.visible(TupleId(1), UpdateId::OMNISCIENT).is_some());
        assert_eq!(store.logical_len(), 1);
    }

    #[test]
    fn push_version_to_unknown_tuple_fails() {
        let mut store = RelationStore::new(RelationId(0), 1);
        assert!(!store.push_version(TupleId(9), version(1, 1, None)));
        assert!(store.chain(TupleId(9)).is_none());
        assert_eq!(store.tuple_ids().count(), 0);
        assert_eq!(store.arity(), 1);
        assert_eq!(store.id(), RelationId(0));
    }

    #[test]
    fn visible_cache_is_invalidated_by_writes_and_rollbacks() {
        let mut store = RelationStore::new(RelationId(0), 1);
        let a = V::constant("a");
        let b = V::constant("b");
        store.insert_new(TupleId(1), version(1, 1, Some(&[a])));
        // Prime the cache, then mutate through every write path and re-check.
        assert_eq!(store.scan(UpdateId::OMNISCIENT).len(), 1);
        store.insert_new(TupleId(2), version(1, 2, Some(&[b])));
        assert_eq!(store.scan(UpdateId::OMNISCIENT).len(), 2);
        store.push_version(TupleId(2), version(2, 3, None));
        assert_eq!(store.scan(UpdateId::OMNISCIENT).len(), 1);
        assert_eq!(store.visible_count(UpdateId(1)), 2);
        store.remove_versions_of(UpdateId(2));
        assert_eq!(store.scan(UpdateId::OMNISCIENT).len(), 2);
        // A clone starts with a cold cache but identical contents.
        let clone = store.clone();
        assert_eq!(clone.scan(UpdateId::OMNISCIENT), store.scan(UpdateId::OMNISCIENT));
    }

    #[test]
    fn epoch_bumps_on_every_mutation() {
        let mut store = RelationStore::new(RelationId(0), 1);
        assert_eq!(store.epoch(), 0);
        store.insert_new(TupleId(1), version(1, 1, Some(&[V::constant("a")])));
        assert_eq!(store.epoch(), 1);
        store.push_version(TupleId(1), version(2, 2, None));
        assert_eq!(store.epoch(), 2);
        // Reads do not move the epoch.
        store.scan(UpdateId::OMNISCIENT);
        store.visible_count(UpdateId(1));
        assert_eq!(store.epoch(), 2);
        store.remove_versions_of(UpdateId(2));
        assert_eq!(store.epoch(), 3);
        // Rolling back an update that never wrote here is a no-op.
        store.remove_versions_of(UpdateId(99));
        assert_eq!(store.epoch(), 3);
        // A failed push (unknown tuple) mutates nothing.
        assert!(!store.push_version(TupleId(77), version(3, 4, None)));
        assert_eq!(store.epoch(), 3);
        // The epoch survives a clone.
        assert_eq!(store.clone().epoch(), 3);
    }

    #[test]
    fn writes_only_invalidate_readers_that_can_see_them() {
        let mut store = RelationStore::new(RelationId(0), 1);
        store.insert_new(TupleId(1), version(1, 1, Some(&[V::constant("a")])));
        // Prime memos for a low-numbered and a high-numbered reader.
        assert_eq!(store.scan(UpdateId(2)).len(), 1);
        assert_eq!(store.scan(UpdateId(9)).len(), 1);
        assert_eq!(store.visible_count(UpdateId(2)), 1);
        assert_eq!(store.cache().len(), 2);

        // A write by update 5 is invisible to reader 2: its memo survives,
        // reader 9's is dropped.
        store.insert_new(TupleId(2), version(5, 2, Some(&[V::constant("b")])));
        {
            let cache = store.cache();
            assert!(cache.contains_key(&UpdateId(2)), "reader 2 cannot see update 5's write");
            assert!(!cache.contains_key(&UpdateId(9)), "reader 9 can see it");
        }
        // The retained memo still answers correctly; the invalidated reader
        // recomputes and sees the new row.
        assert_eq!(store.scan(UpdateId(2)).len(), 1);
        assert_eq!(store.scan(UpdateId(9)).len(), 2);
        assert_eq!(store.visible_count(UpdateId(2)), 1);
        assert_eq!(store.visible_count(UpdateId(9)), 2);

        // Rollback of update 5 likewise only touches readers ≥ 5.
        store.remove_versions_of(UpdateId(5));
        assert!(store.cache().contains_key(&UpdateId(2)));
        assert!(!store.cache().contains_key(&UpdateId(9)));
        assert_eq!(store.scan(UpdateId(9)).len(), 1);
    }

    #[test]
    fn candidate_memo_is_invalidated_per_reader() {
        let mut store = RelationStore::new(RelationId(0), 1);
        let a = V::constant("a");
        store.insert_new(TupleId(1), version(1, 1, Some(&[a])));
        // Prime the memo for a low- and a high-numbered reader.
        assert_eq!(store.candidates(0, a, UpdateId(2)).len(), 1);
        assert_eq!(store.candidates(0, a, UpdateId(9)).len(), 1);
        // A write by update 5 must only invalidate reader 9's memo.
        store.insert_new(TupleId(2), version(5, 2, Some(&[a])));
        {
            let memo = store.candidate_cache.lock().unwrap();
            assert!(memo.contains_key(&(UpdateId(2), 0, a)));
            assert!(!memo.contains_key(&(UpdateId(9), 0, a)));
        }
        assert_eq!(store.candidates(0, a, UpdateId(2)).len(), 1);
        assert_eq!(store.candidates(0, a, UpdateId(9)).len(), 2);
        // Memoised and recomputed answers agree after a rollback, too.
        store.remove_versions_of(UpdateId(5));
        assert_eq!(store.candidates(0, a, UpdateId(9)).len(), 1);
        // A clone starts cold but answers identically.
        let clone = store.clone();
        assert!(clone.candidate_cache.lock().unwrap().is_empty());
        assert_eq!(clone.candidates(0, a, UpdateId(9)), store.candidates(0, a, UpdateId(9)));
    }

    #[test]
    fn candidate_memo_bounds_entries() {
        let mut store = RelationStore::new(RelationId(0), 1);
        let a = V::constant("a");
        store.insert_new(TupleId(1), version(1, 1, Some(&[a])));
        for reader in 0..(2 * CANDIDATE_CACHE_MAX_ENTRIES as u64) {
            let expected = usize::from(reader >= 1);
            assert_eq!(store.candidates(0, a, UpdateId(reader)).len(), expected);
        }
        let memo = store.candidate_cache.lock().unwrap();
        assert!(!memo.is_empty() && memo.len() <= CANDIDATE_CACHE_MAX_ENTRIES);
    }

    #[test]
    fn visible_cache_bounds_reader_entries() {
        let mut store = RelationStore::new(RelationId(0), 1);
        store.insert_new(TupleId(1), version(1, 1, Some(&[V::constant("a")])));
        for reader in 0..(2 * VISIBLE_CACHE_MAX_READERS as u64) {
            let expected = usize::from(reader >= 1);
            // `visible_count` populates the count memo, `scan` the row cache;
            // both must respect the per-relation reader bound.
            assert_eq!(store.visible_count(UpdateId(reader)), expected);
            assert_eq!(store.scan(UpdateId(reader)).len(), expected);
        }
        assert!(store.cache().len() <= VISIBLE_CACHE_MAX_READERS);
        let counts = store.count_cache.lock().unwrap();
        assert!(!counts.is_empty() && counts.len() <= VISIBLE_CACHE_MAX_READERS);
    }
}
