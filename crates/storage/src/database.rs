//! The Youtopia database: catalog, id allocation and write application on top
//! of the [`VersionStore`].

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};

use crate::error::StorageError;
use crate::schema::{Catalog, RelationId, RelationSchema};
use crate::snapshot::Snapshot;
use crate::store::VersionStore;
use crate::tuple::{self, TupleData, TupleId};
use crate::value::{NullId, Value};
use crate::version::{AppliedWrite, TupleChange, TupleVersion, UpdateId, VersionChain, Write};

/// An in-memory relational database with labeled nulls and multiversion
/// tuples.
///
/// This is the storage substrate underneath Youtopia's update exchange. The
/// database owns the catalog and the id allocators; all tuple data lives in a
/// [`VersionStore`]. All mutation goes through [`Database::apply`] (or the
/// batched [`Database::apply_all`] / [`Database::apply_all_owned`]), which
/// stamps the resulting tuple versions with the writing update's priority
/// number; readers observe the database through [`Database::snapshot`], which
/// implements the visibility rule of Section 4.1.
#[derive(Debug, Default)]
pub struct Database {
    catalog: Catalog,
    store: VersionStore,
    next_tuple: u64,
    /// Atomic so [`Database::fresh_null`] works through a shared borrow:
    /// repair planning mints fresh nulls while it holds the database through
    /// `&Database` (the snapshots it reads borrow it), whereas tuple and
    /// sequence ids are only allocated by writes, which hold `&mut`.
    next_null: AtomicU64,
    next_seq: u64,
}

impl Clone for Database {
    fn clone(&self) -> Database {
        Database {
            catalog: self.catalog.clone(),
            store: self.store.clone(),
            next_tuple: self.next_tuple,
            next_null: AtomicU64::new(self.next_null.load(Ordering::Relaxed)),
            next_seq: self.next_seq,
        }
    }
}

impl Database {
    /// Creates an empty database with an empty catalog.
    pub fn new() -> Database {
        Database::default()
    }

    /// Registers a new relation.
    pub fn add_relation(
        &mut self,
        name: impl Into<String>,
        attributes: impl IntoIterator<Item = impl Into<String>>,
    ) -> Result<RelationId, StorageError> {
        let id = self.catalog.add_relation(name, attributes)?;
        let arity = self.catalog.schema(id).arity();
        self.store.add_relation(id, arity);
        Ok(id)
    }

    /// The catalog.
    pub fn catalog(&self) -> &Catalog {
        &self.catalog
    }

    /// The underlying version store (read access for diagnostics and tools).
    pub fn version_store(&self) -> &VersionStore {
        &self.store
    }

    /// Mutable store access for snapshot restore (`crate::wal`), which rebuilds
    /// version chains without allocating ids.
    pub(crate) fn store_mut(&mut self) -> &mut VersionStore {
        &mut self.store
    }

    /// The id-allocator counters, in `(next_tuple, next_null, next_seq)` order,
    /// for snapshot serialization.
    pub(crate) fn wal_counters(&self) -> (u64, u64, u64) {
        (self.next_tuple, self.next_null.load(Ordering::Relaxed), self.next_seq)
    }

    /// Restores the id-allocator counters from a snapshot.
    pub(crate) fn restore_wal_counters(&mut self, next_tuple: u64, next_null: u64, next_seq: u64) {
        self.next_tuple = next_tuple;
        self.next_null.store(next_null, Ordering::Relaxed);
        self.next_seq = next_seq;
    }

    /// Schema of a relation.
    pub fn schema(&self, relation: RelationId) -> &RelationSchema {
        self.catalog.schema(relation)
    }

    /// Relation id by name.
    pub fn relation_id(&self, name: &str) -> Option<RelationId> {
        self.catalog.relation_id(name)
    }

    /// Allocates a fresh labeled null, unique within this database. Takes a
    /// shared borrow (the counter is atomic) so concurrent repair planning
    /// can mint nulls without exclusive database access.
    pub fn fresh_null(&self) -> NullId {
        NullId(self.next_null.fetch_add(1, Ordering::Relaxed))
    }

    /// Largest null id allocated so far (for diagnostics).
    pub fn null_counter(&self) -> u64 {
        self.next_null.load(Ordering::Relaxed)
    }

    fn next_seq(&mut self) -> u64 {
        let s = self.next_seq;
        self.next_seq += 1;
        s
    }

    /// Checks `write` against the catalog without applying it: its relation
    /// exists and an insert matches the relation's arity.
    /// [`Database::apply`] fails exactly when this does.
    pub fn check_write(&self, write: &Write) -> Result<(), StorageError> {
        match write {
            Write::Insert { relation, values } => {
                let expected = self.catalog.try_schema(*relation)?.arity();
                if values.len() != expected {
                    return Err(StorageError::ArityMismatch {
                        relation: *relation,
                        expected,
                        actual: values.len(),
                    });
                }
            }
            Write::Delete { relation, .. } => {
                self.catalog.try_schema(*relation)?;
            }
            Write::NullReplace { .. } => {}
        }
        Ok(())
    }

    /// Applies a logical write on behalf of `writer`, returning the concrete
    /// per-tuple changes.
    ///
    /// * Inserting always creates a new logical tuple.
    /// * Deleting a tuple that is not visible to the writer is a no-op
    ///   (another, lower-numbered update may have deleted it already).
    /// * Null-replacement rewrites every tuple visible to the writer that
    ///   contains the null; the replacement may be a constant or another
    ///   labeled null (unification).
    pub fn apply(
        &mut self,
        write: &Write,
        writer: UpdateId,
    ) -> Result<Vec<TupleChange>, StorageError> {
        self.check_write(write)?;
        match write {
            Write::Insert { relation, values } => {
                let tuple = TupleId(self.next_tuple);
                self.next_tuple += 1;
                let seq = self.next_seq();
                let data: TupleData = values.clone().into();
                self.store.insert_new(
                    *relation,
                    tuple,
                    TupleVersion { update: writer, seq, data: Some(data.clone()) },
                );
                Ok(vec![TupleChange::Inserted { relation: *relation, tuple, values: data }])
            }
            Write::Delete { relation, tuple } => {
                let store = self.store.relation(*relation).expect("checked above");
                if !store.contains(*tuple) {
                    // Tuple id never existed in this relation.
                    return Ok(Vec::new());
                }
                let Some(old) = store.visible(*tuple, writer) else {
                    // Already deleted (or not yet visible) for this writer: no-op.
                    return Ok(Vec::new());
                };
                let seq = self.next_seq();
                self.store.push_version(
                    *relation,
                    *tuple,
                    TupleVersion { update: writer, seq, data: None },
                );
                Ok(vec![TupleChange::Deleted { relation: *relation, tuple: *tuple, old }])
            }
            Write::NullReplace { null, replacement } => {
                let mut subst = HashMap::new();
                subst.insert(*null, *replacement);
                let affected = self.store.tuples_mentioning(*null);
                let mut changes = Vec::new();
                for tuple in affected {
                    let Some(relation) = self.store.tuple_relation(tuple) else { continue };
                    let Some(old) = self.store.visible(relation, tuple, writer) else { continue };
                    let (new_values, changed) = tuple::substitute_nulls(&old, &subst);
                    if !changed {
                        continue;
                    }
                    let new: TupleData = new_values.into();
                    let seq = self.next_seq();
                    self.store.push_version(
                        relation,
                        tuple,
                        TupleVersion { update: writer, seq, data: Some(new.clone()) },
                    );
                    changes.push(TupleChange::Modified { relation, tuple, old, new });
                }
                Ok(changes)
            }
        }
    }

    /// Applies a batch of writes, producing stamped [`AppliedWrite`] records
    /// (the unit logged by the concurrency layer).
    pub fn apply_all(
        &mut self,
        writes: &[Write],
        writer: UpdateId,
    ) -> Result<Vec<AppliedWrite>, StorageError> {
        self.apply_all_owned(writes.to_vec(), writer)
    }

    /// Batch-apply fast path for multi-write chase steps: takes ownership of
    /// the write set so the logged [`AppliedWrite`] records reuse the writes
    /// instead of cloning every value vector a second time. The chase hands
    /// its pending writes over wholesale each step, which makes this the hot
    /// write entry point.
    pub fn apply_all_owned(
        &mut self,
        writes: Vec<Write>,
        writer: UpdateId,
    ) -> Result<Vec<AppliedWrite>, StorageError> {
        let mut out = Vec::with_capacity(writes.len());
        for w in writes {
            let seq = self.next_seq;
            let changes = self.apply(&w, writer)?;
            out.push(AppliedWrite { update: writer, seq, write: w, changes });
        }
        Ok(out)
    }

    /// Removes every version written by `update` (used to abort an update).
    ///
    /// Returns the ids of logical tuples that disappeared entirely.
    pub fn rollback_update(&mut self, update: UpdateId) -> Vec<TupleId> {
        self.store.rollback_update(update)
    }

    /// A read-only snapshot as seen by `reader` (visibility rule of §4.1).
    pub fn snapshot(&self, reader: UpdateId) -> Snapshot<'_> {
        Snapshot::new(self, reader)
    }

    /// Data of a tuple as visible to `reader`.
    pub fn visible(
        &self,
        relation: RelationId,
        tuple: TupleId,
        reader: UpdateId,
    ) -> Option<TupleData> {
        self.store.visible(relation, tuple, reader)
    }

    /// The relation a tuple id belongs to (regardless of visibility).
    pub fn tuple_relation(&self, tuple: TupleId) -> Option<RelationId> {
        self.store.tuple_relation(tuple)
    }

    /// The write epoch of a relation (see [`VersionStore::relation_epoch`]):
    /// bumped on every mutation of the relation, so "has anything I read
    /// changed?" is one integer compare per relation.
    pub fn relation_epoch(&self, relation: RelationId) -> u64 {
        self.store.relation_epoch(relation)
    }

    /// All tuples of `relation` visible to `reader`.
    pub fn scan(&self, relation: RelationId, reader: UpdateId) -> Vec<(TupleId, TupleData)> {
        self.store.scan(relation, reader)
    }

    /// Tuples of `relation` visible to `reader` with `value` at `column`.
    pub fn candidates(
        &self,
        relation: RelationId,
        column: usize,
        value: Value,
        reader: UpdateId,
    ) -> Vec<(TupleId, TupleData)> {
        self.store.candidates(relation, column, value, reader)
    }

    /// Tuples (across all relations) visible to `reader` that contain the
    /// labeled null `null`. This is the *correction query* "find all other
    /// tuples in the database containing x" of Section 4.2.
    pub fn null_occurrences(
        &self,
        null: NullId,
        reader: UpdateId,
    ) -> Vec<(RelationId, TupleId, TupleData)> {
        self.store.null_occurrences(null, reader)
    }

    /// Number of tuples of `relation` visible to `reader`.
    pub fn visible_count(&self, relation: RelationId, reader: UpdateId) -> usize {
        self.store.visible_count(relation, reader)
    }

    /// Total number of visible tuples across all relations.
    pub fn total_visible(&self, reader: UpdateId) -> usize {
        self.store.total_visible(reader)
    }

    /// The full version chain of a tuple (diagnostics and tests).
    pub fn version_chain(&self, relation: RelationId, tuple: TupleId) -> Option<&VersionChain> {
        self.store.version_chain(relation, tuple)
    }

    /// Convenience: insert a tuple of constants by relation *name* on behalf of
    /// `writer`. Panics on unknown relation names — intended for examples and
    /// tests.
    pub fn insert_by_name(&mut self, relation: &str, values: &[&str], writer: UpdateId) -> TupleId {
        let rel =
            self.relation_id(relation).unwrap_or_else(|| panic!("unknown relation {relation}"));
        let write = Write::Insert {
            relation: rel,
            values: values.iter().map(|v| Value::constant(v)).collect(),
        };
        match self.apply(&write, writer).expect("insert failed")[..] {
            [TupleChange::Inserted { tuple, .. }] => tuple,
            _ => unreachable!("insert produces exactly one change"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::value::Value as V;

    fn db_one_relation(arity: usize) -> (Database, RelationId) {
        let mut db = Database::new();
        let attrs: Vec<String> = (0..arity).map(|i| format!("a{i}")).collect();
        let r = db.add_relation("R", attrs).unwrap();
        (db, r)
    }

    #[test]
    fn insert_and_scan() {
        let (mut db, r) = db_one_relation(2);
        let w = Write::Insert { relation: r, values: vec![V::constant("a"), V::constant("b")] };
        let changes = db.apply(&w, UpdateId(1)).unwrap();
        assert_eq!(changes.len(), 1);
        assert_eq!(db.total_visible(UpdateId::OMNISCIENT), 1);
        assert_eq!(db.scan(r, UpdateId::OMNISCIENT).len(), 1);
        assert_eq!(db.visible_count(r, UpdateId(0)), 0, "not visible to lower-numbered readers");
    }

    #[test]
    fn arity_mismatch_rejected() {
        let (mut db, r) = db_one_relation(2);
        let w = Write::Insert { relation: r, values: vec![V::constant("a")] };
        assert!(matches!(db.apply(&w, UpdateId(1)), Err(StorageError::ArityMismatch { .. })));
    }

    #[test]
    fn delete_is_visible_only_to_later_updates() {
        let (mut db, r) = db_one_relation(1);
        let t = db.insert_by_name("R", &["a"], UpdateId(1));
        let changes = db.apply(&Write::Delete { relation: r, tuple: t }, UpdateId(3)).unwrap();
        assert_eq!(changes.len(), 1);
        assert!(db.visible(r, t, UpdateId(2)).is_some());
        assert!(db.visible(r, t, UpdateId(3)).is_none());
    }

    #[test]
    fn deleting_invisible_tuple_is_noop() {
        let (mut db, r) = db_one_relation(1);
        let t = db.insert_by_name("R", &["a"], UpdateId(5));
        // Writer 2 cannot see the tuple yet: the delete is a no-op.
        let changes = db.apply(&Write::Delete { relation: r, tuple: t }, UpdateId(2)).unwrap();
        assert!(changes.is_empty());
        // Deleting an unknown id is also a no-op.
        let changes =
            db.apply(&Write::Delete { relation: r, tuple: TupleId(999) }, UpdateId(2)).unwrap();
        assert!(changes.is_empty());
    }

    #[test]
    fn null_replacement_rewrites_all_occurrences() {
        let (mut db, r) = db_one_relation(2);
        let x = db.fresh_null();
        db.apply(
            &Write::Insert { relation: r, values: vec![V::Null(x), V::constant("k")] },
            UpdateId(1),
        )
        .unwrap();
        db.apply(
            &Write::Insert { relation: r, values: vec![V::constant("z"), V::Null(x)] },
            UpdateId(1),
        )
        .unwrap();

        let changes = db
            .apply(&Write::NullReplace { null: x, replacement: V::constant("NYC") }, UpdateId(1))
            .unwrap();
        assert_eq!(changes.len(), 2);
        for (_, data) in db.scan(r, UpdateId::OMNISCIENT) {
            assert!(data.iter().all(|v| v.is_const()));
        }
        assert!(db.null_occurrences(x, UpdateId::OMNISCIENT).is_empty());
    }

    #[test]
    fn null_replacement_with_another_null_unifies() {
        let (mut db, r) = db_one_relation(1);
        let x = db.fresh_null();
        let y = db.fresh_null();
        db.apply(&Write::Insert { relation: r, values: vec![V::Null(x)] }, UpdateId(1)).unwrap();
        db.apply(&Write::NullReplace { null: x, replacement: V::Null(y) }, UpdateId(1)).unwrap();
        let occ = db.null_occurrences(y, UpdateId::OMNISCIENT);
        assert_eq!(occ.len(), 1);
        assert!(db.null_occurrences(x, UpdateId::OMNISCIENT).is_empty());
    }

    #[test]
    fn null_occurrence_query_respects_visibility() {
        let (mut db, r) = db_one_relation(1);
        let x = db.fresh_null();
        db.apply(&Write::Insert { relation: r, values: vec![V::Null(x)] }, UpdateId(7)).unwrap();
        assert!(db.null_occurrences(x, UpdateId(3)).is_empty());
        assert_eq!(db.null_occurrences(x, UpdateId(7)).len(), 1);
    }

    #[test]
    fn rollback_removes_an_updates_writes() {
        let (mut db, r) = db_one_relation(1);
        let t1 = db.insert_by_name("R", &["keep"], UpdateId(1));
        let t2 = db.insert_by_name("R", &["mine"], UpdateId(4));
        db.apply(&Write::Delete { relation: r, tuple: t1 }, UpdateId(4)).unwrap();
        assert!(db.visible(r, t1, UpdateId(9)).is_none());

        let vanished = db.rollback_update(UpdateId(4));
        assert_eq!(vanished, vec![t2]);
        assert!(db.visible(r, t1, UpdateId(9)).is_some(), "delete rolled back");
        assert!(db.visible(r, t2, UpdateId(9)).is_none(), "insert rolled back");
        assert!(db.tuple_relation(t2).is_none());
    }

    #[test]
    fn fresh_nulls_are_unique() {
        let (db, _) = db_one_relation(1);
        let a = db.fresh_null();
        let b = db.fresh_null();
        assert_ne!(a, b);
        assert_eq!(db.null_counter(), 2);
    }

    #[test]
    fn candidates_lookup() {
        let (mut db, r) = db_one_relation(2);
        db.insert_by_name("R", &["a", "b"], UpdateId(1));
        db.insert_by_name("R", &["a", "c"], UpdateId(1));
        db.insert_by_name("R", &["d", "c"], UpdateId(1));
        assert_eq!(db.candidates(r, 0, V::constant("a"), UpdateId::OMNISCIENT).len(), 2);
        assert_eq!(db.candidates(r, 1, V::constant("c"), UpdateId::OMNISCIENT).len(), 2);
        assert_eq!(db.candidates(r, 1, V::constant("b"), UpdateId::OMNISCIENT).len(), 1);
    }

    #[test]
    fn apply_all_stamps_sequences() {
        let (mut db, r) = db_one_relation(1);
        let writes = vec![
            Write::Insert { relation: r, values: vec![V::constant("a")] },
            Write::Insert { relation: r, values: vec![V::constant("b")] },
        ];
        let applied = db.apply_all(&writes, UpdateId(2)).unwrap();
        assert_eq!(applied.len(), 2);
        assert!(applied[0].seq < applied[1].seq);
        assert_eq!(applied[0].update, UpdateId(2));
        assert_eq!(applied[1].changes.len(), 1);
    }

    #[test]
    fn apply_all_owned_matches_borrowed_apply_all() {
        let (mut db_a, r) = db_one_relation(1);
        let mut db_b = db_a.clone();
        let writes = vec![
            Write::Insert { relation: r, values: vec![V::constant("a")] },
            Write::Insert { relation: r, values: vec![V::constant("b")] },
        ];
        let borrowed = db_a.apply_all(&writes, UpdateId(2)).unwrap();
        let owned = db_b.apply_all_owned(writes, UpdateId(2)).unwrap();
        assert_eq!(borrowed.len(), owned.len());
        for (x, y) in borrowed.iter().zip(owned.iter()) {
            assert_eq!(x.seq, y.seq);
            assert_eq!(x.write, y.write);
            assert_eq!(x.changes.len(), y.changes.len());
        }
        assert_eq!(
            db_a.scan(r, UpdateId::OMNISCIENT),
            db_b.scan(r, UpdateId::OMNISCIENT),
            "both entry points must produce identical states"
        );
    }

    #[test]
    fn relation_epochs_track_writes_per_relation() {
        let mut db = Database::new();
        let r = db.add_relation("R", ["a", "b"]).unwrap();
        let s = db.add_relation("S", ["a"]).unwrap();
        assert_eq!(db.relation_epoch(r), 0);
        assert_eq!(db.relation_epoch(s), 0);

        let x = db.fresh_null();
        db.apply(
            &Write::Insert { relation: r, values: vec![V::Null(x), V::constant("k")] },
            UpdateId(1),
        )
        .unwrap();
        db.apply(&Write::Insert { relation: s, values: vec![V::Null(x)] }, UpdateId(1)).unwrap();
        assert_eq!(db.relation_epoch(r), 1);
        assert_eq!(db.relation_epoch(s), 1);

        // A null-replacement rewrites tuples in both relations: both epochs move.
        db.apply(&Write::NullReplace { null: x, replacement: V::constant("v") }, UpdateId(1))
            .unwrap();
        assert_eq!(db.relation_epoch(r), 2);
        assert_eq!(db.relation_epoch(s), 2);

        // A no-op write (deleting an invisible tuple) moves nothing.
        db.apply(&Write::Delete { relation: s, tuple: TupleId(999) }, UpdateId(1)).unwrap();
        assert_eq!(db.relation_epoch(s), 2);

        // Rollback mutates exactly the relations the update touched.
        db.insert_by_name("S", &["w"], UpdateId(7));
        assert_eq!(db.relation_epoch(s), 3);
        db.rollback_update(UpdateId(7));
        assert_eq!(db.relation_epoch(s), 4);
        assert_eq!(db.relation_epoch(r), 2);
        // Unknown relations report epoch 0.
        assert_eq!(db.relation_epoch(RelationId(55)), 0);
    }

    #[test]
    fn unknown_relation_is_an_error() {
        let mut db = Database::new();
        let w = Write::Insert { relation: RelationId(3), values: vec![V::constant("a")] };
        assert!(matches!(db.apply(&w, UpdateId(0)), Err(StorageError::UnknownRelation(_))));
        assert!(db.scan(RelationId(3), UpdateId(0)).is_empty());
        assert!(db.version_store().relation(RelationId(3)).is_none());
        assert_eq!(db.version_store().relation_count(), 0);
    }
}
