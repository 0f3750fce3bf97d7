//! Read-only views over the database: snapshots and overlays.
//!
//! The chase and the concurrency layer never read the [`crate::Database`]
//! directly; they read through a [`DataView`]. Two implementations exist:
//!
//! * [`Snapshot`] — the database as visible to one update (Section 4.1
//!   visibility).
//! * [`OverlaySnapshot`] — a snapshot with one tuple's presence or contents
//!   overridden. This is how conflict detection and the `PRECISE` dependency
//!   tracker answer the question *"would this read query's answer differ if a
//!   particular write had / had not happened?"* without copying the database.

use std::collections::HashMap;

use crate::database::Database;
use crate::schema::{Catalog, RelationId};
use crate::tuple::{TupleData, TupleId};
use crate::value::{NullId, Value};
use crate::version::UpdateId;

/// A read-only, visibility-filtered view of the database.
pub trait DataView {
    /// The catalog.
    fn catalog(&self) -> &Catalog;

    /// Data of one tuple, if visible.
    fn tuple(&self, relation: RelationId, tuple: TupleId) -> Option<TupleData>;

    /// All visible tuples of a relation, in deterministic order.
    fn scan(&self, relation: RelationId) -> Vec<(TupleId, TupleData)>;

    /// Visible tuples of a relation whose value at `column` equals `value`.
    fn candidates(
        &self,
        relation: RelationId,
        column: usize,
        value: Value,
    ) -> Vec<(TupleId, TupleData)>;

    /// Visible tuples (across relations) containing a labeled null.
    fn null_occurrences(&self, null: NullId) -> Vec<(RelationId, TupleId, TupleData)>;

    /// Number of visible tuples in a relation (exact, so it may read every
    /// version chain; query planning uses [`DataView::size_estimate`]).
    fn relation_size(&self, relation: RelationId) -> usize {
        self.scan(relation).len()
    }

    /// An O(1), reader-independent upper bound on the rows a read returns,
    /// used to pick the cheapest access path: with `Some((column, value))`
    /// it bounds `candidates(relation, column, value)` (the column index's
    /// bucket length), with `None` it bounds `scan(relation)` (the logical
    /// tuple count). Only comparisons between estimates of one view matter.
    ///
    /// The default reads nothing and returns `0` for every probe, so every
    /// estimate ties and planners fall back to their first choice (the first
    /// bound column; among equally bound atoms, the first remaining one).
    fn size_estimate(&self, relation: RelationId, probe: Option<(usize, Value)>) -> usize {
        let _ = (relation, probe);
        0
    }
}

/// The database as seen by one reader (an update's priority number).
#[derive(Clone, Copy)]
pub struct Snapshot<'db> {
    db: &'db Database,
    reader: UpdateId,
}

impl<'db> Snapshot<'db> {
    /// Creates a snapshot for `reader`.
    pub fn new(db: &'db Database, reader: UpdateId) -> Snapshot<'db> {
        Snapshot { db, reader }
    }

    /// The reader's update number.
    pub fn reader(&self) -> UpdateId {
        self.reader
    }

    /// The underlying database.
    pub fn database(&self) -> &'db Database {
        self.db
    }
}

impl DataView for Snapshot<'_> {
    fn catalog(&self) -> &Catalog {
        self.db.catalog()
    }

    fn tuple(&self, relation: RelationId, tuple: TupleId) -> Option<TupleData> {
        self.db.visible(relation, tuple, self.reader)
    }

    fn scan(&self, relation: RelationId) -> Vec<(TupleId, TupleData)> {
        self.db.scan(relation, self.reader)
    }

    fn candidates(
        &self,
        relation: RelationId,
        column: usize,
        value: Value,
    ) -> Vec<(TupleId, TupleData)> {
        self.db.candidates(relation, column, value, self.reader)
    }

    fn null_occurrences(&self, null: NullId) -> Vec<(RelationId, TupleId, TupleData)> {
        self.db.null_occurrences(null, self.reader)
    }

    fn relation_size(&self, relation: RelationId) -> usize {
        self.db.visible_count(relation, self.reader)
    }

    fn size_estimate(&self, relation: RelationId, probe: Option<(usize, Value)>) -> usize {
        self.db.version_store().relation(relation).map_or(0, |s| s.size_estimate(probe))
    }
}

/// How an [`OverlaySnapshot`] overrides a single tuple.
#[derive(Clone, Debug)]
pub enum TupleOverride {
    /// Pretend the tuple is absent.
    Hide,
    /// Pretend the tuple is present with the given data (restoring a deleted
    /// tuple, or rolling a modification back to its previous contents).
    Present(TupleData),
}

/// A [`DataView`] that applies per-tuple overrides on top of another view.
pub struct OverlaySnapshot<'a, V: DataView + ?Sized> {
    base: &'a V,
    overrides: HashMap<TupleId, (RelationId, TupleOverride)>,
}

impl<'a, V: DataView + ?Sized> OverlaySnapshot<'a, V> {
    /// Creates an overlay with no overrides.
    pub fn new(base: &'a V) -> Self {
        OverlaySnapshot { base, overrides: HashMap::new() }
    }

    /// Hides a tuple.
    pub fn hide(mut self, relation: RelationId, tuple: TupleId) -> Self {
        self.overrides.insert(tuple, (relation, TupleOverride::Hide));
        self
    }

    /// Forces a tuple to be present with the given data.
    pub fn with_tuple(mut self, relation: RelationId, tuple: TupleId, data: TupleData) -> Self {
        self.overrides.insert(tuple, (relation, TupleOverride::Present(data)));
        self
    }

    fn overridden(&self, tuple: TupleId) -> Option<&(RelationId, TupleOverride)> {
        self.overrides.get(&tuple)
    }
}

impl<V: DataView + ?Sized> DataView for OverlaySnapshot<'_, V> {
    fn catalog(&self) -> &Catalog {
        self.base.catalog()
    }

    fn tuple(&self, relation: RelationId, tuple: TupleId) -> Option<TupleData> {
        if let Some((rel, ov)) = self.overridden(tuple) {
            if *rel == relation {
                return match ov {
                    TupleOverride::Hide => None,
                    TupleOverride::Present(data) => Some(data.clone()),
                };
            }
        }
        self.base.tuple(relation, tuple)
    }

    fn scan(&self, relation: RelationId) -> Vec<(TupleId, TupleData)> {
        let mut rows: Vec<(TupleId, TupleData)> = self
            .base
            .scan(relation)
            .into_iter()
            .filter(|(id, _)| !matches!(self.overridden(*id), Some((rel, TupleOverride::Hide)) if *rel == relation))
            .map(|(id, data)| match self.overridden(id) {
                Some((rel, TupleOverride::Present(d))) if *rel == relation => (id, d.clone()),
                _ => (id, data),
            })
            .collect();
        // Add overridden-present tuples the base does not show at all.
        for (id, (rel, ov)) in &self.overrides {
            if *rel == relation {
                if let TupleOverride::Present(data) = ov {
                    if self.base.tuple(relation, *id).is_none() {
                        rows.push((*id, data.clone()));
                    }
                }
            }
        }
        rows.sort_by_key(|(id, _)| *id);
        rows
    }

    fn candidates(
        &self,
        relation: RelationId,
        column: usize,
        value: Value,
    ) -> Vec<(TupleId, TupleData)> {
        let mut rows: Vec<(TupleId, TupleData)> = self
            .base
            .candidates(relation, column, value)
            .into_iter()
            .filter_map(|(id, data)| match self.overridden(id) {
                Some((rel, TupleOverride::Hide)) if *rel == relation => None,
                Some((rel, TupleOverride::Present(d))) if *rel == relation => {
                    if d.get(column) == Some(&value) {
                        Some((id, d.clone()))
                    } else {
                        None
                    }
                }
                _ => Some((id, data)),
            })
            .collect();
        for (id, (rel, ov)) in &self.overrides {
            if *rel == relation {
                if let TupleOverride::Present(data) = ov {
                    if data.get(column) == Some(&value) && !rows.iter().any(|(rid, _)| rid == id) {
                        rows.push((*id, data.clone()));
                    }
                }
            }
        }
        rows.sort_by_key(|(id, _)| *id);
        rows
    }

    fn null_occurrences(&self, null: NullId) -> Vec<(RelationId, TupleId, TupleData)> {
        let mut rows: Vec<(RelationId, TupleId, TupleData)> = self
            .base
            .null_occurrences(null)
            .into_iter()
            .filter_map(|(rel, id, data)| match self.overridden(id) {
                Some((orel, TupleOverride::Hide)) if *orel == rel => None,
                Some((orel, TupleOverride::Present(d))) if *orel == rel => {
                    if crate::tuple::contains_null(d, null) {
                        Some((rel, id, d.clone()))
                    } else {
                        None
                    }
                }
                _ => Some((rel, id, data)),
            })
            .collect();
        for (id, (rel, ov)) in &self.overrides {
            if let TupleOverride::Present(data) = ov {
                if crate::tuple::contains_null(data, null)
                    && !rows.iter().any(|(_, rid, _)| rid == id)
                {
                    rows.push((*rel, *id, data.clone()));
                }
            }
        }
        rows.sort_by_key(|(_, id, _)| *id);
        rows
    }

    fn size_estimate(&self, relation: RelationId, probe: Option<(usize, Value)>) -> usize {
        // Every override can add at most one row to any read.
        self.base.size_estimate(relation, probe) + self.overrides.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::value::Value as V;
    use crate::version::Write;

    fn setup() -> (Database, RelationId, TupleId, TupleId) {
        let mut db = Database::new();
        let r = db.add_relation("R", ["a", "b"]).unwrap();
        let t1 = db.insert_by_name("R", &["a", "b"], UpdateId(1));
        let t2 = db.insert_by_name("R", &["a", "c"], UpdateId(2));
        (db, r, t1, t2)
    }

    #[test]
    fn snapshot_respects_reader_visibility() {
        let (db, r, t1, t2) = setup();
        let s1 = db.snapshot(UpdateId(1));
        assert_eq!(s1.scan(r).len(), 1);
        assert!(s1.tuple(r, t1).is_some());
        assert!(s1.tuple(r, t2).is_none());
        assert_eq!(s1.relation_size(r), 1);

        let s2 = db.snapshot(UpdateId(2));
        assert_eq!(s2.scan(r).len(), 2);
        assert_eq!(s2.candidates(r, 0, V::constant("a")).len(), 2);
        assert_eq!(s2.reader(), UpdateId(2));
        assert_eq!(s2.database().total_visible(UpdateId(2)), 2);
    }

    #[test]
    fn overlay_hide_removes_tuple_from_all_access_paths() {
        let (db, r, t1, _) = setup();
        let snap = db.snapshot(UpdateId::OMNISCIENT);
        let overlay = OverlaySnapshot::new(&snap).hide(r, t1);
        assert!(overlay.tuple(r, t1).is_none());
        assert_eq!(overlay.scan(r).len(), 1);
        assert_eq!(overlay.candidates(r, 0, V::constant("a")).len(), 1);
        assert_eq!(overlay.relation_size(r), 1);
        assert_eq!(overlay.catalog().len(), 1);
    }

    #[test]
    fn overlay_present_restores_a_deleted_tuple() {
        let (mut db, r, t1, _) = setup();
        let old = db.visible(r, t1, UpdateId::OMNISCIENT).unwrap();
        db.apply(&Write::Delete { relation: r, tuple: t1 }, UpdateId(3)).unwrap();
        let snap = db.snapshot(UpdateId::OMNISCIENT);
        assert_eq!(snap.scan(r).len(), 1);

        let overlay = OverlaySnapshot::new(&snap).with_tuple(r, t1, old.clone());
        assert_eq!(overlay.scan(r).len(), 2);
        assert_eq!(overlay.tuple(r, t1), Some(old));
        assert_eq!(overlay.candidates(r, 1, V::constant("b")).len(), 1);
    }

    #[test]
    fn overlay_present_replaces_contents() {
        let (db, r, t1, _) = setup();
        let snap = db.snapshot(UpdateId::OMNISCIENT);
        let new: TupleData = vec![V::constant("z"), V::constant("b")].into();
        let overlay = OverlaySnapshot::new(&snap).with_tuple(r, t1, new.clone());
        assert_eq!(overlay.tuple(r, t1), Some(new));
        // Candidate lookup on the old value no longer returns t1.
        assert!(overlay.candidates(r, 0, V::constant("a")).iter().all(|(id, _)| *id != t1));
        assert!(overlay.candidates(r, 0, V::constant("z")).iter().any(|(id, _)| *id == t1));
    }

    #[test]
    fn size_estimates_bound_reads_and_overlays_add_their_overrides() {
        let (db, r, t1, t2) = setup();
        let a = V::constant("a");
        let snap = db.snapshot(UpdateId(1));
        // Reader-independent: reader 1 sees one row, the estimate counts two.
        assert_eq!(snap.size_estimate(r, None), 2);
        assert_eq!(snap.size_estimate(r, Some((0, a))), 2);
        assert_eq!(snap.size_estimate(r, Some((1, V::constant("b")))), 1);
        assert_eq!(snap.size_estimate(r, Some((1, V::constant("zzz")))), 0);
        assert_eq!(snap.size_estimate(RelationId(9), None), 0);

        let z: TupleData = vec![V::constant("z"), V::constant("z")].into();
        let overlay = OverlaySnapshot::new(&snap).hide(r, t1).with_tuple(r, t2, z);
        assert_eq!(overlay.size_estimate(r, None), 4);
        assert_eq!(overlay.size_estimate(r, Some((0, V::constant("z")))), 2);
        assert!(overlay.candidates(r, 0, V::constant("z")).len() <= 2);

        // The trait default reads nothing and ties every probe.
        struct Empty(Catalog);
        impl DataView for Empty {
            fn catalog(&self) -> &Catalog {
                &self.0
            }
            fn tuple(&self, _: RelationId, _: TupleId) -> Option<TupleData> {
                unreachable!("size_estimate must not read")
            }
            fn scan(&self, _: RelationId) -> Vec<(TupleId, TupleData)> {
                unreachable!("size_estimate must not read")
            }
            fn candidates(&self, _: RelationId, _: usize, _: Value) -> Vec<(TupleId, TupleData)> {
                unreachable!("size_estimate must not read")
            }
            fn null_occurrences(&self, _: NullId) -> Vec<(RelationId, TupleId, TupleData)> {
                unreachable!("size_estimate must not read")
            }
        }
        let empty = Empty(db.catalog().clone());
        assert_eq!(empty.size_estimate(r, None), 0);
        assert_eq!(empty.size_estimate(r, Some((0, a))), 0);
    }

    #[test]
    fn overlay_null_occurrences() {
        let mut db = Database::new();
        let r = db.add_relation("R", ["a"]).unwrap();
        let x = db.fresh_null();
        let changes = db
            .apply(&Write::Insert { relation: r, values: vec![V::Null(x)] }, UpdateId(1))
            .unwrap();
        let tid = changes[0].tuple();
        let snap = db.snapshot(UpdateId::OMNISCIENT);
        assert_eq!(snap.null_occurrences(x).len(), 1);
        let overlay = OverlaySnapshot::new(&snap).hide(r, tid);
        assert!(overlay.null_occurrences(x).is_empty());
        // Overlay that rewrites the null away also drops the occurrence.
        let overlay = OverlaySnapshot::new(&snap).with_tuple(r, tid, vec![V::constant("c")].into());
        assert!(overlay.null_occurrences(x).is_empty());
    }
}
