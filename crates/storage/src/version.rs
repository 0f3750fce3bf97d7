//! Multiversion tuple storage (Section 4.1 of the paper).
//!
//! For each tuple the database maintains multiple versions; a version is
//! created whenever the tuple is inserted, modified through a
//! null-replacement, or deleted. The *visible* version of a tuple for an
//! update with priority number `j` is the one created by the highest-numbered
//! update with number ≤ `j` (and, among that update's own writes, the latest
//! one).

use std::fmt;

use crate::schema::RelationId;
use crate::tuple::{TupleData, TupleId};
use crate::value::{NullId, Value};

/// Priority number of a Youtopia update (Section 3): a lower number means a
/// higher priority, and serializability is defined with respect to this order.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct UpdateId(pub u64);

impl UpdateId {
    /// A reader id that sees every committed version (used by single-threaded
    /// update exchange and by test assertions).
    pub const OMNISCIENT: UpdateId = UpdateId(u64::MAX);
}

impl fmt::Debug for UpdateId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if *self == UpdateId::OMNISCIENT {
            write!(f, "u∞")
        } else {
            write!(f, "u{}", self.0)
        }
    }
}

impl fmt::Display for UpdateId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{self:?}")
    }
}

/// One version of a logical tuple.
#[derive(Clone, Debug)]
pub struct TupleVersion {
    /// Update that created the version.
    pub update: UpdateId,
    /// Database-global sequence number; orders versions created by the same
    /// update.
    pub seq: u64,
    /// Tuple data; `None` marks a deletion version (tombstone).
    pub data: Option<TupleData>,
}

/// The version chain of one logical tuple.
#[derive(Clone, Debug, Default)]
pub struct VersionChain {
    versions: Vec<TupleVersion>,
}

impl VersionChain {
    /// Creates a chain containing a single initial version.
    pub fn new(initial: TupleVersion) -> VersionChain {
        VersionChain { versions: vec![initial] }
    }

    /// A chain of decoded `versions`, oldest first (snapshot restore).
    pub(crate) fn from_versions(versions: Vec<TupleVersion>) -> VersionChain {
        debug_assert!(!versions.is_empty(), "a chain holds at least one version");
        VersionChain { versions }
    }

    /// Appends a version to the chain.
    pub fn push(&mut self, version: TupleVersion) {
        self.versions.push(version);
    }

    /// Returns the version visible to `reader`: the maximum by
    /// `(update, seq)` among versions created by updates with number ≤
    /// `reader`.
    pub fn visible(&self, reader: UpdateId) -> Option<&TupleVersion> {
        self.versions.iter().filter(|v| v.update <= reader).max_by_key(|v| (v.update, v.seq))
    }

    /// Returns the visible data (or `None` if the tuple is invisible or
    /// deleted for this reader).
    pub fn visible_data(&self, reader: UpdateId) -> Option<&TupleData> {
        self.visible(reader).and_then(|v| v.data.as_ref())
    }

    /// Removes every version created by `update`; returns `true` if the chain
    /// is now empty (the logical tuple never existed for anyone else).
    pub fn remove_versions_of(&mut self, update: UpdateId) -> bool {
        self.versions.retain(|v| v.update != update);
        self.versions.is_empty()
    }

    /// Whether any version was created by `update`.
    pub fn written_by(&self, update: UpdateId) -> bool {
        self.versions.iter().any(|v| v.update == update)
    }

    /// All versions, oldest first in insertion order.
    pub fn versions(&self) -> &[TupleVersion] {
        &self.versions
    }
}

/// A logical write operation, as issued by a user or by a chase step.
///
/// These are the three database modification operations of Section 2 (tuple
/// insertion, tuple deletion, null-replacement), which are also the only write
/// kinds a chase step may perform (Algorithm 2).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Write {
    /// Insert a new tuple.
    Insert {
        /// Target relation.
        relation: RelationId,
        /// Attribute values (may contain labeled nulls).
        values: Vec<Value>,
    },
    /// Delete an existing tuple.
    Delete {
        /// Relation the tuple belongs to.
        relation: RelationId,
        /// The tuple to delete.
        tuple: TupleId,
    },
    /// Replace **all** occurrences of a labeled null with another value
    /// (a constant, or another labeled null when performing unification).
    NullReplace {
        /// The labeled null being eliminated.
        null: NullId,
        /// Its replacement.
        replacement: Value,
    },
}

impl Write {
    /// Short human-readable description used in logs and examples.
    pub fn describe(&self) -> String {
        match self {
            Write::Insert { relation, values } => format!("insert {relation}{values:?}"),
            Write::Delete { relation, tuple } => format!("delete {relation}/{tuple}"),
            Write::NullReplace { null, replacement } => {
                format!("replace {null} with {replacement}")
            }
        }
    }
}

/// The concrete effect a [`Write`] had on one tuple.
///
/// Conflict detection treats a modification conservatively as a delete
/// followed by an insert (Section 5), which is why both the old and the new
/// data are recorded.
#[derive(Clone, Debug)]
pub enum TupleChange {
    /// A new tuple appeared.
    Inserted {
        /// Relation of the new tuple.
        relation: RelationId,
        /// Its id.
        tuple: TupleId,
        /// Its values.
        values: TupleData,
    },
    /// An existing tuple disappeared.
    Deleted {
        /// Relation of the deleted tuple.
        relation: RelationId,
        /// Its id.
        tuple: TupleId,
        /// The data it had before deletion (as seen by the writer).
        old: TupleData,
    },
    /// An existing tuple changed its values (null-replacement).
    Modified {
        /// Relation of the modified tuple.
        relation: RelationId,
        /// Its id.
        tuple: TupleId,
        /// Data before the modification.
        old: TupleData,
        /// Data after the modification.
        new: TupleData,
    },
}

impl TupleChange {
    /// Relation affected by the change.
    pub fn relation(&self) -> RelationId {
        match self {
            TupleChange::Inserted { relation, .. }
            | TupleChange::Deleted { relation, .. }
            | TupleChange::Modified { relation, .. } => *relation,
        }
    }

    /// Tuple affected by the change.
    pub fn tuple(&self) -> TupleId {
        match self {
            TupleChange::Inserted { tuple, .. }
            | TupleChange::Deleted { tuple, .. }
            | TupleChange::Modified { tuple, .. } => *tuple,
        }
    }

    /// The tuple image that *appeared* through this change (the inserted
    /// values, or the post-modification values), if any. Appearing images seed
    /// LHS violation queries; a modification is conservatively treated as a
    /// delete followed by an insert (Section 5).
    pub fn appeared(&self) -> Option<&TupleData> {
        match self {
            TupleChange::Inserted { values, .. } => Some(values),
            TupleChange::Modified { new, .. } => Some(new),
            TupleChange::Deleted { .. } => None,
        }
    }

    /// The tuple image that *vanished* through this change (the deleted
    /// values, or the pre-modification values), if any. Vanishing images seed
    /// RHS violation queries.
    pub fn vanished(&self) -> Option<&TupleData> {
        match self {
            TupleChange::Deleted { old, .. } => Some(old),
            TupleChange::Modified { old, .. } => Some(old),
            TupleChange::Inserted { .. } => None,
        }
    }
}

/// A write together with the changes it caused, stamped with the writer and a
/// global sequence number. This is the unit logged by the concurrency layer.
#[derive(Clone, Debug)]
pub struct AppliedWrite {
    /// Update that performed the write.
    pub update: UpdateId,
    /// Global sequence number of the write.
    pub seq: u64,
    /// The logical write.
    pub write: Write,
    /// Per-tuple effects (empty if the write was a no-op).
    pub changes: Vec<TupleChange>,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::value::Value as V;

    fn data(vals: &[&str]) -> TupleData {
        vals.iter().map(|s| V::constant(s)).collect::<Vec<_>>().into()
    }

    #[test]
    fn visibility_respects_update_numbers() {
        let mut chain = VersionChain::new(TupleVersion {
            update: UpdateId(5),
            seq: 10,
            data: Some(data(&["a"])),
        });
        chain.push(TupleVersion { update: UpdateId(3), seq: 20, data: Some(data(&["b"])) });

        // Reader 2 sees nothing (no version from update <= 2).
        assert!(chain.visible(UpdateId(2)).is_none());
        // Reader 3 and 4 see update 3's version even though update 5 wrote
        // physically earlier.
        assert_eq!(chain.visible_data(UpdateId(3)).unwrap(), &data(&["b"]));
        assert_eq!(chain.visible_data(UpdateId(4)).unwrap(), &data(&["b"]));
        // Reader 5+ sees update 5's version: serial order by update number.
        assert_eq!(chain.visible_data(UpdateId(5)).unwrap(), &data(&["a"]));
        assert_eq!(chain.visible_data(UpdateId::OMNISCIENT).unwrap(), &data(&["a"]));
    }

    #[test]
    fn same_update_later_seq_wins() {
        let mut chain = VersionChain::new(TupleVersion {
            update: UpdateId(1),
            seq: 1,
            data: Some(data(&["old"])),
        });
        chain.push(TupleVersion { update: UpdateId(1), seq: 2, data: Some(data(&["new"])) });
        assert_eq!(chain.visible_data(UpdateId(1)).unwrap(), &data(&["new"]));
    }

    #[test]
    fn tombstone_hides_tuple() {
        let mut chain = VersionChain::new(TupleVersion {
            update: UpdateId(1),
            seq: 1,
            data: Some(data(&["a"])),
        });
        chain.push(TupleVersion { update: UpdateId(2), seq: 2, data: None });
        assert!(chain.visible_data(UpdateId(2)).is_none());
        // Lower-numbered readers still see the old version.
        assert!(chain.visible_data(UpdateId(1)).is_some());
    }

    #[test]
    fn removing_versions_of_an_update() {
        let mut chain = VersionChain::new(TupleVersion {
            update: UpdateId(1),
            seq: 1,
            data: Some(data(&["a"])),
        });
        chain.push(TupleVersion { update: UpdateId(2), seq: 2, data: None });
        assert!(chain.written_by(UpdateId(2)));
        let empty = chain.remove_versions_of(UpdateId(2));
        assert!(!empty);
        assert!(!chain.written_by(UpdateId(2)));
        assert!(chain.visible_data(UpdateId(5)).is_some());
        let empty = chain.remove_versions_of(UpdateId(1));
        assert!(empty);
    }

    #[test]
    fn write_descriptions() {
        let w = Write::Insert { relation: RelationId(0), values: vec![V::constant("a")] };
        assert!(w.describe().contains("insert"));
        let w = Write::Delete { relation: RelationId(0), tuple: TupleId(3) };
        assert!(w.describe().contains("delete"));
        let w = Write::NullReplace { null: NullId(1), replacement: V::constant("c") };
        assert!(w.describe().contains("replace"));
    }

    #[test]
    fn tuple_change_accessors() {
        let ch = TupleChange::Modified {
            relation: RelationId(4),
            tuple: TupleId(9),
            old: data(&["a"]),
            new: data(&["b"]),
        };
        assert_eq!(ch.relation(), RelationId(4));
        assert_eq!(ch.tuple(), TupleId(9));
        assert_eq!(ch.appeared(), Some(&data(&["b"])));
        assert_eq!(ch.vanished(), Some(&data(&["a"])));

        let ins = TupleChange::Inserted {
            relation: RelationId(0),
            tuple: TupleId(1),
            values: data(&["v"]),
        };
        assert_eq!(ins.appeared(), Some(&data(&["v"])));
        assert_eq!(ins.vanished(), None);
        let del =
            TupleChange::Deleted { relation: RelationId(0), tuple: TupleId(1), old: data(&["v"]) };
        assert_eq!(del.appeared(), None);
        assert_eq!(del.vanished(), Some(&data(&["v"])));
    }

    #[test]
    fn update_id_display() {
        assert_eq!(format!("{}", UpdateId(3)), "u3");
        assert_eq!(format!("{}", UpdateId::OMNISCIENT), "u∞");
    }
}
