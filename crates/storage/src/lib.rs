//! # youtopia-storage
//!
//! The relational storage substrate of the Youtopia reproduction
//! (*Cooperative Update Exchange in the Youtopia System*, VLDB 2009).
//!
//! The crate provides:
//!
//! * [`Value`]s that are either interned constants or **labeled nulls**
//!   ([`NullId`]) — the incomplete-information values central to the paper;
//! * the **specificity relation** on tuples (Definition 2.4), in [`mod@tuple`];
//! * a multiversion, in-memory [`Database`] whose tuple versions are stamped
//!   with update priority numbers and read through visibility-filtered
//!   [`Snapshot`]s (Section 4.1);
//! * the three write kinds of the paper — insert, delete, and global
//!   null-replacement ([`Write`]);
//! * a conjunctive-query engine ([`query`]) used for violation and correction
//!   queries, plus [`OverlaySnapshot`] for *what-if* evaluation of a single
//!   write (used by conflict detection and the `PRECISE` tracker).
//!
//! Higher layers: `youtopia-mappings` (tgds and violations), `youtopia-core`
//! (the cooperative chase) and `youtopia-concurrency` (optimistic concurrency
//! control).
//!
//! ```
//! use youtopia_storage::{Database, UpdateId, Value, Write};
//!
//! let mut db = Database::new();
//! let city = db.add_relation("City", ["city"]).unwrap();
//! db.apply(
//!     &Write::Insert { relation: city, values: vec![Value::constant("Ithaca")] },
//!     UpdateId(1),
//! )
//! .unwrap();
//! assert_eq!(db.visible_count(city, UpdateId::OMNISCIENT), 1);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod database;
pub mod error;
mod fxhash;
pub mod query;
pub mod relation;
pub mod schema;
pub mod snapshot;
pub mod store;
pub mod tuple;
pub mod value;
pub mod version;
pub mod wal;

pub use database::Database;
pub use error::StorageError;
pub use query::{
    evaluate, probe_smallest, restrict, satisfiable, variables_of, Atom, Bindings, QueryMatch, Term,
};
pub use relation::RelationStore;
pub use schema::{Catalog, RelationId, RelationSchema};
pub use snapshot::{DataView, OverlaySnapshot, Snapshot, TupleOverride};
pub use store::VersionStore;
pub use tuple::{
    contains_null, is_more_specific, nulls_of, specialization, specificity_equivalent,
    substitute_nulls, Tuple, TupleData, TupleId,
};
pub use value::{NullId, Symbol, Value};
pub use version::{AppliedWrite, TupleChange, TupleVersion, UpdateId, VersionChain, Write};
pub use wal::{
    crc32, deserialize_database, read_wal, serialize_database, write_file_atomic, ByteReader,
    ByteWriter, Fnv64, WalContents, WalError, WalWriter,
};
