//! Values stored in a Youtopia repository.
//!
//! A Youtopia database contains two kinds of values (Section 2 of the paper):
//!
//! * **constants**, which we intern into cheap [`Symbol`] handles, and
//! * **labeled nulls** (also called *variables* in the paper), identified by a
//!   [`NullId`]. A labeled null stands for a value that is known to exist but
//!   is not yet known to the system; all occurrences of the same labeled null
//!   denote the same (unknown) value, which is what makes *null-replacement*
//!   a global operation.

use std::collections::HashMap;
use std::fmt;
use std::sync::{Arc, OnceLock, RwLock, RwLockReadGuard};

/// An interned constant string.
///
/// Symbols are process-global: two [`Symbol`]s are equal iff they intern the
/// same string, so equality and hashing are O(1) integer operations. The
/// global table only grows; this is acceptable because the set of constants in
/// a repository (and in the synthetic workloads of Section 6) is small.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Symbol(u32);

struct Interner {
    names: Vec<Arc<str>>,
    map: HashMap<Arc<str>, u32>,
}

impl Interner {
    fn new() -> Self {
        Interner { names: Vec::new(), map: HashMap::new() }
    }

    fn intern(&mut self, s: &str) -> u32 {
        if let Some(&id) = self.map.get(s) {
            return id;
        }
        let id = self.names.len() as u32;
        let arc: Arc<str> = Arc::from(s);
        self.names.push(arc.clone());
        self.map.insert(arc, id);
        id
    }

    fn resolve(&self, id: u32) -> Arc<str> {
        self.names[id as usize].clone()
    }
}

fn global_interner() -> &'static RwLock<Interner> {
    static INTERNER: OnceLock<RwLock<Interner>> = OnceLock::new();
    INTERNER.get_or_init(|| RwLock::new(Interner::new()))
}

impl Symbol {
    /// Interns `s` and returns its symbol.
    pub fn intern(s: &str) -> Symbol {
        // Fast path: read lock only.
        {
            let guard = global_interner().read().expect("interner poisoned");
            if let Some(&id) = guard.map.get(s) {
                return Symbol(id);
            }
        }
        let mut guard = global_interner().write().expect("interner poisoned");
        Symbol(guard.intern(s))
    }

    /// Returns the interned string.
    pub fn as_str(&self) -> Arc<str> {
        global_interner().read().expect("interner poisoned").resolve(self.0)
    }

    /// Raw numeric id, useful for dense side tables.
    pub fn raw(&self) -> u32 {
        self.0
    }
}

/// One interner read guard held across a whole snapshot encode or decode, so
/// a database's constants cost a hash lookup or an index each instead of a
/// lock round-trip each.
///
/// While a `SymbolTable` is alive its thread must not touch the interner any
/// other way — no [`Symbol::intern`], [`Symbol::as_str`] or `Debug`/`Display`
/// of a [`Symbol`] or [`Value`]: a second read lock taken while a writer is
/// queued deadlocks std's `RwLock`.
pub(crate) struct SymbolTable {
    /// `None` only inside [`SymbolTable::intern`]'s miss path.
    guard: Option<RwLockReadGuard<'static, Interner>>,
}

impl SymbolTable {
    /// Takes the interner's read guard.
    pub(crate) fn lock() -> SymbolTable {
        SymbolTable { guard: Some(Self::read()) }
    }

    fn read() -> RwLockReadGuard<'static, Interner> {
        global_interner().read().expect("interner poisoned")
    }

    fn interner(&self) -> &Interner {
        self.guard.as_ref().expect("the guard is only released inside intern")
    }

    /// The symbol of `s`. A hit costs one lookup under the held guard. A miss
    /// releases the guard, interns under the write lock and takes the guard
    /// again.
    pub(crate) fn intern(&mut self, s: &str) -> Symbol {
        if let Some(&id) = self.interner().map.get(s) {
            return Symbol(id);
        }
        self.guard = None;
        let id = global_interner().write().expect("interner poisoned").intern(s);
        self.guard = Some(Self::read());
        Symbol(id)
    }

    /// The string `symbol` interns, borrowed from the held guard.
    pub(crate) fn name(&self, symbol: Symbol) -> &str {
        &self.interner().names[symbol.0 as usize]
    }
}

impl fmt::Debug for Symbol {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:?}", &*self.as_str())
    }
}

impl fmt::Display for Symbol {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", &*self.as_str())
    }
}

impl From<&str> for Symbol {
    fn from(s: &str) -> Self {
        Symbol::intern(s)
    }
}

impl From<String> for Symbol {
    fn from(s: String) -> Self {
        Symbol::intern(&s)
    }
}

/// Identifier of a labeled null ("variable" in the paper, e.g. `x1`, `x2`).
///
/// Labeled nulls are allocated by [`crate::Database::fresh_null`]; ids are
/// unique within a database instance.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NullId(pub u64);

impl fmt::Debug for NullId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "x{}", self.0)
    }
}

impl fmt::Display for NullId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "x{}", self.0)
    }
}

/// A value stored in a tuple: either an (interned) constant or a labeled null.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Value {
    /// A known constant.
    Const(Symbol),
    /// A labeled null: a value known to exist but not yet known to the system.
    Null(NullId),
}

impl Value {
    /// Convenience constructor interning `s` as a constant.
    pub fn constant(s: &str) -> Value {
        Value::Const(Symbol::intern(s))
    }

    /// Returns `true` if this value is a constant.
    pub fn is_const(&self) -> bool {
        matches!(self, Value::Const(_))
    }

    /// Returns `true` if this value is a labeled null.
    pub fn is_null(&self) -> bool {
        matches!(self, Value::Null(_))
    }

    /// Returns the null id if this value is a labeled null.
    pub fn as_null(&self) -> Option<NullId> {
        match self {
            Value::Null(n) => Some(*n),
            Value::Const(_) => None,
        }
    }

    /// Returns the constant symbol if this value is a constant.
    pub fn as_const(&self) -> Option<Symbol> {
        match self {
            Value::Const(c) => Some(*c),
            Value::Null(_) => None,
        }
    }
}

impl fmt::Debug for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Const(c) => write!(f, "{c}"),
            Value::Null(n) => write!(f, "{n}"),
        }
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Const(c) => write!(f, "{c}"),
            Value::Null(n) => write!(f, "{n}"),
        }
    }
}

impl From<&str> for Value {
    fn from(s: &str) -> Self {
        Value::constant(s)
    }
}

impl From<Symbol> for Value {
    fn from(s: Symbol) -> Self {
        Value::Const(s)
    }
}

impl From<NullId> for Value {
    fn from(n: NullId) -> Self {
        Value::Null(n)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interning_is_idempotent() {
        let a = Symbol::intern("Ithaca");
        let b = Symbol::intern("Ithaca");
        assert_eq!(a, b);
        assert_eq!(&*a.as_str(), "Ithaca");
    }

    #[test]
    fn distinct_strings_get_distinct_symbols() {
        let a = Symbol::intern("Ithaca");
        let b = Symbol::intern("Syracuse");
        assert_ne!(a, b);
        assert_eq!(&*b.as_str(), "Syracuse");
    }

    #[test]
    fn value_constructors_and_accessors() {
        let c = Value::constant("XYZ");
        assert!(c.is_const());
        assert!(!c.is_null());
        assert_eq!(c.as_const(), Some(Symbol::intern("XYZ")));
        assert_eq!(c.as_null(), None);

        let n = Value::Null(NullId(7));
        assert!(n.is_null());
        assert_eq!(n.as_null(), Some(NullId(7)));
        assert_eq!(n.as_const(), None);
    }

    #[test]
    fn value_equality_distinguishes_nulls_from_constants() {
        assert_ne!(Value::constant("x1"), Value::Null(NullId(1)));
        assert_ne!(Value::Null(NullId(1)), Value::Null(NullId(2)));
        assert_eq!(Value::Null(NullId(3)), Value::Null(NullId(3)));
    }

    #[test]
    fn display_formats() {
        assert_eq!(format!("{}", Value::constant("A")), "A");
        assert_eq!(format!("{}", Value::Null(NullId(4))), "x4");
        assert_eq!(format!("{:?}", NullId(9)), "x9");
    }

    #[test]
    fn symbol_from_conversions() {
        let s: Symbol = "abc".into();
        let v: Value = s.into();
        assert_eq!(v, Value::constant("abc"));
        let v2: Value = "abc".into();
        assert_eq!(v, v2);
        let n: Value = NullId(1).into();
        assert!(n.is_null());
    }

    #[test]
    fn a_symbol_table_interns_and_names_under_one_guard() {
        let known = Symbol::intern("table-known");
        let mut table = SymbolTable::lock();
        assert_eq!(table.intern("table-known"), known);
        // A miss re-takes the guard around the write lock.
        let fresh = table.intern("table-fresh");
        assert_eq!(table.intern("table-fresh"), fresh);
        assert_eq!(table.name(fresh), "table-fresh");
        assert_eq!(table.name(known), "table-known");
        drop(table);
        assert_eq!(Symbol::intern("table-fresh"), fresh);
    }

    #[test]
    fn symbols_are_concurrently_internable() {
        let handles: Vec<_> = (0..8)
            .map(|i| {
                std::thread::spawn(move || {
                    (0..100)
                        .map(|j| Symbol::intern(&format!("c{}", (i * j) % 50)).raw())
                        .sum::<u32>()
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        // All threads interned overlapping names without panicking; equality still holds.
        assert_eq!(Symbol::intern("c0"), Symbol::intern("c0"));
    }
}
