//! Tuple-generating dependencies (mappings) and mapping sets.
//!
//! A mapping has the form `Φ(x̄, ȳ) → ∃z̄ Ψ(x̄, z̄)` (Section 2): `Φ` is a
//! conjunction of atoms over the *frontier* variables `x̄` and the LHS-only
//! variables `ȳ`; `Ψ` is a conjunction over `x̄` and the existential variables
//! `z̄`.

use std::collections::HashMap;
use std::fmt;
use std::sync::Arc;

use youtopia_storage::{Atom, Catalog, RelationId, Symbol};

use crate::error::MappingError;
use crate::plans::CompiledPlans;

/// Identifier of a mapping within a [`MappingSet`].
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct MappingId(pub u32);

impl fmt::Debug for MappingId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "σ{}", self.0)
    }
}

impl fmt::Display for MappingId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "σ{}", self.0)
    }
}

/// A tuple-generating dependency.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Tgd {
    /// Mapping id (assigned by the owning [`MappingSet`]).
    pub id: MappingId,
    /// Human-readable name, e.g. `σ3`.
    pub name: String,
    /// Left-hand side atoms (the premise Φ).
    pub lhs: Vec<Atom>,
    /// Right-hand side atoms (the conclusion Ψ).
    pub rhs: Vec<Atom>,
    frontier_vars: Vec<Symbol>,
    lhs_only_vars: Vec<Symbol>,
    existential_vars: Vec<Symbol>,
}

impl Tgd {
    /// Builds a tgd and classifies its variables. Fails if either side is
    /// empty.
    pub fn new(
        id: MappingId,
        name: impl Into<String>,
        lhs: Vec<Atom>,
        rhs: Vec<Atom>,
    ) -> Result<Tgd, MappingError> {
        let name = name.into();
        if lhs.is_empty() {
            return Err(MappingError::EmptyLhs(name));
        }
        if rhs.is_empty() {
            return Err(MappingError::EmptyRhs(name));
        }
        let lhs_vars = youtopia_storage::variables_of(&lhs);
        let rhs_vars = youtopia_storage::variables_of(&rhs);
        let frontier_vars: Vec<Symbol> =
            lhs_vars.iter().copied().filter(|v| rhs_vars.contains(v)).collect();
        let lhs_only_vars: Vec<Symbol> =
            lhs_vars.iter().copied().filter(|v| !rhs_vars.contains(v)).collect();
        let existential_vars: Vec<Symbol> =
            rhs_vars.iter().copied().filter(|v| !lhs_vars.contains(v)).collect();
        Ok(Tgd { id, name, lhs, rhs, frontier_vars, lhs_only_vars, existential_vars })
    }

    /// The frontier (exported) variables `x̄`: variables occurring on both
    /// sides.
    pub fn frontier_vars(&self) -> &[Symbol] {
        &self.frontier_vars
    }

    /// Variables occurring only on the left-hand side (`ȳ`).
    pub fn lhs_only_vars(&self) -> &[Symbol] {
        &self.lhs_only_vars
    }

    /// Existentially quantified variables (`z̄`): right-hand side only.
    pub fn existential_vars(&self) -> &[Symbol] {
        &self.existential_vars
    }

    /// Relations mentioned on the left-hand side (with duplicates removed).
    pub fn lhs_relations(&self) -> Vec<RelationId> {
        dedup_relations(&self.lhs)
    }

    /// Relations mentioned on the right-hand side (with duplicates removed).
    pub fn rhs_relations(&self) -> Vec<RelationId> {
        dedup_relations(&self.rhs)
    }

    /// All relations mentioned by the mapping.
    pub fn relations(&self) -> Vec<RelationId> {
        let mut rels = self.lhs_relations();
        for r in self.rhs_relations() {
            if !rels.contains(&r) {
                rels.push(r);
            }
        }
        rels
    }

    /// Checks atom arities against the catalog.
    pub fn validate(&self, catalog: &Catalog) -> Result<(), MappingError> {
        for atom in self.lhs.iter().chain(self.rhs.iter()) {
            let schema = catalog
                .try_schema(atom.relation)
                .map_err(|_| MappingError::UnknownRelation(format!("{:?}", atom.relation)))?;
            if schema.arity() != atom.terms.len() {
                return Err(MappingError::AtomArityMismatch {
                    mapping: self.name.clone(),
                    relation: schema.name.clone(),
                    expected: schema.arity(),
                    actual: atom.terms.len(),
                });
            }
        }
        Ok(())
    }

    /// Whether the mapping is *cyclic on its own*, i.e. some relation appears
    /// on both sides (like the genealogical `Person(x) → ∃y Father(x,y) ∧
    /// Person(y)` example of Section 2.2).
    pub fn is_self_cyclic(&self) -> bool {
        let rhs = self.rhs_relations();
        self.lhs_relations().iter().any(|r| rhs.contains(r))
    }

    /// Pretty-prints the mapping using catalog names.
    pub fn display_with(&self, catalog: &Catalog) -> String {
        let lhs: Vec<String> = self.lhs.iter().map(|a| a.display_with(catalog)).collect();
        let rhs: Vec<String> = self.rhs.iter().map(|a| a.display_with(catalog)).collect();
        let exists = if self.existential_vars.is_empty() {
            String::new()
        } else {
            let vars: Vec<String> = self.existential_vars.iter().map(|v| v.to_string()).collect();
            format!("∃{} ", vars.join(","))
        };
        format!("{}: {} → {}{}", self.name, lhs.join(" ∧ "), exists, rhs.join(" ∧ "))
    }
}

fn dedup_relations(atoms: &[Atom]) -> Vec<RelationId> {
    let mut rels = Vec::new();
    for a in atoms {
        if !rels.contains(&a.relation) {
            rels.push(a.relation);
        }
    }
    rels
}

/// A set of mappings with per-relation indexes and a compiled-plan cache.
#[derive(Clone, Debug, Default)]
pub struct MappingSet {
    tgds: Vec<Tgd>,
    lhs_index: HashMap<RelationId, Vec<MappingId>>,
    rhs_index: HashMap<RelationId, Vec<MappingId>>,
    /// Precompiled violation-query skeletons, kept in sync by
    /// [`MappingSet::add`]. Behind an [`Arc`] so the many clones a long-lived
    /// engine makes of its mapping set (recovery, exchange facades, the chase
    /// thread) all share one compiled-plan cache instead of duplicating it
    /// per consumer; mutation is copy-on-write.
    plans: Arc<CompiledPlans>,
}

impl MappingSet {
    /// Creates an empty mapping set.
    pub fn new() -> MappingSet {
        MappingSet::default()
    }

    /// Adds a mapping built from its sides; assigns and returns its id.
    pub fn add(
        &mut self,
        name: impl Into<String>,
        lhs: Vec<Atom>,
        rhs: Vec<Atom>,
    ) -> Result<MappingId, MappingError> {
        let id = MappingId(self.tgds.len() as u32);
        let tgd = Tgd::new(id, name, lhs, rhs)?;
        for rel in tgd.lhs_relations() {
            self.lhs_index.entry(rel).or_default().push(id);
        }
        for rel in tgd.rhs_relations() {
            self.rhs_index.entry(rel).or_default().push(id);
        }
        Arc::make_mut(&mut self.plans).add_mapping(&tgd);
        self.tgds.push(tgd);
        Ok(id)
    }

    /// Adds an already-constructed tgd, reassigning its id.
    pub fn add_tgd(&mut self, tgd: Tgd) -> Result<MappingId, MappingError> {
        self.add(tgd.name.clone(), tgd.lhs, tgd.rhs)
    }

    /// Looks a mapping up by id.
    pub fn get(&self, id: MappingId) -> &Tgd {
        &self.tgds[id.0 as usize]
    }

    /// Looks a mapping up by name.
    pub fn by_name(&self, name: &str) -> Option<&Tgd> {
        self.tgds.iter().find(|t| t.name == name)
    }

    /// Number of mappings.
    pub fn len(&self) -> usize {
        self.tgds.len()
    }

    /// Whether the set is empty.
    pub fn is_empty(&self) -> bool {
        self.tgds.is_empty()
    }

    /// Iterates over all mappings.
    pub fn iter(&self) -> impl Iterator<Item = &Tgd> {
        self.tgds.iter()
    }

    /// Mappings whose **left-hand side** mentions `relation` (candidates for
    /// new LHS-violations when a tuple of that relation appears).
    pub fn with_lhs_relation(&self, relation: RelationId) -> &[MappingId] {
        self.lhs_index.get(&relation).map(Vec::as_slice).unwrap_or(&[])
    }

    /// Mappings whose **right-hand side** mentions `relation` (candidates for
    /// new RHS-violations when a tuple of that relation disappears).
    pub fn with_rhs_relation(&self, relation: RelationId) -> &[MappingId] {
        self.rhs_index.get(&relation).map(Vec::as_slice).unwrap_or(&[])
    }

    /// The compiled violation plans of this set: per-(mapping, atom) query
    /// skeletons indexed by relation, precompiled when mappings are added so
    /// that each [`TupleChange`](youtopia_storage::TupleChange) dispatches
    /// straight to the plans that can possibly fire.
    pub fn plans(&self) -> &CompiledPlans {
        &self.plans
    }

    /// Validates every mapping against the catalog.
    pub fn validate(&self, catalog: &Catalog) -> Result<(), MappingError> {
        for t in &self.tgds {
            t.validate(catalog)?;
        }
        Ok(())
    }

    /// Restricts the set to its first `n` mappings (used by the Section 6
    /// experiments, whose mapping sets are monotonically increasing).
    pub fn prefix(&self, n: usize) -> MappingSet {
        let mut out = MappingSet::new();
        for t in self.tgds.iter().take(n) {
            out.add(t.name.clone(), t.lhs.clone(), t.rhs.clone()).expect("already validated");
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use youtopia_storage::{Database, Term};

    fn travel_catalog() -> Database {
        let mut db = Database::new();
        db.add_relation("C", ["city"]).unwrap();
        db.add_relation("S", ["code", "location", "city_served"]).unwrap();
        db.add_relation("A", ["location", "name"]).unwrap();
        db.add_relation("T", ["attraction", "company", "tour_start"]).unwrap();
        db.add_relation("R", ["company", "attraction", "review"]).unwrap();
        db
    }

    fn v(s: &str) -> Term {
        Term::var(s)
    }

    #[test]
    fn variable_classification() {
        let db = travel_catalog();
        let a = db.relation_id("A").unwrap();
        let t = db.relation_id("T").unwrap();
        let r = db.relation_id("R").unwrap();
        // σ3: A(l,n) ∧ T(n,c,cs) → ∃rev R(c,n,rev)
        let tgd = Tgd::new(
            MappingId(0),
            "σ3",
            vec![Atom::new(a, vec![v("l"), v("n")]), Atom::new(t, vec![v("n"), v("c"), v("cs")])],
            vec![Atom::new(r, vec![v("c"), v("n"), v("rev")])],
        )
        .unwrap();
        assert_eq!(tgd.frontier_vars(), &[Symbol::intern("n"), Symbol::intern("c")]);
        assert_eq!(tgd.lhs_only_vars(), &[Symbol::intern("l"), Symbol::intern("cs")]);
        assert_eq!(tgd.existential_vars(), &[Symbol::intern("rev")]);
        assert_eq!(tgd.lhs_relations(), vec![a, t]);
        assert_eq!(tgd.rhs_relations(), vec![r]);
        assert!(!tgd.is_self_cyclic());
        assert!(tgd.validate(db.catalog()).is_ok());
        let shown = tgd.display_with(db.catalog());
        assert!(shown.contains("A(l, n)"));
        assert!(shown.contains("∃rev"));
    }

    #[test]
    fn empty_sides_rejected() {
        let db = travel_catalog();
        let c = db.relation_id("C").unwrap();
        let atom = Atom::new(c, vec![v("x")]);
        assert!(matches!(
            Tgd::new(MappingId(0), "m", vec![], vec![atom.clone()]),
            Err(MappingError::EmptyLhs(_))
        ));
        assert!(matches!(
            Tgd::new(MappingId(0), "m", vec![atom], vec![]),
            Err(MappingError::EmptyRhs(_))
        ));
    }

    #[test]
    fn validate_catches_arity_mismatch() {
        let db = travel_catalog();
        let c = db.relation_id("C").unwrap();
        let s = db.relation_id("S").unwrap();
        let tgd = Tgd::new(
            MappingId(0),
            "bad",
            vec![Atom::new(c, vec![v("x")])],
            vec![Atom::new(s, vec![v("x"), v("y")])], // S has arity 3
        )
        .unwrap();
        assert!(matches!(
            tgd.validate(db.catalog()),
            Err(MappingError::AtomArityMismatch { expected: 3, actual: 2, .. })
        ));
    }

    #[test]
    fn self_cyclic_detection() {
        let mut db = Database::new();
        let p = db.add_relation("Person", ["name"]).unwrap();
        let f = db.add_relation("Father", ["child", "father"]).unwrap();
        let tgd = Tgd::new(
            MappingId(0),
            "anc",
            vec![Atom::new(p, vec![v("x")])],
            vec![Atom::new(f, vec![v("x"), v("y")]), Atom::new(p, vec![v("y")])],
        )
        .unwrap();
        assert!(tgd.is_self_cyclic());
        assert_eq!(tgd.relations(), vec![p, f]);
    }

    #[test]
    fn mapping_set_indexes_relations() {
        let db = travel_catalog();
        let c = db.relation_id("C").unwrap();
        let s = db.relation_id("S").unwrap();
        let mut set = MappingSet::new();
        // σ1: C(c) → ∃a,l S(a, l, c)
        let m1 = set
            .add(
                "σ1",
                vec![Atom::new(c, vec![v("c")])],
                vec![Atom::new(s, vec![v("a"), v("l"), v("c")])],
            )
            .unwrap();
        // σ2: S(a, c, c2) → C(c) ∧ C(c2)
        let m2 = set
            .add(
                "σ2",
                vec![Atom::new(s, vec![v("a"), v("c"), v("c2")])],
                vec![Atom::new(c, vec![v("c")]), Atom::new(c, vec![v("c2")])],
            )
            .unwrap();
        assert_eq!(set.len(), 2);
        assert!(!set.is_empty());
        assert_eq!(set.with_lhs_relation(c), &[m1]);
        assert_eq!(set.with_lhs_relation(s), &[m2]);
        assert_eq!(set.with_rhs_relation(s), &[m1]);
        assert_eq!(set.with_rhs_relation(c), &[m2]);
        assert_eq!(set.by_name("σ1").unwrap().id, m1);
        assert!(set.by_name("zzz").is_none());
        assert!(set.validate(db.catalog()).is_ok());

        let prefix = set.prefix(1);
        assert_eq!(prefix.len(), 1);
        assert_eq!(prefix.get(MappingId(0)).name, "σ1");
    }

    #[test]
    fn add_tgd_reassigns_id() {
        let db = travel_catalog();
        let c = db.relation_id("C").unwrap();
        let tgd = Tgd::new(
            MappingId(99),
            "m",
            vec![Atom::new(c, vec![v("x")])],
            vec![Atom::new(c, vec![v("x")])],
        )
        .unwrap();
        let mut set = MappingSet::new();
        let id = set.add_tgd(tgd).unwrap();
        assert_eq!(id, MappingId(0));
        assert_eq!(set.get(id).name, "m");
    }
}
