//! Conjunctive queries and their evaluation over a [`DataView`].
//!
//! Mappings (tgds), violation queries and correction queries are all built
//! from conjunctions of relational atoms. Evaluation finds homomorphisms from
//! the atoms into the database, exactly the satisfaction criterion used by the
//! paper (following Fagin et al.'s data-exchange semantics): query variables
//! may bind to constants *or* labeled nulls.

use std::collections::BTreeMap;
use std::fmt;

use crate::schema::RelationId;
use crate::snapshot::DataView;
use crate::tuple::{TupleData, TupleId};
use crate::value::{Symbol, Value};

/// A term of an atom: a variable or a constant value.
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
pub enum Term {
    /// A query variable (interned by name).
    Var(Symbol),
    /// A constant value. Note that a [`Value::Null`] may also appear here:
    /// violation and correction queries are frequently seeded with labeled
    /// nulls taken from existing tuples.
    Const(Value),
}

impl Term {
    /// Convenience constructor for a variable.
    pub fn var(name: &str) -> Term {
        Term::Var(Symbol::intern(name))
    }

    /// Convenience constructor for a constant.
    pub fn constant(value: &str) -> Term {
        Term::Const(Value::constant(value))
    }
}

impl fmt::Debug for Term {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Term::Var(v) => write!(f, "{v}"),
            Term::Const(c) => write!(f, "'{c}'"),
        }
    }
}

/// A relational atom `R(t_1, …, t_k)`.
#[derive(Clone, PartialEq, Eq)]
pub struct Atom {
    /// The relation.
    pub relation: RelationId,
    /// Terms, one per attribute.
    pub terms: Vec<Term>,
}

impl Atom {
    /// Creates an atom.
    pub fn new(relation: RelationId, terms: Vec<Term>) -> Atom {
        Atom { relation, terms }
    }

    /// The distinct variables of the atom, in order of first occurrence.
    pub fn variables(&self) -> Vec<Symbol> {
        let mut vars = Vec::new();
        for t in &self.terms {
            if let Term::Var(v) = t {
                if !vars.contains(v) {
                    vars.push(*v);
                }
            }
        }
        vars
    }

    /// Attempts to match the atom against concrete tuple data under the given
    /// bindings, returning the extended bindings on success.
    pub fn match_tuple(&self, data: &[Value], bindings: &Bindings) -> Option<Bindings> {
        if data.len() != self.terms.len() {
            return None;
        }
        let mut extended = bindings.clone();
        for (term, value) in self.terms.iter().zip(data.iter()) {
            match term {
                Term::Const(c) => {
                    if c != value {
                        return None;
                    }
                }
                Term::Var(v) => match extended.get(v) {
                    Some(bound) => {
                        if bound != value {
                            return None;
                        }
                    }
                    None => {
                        extended.insert(*v, *value);
                    }
                },
            }
        }
        Some(extended)
    }

    /// Instantiates the atom under `bindings`, calling `fresh` for every
    /// unbound variable (used to generate RHS tuples with fresh labeled
    /// nulls). Repeated unbound variables receive the same fresh value within
    /// a single call only if the caller's `fresh` function memoises — the
    /// chase layer does this per violation.
    pub fn instantiate(
        &self,
        bindings: &Bindings,
        mut fresh: impl FnMut(Symbol) -> Value,
    ) -> Vec<Value> {
        self.terms
            .iter()
            .map(|t| match t {
                Term::Const(c) => *c,
                Term::Var(v) => match bindings.get(v) {
                    Some(val) => *val,
                    None => fresh(*v),
                },
            })
            .collect()
    }

    /// Renders the atom using catalog names (for diagnostics).
    pub fn display_with(&self, catalog: &crate::schema::Catalog) -> String {
        let name = &catalog.schema(self.relation).name;
        let terms: Vec<String> = self
            .terms
            .iter()
            .map(|t| match t {
                Term::Var(v) => v.to_string(),
                Term::Const(c) => format!("'{c}'"),
            })
            .collect();
        format!("{name}({})", terms.join(", "))
    }
}

impl fmt::Debug for Atom {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:?}(", self.relation)?;
        for (i, t) in self.terms.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{t:?}")?;
        }
        write!(f, ")")
    }
}

/// Variable bindings: variable symbol → value. A [`BTreeMap`] keeps iteration
/// deterministic so that chase runs are reproducible.
pub type Bindings = BTreeMap<Symbol, Value>;

/// One homomorphism found by query evaluation.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct QueryMatch {
    /// The variable bindings of the homomorphism.
    pub bindings: Bindings,
    /// The matched tuple ids, one per atom, in atom order.
    pub tuples: Vec<TupleId>,
}

/// Evaluates the conjunction of `atoms` over `view`, starting from the `seed`
/// bindings. Returns at most `limit` matches (or all matches when `limit` is
/// `None`).
///
/// Evaluation is a backtracking join: at each step the engine picks the
/// unprocessed atom with the most bound terms (ties go to the relation with
/// fewer logical tuples) and retrieves its candidates by probing the column
/// index on the bound column whose bucket is smallest ([`probe_smallest`]),
/// scanning only when no term is bound. Both choices use
/// [`DataView::size_estimate`], which is O(1) and reads no tuple.
///
/// The *set* of matches does not depend on these choices; their order does.
/// Callers that need a canonical order sort the result.
pub fn evaluate(
    view: &dyn DataView,
    atoms: &[Atom],
    seed: &Bindings,
    limit: Option<usize>,
) -> Vec<QueryMatch> {
    let mut results = Vec::new();
    if atoms.is_empty() {
        results.push(QueryMatch { bindings: seed.clone(), tuples: Vec::new() });
        return results;
    }
    let mut chosen: Vec<Option<TupleId>> = vec![None; atoms.len()];
    let mut remaining: Vec<usize> = (0..atoms.len()).collect();
    search(view, atoms, seed.clone(), &mut remaining, &mut chosen, limit, &mut results);
    results
}

/// Returns `true` iff the conjunction of `atoms` has at least one match under
/// the seed bindings.
pub fn satisfiable(view: &dyn DataView, atoms: &[Atom], seed: &Bindings) -> bool {
    !evaluate(view, atoms, seed, Some(1)).is_empty()
}

fn bound_term_value(term: &Term, bindings: &Bindings) -> Option<Value> {
    match term {
        Term::Const(c) => Some(*c),
        Term::Var(v) => bindings.get(v).copied(),
    }
}

/// Scores an atom for join ordering: atoms with more bound terms first;
/// ties broken by the smaller relation estimate (logical tuple count).
fn atom_score(view: &dyn DataView, atom: &Atom, bindings: &Bindings) -> (usize, usize) {
    let bound = atom.terms.iter().filter(|t| bound_term_value(t, bindings).is_some()).count();
    // Negate boundness by subtracting from a large constant so that a smaller
    // score is better (we sort ascending).
    (usize::MAX - bound, view.size_estimate(atom.relation, None))
}

/// The rows of `relation` that may hold `value` at `column` for every
/// `(column, value)` in `probes`: the candidates of the probe whose index
/// bucket is smallest ([`DataView::size_estimate`]; ties go to the earlier
/// probe), or the whole relation when `probes` is empty. Rows come in the
/// view's probe or scan order, and the caller still has to check them
/// against every probe. A lone probe is taken without an estimate.
pub fn probe_smallest(
    view: &dyn DataView,
    relation: RelationId,
    probes: impl IntoIterator<Item = (usize, Value)>,
) -> Vec<(TupleId, TupleData)> {
    let mut probes = probes.into_iter();
    let Some(mut best) = probes.next() else {
        return view.scan(relation);
    };
    let mut best_size = None;
    for probe in probes {
        let current = *best_size.get_or_insert_with(|| view.size_estimate(relation, Some(best)));
        let size = view.size_estimate(relation, Some(probe));
        if size < current {
            (best, best_size) = (probe, Some(size));
        }
    }
    view.candidates(relation, best.0, best.1)
}

/// The atom's candidate rows: an index probe on the bound column with the
/// smallest bucket, or a scan when no term is bound.
fn candidate_tuples(
    view: &dyn DataView,
    atom: &Atom,
    bindings: &Bindings,
) -> Vec<(TupleId, TupleData)> {
    let bound = atom
        .terms
        .iter()
        .enumerate()
        .filter_map(|(col, term)| bound_term_value(term, bindings).map(|value| (col, value)));
    probe_smallest(view, atom.relation, bound)
}

#[allow(clippy::too_many_arguments)]
fn search(
    view: &dyn DataView,
    atoms: &[Atom],
    bindings: Bindings,
    remaining: &mut Vec<usize>,
    chosen: &mut Vec<Option<TupleId>>,
    limit: Option<usize>,
    results: &mut Vec<QueryMatch>,
) {
    if let Some(l) = limit {
        if results.len() >= l {
            return;
        }
    }
    if remaining.is_empty() {
        let tuples = chosen.iter().map(|t| t.expect("all atoms matched")).collect();
        results.push(QueryMatch { bindings, tuples });
        return;
    }
    // Pick the most constrained remaining atom.
    let (pos_in_remaining, &atom_idx) = remaining
        .iter()
        .enumerate()
        .min_by_key(|(_, &idx)| atom_score(view, &atoms[idx], &bindings))
        .expect("remaining not empty");
    remaining.swap_remove(pos_in_remaining);

    let atom = &atoms[atom_idx];
    for (tid, data) in candidate_tuples(view, atom, &bindings) {
        if let Some(extended) = atom.match_tuple(&data, &bindings) {
            chosen[atom_idx] = Some(tid);
            search(view, atoms, extended, remaining, chosen, limit, results);
            chosen[atom_idx] = None;
            if let Some(l) = limit {
                if results.len() >= l {
                    break;
                }
            }
        }
    }
    remaining.push(atom_idx);
}

/// Collects the distinct variables of a sequence of atoms, in order of first
/// occurrence.
pub fn variables_of(atoms: &[Atom]) -> Vec<Symbol> {
    let mut vars = Vec::new();
    for atom in atoms {
        for v in atom.variables() {
            if !vars.contains(&v) {
                vars.push(v);
            }
        }
    }
    vars
}

/// Restricts bindings to the given variables.
pub fn restrict(bindings: &Bindings, vars: &[Symbol]) -> Bindings {
    bindings.iter().filter(|(k, _)| vars.contains(k)).map(|(k, v)| (*k, *v)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::database::Database;
    use crate::value::{NullId, Value as V};
    use crate::version::UpdateId;

    fn travel_db() -> Database {
        let mut db = Database::new();
        db.add_relation("A", ["location", "name"]).unwrap();
        db.add_relation("T", ["attraction", "company", "tour_start"]).unwrap();
        db.add_relation("R", ["company", "attraction", "review"]).unwrap();
        let u = UpdateId(0);
        db.insert_by_name("A", &["Geneva", "Geneva Winery"], u);
        db.insert_by_name("A", &["Niagara Falls", "Niagara Falls"], u);
        db.insert_by_name("T", &["Geneva Winery", "XYZ", "Syracuse"], u);
        db.insert_by_name("R", &["XYZ", "Geneva Winery", "Great!"], u);
        db
    }

    fn var(s: &str) -> Term {
        Term::var(s)
    }

    #[test]
    fn single_atom_scan() {
        let db = travel_db();
        let a = db.relation_id("A").unwrap();
        let atom = Atom::new(a, vec![var("l"), var("n")]);
        let snap = db.snapshot(UpdateId::OMNISCIENT);
        let matches = evaluate(&snap, &[atom], &Bindings::new(), None);
        assert_eq!(matches.len(), 2);
    }

    #[test]
    fn join_across_atoms() {
        let db = travel_db();
        let a = db.relation_id("A").unwrap();
        let t = db.relation_id("T").unwrap();
        // A(l, n) ∧ T(n, c, cs): the join of attractions with their tours.
        let atoms = vec![
            Atom::new(a, vec![var("l"), var("n")]),
            Atom::new(t, vec![var("n"), var("c"), var("cs")]),
        ];
        let snap = db.snapshot(UpdateId::OMNISCIENT);
        let matches = evaluate(&snap, &atoms, &Bindings::new(), None);
        assert_eq!(matches.len(), 1);
        let m = &matches[0];
        assert_eq!(m.bindings.get(&Symbol::intern("n")), Some(&V::constant("Geneva Winery")));
        assert_eq!(m.tuples.len(), 2);
    }

    #[test]
    fn constants_restrict_matches() {
        let db = travel_db();
        let a = db.relation_id("A").unwrap();
        let atom = Atom::new(a, vec![Term::constant("Geneva"), var("n")]);
        let snap = db.snapshot(UpdateId::OMNISCIENT);
        let matches = evaluate(&snap, std::slice::from_ref(&atom), &Bindings::new(), None);
        assert_eq!(matches.len(), 1);
        let atom2 = Atom::new(a, vec![Term::constant("Nowhere"), var("n")]);
        assert!(!satisfiable(&snap, &[atom2], &Bindings::new()));
        assert!(satisfiable(&snap, &[atom], &Bindings::new()));
    }

    #[test]
    fn seed_bindings_are_respected() {
        let db = travel_db();
        let t = db.relation_id("T").unwrap();
        let atom = Atom::new(t, vec![var("n"), var("c"), var("s")]);
        let mut seed = Bindings::new();
        seed.insert(Symbol::intern("c"), V::constant("XYZ"));
        let snap = db.snapshot(UpdateId::OMNISCIENT);
        let matches = evaluate(&snap, std::slice::from_ref(&atom), &seed, None);
        assert_eq!(matches.len(), 1);
        seed.insert(Symbol::intern("c"), V::constant("ABC"));
        assert!(evaluate(&snap, &[atom], &seed, None).is_empty());
    }

    #[test]
    fn repeated_variables_force_equality() {
        let mut db = Database::new();
        let s = db.add_relation("S", ["code", "location", "city_served"]).unwrap();
        let u = UpdateId(0);
        db.insert_by_name("S", &["SYR", "Syracuse", "Syracuse"], u);
        db.insert_by_name("S", &["SYR", "Syracuse", "Ithaca"], u);
        // S(a, c, c): the airport is located in the city it serves.
        let atom = Atom::new(s, vec![var("a"), var("c"), var("c")]);
        let snap = db.snapshot(UpdateId::OMNISCIENT);
        let matches = evaluate(&snap, &[atom], &Bindings::new(), None);
        assert_eq!(matches.len(), 1);
        assert_eq!(matches[0].bindings.get(&Symbol::intern("c")), Some(&V::constant("Syracuse")));
    }

    #[test]
    fn variables_bind_to_labeled_nulls() {
        let mut db = Database::new();
        let r = db.add_relation("R", ["a", "b"]).unwrap();
        let x = db.fresh_null();
        db.apply(
            &crate::version::Write::Insert {
                relation: r,
                values: vec![V::constant("k"), V::Null(x)],
            },
            UpdateId(0),
        )
        .unwrap();
        let atom = Atom::new(r, vec![var("p"), var("q")]);
        let snap = db.snapshot(UpdateId::OMNISCIENT);
        let matches = evaluate(&snap, &[atom], &Bindings::new(), None);
        assert_eq!(matches.len(), 1);
        assert_eq!(matches[0].bindings.get(&Symbol::intern("q")), Some(&V::Null(x)));
    }

    #[test]
    fn limit_stops_early() {
        let mut db = Database::new();
        db.add_relation("R", ["a"]).unwrap();
        for i in 0..10 {
            db.insert_by_name("R", &[&format!("v{i}")], UpdateId(0));
        }
        let r = db.relation_id("R").unwrap();
        let atom = Atom::new(r, vec![var("x")]);
        let snap = db.snapshot(UpdateId::OMNISCIENT);
        assert_eq!(
            evaluate(&snap, std::slice::from_ref(&atom), &Bindings::new(), Some(3)).len(),
            3
        );
        assert_eq!(evaluate(&snap, &[atom], &Bindings::new(), None).len(), 10);
    }

    #[test]
    fn empty_query_yields_seed() {
        let db = travel_db();
        let snap = db.snapshot(UpdateId::OMNISCIENT);
        let matches = evaluate(&snap, &[], &Bindings::new(), None);
        assert_eq!(matches.len(), 1);
        assert!(matches[0].tuples.is_empty());
    }

    #[test]
    fn instantiate_generates_fresh_values_for_unbound_vars() {
        let db = travel_db();
        let r = db.relation_id("R").unwrap();
        let atom = Atom::new(r, vec![var("c"), var("n"), var("review")]);
        let mut bindings = Bindings::new();
        bindings.insert(Symbol::intern("c"), V::constant("ABC"));
        bindings.insert(Symbol::intern("n"), V::constant("Niagara Falls"));
        let mut next = 100;
        let values = atom.instantiate(&bindings, |_| {
            next += 1;
            V::Null(NullId(next))
        });
        assert_eq!(values[0], V::constant("ABC"));
        assert_eq!(values[1], V::constant("Niagara Falls"));
        assert!(values[2].is_null());
    }

    #[test]
    fn variables_of_and_restrict() {
        let db = travel_db();
        let a = db.relation_id("A").unwrap();
        let t = db.relation_id("T").unwrap();
        let atoms = vec![
            Atom::new(a, vec![var("l"), var("n")]),
            Atom::new(t, vec![var("n"), var("c"), Term::constant("Syracuse")]),
        ];
        let vars = variables_of(&atoms);
        assert_eq!(vars, vec![Symbol::intern("l"), Symbol::intern("n"), Symbol::intern("c")]);
        let mut b = Bindings::new();
        b.insert(Symbol::intern("l"), V::constant("Geneva"));
        b.insert(Symbol::intern("zzz"), V::constant("unused"));
        let r = restrict(&b, &vars);
        assert_eq!(r.len(), 1);
        assert!(r.contains_key(&Symbol::intern("l")));
    }

    #[test]
    fn atom_display_with_catalog() {
        let db = travel_db();
        let a = db.relation_id("A").unwrap();
        let atom = Atom::new(a, vec![var("l"), Term::constant("Geneva Winery")]);
        let s = atom.display_with(db.catalog());
        assert_eq!(s, "A(l, 'Geneva Winery')");
    }
}
