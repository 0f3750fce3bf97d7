//! Tuples and the *specificity* relation (Definition 2.4 of the paper).

use std::collections::HashMap;
use std::fmt;
use std::sync::Arc;

use crate::schema::RelationId;
use crate::value::{NullId, Value};

/// Identifier of a logical tuple within a [`crate::Database`].
///
/// A logical tuple may have several *versions* (Section 4.1); the id refers to
/// the logical tuple, not to any particular version.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TupleId(pub u64);

impl fmt::Debug for TupleId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t{}", self.0)
    }
}

impl fmt::Display for TupleId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t{}", self.0)
    }
}

/// The data of a tuple: a fixed-arity sequence of [`Value`]s.
///
/// Tuple data is reference-counted so that version chains and read-query logs
/// can share it cheaply.
pub type TupleData = Arc<[Value]>;

/// A tuple together with the relation it belongs to.
///
/// This is the value-level view used throughout the chase; it does not carry
/// version information.
#[derive(Clone, PartialEq, Eq, Hash)]
pub struct Tuple {
    /// Relation the tuple belongs to.
    pub relation: RelationId,
    /// The attribute values.
    pub values: TupleData,
}

impl Tuple {
    /// Creates a tuple from a relation id and values.
    pub fn new(relation: RelationId, values: impl Into<Vec<Value>>) -> Tuple {
        Tuple { relation, values: values.into().into() }
    }

    /// Number of attributes.
    pub fn arity(&self) -> usize {
        self.values.len()
    }

    /// Returns all labeled nulls occurring in the tuple (with duplicates removed,
    /// in order of first occurrence).
    pub fn nulls(&self) -> Vec<NullId> {
        nulls_of(&self.values)
    }

    /// Returns `true` if the tuple contains no labeled nulls.
    pub fn is_ground(&self) -> bool {
        self.values.iter().all(Value::is_const)
    }
}

impl fmt::Debug for Tuple {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:?}{:?}", self.relation, self.values)
    }
}

/// Returns the distinct labeled nulls occurring in `values`, in order of first
/// occurrence.
pub fn nulls_of(values: &[Value]) -> Vec<NullId> {
    let mut seen = Vec::new();
    for v in values {
        if let Value::Null(n) = v {
            if !seen.contains(n) {
                seen.push(*n);
            }
        }
    }
    seen
}

/// Returns `true` if `values` contains the labeled null `null`.
pub fn contains_null(values: &[Value], null: NullId) -> bool {
    values.contains(&Value::Null(null))
}

/// Applies a null substitution to a sequence of values, returning the rewritten
/// values and whether anything changed.
pub fn substitute_nulls(values: &[Value], subst: &HashMap<NullId, Value>) -> (Vec<Value>, bool) {
    let mut changed = false;
    let out = values
        .iter()
        .map(|v| match v {
            Value::Null(n) => match subst.get(n) {
                Some(rep) => {
                    changed = true;
                    *rep
                }
                None => *v,
            },
            Value::Const(_) => *v,
        })
        .collect();
    (out, changed)
}

/// Decides whether `specific` is **more specific than** `general`
/// (Definition 2.4).
///
/// `specific = (a_1, …, a_k)` is more specific than `general = (a'_1, …, a'_k)`
/// iff the map `f(a'_i) = a_i` is a function and `f` is the identity on
/// constants. Intuitively `general` can be turned into `specific` by
/// consistently substituting its labeled nulls.
///
/// Returns the witnessing substitution (from `general`'s nulls to values of
/// `specific`) if the relation holds.
pub fn specialization(general: &[Value], specific: &[Value]) -> Option<HashMap<NullId, Value>> {
    if general.len() != specific.len() {
        return None;
    }
    let mut map: HashMap<NullId, Value> = HashMap::new();
    for (g, s) in general.iter().zip(specific.iter()) {
        match g {
            Value::Const(_) => {
                // f must be the identity on constants.
                if g != s {
                    return None;
                }
            }
            Value::Null(n) => match map.get(n) {
                Some(prev) => {
                    if prev != s {
                        // f would not be a function.
                        return None;
                    }
                }
                None => {
                    map.insert(*n, *s);
                }
            },
        }
    }
    Some(map)
}

/// Is `specific` more specific than `general`? The same test as
/// `specialization(general, specific).is_some()`, without building the
/// substitution: `f` is a function iff every null of `general` maps to the
/// value at its previous occurrence, which the tuples themselves hold.
pub fn is_more_specific(specific: &[Value], general: &[Value]) -> bool {
    specific.len() == general.len()
        && general.iter().zip(specific).enumerate().all(|(i, (g, s))| match g {
            // f must be the identity on constants.
            Value::Const(_) => g == s,
            Value::Null(_) => {
                general[..i].iter().zip(specific).all(|(prev_g, prev_s)| prev_g != g || prev_s == s)
            }
        })
}

/// Returns `true` if the two tuples are *homomorphically equivalent* under the
/// specificity relation, i.e. each is more specific than the other.
pub fn specificity_equivalent(a: &[Value], b: &[Value]) -> bool {
    is_more_specific(a, b) && is_more_specific(b, a)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::value::Value as V;

    fn c(s: &str) -> Value {
        V::constant(s)
    }
    fn n(i: u64) -> Value {
        V::Null(NullId(i))
    }

    #[test]
    fn tuple_basics() {
        let t = Tuple::new(RelationId(0), vec![c("a"), n(1), n(1), c("b")]);
        assert_eq!(t.arity(), 4);
        assert_eq!(t.nulls(), vec![NullId(1)]);
        assert!(!t.is_ground());
        let g = Tuple::new(RelationId(0), vec![c("a")]);
        assert!(g.is_ground());
    }

    #[test]
    fn ground_tuple_more_specific_than_nulled_one() {
        // C(NYC) is more specific than C(x4): example from Section 2.2.
        let specific = [c("NYC")];
        let general = [n(4)];
        assert!(is_more_specific(&specific, &general));
        assert!(!is_more_specific(&general, &specific));
    }

    #[test]
    fn constants_must_match_exactly() {
        let a = [c("NYC"), c("JFK")];
        let b = [c("NYC"), c("LGA")];
        assert!(!is_more_specific(&a, &b));
        assert!(!is_more_specific(&b, &a));
        assert!(is_more_specific(&a, &a));
    }

    #[test]
    fn substitution_must_be_a_function() {
        // general = (x1, x1); specific = (a, b) would need f(x1)=a and f(x1)=b.
        let general = [n(1), n(1)];
        let inconsistent = [c("a"), c("b")];
        let consistent = [c("a"), c("a")];
        assert!(!is_more_specific(&inconsistent, &general));
        assert!(is_more_specific(&consistent, &general));
    }

    #[test]
    fn nulls_can_map_to_other_nulls() {
        let general = [n(1), c("a")];
        let specific = [n(2), c("a")];
        // f(x1) = x2 is a fine function; x2 is "more specific" in the sense of
        // being an already-existing null in the database.
        assert!(is_more_specific(&specific, &general));
        let subst = specialization(&general, &specific).unwrap();
        assert_eq!(subst.get(&NullId(1)), Some(&n(2)));
    }

    /// Every pair of tuples over two constants and three nulls, arities 0–3
    /// (repeated nulls included): the allocation-free check agrees with the
    /// substitution-building one.
    #[test]
    fn is_more_specific_agrees_with_specialization() {
        let alphabet = [c("a"), c("b"), n(1), n(2), n(3)];
        let mut tuples: Vec<Vec<Value>> = vec![Vec::new()];
        for arity in 1..=3u32 {
            for code in 0..alphabet.len().pow(arity) {
                let mut code = code;
                let tuple = (0..arity)
                    .map(|_| {
                        let v = alphabet[code % alphabet.len()];
                        code /= alphabet.len();
                        v
                    })
                    .collect();
                tuples.push(tuple);
            }
        }
        let mut holds = 0;
        for general in &tuples {
            for specific in &tuples {
                let expected = specialization(general, specific).is_some();
                assert_eq!(
                    is_more_specific(specific, general),
                    expected,
                    "specific {specific:?} vs general {general:?}"
                );
                holds += usize::from(expected);
            }
        }
        // Both outcomes occur, repeated-null failures among them.
        assert!(holds > 0 && holds < tuples.len() * tuples.len());
        assert!(!is_more_specific(&[c("a"), n(2)], &[n(1), n(1)]));
        assert!(is_more_specific(&[n(2), n(2)], &[n(1), n(1)]));
    }

    #[test]
    fn arity_mismatch_is_never_specific() {
        assert!(!is_more_specific(&[c("a")], &[c("a"), c("b")]));
    }

    #[test]
    fn specificity_is_reflexive_and_transitive_on_examples() {
        let t1 = [n(1), n(2)];
        let t2 = [n(3), c("a")];
        let t3 = [c("b"), c("a")];
        assert!(is_more_specific(&t1, &t1));
        assert!(is_more_specific(&t2, &t1));
        assert!(is_more_specific(&t3, &t2));
        assert!(is_more_specific(&t3, &t1));
    }

    #[test]
    fn specificity_equivalence_detects_renaming() {
        let a = [n(1), n(2), c("k")];
        let b = [n(7), n(8), c("k")];
        assert!(specificity_equivalent(&a, &b));
        let c_ = [n(1), n(1), c("k")];
        assert!(!specificity_equivalent(&a, &c_));
    }

    #[test]
    fn substitute_nulls_rewrites_and_reports_change() {
        let vals = [n(1), c("a"), n(2)];
        let mut subst = HashMap::new();
        subst.insert(NullId(1), c("z"));
        let (out, changed) = substitute_nulls(&vals, &subst);
        assert!(changed);
        assert_eq!(out, vec![c("z"), c("a"), n(2)]);

        let (out2, changed2) = substitute_nulls(&[c("a")], &subst);
        assert!(!changed2);
        assert_eq!(out2, vec![c("a")]);
    }

    #[test]
    fn contains_null_works() {
        let vals = [n(1), c("a")];
        assert!(contains_null(&vals, NullId(1)));
        assert!(!contains_null(&vals, NullId(2)));
    }
}
