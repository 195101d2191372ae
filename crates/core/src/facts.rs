//! Semantic facts derived from a scheme and its dependencies, packaged for
//! consumption by a query optimizer.
//!
//! The paper's closures (`X⁺` under the axiom systems ℛ and ℰ) are *proven*
//! statements about every admissible instance of a flexible relation.  This
//! module turns the raw [`ClosureIndex`] into the queryable facts a planner
//! needs to justify semantic rewrites:
//!
//! * **key covers** — `X → scheme-attrs` derivable from the FDs
//!   ([`SemanticFacts::is_key`], [`SemanticFacts::determines`]): `X`
//!   functionally determines an attribute set, so two tuples agreeing on `X`
//!   agree wherever both are defined;
//! * **mandatory attributes** — present in *every* admitted tuple (the
//!   intersection of the scheme's DNF disjuncts,
//!   [`SemanticFacts::mandatory`]), which is what makes an FD on mandatory
//!   attributes behave exactly like a classical key;
//! * **guard subsumption** — a type guard `PRESENT(G)` implied by attributes
//!   already known present, via the existence closure under ℰ
//!   ([`SemanticFacts::guard_subsumed`]);
//! * **variant exclusion** — attributes provably *absent* once an EAD
//!   determinant is pinned to a constant (Def. 2.1 fixes the exact
//!   `Y`-overlap, [`SemanticFacts::absent_attrs`]).
//!
//! All facts are instance-independent: they follow from the declared scheme
//! and dependency set alone, so a rewrite justified by them is sound for
//! every database state.

use crate::attr::AttrSet;
use crate::axioms::{AxiomSystem, ClosureIndex};
use crate::dep::DependencySet;
use crate::scheme::FlexScheme;
use crate::tuple::Tuple;

/// Queryable semantic facts about one flexible relation: its scheme's
/// admitted shapes and the closure of its declared dependencies.
///
/// Build once per relation (the constructor precomputes the closure index
/// and the mandatory attribute set) and query many times during planning.
#[derive(Clone, Debug)]
pub struct SemanticFacts {
    /// All attributes the scheme can ever carry.
    attrs: AttrSet,
    /// Attributes present in every admitted tuple.
    mandatory: AttrSet,
    /// The closure index over the declared dependencies.
    index: ClosureIndex,
    /// The declared dependencies (kept for EAD variant queries).
    deps: DependencySet,
}

impl SemanticFacts {
    /// Derives the facts for a relation with the given scheme and declared
    /// dependencies.
    pub fn new(scheme: &FlexScheme, deps: &DependencySet) -> Self {
        SemanticFacts {
            attrs: scheme.attrs(),
            mandatory: scheme.mandatory(),
            index: ClosureIndex::new(deps),
            deps: deps.clone(),
        }
    }

    /// All attributes the scheme can ever carry.
    pub fn attrs(&self) -> &AttrSet {
        &self.attrs
    }

    /// The attributes present in every admitted tuple: the intersection of
    /// the scheme's DNF disjuncts.  Every stored tuple — whatever partition
    /// shape it lives in — is defined on these.
    pub fn mandatory(&self) -> &AttrSet {
        &self.mandatory
    }

    /// The functional closure `X⁺` of `x` under the declared FDs
    /// (Beeri–Bernstein over the adapted FDs; the paper's value-determining
    /// reading of `X → Y`).
    pub fn func_closure(&self, x: &AttrSet) -> AttrSet {
        self.index.func_closure(x)
    }

    /// Whether `x` functionally determines all of `ys`: `ys ⊆ x⁺`.  Two
    /// stored tuples agreeing on `x` then agree on every attribute of `ys`
    /// on which both are defined.
    pub fn determines(&self, x: &AttrSet, ys: &AttrSet) -> bool {
        ys.is_subset(&self.index.func_closure(x))
    }

    /// Whether `x` is a key cover of the whole scheme: `x⁺ ⊇ attrs(scheme)`.
    pub fn is_key(&self, x: &AttrSet) -> bool {
        self.attrs.is_subset(&self.index.func_closure(x))
    }

    /// Whether a type guard `PRESENT(guard)` is subsumed by the attributes
    /// of the selection context: `guard ⊆ x⁺` under the attribute closure of
    /// ℰ, so the values of `x` *determine the existence* of every guard
    /// attribute.  Once a selection pins `x` to constants, the guard's
    /// outcome is fixed — [`crate::typecheck::analyse_guard`] then decides
    /// redundant vs. unsatisfiable from the pinned values.
    pub fn guard_subsumed(&self, x: &AttrSet, guard: &AttrSet) -> bool {
        guard.is_subset(&self.index.attr_closure(x, AxiomSystem::E))
    }

    /// The attributes provably *absent* from any admitted tuple that agrees
    /// with the pinned equality constraints: for each EAD whose determinant
    /// is fully pinned, Def. 2.1 fixes the exact `Y`-overlap `Yᵢ`, so the
    /// rest of `Y` cannot be present.  A comparison on such an attribute can
    /// never hold.
    pub fn absent_attrs(&self, pinned: &Tuple) -> AttrSet {
        self.deps
            .pinned_regions(pinned)
            .fold(AttrSet::empty(), |acc, (y, yi)| {
                acc.union(&y.difference(&yi))
            })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::attrs;
    use crate::dep::{example2_jobtype_ead, Fd};
    use crate::scheme::{Component, FlexScheme, SchemeBuilder};
    use crate::value::Value;

    fn employee_like() -> (FlexScheme, DependencySet) {
        let variants = FlexScheme::new(
            0,
            2,
            vec![Component::from("typing-speed"), Component::from("products")],
        )
        .unwrap();
        let scheme = SchemeBuilder::all_of(["empno", "salary", "jobtype"])
            .nested(variants)
            .build()
            .unwrap();
        let mut deps = DependencySet::new();
        deps.add(example2_jobtype_ead());
        deps.add(Fd::new(attrs!["empno"], attrs!["salary", "jobtype"]));
        (scheme, deps)
    }

    #[test]
    fn mandatory_is_the_dnf_intersection() {
        let (scheme, deps) = employee_like();
        let facts = SemanticFacts::new(&scheme, &deps);
        assert_eq!(*facts.mandatory(), attrs!["empno", "salary", "jobtype"]);
    }

    #[test]
    fn key_cover_and_determination() {
        let (scheme, deps) = employee_like();
        let facts = SemanticFacts::new(&scheme, &deps);
        assert!(facts.determines(&attrs!["empno"], &attrs!["salary", "jobtype"]));
        assert!(!facts.determines(&attrs!["salary"], &attrs!["empno"]));
        // empno does not determine the optional variant attributes, so it is
        // not a key of the *whole* scheme …
        assert!(!facts.is_key(&attrs!["empno"]));
        // … but it is a key once the FD covers everything.
        let mut deps2 = DependencySet::new();
        deps2.add(Fd::new(attrs!["empno"], scheme.attrs()));
        let facts2 = SemanticFacts::new(&scheme, &deps2);
        assert!(facts2.is_key(&attrs!["empno"]));
    }

    #[test]
    fn guard_subsumption_uses_the_existence_closure() {
        let (scheme, deps) = employee_like();
        let facts = SemanticFacts::new(&scheme, &deps);
        // empno → jobtype (FD), and jobtype existence-determines the
        // variant attributes (the EAD's AD abbreviation): the guard's
        // outcome is a function of empno.
        assert!(facts.guard_subsumed(&attrs!["empno"], &attrs!["typing-speed"]));
        // salary determines nothing, so the guard is not subsumed.
        assert!(!facts.guard_subsumed(&attrs!["salary"], &attrs!["typing-speed"]));
        // Trivial subsumption: a guard over the context's own attributes.
        assert!(facts.guard_subsumed(&attrs!["empno", "salary"], &attrs!["salary"]));
    }

    #[test]
    fn pinned_ead_determinant_excludes_the_other_variants() {
        let (scheme, deps) = employee_like();
        let facts = SemanticFacts::new(&scheme, &deps);
        let pinned = Tuple::new().with("jobtype", Value::tag("secretary"));
        let absent = facts.absent_attrs(&pinned);
        assert!(absent.contains_name("products"), "{absent}");
        assert!(!absent.contains_name("typing-speed"), "{absent}");
        // An unpinned determinant excludes nothing.
        assert!(facts.absent_attrs(&Tuple::new()).is_empty());
    }
}
