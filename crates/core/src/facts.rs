//! Semantic facts derived from a scheme and its dependencies, packaged for
//! consumption by a query optimizer.
//!
//! The paper's closures (`X⁺` under the axiom systems ℛ and ℰ) are *proven*
//! statements about every admissible instance of a flexible relation.  This
//! module turns the raw [`ClosureIndex`] into the queryable facts a planner
//! needs to justify semantic rewrites:
//!
//! * **functional determination** — `X → Y` derivable from the FDs
//!   ([`SemanticFacts::determines`]): two tuples agreeing on `X` agree on
//!   `Y` wherever both are defined;
//! * **mandatory attributes** — present in *every* admitted tuple (the
//!   intersection of the scheme's DNF disjuncts,
//!   [`SemanticFacts::mandatory`]), which is what makes an FD on mandatory
//!   attributes behave exactly like a classical key.
//!
//! (Variant exclusion — the attributes provably *absent* once an EAD
//! determinant is pinned — is [`DependencySet::pinned_regions`], asked of
//! the declared dependencies directly.)
//!
//! All facts are instance-independent: they follow from the declared scheme
//! and dependency set alone, so a rewrite justified by them is sound for
//! every database state.

use crate::attr::AttrSet;
use crate::axioms::ClosureIndex;
use crate::dep::DependencySet;
use crate::scheme::FlexScheme;

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
}

impl SemanticFacts {
    /// Derives the facts for a relation with the given scheme and declared
    /// dependencies.
    pub fn new(scheme: &FlexScheme, deps: &DependencySet) -> Self {
        SemanticFacts {
            attrs: scheme.attrs(),
            mandatory: scheme.mandatory(),
            index: ClosureIndex::new(deps),
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

    /// Whether `x` functionally determines all of `ys`: `ys ⊆ x⁺`.  Two
    /// stored tuples agreeing on `x` then agree on every attribute of `ys`
    /// on which both are defined.
    pub fn determines(&self, x: &AttrSet, ys: &AttrSet) -> bool {
        ys.is_subset(&self.index.func_closure(x))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::attrs;
    use crate::dep::{example2_jobtype_ead, Fd};
    use crate::scheme::{Component, FlexScheme, SchemeBuilder};

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
        assert!(!facts.determines(&attrs!["empno"], &scheme.attrs()));
        // … but it is a key once the FD covers everything.
        let mut deps2 = DependencySet::new();
        deps2.add(Fd::new(attrs!["empno"], scheme.attrs()));
        let facts2 = SemanticFacts::new(&scheme, &deps2);
        assert!(facts2.determines(&attrs!["empno"], &scheme.attrs()));
    }
}
