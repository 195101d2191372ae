//! Propagation of dependencies under algebraic transformations
//! (Theorem 4.3).
//!
//! For each operator the theorem states which attribute dependencies are
//! known to hold in the result:
//!
//! 1. `ads(FR1 × FR2) = ads(FR1) ∪ ads(FR2)`
//! 2. `ads(π_X(FR)) = { V --attr--> W∩X | V --attr--> W ∈ ads(FR), V ⊆ X }`
//! 3. `ads(σ_F(FR)) = ads(FR)`
//! 4. `ads(FR1 ∪ FR2) = ∅`
//! 5. `ads(FR1 − FR2) = ads(FR1)`
//! 6. `ads(ε_{A:a1}(FR1) ∪ ε_{A:a2}(FR2)) = { AX --attr--> Y | X --attr--> Y
//!    ∈ ads(FR1) ∪ ads(FR2) }` (tagged union)
//!
//! Functional dependencies are propagated with their classical behaviour
//! (kept under selection, product, difference and extension; restricted to
//! `V ⊆ X` with right side intersected under projection; lost under union).
//! Explicit ADs are propagated structurally wherever possible so that
//! insert-time type checking keeps working on derived relations.

use flexrel_core::attr::{Attr, AttrSet};
use flexrel_core::dep::{Ad, Dependency, DependencySet, Ead, EadVariant, Fd};

/// Rule (1): dependencies of a cartesian product.
pub fn product_deps(left: &DependencySet, right: &DependencySet) -> DependencySet {
    left.union(right)
}

/// Rule (2): dependencies surviving a projection onto `x`.
///
/// A dependency whose left side is not fully retained is invalidated; a
/// retained dependency keeps only the retained part of its right side.
/// Explicit ADs additionally project each variant's attribute set.
pub fn project_deps(deps: &DependencySet, x: &AttrSet) -> DependencySet {
    let mut out = DependencySet::new();
    for dep in deps.iter().filter(|d| d.lhs().is_subset(x)) {
        out.add(with_rhs(dep, &dep.rhs().intersection(x)));
    }
    out
}

/// `dep` with its right side cut down to `rhs` (a subset of it).  An
/// explicit AD keeps its variants, each restricted the same way, and falls
/// back to its abbreviation if the restricted form does not validate.
fn with_rhs(dep: &Dependency, rhs: &AttrSet) -> Dependency {
    match dep {
        Dependency::Ad(ad) => Ad::new(ad.lhs().clone(), rhs.clone()).into(),
        Dependency::Fd(fd) => Fd::new(fd.lhs().clone(), rhs.clone()).into(),
        Dependency::Ead(ead) => {
            let variants = ead
                .variants()
                .iter()
                .map(|v| EadVariant::new(v.values.clone(), v.attrs.intersection(rhs)))
                .collect();
            match Ead::new(ead.lhs().clone(), rhs.clone(), variants) {
                Ok(restricted) => restricted.into(),
                Err(_) => Ad::new(ead.lhs().clone(), rhs.clone()).into(),
            }
        }
    }
}

/// Rule (3): dependencies of a selection — all of them.
pub fn select_deps(deps: &DependencySet) -> DependencySet {
    deps.clone()
}

/// Rule (4): dependencies of a plain union — none.
pub fn union_deps() -> DependencySet {
    DependencySet::new()
}

/// Rule (5): dependencies of a difference — those of the left operand.
pub fn difference_deps(left: &DependencySet) -> DependencySet {
    left.clone()
}

/// Dependencies after the extension operator `ε_{A:a}`: all existing
/// dependencies remain valid (the new attribute is present in every tuple
/// with a constant value, so it can never discriminate shapes or values).
pub fn extend_deps(deps: &DependencySet) -> DependencySet {
    deps.clone()
}

/// Rule (6): dependencies of a tagged union.  Every dependency of either
/// input survives with the tag attribute added to its left side (the left
/// augmentation rule A4 / F2 applied inside the extended inputs makes this
/// sound; the tag then separates the two sources).
pub fn tagged_union_deps(left: &DependencySet, right: &DependencySet, tag: &Attr) -> DependencySet {
    let mut out = DependencySet::new();
    for dep in left.iter().chain(right.iter()) {
        let lhs = dep.lhs().union(&tag.to_set());
        match dep {
            Dependency::Ad(ad) => out.add(Ad::new(lhs, ad.rhs().clone())),
            Dependency::Ead(ead) => out.add(Ad::new(lhs, ead.rhs().clone())),
            Dependency::Fd(fd) => out.add(Fd::new(lhs, fd.rhs().clone())),
        }
    }
    out
}

/// What is known of a join operand's tuples before any is seen: the
/// attributes one can carry at most and those every one carries.
#[derive(Clone, Copy, Debug)]
pub struct AttrBounds<'a> {
    /// No tuple of the operand carries an attribute outside this set.
    pub universe: &'a AttrSet,
    /// Every tuple of the operand carries all of these.
    pub present: &'a AttrSet,
}

/// Dependencies of a natural join `FR1 ⋈ FR2`.
///
/// The join merges tuples that agree wherever *both* are defined, so where
/// the attribute universes overlap it is not the selection over a product
/// that rules (1) and (3) cover: a merged tuple `t = l ∪ r` may take an
/// attribute `l` lacks from `r`.  On attribute `A` the merged tuple is its
/// `l` part — same value, or same absence — exactly when `l` always
/// carries `A` or `r` never can.  A dependency `X ⇒ Y` of one operand
/// therefore survives when
///
/// * every attribute of `X` is in that operand's `present` or outside the
///   other's `universe` (then `t` is defined on `X` iff `l` is, and
///   `t[X] = l[X]`), and
/// * its right side is cut down to the part on which `t` is `l` in the
///   sense the dependency needs: for an AD or explicit AD, `Y` minus the
///   other operand's `universe` (`attr(t) ∩ Y' = attr(l) ∩ Y'`); for an FD,
///   `Y` within the operand's own `present` (`t[Y'] = l[Y']`, and defined
///   even when `l` is alone in its `X`-group and two partners duplicate it).
///
/// The rule is sound for every pair of instances; it is not complete (a
/// dependency that happens to hold of both operands alike is dropped).
/// With disjoint universes it degenerates to rule (1) for ADs.
pub fn join_deps(
    left: &DependencySet,
    right: &DependencySet,
    left_bounds: AttrBounds<'_>,
    right_bounds: AttrBounds<'_>,
) -> DependencySet {
    let mut out = DependencySet::new();
    for (deps, own, other) in [
        (left, left_bounds, right_bounds),
        (right, right_bounds, left_bounds),
    ] {
        for dep in deps.iter() {
            if !dep
                .lhs()
                .difference(own.present)
                .is_disjoint(other.universe)
            {
                continue;
            }
            let rhs = match dep {
                Dependency::Fd(fd) => fd.rhs().intersection(own.present),
                _ => dep.rhs().difference(other.universe),
            };
            if !rhs.is_empty() {
                out.add(with_rhs(dep, &rhs));
            }
        }
    }
    out
}

/// Dependencies of an outer union — none (rule (4) applies; the outer union
/// is a union over padded inputs).
pub fn outer_union_deps() -> DependencySet {
    DependencySet::new()
}

#[cfg(test)]
mod tests {
    use super::*;
    use flexrel_core::attrs;
    use flexrel_core::dep::example2_jobtype_ead;

    fn sample() -> DependencySet {
        DependencySet::from_deps(vec![
            Dependency::Ad(Ad::new(
                attrs!["jobtype"],
                attrs!["products", "typing-speed"],
            )),
            Dependency::Fd(Fd::new(attrs!["empno"], attrs!["salary", "jobtype"])),
            Dependency::Ead(example2_jobtype_ead()),
        ])
    }

    #[test]
    fn projection_keeps_only_contained_lhs() {
        let out = project_deps(&sample(), &attrs!["jobtype", "products"]);
        // The AD and the EAD survive (lhs jobtype ⊆ X) with trimmed rhs; the
        // FD on empno is invalidated.
        assert_eq!(out.fds().count(), 0);
        let ads: Vec<Ad> = out.ads().collect();
        assert!(ads
            .iter()
            .all(|ad| ad.lhs() == &attrs!["jobtype"] && ad.rhs() == &attrs!["products"]));
        assert!(out.eads().next().is_some(), "the EAD survives structurally");
        let ead = out.eads().next().unwrap();
        assert!(ead
            .variants()
            .iter()
            .all(|v| v.attrs.is_subset(&attrs!["products"])));
    }

    #[test]
    fn projection_dropping_lhs_invalidates() {
        let out = project_deps(&sample(), &attrs!["products", "salary"]);
        assert!(out.is_empty());
    }

    #[test]
    fn select_and_difference_preserve_everything() {
        let s = sample();
        assert_eq!(select_deps(&s), s);
        assert_eq!(difference_deps(&s), s);
        assert_eq!(extend_deps(&s), s);
    }

    #[test]
    fn union_loses_everything() {
        assert!(union_deps().is_empty());
        assert!(outer_union_deps().is_empty());
    }

    #[test]
    fn product_and_join_union_both_sides() {
        // … the join when the attribute universes are disjoint.
        let left =
            DependencySet::from_deps(vec![Dependency::Ad(Ad::new(attrs!["a"], attrs!["b"]))]);
        let right =
            DependencySet::from_deps(vec![Dependency::Ad(Ad::new(attrs!["c"], attrs!["d"]))]);
        assert_eq!(product_deps(&left, &right).len(), 2);
        let (lu, ru, none) = (attrs!["a", "b"], attrs!["c", "d"], AttrSet::empty());
        let bounds = |universe| AttrBounds {
            universe,
            present: &none,
        };
        assert_eq!(
            join_deps(&left, &right, bounds(&lu), bounds(&ru)),
            product_deps(&left, &right)
        );
    }

    #[test]
    fn join_keeps_only_what_the_other_operand_cannot_disturb() {
        // employee ⋈ perks(empno, sales-commission): a secretary's merged
        // tuple may take sales-commission from perks, so the EAD loses that
        // attribute (and its salesman variant shrinks with it); the FD keeps
        // the mandatory part of its right side; an AD whose determinant the
        // other side could supply is dropped.
        let employee = DependencySet::from_deps(vec![
            Dependency::Ead(example2_jobtype_ead()),
            Dependency::Fd(Fd::new(attrs!["empno"], attrs!["salary", "typing-speed"])),
            Dependency::Ad(Ad::new(attrs!["sales-commission"], attrs!["products"])),
        ]);
        let universe = employee.attrs().union(&attrs!["empno", "salary"]);
        let present = attrs!["empno", "salary", "jobtype"];
        let (perks_universe, perks_present) =
            (attrs!["empno", "sales-commission"], attrs!["empno"]);
        let out = join_deps(
            &employee,
            &DependencySet::new(),
            AttrBounds {
                universe: &universe,
                present: &present,
            },
            AttrBounds {
                universe: &perks_universe,
                present: &perks_present,
            },
        );
        let ead = out.eads().next().expect("the EAD survives, trimmed");
        assert!(!ead.rhs().contains_name("sales-commission"));
        assert!(ead.rhs().contains_name("typing-speed"));
        assert!(ead
            .variants()
            .iter()
            .all(|v| !v.attrs.contains_name("sales-commission")));
        let fds: Vec<&Fd> = out.fds().collect();
        assert_eq!(fds, vec![&Fd::new(attrs!["empno"], attrs!["salary"])]);
        assert_eq!(out.ads().filter(|ad| ad.lhs() != ead.lhs()).count(), 0);
    }

    #[test]
    fn tagged_union_augments_left_sides() {
        let left = DependencySet::from_deps(vec![Dependency::Ad(Ad::new(
            attrs!["jobtype"],
            attrs!["products"],
        ))]);
        let right = DependencySet::from_deps(vec![Dependency::Fd(Fd::new(
            attrs!["empno"],
            attrs!["salary"],
        ))]);
        let out = tagged_union_deps(&left, &right, &Attr::new("src"));
        assert_eq!(out.len(), 2);
        for d in out.iter() {
            assert!(d.lhs().contains(&Attr::new("src")));
        }
        let ads: Vec<Ad> = out.ads().collect();
        assert_eq!(ads[0].lhs(), &attrs!["src", "jobtype"]);
    }
}
