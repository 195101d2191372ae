//! Sets of mixed dependencies (the `AF` of the completeness proof).

use std::collections::HashSet;
use std::fmt;

use crate::attr::AttrSet;
use crate::dep::{Ad, Dependency, Ead, Fd};
use crate::error::Result;
use crate::tuple::Tuple;

/// An ordered collection of [`Dependency`] values (FDs and ADs), as attached
/// to a flexible relation scheme or handed to the axiom systems.
///
/// Iteration order is insertion order (first insertion wins on duplicates);
/// a hash index alongside the ordered storage makes [`DependencySet::add`]
/// and [`DependencySet::contains`] O(1) instead of an O(n) scan, which is
/// what keeps axiom saturation and propagation from going quadratic in |Σ|.
#[derive(Clone, Debug, Default)]
pub struct DependencySet {
    deps: Vec<Dependency>,
    index: HashSet<Dependency>,
}

// Equality is over the ordered contents; the index is derived state.
impl PartialEq for DependencySet {
    fn eq(&self, other: &Self) -> bool {
        self.deps == other.deps
    }
}

impl Eq for DependencySet {}

impl DependencySet {
    /// The empty dependency set.
    pub fn new() -> Self {
        DependencySet::default()
    }

    /// Builds a set from an iterator of dependencies.
    ///
    /// Unlike [`DependencySet::add`], this preserves the given sequence
    /// verbatim, duplicates included (matching the original constructor).
    pub fn from_deps<I, D>(deps: I) -> Self
    where
        I: IntoIterator<Item = D>,
        D: Into<Dependency>,
    {
        let deps: Vec<Dependency> = deps.into_iter().map(Into::into).collect();
        let index = deps.iter().cloned().collect();
        DependencySet { deps, index }
    }

    /// Adds a dependency (duplicates are ignored).
    pub fn add(&mut self, dep: impl Into<Dependency>) {
        let dep = dep.into();
        if self.index.insert(dep.clone()) {
            self.deps.push(dep);
        }
    }

    /// Number of dependencies.
    pub fn len(&self) -> usize {
        self.deps.len()
    }

    /// Whether the set is empty.
    pub fn is_empty(&self) -> bool {
        self.deps.is_empty()
    }

    /// Whether the given dependency is syntactically contained in the set.
    pub fn contains(&self, dep: &Dependency) -> bool {
        self.index.contains(dep)
    }

    /// Iterates over all dependencies.
    pub fn iter(&self) -> impl Iterator<Item = &Dependency> + '_ {
        self.deps.iter()
    }

    /// Iterates over the attribute dependencies in abbreviated form; explicit
    /// ADs are abbreviated on the fly (this is the view the axiom systems
    /// reason over).
    pub fn ads(&self) -> impl Iterator<Item = Ad> + '_ {
        self.deps.iter().filter_map(|d| d.as_ad())
    }

    /// Iterates over the explicit attribute dependencies only.
    pub fn eads(&self) -> impl Iterator<Item = &Ead> + '_ {
        self.deps.iter().filter_map(|d| match d {
            Dependency::Ead(e) => Some(e),
            _ => None,
        })
    }

    /// For each explicit AD `⟨X ⇒ Y, …⟩` whose determinant `pinned` fixes:
    /// `(Y, Yi)`, the exact overlap `attr(t) ∩ Y = Yi` Def. 2.1 then
    /// prescribes for every tuple agreeing with `pinned` (`∅` when no
    /// variant matches).
    pub fn pinned_regions<'a>(
        &'a self,
        pinned: &'a Tuple,
    ) -> impl Iterator<Item = (&'a AttrSet, AttrSet)> + 'a {
        let attrs = pinned.attrs();
        self.eads()
            .filter(move |ead| ead.lhs().is_subset(&attrs))
            .map(move |ead| (ead.rhs(), ead.required_attrs(&pinned.project(ead.lhs()))))
    }

    /// Iterates over the functional dependencies only.
    pub fn fds(&self) -> impl Iterator<Item = &Fd> + '_ {
        self.deps.iter().filter_map(|d| match d {
            Dependency::Fd(fd) => Some(fd),
            _ => None,
        })
    }

    /// All attributes mentioned on either side of any dependency.
    pub fn attrs(&self) -> AttrSet {
        let mut out = AttrSet::empty();
        for d in &self.deps {
            out.extend_with(d.lhs());
            out.extend_with(d.rhs());
        }
        out
    }

    /// Whether every dependency holds on the given instance.
    pub fn satisfied_by(&self, tuples: &[Tuple]) -> bool {
        self.deps.iter().all(|d| d.satisfied_by(tuples))
    }

    /// Returns the first dependency violated by the instance, if any.
    pub fn first_violation(&self, tuples: &[Tuple]) -> Option<&Dependency> {
        self.deps.iter().find(|d| !d.satisfied_by(tuples))
    }

    /// Checks inserting `new` into `existing` against every dependency.
    /// Explicit ADs constrain the new tuple on its own (Def. 2.1);
    /// abbreviated ADs and FDs constrain it relative to the existing tuples.
    pub fn check_insert(&self, existing: &[Tuple], new: &Tuple) -> Result<()> {
        for d in &self.deps {
            match d {
                Dependency::Ad(ad) => ad.check_insert(existing, new)?,
                Dependency::Ead(ead) => ead.check_tuple(new)?,
                Dependency::Fd(fd) => fd.check_insert(existing, new)?,
            }
        }
        Ok(())
    }

    /// Removes and returns the dependency at `index`.
    pub fn remove(&mut self, index: usize) -> Dependency {
        let removed = self.deps.remove(index);
        // `from_deps` may have stored duplicates; only drop the hash entry
        // when the last occurrence goes.
        if !self.deps.contains(&removed) {
            self.index.remove(&removed);
        }
        removed
    }

    /// A new set containing only the attribute dependencies (abbreviated and
    /// explicit).
    pub fn only_ads(&self) -> DependencySet {
        DependencySet::from_deps(self.deps.iter().filter(|d| d.is_ad()).cloned())
    }

    /// A new set containing only the functional dependencies.
    pub fn only_fds(&self) -> DependencySet {
        DependencySet::from_deps(self.deps.iter().filter(|d| d.is_fd()).cloned())
    }

    /// Union of two dependency sets (duplicates removed).
    pub fn union(&self, other: &DependencySet) -> DependencySet {
        let mut out = self.clone();
        for d in &other.deps {
            out.add(d.clone());
        }
        out
    }
}

impl fmt::Display for DependencySet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{{")?;
        for (i, d) in self.deps.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{}", d)?;
        }
        write!(f, "}}")
    }
}

impl FromIterator<Dependency> for DependencySet {
    fn from_iter<T: IntoIterator<Item = Dependency>>(iter: T) -> Self {
        let mut s = DependencySet::new();
        for d in iter {
            s.add(d);
        }
        s
    }
}

impl<'a> IntoIterator for &'a DependencySet {
    type Item = &'a Dependency;
    type IntoIter = std::slice::Iter<'a, Dependency>;
    fn into_iter(self) -> Self::IntoIter {
        self.deps.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::value::Value;
    use crate::{attrs, tuple};

    fn sample() -> DependencySet {
        let mut s = DependencySet::new();
        s.add(Ad::new(attrs!["jobtype"], attrs!["products"]));
        s.add(Fd::new(attrs!["empno"], attrs!["salary"]));
        s
    }

    #[test]
    fn add_deduplicates() {
        let mut s = sample();
        assert_eq!(s.len(), 2);
        s.add(Ad::new(attrs!["jobtype"], attrs!["products"]));
        assert_eq!(s.len(), 2);
    }

    #[test]
    fn iteration_is_insertion_order_stable() {
        // The hash dedup index must not disturb the observable order: the set
        // iterates in first-insertion order, duplicates are dropped, and
        // removal keeps the relative order of the survivors.
        let mut s = DependencySet::new();
        let deps: Vec<Dependency> = vec![
            Ad::new(attrs!["z"], attrs!["y"]).into(),
            Fd::new(attrs!["a"], attrs!["b"]).into(),
            Ad::new(attrs!["m"], attrs!["n"]).into(),
            Fd::new(attrs!["z"], attrs!["a"]).into(),
        ];
        for d in &deps {
            s.add(d.clone());
        }
        // Re-adding earlier members must neither duplicate nor reorder.
        s.add(deps[2].clone());
        s.add(deps[0].clone());
        let got: Vec<&Dependency> = s.iter().collect();
        assert_eq!(got, deps.iter().collect::<Vec<_>>());
        assert!(deps.iter().all(|d| s.contains(d)));
        // Removal preserves the order of the remaining members.
        let removed = s.remove(1);
        assert_eq!(removed, deps[1]);
        assert!(!s.contains(&deps[1]));
        let got: Vec<&Dependency> = s.iter().collect();
        assert_eq!(got, vec![&deps[0], &deps[2], &deps[3]]);
        // And adding the removed member again appends at the end.
        s.add(deps[1].clone());
        let got: Vec<&Dependency> = s.iter().collect();
        assert_eq!(got, vec![&deps[0], &deps[2], &deps[3], &deps[1]]);
    }

    #[test]
    fn partitioning_by_kind() {
        let s = sample();
        assert_eq!(s.ads().count(), 1);
        assert_eq!(s.fds().count(), 1);
        assert_eq!(s.only_ads().len(), 1);
        assert_eq!(s.only_fds().len(), 1);
    }

    #[test]
    fn attrs_collects_both_sides() {
        let s = sample();
        assert_eq!(s.attrs(), attrs!["jobtype", "products", "empno", "salary"]);
    }

    #[test]
    fn satisfaction_and_violation() {
        let s = sample();
        let good = vec![
            tuple! {"empno" => 1, "salary" => 100, "jobtype" => Value::tag("salesman"), "products" => "crm"},
            tuple! {"empno" => 2, "salary" => 120, "jobtype" => Value::tag("salesman"), "products" => "erp"},
        ];
        assert!(s.satisfied_by(&good));
        assert!(s.first_violation(&good).is_none());

        let bad = vec![
            tuple! {"empno" => 1, "salary" => 100},
            tuple! {"empno" => 1, "salary" => 999},
        ];
        assert!(!s.satisfied_by(&bad));
        assert!(s.first_violation(&bad).unwrap().is_fd());
    }

    #[test]
    fn check_insert_delegates_to_members() {
        let s = sample();
        let existing = vec![tuple! {"empno" => 1, "salary" => 100}];
        assert!(s
            .check_insert(&existing, &tuple! {"empno" => 1, "salary" => 100})
            .is_ok());
        assert!(s
            .check_insert(&existing, &tuple! {"empno" => 1, "salary" => 2})
            .is_err());
    }

    #[test]
    fn union_merges_without_duplicates() {
        let a = sample();
        let mut b = DependencySet::new();
        b.add(Fd::new(attrs!["empno"], attrs!["salary"]));
        b.add(Ad::new(attrs!["x"], attrs!["y"]));
        let u = a.union(&b);
        assert_eq!(u.len(), 3);
    }

    #[test]
    fn display_lists_members() {
        let s = sample();
        let txt = s.to_string();
        assert!(txt.contains("--attr-->"));
        assert!(txt.contains("--func-->"));
    }

    /// Pinning an EAD's determinant fixes the exact overlap with `Y`
    /// (Def. 2.1): the other variants' attributes are absent, and an
    /// unpinned determinant fixes nothing.
    #[test]
    fn pinned_ead_determinant_excludes_the_other_variants() {
        let mut deps = DependencySet::new();
        deps.add(crate::dep::example2_jobtype_ead());
        let pinned = Tuple::new().with("jobtype", Value::tag("secretary"));
        let regions: Vec<_> = deps.pinned_regions(&pinned).collect();
        assert_eq!(regions.len(), 1);
        let absent = regions[0].0.difference(&regions[0].1);
        assert!(absent.contains_name("products"), "{absent}");
        assert!(!absent.contains_name("typing-speed"), "{absent}");
        assert_eq!(deps.pinned_regions(&Tuple::new()).count(), 0);
    }
}
