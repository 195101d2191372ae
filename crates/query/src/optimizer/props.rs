//! What holds of the tuples a plan node yields — the one derivation every
//! rewrite and every estimate asks.
//!
//! [`plan_props`] computes, bottom-up and from the catalog alone (never from
//! stored tuples, so the answer holds for every instance), five facts about
//! a node's output; one arm per operator:
//!
//! | operator | `universe` (at most) | `present` (at least) | `pinned` | `deps` (Theorem 4.3) | `source` |
//! |---|---|---|---|---|---|
//! | `Scan r` [qualified `q`, shape `s`] | `attrs(r)` | `mandatory(r) ∪ required(q) ∪ s.required` | `eq(q)` | `Σ_r`, borrowed | `r`, whole tuples |
//! | `IndexLookup r`, `k = v` | as `Scan` | `… ∪ k` | `… ∪ v` | `Σ_r`, borrowed | `r`, whole |
//! | `Filter p` | = | `∪ required(p)` | `∪ eq(p)` | rule 3: = | = |
//! | `Guard g` | = | `∪ g` | = | = | = |
//! | `Project X` | `∩ X` | `∩ X` | restricted to `X` | rule 2 | `r`, restricted |
//! | `Extend A:a` | `∪ A` | `∪ A` | `∪ {A = a}` | extension | none |
//! | `Join` | `∪` | `∪` | merged | [`join_deps`] | none |
//! | `UnionAll` | `∪` | `∩` | what all branches agree on | rule 4: `∅` | none |
//! | `Aggregate G` | `G ∪ outputs` | `G` | `∅` | `∅` | none |
//!
//! The other half — what the operators *above* a node guarantee of the
//! tuples that reach the result — is `Inherited`, with its one step
//! `Inherited::descend`.

use std::borrow::Cow;

use flexrel_algebra::predicate::Predicate;
use flexrel_algebra::propagate::{extend_deps, join_deps, project_deps, union_deps, AttrBounds};
use flexrel_core::attr::{Attr, AttrSet};
use flexrel_core::dep::DependencySet;
use flexrel_core::facts::SemanticFacts;
use flexrel_core::tuple::Tuple;
use flexrel_storage::Catalog;

use crate::logical::LogicalPlan;

/// The stored relation all rows of a plan come from.
#[derive(Clone, Copy, Debug)]
pub struct Source<'a> {
    /// Its name.
    pub relation: &'a str,
    /// Its facts: what the declared dependencies say of any two stored
    /// tuples ([`SemanticFacts::determines`]).
    pub facts: &'a SemanticFacts,
    /// Whether the rows are whole stored tuples; otherwise they are
    /// restrictions of stored tuples, without duplicates (a projection).
    pub whole: bool,
}

/// What holds of every tuple a plan node yields, on every instance.
#[derive(Clone, Debug, Default)]
pub struct PlanProps<'a> {
    /// The one stored relation the rows come from, where there is one.
    pub source: Option<Source<'a>>,
    /// No tuple carries an attribute outside this set.
    pub universe: AttrSet,
    /// Every tuple carries all of these.
    pub present: AttrSet,
    /// Every tuple carries each of these attributes with this value.
    pub pinned: Tuple,
    /// Dependencies the output satisfies: the relation's declared set,
    /// borrowed, as long as the rows are its whole tuples; otherwise what
    /// Theorem 4.3 derives.
    pub deps: Cow<'a, DependencySet>,
}

impl PlanProps<'_> {
    /// The tuples also satisfy the selection `p`.
    fn select(&mut self, p: &Predicate) {
        self.present.extend_with(&p.required_attrs());
        self.pinned = self.pinned.merged_with(&p.implied_equalities());
    }

    fn bounds(&self) -> AttrBounds<'_> {
        AttrBounds {
            universe: &self.universe,
            present: &self.present,
        }
    }
}

/// The stored tuples of `relation`, admitted by `shape` where one is given.
fn stored<'a>(
    relation: &str,
    shape: &Option<crate::logical::ShapePredicate>,
    catalog: &'a Catalog,
) -> Option<PlanProps<'a>> {
    let def = catalog.get(relation).ok()?;
    let facts = catalog.facts(relation)?;
    let mut present = facts.mandatory().clone();
    if let Some(s) = shape {
        present.extend_with(&s.required);
    }
    Some(PlanProps {
        source: Some(Source {
            relation: &def.name,
            facts,
            whole: true,
        }),
        universe: facts.attrs().clone(),
        present,
        pinned: Tuple::empty(),
        deps: Cow::Borrowed(&def.deps),
    })
}

/// What holds of `node`'s output (see the module table).  `None` when the
/// plan names a relation the catalog does not know.
pub fn plan_props<'a>(node: &LogicalPlan, catalog: &'a Catalog) -> Option<PlanProps<'a>> {
    Some(match node {
        // No tuple: the strongest claims about none.
        LogicalPlan::Empty => PlanProps::default(),
        LogicalPlan::Scan {
            relation,
            qualification,
            shape,
        } => {
            let mut p = stored(relation, shape, catalog)?;
            if let Some(q) = qualification {
                p.select(q);
            }
            p
        }
        LogicalPlan::IndexLookup {
            relation,
            key,
            key_value,
            shapes,
        } => {
            let mut p = stored(relation, shapes, catalog)?;
            p.present.extend_with(key);
            p.pinned = p.pinned.merged_with(key_value);
            p
        }
        LogicalPlan::Filter { input, predicate } => {
            let mut p = plan_props(input, catalog)?;
            p.select(predicate);
            p
        }
        LogicalPlan::Guard { input, attrs } => {
            let mut p = plan_props(input, catalog)?;
            p.present.extend_with(attrs);
            p
        }
        LogicalPlan::Project { input, attrs } => {
            let p = plan_props(input, catalog)?;
            PlanProps {
                source: p.source.map(|s| Source { whole: false, ..s }),
                universe: p.universe.intersection(attrs),
                present: p.present.intersection(attrs),
                pinned: p.pinned.project(attrs),
                deps: Cow::Owned(project_deps(&p.deps, attrs)),
            }
        }
        LogicalPlan::Extend { input, attr, value } => {
            let mut p = plan_props(input, catalog)?;
            let a = Attr::new(attr);
            // ε overwrites an `A` the input already carries; what its
            // dependencies said of the old `A` is gone (rule 2 onto the
            // other attributes).
            p.deps = Cow::Owned(if p.universe.contains(&a) {
                project_deps(&p.deps, &p.universe.difference(&a.to_set()))
            } else {
                extend_deps(&p.deps)
            });
            p.source = None;
            p.universe.insert(a.clone());
            p.present.insert(a.clone());
            p.pinned.insert(a, value.clone());
            p
        }
        LogicalPlan::Join { left, right, .. } => {
            let (l, r) = (plan_props(left, catalog)?, plan_props(right, catalog)?);
            PlanProps {
                source: None,
                deps: Cow::Owned(join_deps(&l.deps, &r.deps, l.bounds(), r.bounds())),
                universe: l.universe.union(&r.universe),
                present: l.present.union(&r.present),
                pinned: l.pinned.merged_with(&r.pinned),
            }
        }
        LogicalPlan::UnionAll { inputs } => {
            let mut branches = inputs.iter().map(|p| plan_props(p, catalog));
            let Some(first) = branches.next() else {
                return Some(PlanProps::default());
            };
            let mut acc = first?;
            for p in branches {
                let p = p?;
                acc.universe.extend_with(&p.universe);
                acc.present = acc.present.intersection(&p.present);
                let agreed = acc
                    .pinned
                    .attrs()
                    .iter()
                    .filter(|a| acc.pinned.get(a) == p.pinned.get(a));
                acc.pinned = acc.pinned.project(&agreed.collect());
            }
            acc.source = None;
            acc.deps = Cow::Owned(union_deps());
            acc
        }
        LogicalPlan::Aggregate { group_by, aggs, .. } => {
            let mut universe = group_by.clone();
            for a in aggs {
                universe.insert(a.output.clone());
            }
            PlanProps {
                universe,
                present: group_by.clone(),
                ..PlanProps::default()
            }
        }
    })
}

/// What the operators above a node guarantee of those of its tuples that
/// reach the result: they carry `present`, with the `pinned` values.  A
/// rewrite below may rely on it — a tuple it treats differently is one the
/// operators above drop anyway.
#[derive(Clone, Debug, Default)]
pub(super) struct Inherited {
    pub(super) present: AttrSet,
    pub(super) pinned: Tuple,
}

impl Inherited {
    /// `self`, and the tuples also satisfy the selection `p`.
    pub(super) fn select(&self, p: &Predicate) -> Inherited {
        Inherited {
            present: self.present.union(&p.required_attrs()),
            pinned: self.pinned.merged_with(&p.implied_equalities()),
        }
    }

    /// The step from `node`'s output to its inputs.  Selections and guards
    /// add to what is known; a projection and a union pass it on; an
    /// extension takes its own attribute out (the input need not carry it);
    /// a join starts over — an attribute a merged tuple carries may be the
    /// other operand's — as does an aggregate, whose output attributes are
    /// new, except that grouping is itself a guard on the grouping
    /// attributes.
    pub(super) fn descend(&self, node: &LogicalPlan) -> Inherited {
        match node {
            LogicalPlan::Filter { predicate, .. } => self.select(predicate),
            LogicalPlan::Guard { attrs, .. } => Inherited {
                present: self.present.union(attrs),
                pinned: self.pinned.clone(),
            },
            LogicalPlan::Extend { attr, .. } => {
                let mut below = self.clone();
                let a = Attr::new(attr);
                below.present.remove(&a);
                below.pinned.remove(&a);
                below
            }
            LogicalPlan::Join { .. } => Inherited::default(),
            LogicalPlan::Aggregate { group_by, .. } => Inherited {
                present: group_by.clone(),
                pinned: Tuple::empty(),
            },
            _ => self.clone(),
        }
    }
}
