//! The rewrite rules.  Each is licensed by what [`plan_props`] derives of
//! the tuples *below* a node and what `Inherited` says of the tuples that
//! survive *above* it — never by a look at the plan's shape alone:
//!
//! * **guard analysis** — a `Guard` node or a `PRESENT` conjunct goes to
//!   [`analyse_guard`] with the input's dependencies, present attributes
//!   and pinned values plus the inherited ones; a redundant guard is
//!   removed with its ℰ-derivation in the note (Example 4 — and a guard on
//!   mandatory attributes is the reflexive case), an unsatisfiable one
//!   empties its branch.
//! * **variant / join pruning** — a node whose output pins an attribute to
//!   another constant than the one inherited from above yields nothing
//!   that survives (qualified fragments, §3.1.2).
//! * **EAD predicate folding** — once an explicit AD's determinant is
//!   pinned, Def. 2.1 fixes the variant; atoms over attributes outside it
//!   are `false`.
//! * **selection pushdown** through the natural join, by the operands'
//!   `universe` and `present` sets.
//! * **join elimination** and **group-by elimination**, by the input's
//!   `source` relation and the FDs its facts prove.
//! * **constant folding** and **empty-plan propagation**.
//!
//! `rewrite` is one round of all of them (it is run to a fixpoint by
//! [`super::optimize`]); every rule logs to [`Notes`] only when it changes
//! the plan, so a further round neither loops nor repeats a note.  Two
//! passes run once, afterwards: `prune_scans` decorates the leaves with
//! [`ShapePredicate`]s, and [`choose_access_paths`] is physical.

use flexrel_algebra::predicate::{CmpOp, Predicate};
use flexrel_core::attr::AttrSet;
use flexrel_core::axioms::AxiomSystem;
use flexrel_core::tuple::Tuple;
use flexrel_core::typecheck::{analyse_guard, GuardAnalysis, SelectionContext, TypeGuard};
use flexrel_core::value::Value;
use flexrel_storage::{Catalog, Database, IndexInfo};

use crate::exec::LazyPartitions;
use crate::logical::{AggFunc, LogicalPlan, ShapePredicate};

use super::props::{plan_props, Inherited, PlanProps};
use super::{cost, Notes};

/// One round of the rules over the whole plan: on the way down the rules
/// that read the node and what it inherits, on the way up those that read
/// the rewritten inputs.
pub(super) fn rewrite(
    plan: LogicalPlan,
    catalog: &Catalog,
    above: &Inherited,
    notes: &mut Notes,
) -> LogicalPlan {
    if contradicts_inherited(&plan, catalog, above, notes) {
        return LogicalPlan::Empty;
    }
    let plan = match plan {
        LogicalPlan::Guard { input, attrs } => decide_guard(*input, attrs, catalog, above, notes),
        LogicalPlan::Filter { input, predicate } => {
            simplify_filter(*input, predicate, catalog, above, notes)
        }
        other => other,
    };
    let below = above.descend(&plan);
    let plan = plan.map_children(|p| rewrite(p, catalog, &below, notes));
    let plan = eliminate_join(plan, catalog, notes);
    let plan = eliminate_groupby(plan, catalog, notes);
    collapse_empty(plan, notes)
}

/// **variant-pruning / join-pruning.**  Every tuple of `plan` carries
/// `A = d`, and only tuples with `A = c ≠ d` survive above: nothing does.
/// For a join this is where a selection above meets an operand's
/// qualification — a merged tuple carries what either part pins.
fn contradicts_inherited(
    plan: &LogicalPlan,
    catalog: &Catalog,
    above: &Inherited,
    notes: &mut Notes,
) -> bool {
    if above.pinned.is_empty() || matches!(plan, LogicalPlan::Empty) {
        return false;
    }
    let Some(props) = plan_props(plan, catalog) else {
        return false;
    };
    let clash = above
        .pinned
        .iter()
        .any(|(a, v)| props.pinned.get(a).is_some_and(|w| w != v));
    if clash {
        let rule = match plan {
            LogicalPlan::Join { .. } => "join-pruning",
            _ => "variant-pruning",
        };
        notes.push(rule, || {
            format!(
                "every tuple here carries {}, the selection above keeps only {}; branch removed",
                props.pinned, above.pinned
            )
        });
    }
    clash
}

/// What is known of a tuple that came out of a node with `props` and will
/// survive the operators `above`, in [`analyse_guard`]'s terms.
fn guard_context(above: &Inherited, props: &PlanProps<'_>) -> SelectionContext {
    SelectionContext {
        referenced: above.present.union(&props.present),
        equalities: above.pinned.merged_with(&props.pinned),
    }
}

/// **guard-elimination / guard-unsatisfiable** for a `Guard` node.
fn decide_guard(
    input: LogicalPlan,
    attrs: AttrSet,
    catalog: &Catalog,
    above: &Inherited,
    notes: &mut Notes,
) -> LogicalPlan {
    let Some(props) = plan_props(&input, catalog) else {
        return input.guard(attrs);
    };
    let ctx = guard_context(above, &props);
    match analyse_guard(
        &props.deps,
        &ctx,
        &TypeGuard::new(attrs.clone()),
        AxiomSystem::E,
    ) {
        GuardAnalysis::Redundant(derivation) => {
            notes.push("guard-elimination", || {
                format!(
                    "guard for {} is redundant; justified by:\n{}",
                    attrs, derivation
                )
            });
            input
        }
        GuardAnalysis::Unsatisfiable => {
            notes.push("guard-unsatisfiable", || {
                format!(
                    "guard for {} can never hold under the selection; branch pruned",
                    attrs
                )
            });
            LogicalPlan::Empty
        }
        GuardAnalysis::Necessary => input.guard(attrs),
    }
}

/// `p` with each top-level conjunct `c` replaced by `f(c)` where that is
/// `Some`; the conjunction keeps its shape.
fn map_conjuncts(p: &Predicate, f: &mut impl FnMut(&Predicate) -> Option<Predicate>) -> Predicate {
    match p {
        Predicate::And(a, b) => map_conjuncts(a, f).and(map_conjuncts(b, f)),
        leaf => f(leaf).unwrap_or_else(|| leaf.clone()),
    }
}

/// The top-level conjuncts of a predicate, in order.
fn conjuncts(p: &Predicate) -> Vec<&Predicate> {
    match p {
        Predicate::And(a, b) => [conjuncts(a), conjuncts(b)].concat(),
        leaf => vec![leaf],
    }
}

/// The rules of a `Filter` node: its `PRESENT` conjuncts are decided, atoms
/// an explicit AD rules out are folded, a constant predicate is folded
/// away, and over a join the conjuncts are pushed to the operands.
fn simplify_filter(
    input: LogicalPlan,
    predicate: Predicate,
    catalog: &Catalog,
    above: &Inherited,
    notes: &mut Notes,
) -> LogicalPlan {
    let predicate = match plan_props(&input, catalog) {
        Some(props) => {
            let predicate = decide_present_conjuncts(predicate, &props, above, notes);
            fold_absent_atoms(predicate, &props, notes)
        }
        None => predicate,
    };
    match (predicate, input) {
        (Predicate::False, _) => {
            notes.push("constant-folding", || "predicate is constant false".into());
            LogicalPlan::Empty
        }
        (Predicate::True, input) => {
            notes.push("constant-folding", || "predicate is constant true".into());
            input
        }
        (predicate, LogicalPlan::Join { left, right, .. }) => {
            split_over_join(predicate, *left, *right, catalog, notes)
        }
        (predicate, input) => input.filter(predicate),
    }
}

/// **guard-elimination / guard-unsatisfiable** for the `PRESENT(…)`
/// conjuncts of a selection.  A conjunct is judged by everything known
/// *besides* the `PRESENT` conjuncts — what is inherited, what holds of the
/// input, and the other conjuncts of this predicate — so that a guard never
/// justifies itself.  Inside disjunctions and negations the conjunction
/// context does not apply; they are left alone.
fn decide_present_conjuncts(
    predicate: Predicate,
    props: &PlanProps<'_>,
    above: &Inherited,
    notes: &mut Notes,
) -> Predicate {
    let is_guard = |c: &Predicate| matches!(c, Predicate::IsPresent(_));
    if !conjuncts(&predicate).into_iter().any(is_guard) {
        return predicate;
    }
    let others = map_conjuncts(&predicate, &mut |c| is_guard(c).then_some(Predicate::True));
    let ctx = guard_context(&above.select(&others), props);
    map_conjuncts(&predicate, &mut |c| {
        let Predicate::IsPresent(attrs) = c else {
            return None;
        };
        match analyse_guard(
            &props.deps,
            &ctx,
            &TypeGuard::new(attrs.clone()),
            AxiomSystem::E,
        ) {
            GuardAnalysis::Redundant(d) => {
                notes.push("guard-elimination", || {
                    format!("PRESENT({}) is redundant; justified by:\n{}", attrs, d)
                });
                Some(Predicate::True)
            }
            GuardAnalysis::Unsatisfiable => {
                notes.push("guard-unsatisfiable", || {
                    format!("PRESENT({}) can never hold under the selection", attrs)
                });
                Some(Predicate::False)
            }
            GuardAnalysis::Necessary => None,
        }
    })
    .simplify()
}

/// **ead-predicate-simplification.**  What the input pins and what the
/// predicate's own top-level equalities pin fixes the variant of every
/// tuple that can still qualify; an atom over an attribute *outside* that
/// variant is `false` on all of them, and tuples of other variants fail the
/// pinning conjuncts either way — so such atoms fold to `false` through
/// the whole predicate tree.
fn fold_absent_atoms(predicate: Predicate, props: &PlanProps<'_>, notes: &mut Notes) -> Predicate {
    fn fold(p: &Predicate, absent: &AttrSet) -> Predicate {
        match p {
            Predicate::Cmp { attr, .. } if absent.contains(attr) => Predicate::False,
            Predicate::IsPresent(attrs) if !attrs.is_disjoint(absent) => Predicate::False,
            Predicate::And(a, b) => fold(a, absent).and(fold(b, absent)),
            Predicate::Or(a, b) => fold(a, absent).or(fold(b, absent)),
            Predicate::Not(a) => fold(a, absent).negate(),
            other => other.clone(),
        }
    }
    let pinned = props.pinned.merged_with(&predicate.implied_equalities());
    let absent = props
        .deps
        .pinned_regions(&pinned)
        .fold(AttrSet::empty(), |acc, (y, yi)| {
            acc.union(&y.difference(&yi))
        });
    if absent.is_empty() {
        return predicate;
    }
    let folded = fold(&predicate, &absent).simplify();
    if folded != predicate {
        notes.push("ead-predicate-simplification", || {
            format!(
                "the pinned EAD determinant excludes {}; atoms over those \
                 attributes folded to false",
                absent
            )
        });
    }
    folded
}

/// Whether every tuple `plan` yields already satisfies the comparison
/// `atom`, because a filter, qualification or index key below says so —
/// which is what keeps copying a conjunct down idempotent.
fn already_selects(plan: &LogicalPlan, atom: &Predicate) -> bool {
    match plan {
        LogicalPlan::Filter { input, predicate } => {
            conjuncts(predicate).contains(&atom) || already_selects(input, atom)
        }
        LogicalPlan::Guard { input, .. } | LogicalPlan::Project { input, .. } => {
            already_selects(input, atom)
        }
        LogicalPlan::Join { left, right, .. } => {
            already_selects(left, atom) || already_selects(right, atom)
        }
        LogicalPlan::Scan { qualification, .. } => qualification
            .as_ref()
            .is_some_and(|q| conjuncts(q).contains(&atom)),
        LogicalPlan::IndexLookup { key_value, .. } => matches!(
            atom,
            Predicate::Cmp { attr, op: CmpOp::Eq, value } if key_value.get(attr) == Some(value)
        ),
        _ => false,
    }
}

/// Conjoins `conjuncts` onto a join operand, merging into a filter that is
/// already its root so the access-path pass sees one predicate over the
/// scan.
fn filter_operand(plan: LogicalPlan, conjuncts: Vec<Predicate>) -> LogicalPlan {
    let Some(pushed) = conjuncts.into_iter().reduce(Predicate::and) else {
        return plan;
    };
    match plan {
        LogicalPlan::Filter { input, predicate } => input.filter(predicate.and(pushed)),
        other => other.filter(pushed),
    }
}

/// **selection-pushdown** through the natural join.  A join merges
/// compatible tuples, so an output tuple's value (or absence) on attribute
/// `A` is its left part's whenever the right operand can never carry `A`,
/// and the other way round — decided from the operands' `universe`, which
/// holds for every instance.  For each top-level comparison conjunct
/// `A op c` of a filter directly above `left ⋈ right`:
///
/// * `A` in exactly one operand's universe — the conjunct **moves** to that
///   operand: it evaluates there exactly as it did above.
/// * `A` in both universes — an output tuple may take `A` from either part
///   (one may lack it while the other supplies the passing value), so the
///   conjunct stays above the join; a **copy** goes to each operand where
///   `A` is `present`, because there every tuple carries the value the
///   merged tuple will have.
///
/// Anything else — `NOT`, `OR`, `PRESENT` — stays where it is.  The pushed
/// filter is visited next, so a conjunct sinks through a whole join tree to
/// the scan that owns its attribute, where the access-path pass and the
/// join-strategy gate find a selective operand.
fn split_over_join(
    predicate: Predicate,
    left: LogicalPlan,
    right: LogicalPlan,
    catalog: &Catalog,
    notes: &mut Notes,
) -> LogicalPlan {
    let (Some(l), Some(r)) = (plan_props(&left, catalog), plan_props(&right, catalog)) else {
        return left.join(right).filter(predicate);
    };
    let (mut above, mut to_left, mut to_right) = (Vec::new(), Vec::new(), Vec::new());
    for c in conjuncts(&predicate).into_iter().cloned() {
        let Predicate::Cmp { attr, .. } = &c else {
            above.push(c);
            continue;
        };
        match (l.universe.contains(attr), r.universe.contains(attr)) {
            (true, false) => to_left.push(c),
            (false, true) => to_right.push(c),
            (true, true) => {
                if l.present.contains(attr) && !already_selects(&left, &c) {
                    to_left.push(c.clone());
                }
                if r.present.contains(attr) && !already_selects(&right, &c) {
                    to_right.push(c.clone());
                }
                above.push(c);
            }
            (false, false) => above.push(c),
        }
    }
    if !to_left.is_empty() || !to_right.is_empty() {
        notes.push("selection-pushdown", || {
            let list = |cs: &[Predicate]| cs.iter().map(Predicate::to_string).collect::<Vec<_>>();
            format!(
                "pushed below the join: {:?} to the left operand, {:?} to the right",
                list(&to_left),
                list(&to_right)
            )
        });
    }
    let join = filter_operand(left, to_left).join(filter_operand(right, to_right));
    match above.into_iter().reduce(Predicate::and) {
        Some(predicate) => join.filter(predicate),
        None => join,
    }
}

/// Whether a plan is a bare `π_A(rel)` fetch: a projection directly over an
/// unqualified, unrestricted scan.  Only such a side may be eliminated —
/// a qualification or shape restriction would make the projection a strict
/// subset of `π_A(rel)`, turning the join into a semi-join filter.
fn as_bare_projection(plan: &LogicalPlan) -> Option<(&str, &AttrSet)> {
    if let LogicalPlan::Project { input, attrs } = plan {
        if let LogicalPlan::Scan {
            relation,
            qualification: None,
            shape: None,
        } = input.as_ref()
        {
            return Some((relation, attrs));
        }
    }
    None
}

/// **join-elimination.**  In `probe ⋈ π_A(rel)` where the probe's rows are
/// (restrictions of) stored tuples of `rel` too, every probe tuple carries
/// the join key `X = A ∩ present(probe)` of a stored tuple, `A` is mandatory
/// (so `π_A(rel)` has no partial tuples) and the declared FDs give `X → A`:
/// each probe tuple then merges with **exactly one** build tuple — the
/// `A`-projection of its own originating stored tuple (the build side is
/// duplicate-free because `Project` has set semantics).  The join is the
/// identity on the probe side except for widening each tuple by `A`, so it
/// is replaced by the probe alone (when it already carries `A`) or by the
/// probe with its projection widened to `B ∪ A` (when the projection's
/// input rows are whole stored tuples, which carry `A` with the
/// FD-consistent values).
fn eliminate_join(plan: LogicalPlan, catalog: &Catalog, notes: &mut Notes) -> LogicalPlan {
    let LogicalPlan::Join {
        left,
        right,
        strategy,
    } = plan
    else {
        return plan;
    };
    for (fetch, probe) in [(&left, &right), (&right, &left)] {
        let Some((rel, a)) = as_bare_projection(fetch) else {
            continue;
        };
        let Some(props) = plan_props(probe, catalog) else {
            continue;
        };
        let Some(source) = props.source.filter(|s| s.relation == rel) else {
            continue;
        };
        let x = a.intersection(&props.present);
        if x.is_empty() || !a.is_subset(source.facts.mandatory()) || !source.facts.determines(&x, a)
        {
            continue;
        }
        if a.is_subset(&props.present) {
            notes.push("join-elimination", || {
                format!(
                    "join with π_{}({}) removed: the other side already carries {}, \
                     and {} → {} makes each tuple's partner unique",
                    a, rel, a, x, a
                )
            });
            return (**probe).clone();
        }
        if let LogicalPlan::Project { input, attrs } = probe.as_ref() {
            let whole = plan_props(input, catalog)
                .and_then(|p| p.source)
                .is_some_and(|s| s.whole);
            if whole {
                notes.push("join-elimination", || {
                    format!(
                        "join with π_{}({}) removed: {} → {} lets the projection \
                         be widened to fetch {} directly",
                        a, rel, x, a, a
                    )
                });
                return (**input).clone().project(attrs.union(a));
            }
        }
    }
    LogicalPlan::Join {
        left,
        right,
        strategy,
    }
}

/// **groupby-elimination.**  `GROUP BY G` over the duplicate-free
/// projection `π_B(input)` of whole stored tuples, with `G ⊆ B ⊆ present`
/// and the FD `G → B`: distinct `B`-values have distinct `G`-values (the FD
/// holds pairwise on the stored tuples the projection came from), so every
/// group is a singleton and `COUNT(*)` is the constant `1`.
fn eliminate_groupby(plan: LogicalPlan, catalog: &Catalog, notes: &mut Notes) -> LogicalPlan {
    let LogicalPlan::Aggregate {
        input,
        group_by,
        aggs,
    } = plan
    else {
        return plan;
    };
    let singleton_groups = || {
        let counts_only = aggs
            .iter()
            .all(|a| matches!(a.func, AggFunc::Count) && a.input.is_none());
        let LogicalPlan::Project {
            input: inner,
            attrs,
        } = input.as_ref()
        else {
            return None;
        };
        let props = plan_props(inner, catalog)?;
        let source = props.source.filter(|s| s.whole)?;
        (counts_only
            && !group_by.is_empty()
            && group_by.is_subset(attrs)
            && attrs.is_subset(&props.present)
            && source.facts.determines(&group_by, attrs))
        .then(|| (inner.clone(), source.relation, attrs.clone()))
    };
    let Some((inner, rel, b)) = singleton_groups() else {
        return LogicalPlan::Aggregate {
            input,
            group_by,
            aggs,
        };
    };
    notes.push("groupby-elimination", || {
        format!(
            "GROUP BY {} over π_{}({}) has singleton groups ({} → {}); \
             COUNT(*) folded to the constant 1",
            group_by, b, rel, group_by, b
        )
    });
    aggs.into_iter()
        .fold(inner.project(group_by), |plan, agg| LogicalPlan::Extend {
            input: Box::new(plan),
            attr: agg.output.name().to_string(),
            value: Value::Int(1),
        })
}

/// **empty-propagation**, one node: an operator over an empty input is
/// empty — except the global aggregate, which still emits its single row
/// (`COUNT(*) = 0`) — and a union keeps its non-empty branches.
fn collapse_empty(plan: LogicalPlan, notes: &mut Notes) -> LogicalPlan {
    let empty = |p: &LogicalPlan| matches!(p, LogicalPlan::Empty);
    match plan {
        LogicalPlan::Filter { input, .. }
        | LogicalPlan::Project { input, .. }
        | LogicalPlan::Guard { input, .. }
        | LogicalPlan::Extend { input, .. }
            if empty(&input) =>
        {
            LogicalPlan::Empty
        }
        LogicalPlan::Aggregate {
            input, group_by, ..
        } if empty(&input) && !group_by.is_empty() => LogicalPlan::Empty,
        LogicalPlan::Join { left, right, .. } if empty(&left) || empty(&right) => {
            notes.push("empty-propagation", || {
                "join with an empty input removed".into()
            });
            LogicalPlan::Empty
        }
        LogicalPlan::UnionAll { mut inputs } => {
            inputs.retain(|p| !empty(p));
            match inputs.len() {
                0 => LogicalPlan::Empty,
                1 => inputs.pop().expect("one element"),
                _ => LogicalPlan::UnionAll { inputs },
            }
        }
        other => other,
    }
}

/// The partition-pruning pass: what the operators above a leaf guarantee of
/// qualifying tuples ([`Inherited`]), together with the leaf's own
/// qualification or probe key, becomes a [`ShapePredicate`] on the leaf, so
/// the executor can skip whole heap partitions.  Besides pure presence
/// this is the AD-driven step of §3.1.2 at the storage level: when an
/// explicit AD's determinant is pinned, Def. 2.1 fixes the exact
/// `Y`-overlap of every qualifying tuple
/// ([`flexrel_core::dep::DependencySet::pinned_regions`]), so all
/// partitions with a different overlap are excluded — the physical
/// counterpart of variant pruning on qualified fragments.
pub(super) fn prune_scans(
    plan: LogicalPlan,
    catalog: &Catalog,
    above: &Inherited,
    notes: &mut Notes,
) -> LogicalPlan {
    // The shape predicate for one leaf of `relation`, conjoined with the
    // one it already carries: that one (hand-built plans) is
    // result-affecting and must be preserved.
    let mut restrict = |relation: &str, known: Inherited, existing: Option<ShapePredicate>| {
        let Ok(def) = catalog.get(relation) else {
            return existing;
        };
        let mut pred = ShapePredicate {
            required: known.present,
            regions: (def.deps)
                .pinned_regions(&known.pinned)
                .map(|(y, yi)| (y.clone(), yi))
                .collect(),
        };
        if pred.is_trivial() {
            return existing;
        }
        notes.push("partition-pruning", || {
            format!("{} restricted to partitions with {}", relation, pred)
        });
        if let Some(existing) = existing {
            pred.required.extend_with(&existing.required);
            pred.regions.extend(existing.regions);
        }
        Some(pred)
    };
    match plan {
        LogicalPlan::Scan {
            relation,
            qualification,
            shape,
        } => {
            let known = match &qualification {
                Some(q) => above.select(q),
                None => above.clone(),
            };
            LogicalPlan::Scan {
                shape: restrict(&relation, known, shape),
                relation,
                qualification,
            }
        }
        LogicalPlan::IndexLookup {
            relation,
            key,
            key_value,
            shapes,
        } => {
            let known = Inherited {
                present: above.present.union(&key),
                pinned: above.pinned.merged_with(&key_value),
            };
            LogicalPlan::IndexLookup {
                shapes: restrict(&relation, known, shapes),
                relation,
                key,
                key_value,
            }
        }
        other => {
            let below = above.descend(&other);
            other.map_children(|p| prune_scans(p, catalog, &below, notes))
        }
    }
}

/// The access-path pass: rewrites `Filter(… ∧ A = c ∧ …) ∘ Scan` into an
/// [`LogicalPlan::IndexLookup`] (plus a residual filter for the conjuncts
/// the index does not answer) when the stored relation has an index — auto
/// determinant or user-created secondary — whose key is fully pinned by the
/// filter's top-level equality conjuncts **and** probing it is priced below
/// the scan it would replace (the comparison in [`mod@cost`]): a unique key
/// keeps its probe, a low-cardinality determinant whose chain is the very
/// partition the scan is already pruned to stays with the column kernels.
///
/// Runs *after* partition pruning, so the scan already carries its
/// [`ShapePredicate`]: the scan side of the comparison counts only the
/// partitions it admits, and on a rewrite the predicate moves onto the
/// lookup's `shapes` field where the executor re-applies it per matching
/// rid (via the rid's `ShapeId`), composing index probing with shape
/// pruning instead of losing it.  When several indexes cover the pinned
/// attributes the one with the most distinct keys (the most selective
/// probe) is the candidate.
///
/// The pass also prices every join, bottom-up so each join sees the access
/// paths its inputs will run with, and records the method
/// ([`cost::join_strategy`]) on the [`LogicalPlan::Join`] node: the
/// executor follows it and decides nothing itself.
///
/// Both prices read one capture of the partitions of the relations the
/// plan scans, taken at the first price.
pub fn choose_access_paths(plan: LogicalPlan, db: &Database, notes: &mut Notes) -> LogicalPlan {
    let parts = LazyPartitions::of(&plan, db);
    access_paths(plan, db, &parts, notes)
}

/// [`choose_access_paths`] over the pass's partition capture.
fn access_paths(
    plan: LogicalPlan,
    db: &Database,
    parts: &LazyPartitions<'_>,
    notes: &mut Notes,
) -> LogicalPlan {
    let plan = plan.map_children(|p| access_paths(p, db, parts, notes));
    let (input, predicate) = match plan {
        LogicalPlan::Join { left, right, .. } => {
            return LogicalPlan::Join {
                strategy: cost::join_strategy_in(&left, &right, db, parts.get()),
                left,
                right,
            };
        }
        LogicalPlan::Filter { input, predicate } => (input, predicate),
        other => return other,
    };
    let LogicalPlan::Scan {
        relation,
        qualification,
        shape,
    } = *input
    else {
        return input.filter(predicate);
    };
    let pinned = predicate.implied_equalities();
    let Some(info) = cheaper_index(db, parts, &relation, &pinned, shape.as_ref()) else {
        let scan = LogicalPlan::Scan {
            relation,
            qualification,
            shape,
        };
        return scan.filter(predicate);
    };
    let key_value = pinned.project(&info.key);
    // The conjuncts the probe answers go; the scan would have applied its
    // qualification, so the lookup keeps it as part of the residual.
    let consumed = |c: &Predicate| {
        matches!(c, Predicate::Cmp { attr, op: CmpOp::Eq, value }
            if info.key.contains(attr) && key_value.get(attr) == Some(value))
    };
    let mut residual =
        map_conjuncts(&predicate, &mut |c| consumed(c).then_some(Predicate::True)).simplify();
    if let Some(q) = qualification {
        residual = residual.and(q).simplify();
    }
    notes.push("access-path", || {
        format!(
            "scan of {} replaced by index lookup on {} = {} \
             ({} distinct keys over {} entries)",
            relation, info.key, key_value, info.distinct_keys, info.len
        )
    });
    let lookup = LogicalPlan::IndexLookup {
        relation,
        key: info.key,
        key_value,
        shapes: shape,
    };
    if residual == Predicate::True {
        lookup
    } else {
        lookup.filter(residual)
    }
}

/// The most selective stored index whose key is fully pinned by the
/// equality constraints, if probing it is cheaper than the scan restricted
/// to `shape`.  Reads index and partition *metadata* only — counters and
/// shapes — so planning costs the same whatever the relation holds.
fn cheaper_index(
    db: &Database,
    parts: &LazyPartitions<'_>,
    relation: &str,
    pinned: &Tuple,
    shape: Option<&ShapePredicate>,
) -> Option<IndexInfo> {
    if pinned.is_empty() {
        return None;
    }
    let info = db.covering_index(relation, &pinned.attrs()).ok()??;
    let (mut partitions, mut rows) = (0, 0);
    for (_, part) in parts.get().snap(relation).parts.partitions() {
        if shape.is_none_or(|s| s.admits(part.shape())) {
            partitions += 1;
            rows += part.len();
        }
    }
    cost::index_beats_scan(&info, partitions, rows).then_some(info)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::optimizer::optimize;
    use flexrel_core::attrs;
    use flexrel_storage::{Catalog, RelationDef};
    use flexrel_workload::employee_relation;

    fn catalog() -> Catalog {
        let mut c = Catalog::new();
        c.register(RelationDef::from_relation(&employee_relation()))
            .unwrap();
        c
    }

    /// The "fetch names for each picked employee" join: π_{empno}(filtered)
    /// ⋈ π_{empno,name}(employee).  empno → name makes the join a no-op
    /// widening of the projection.
    fn fetch_join() -> LogicalPlan {
        let probe = LogicalPlan::scan("employee")
            .filter(Predicate::gt("salary", 1000))
            .project(attrs!["empno"]);
        let fetch = LogicalPlan::scan("employee").project(attrs!["empno", "name"]);
        probe.join(fetch)
    }

    #[test]
    fn join_elimination_widens_the_projection() {
        let (optimized, notes) = optimize(fetch_join(), &catalog());
        assert_eq!(optimized.join_count(), 0, "{}", optimized);
        assert!(notes.iter().any(|n| n.rule == "join-elimination"));
        let LogicalPlan::Project { attrs, .. } = optimized else {
            panic!("widened projection expected, got {}", optimized);
        };
        assert_eq!(attrs, attrs!["empno", "name"]);
    }

    #[test]
    fn join_elimination_removes_a_fully_covered_fetch() {
        // The probe already projects everything the fetch side supplies.
        let probe = LogicalPlan::scan("employee")
            .filter(Predicate::gt("salary", 1000))
            .project(attrs!["empno", "name"]);
        let fetch = LogicalPlan::scan("employee").project(attrs!["empno", "name"]);
        let (optimized, notes) = optimize(probe.clone().join(fetch), &catalog());
        assert_eq!(optimized.join_count(), 0, "{}", optimized);
        assert!(notes.iter().any(|n| n.rule == "join-elimination"));
    }

    #[test]
    fn join_elimination_requires_the_fd() {
        // name is mandatory but nothing declares name → empno, so fetching
        // empno by name must keep the join.
        let probe = LogicalPlan::scan("employee")
            .filter(Predicate::gt("salary", 1000))
            .project(attrs!["name"]);
        let fetch = LogicalPlan::scan("employee").project(attrs!["name", "empno"]);
        let (optimized, notes) = optimize(probe.join(fetch), &catalog());
        assert_eq!(optimized.join_count(), 1, "{}", optimized);
        assert!(notes.iter().all(|n| n.rule != "join-elimination"));
    }

    #[test]
    fn join_elimination_requires_an_unqualified_fetch() {
        // A qualified fetch side is a strict subset of π_A(rel): the join
        // doubles as a semi-join filter and must be kept.  (The probe side
        // carries a filter so it is not itself a bare projection the rule
        // could eliminate in the other orientation.)
        let probe = LogicalPlan::scan("employee")
            .filter(Predicate::gt("salary", 1000))
            .project(attrs!["empno"]);
        let fetch = LogicalPlan::qualified_scan(
            "employee",
            Predicate::eq("jobtype", flexrel_core::value::Value::tag("secretary")),
        )
        .project(attrs!["empno", "name"]);
        let (optimized, notes) = optimize(probe.join(fetch), &catalog());
        assert_eq!(optimized.join_count(), 1, "{}", optimized);
        assert!(notes.iter().all(|n| n.rule != "join-elimination"));
    }

    #[test]
    fn an_unqualified_bare_fetch_may_be_eliminated_against_a_qualified_probe() {
        // The reverse orientation of the case above: the *unqualified* side
        // is the bare π_A(rel) build and covers every probe tuple, so the
        // join is the identity on the qualified probe.
        let probe = LogicalPlan::qualified_scan(
            "employee",
            Predicate::eq("jobtype", flexrel_core::value::Value::tag("secretary")),
        )
        .project(attrs!["empno", "name"]);
        let fetch = LogicalPlan::scan("employee").project(attrs!["empno"]);
        let (optimized, notes) = optimize(fetch.join(probe), &catalog());
        assert_eq!(optimized.join_count(), 0, "{}", optimized);
        assert!(notes.iter().any(|n| n.rule == "join-elimination"));
    }

    #[test]
    fn groupby_elimination_folds_count_to_one() {
        let plan = LogicalPlan::scan("employee")
            .project(attrs!["empno", "name"])
            .aggregate(
                attrs!["empno"],
                vec![crate::logical::AggExpr::new(AggFunc::Count, None)],
            );
        let (optimized, notes) = optimize(plan, &catalog());
        assert!(notes.iter().any(|n| n.rule == "groupby-elimination"));
        let LogicalPlan::Extend { attr, value, input } = optimized else {
            panic!("constant count expected, got {}", optimized);
        };
        assert_eq!(attr, "count");
        assert_eq!(value, Value::Int(1));
        assert!(matches!(*input, LogicalPlan::Project { .. }));
    }

    #[test]
    fn groupby_elimination_requires_determination() {
        // name does not determine empno: groups may be real.
        let plan = LogicalPlan::scan("employee")
            .project(attrs!["empno", "name"])
            .aggregate(
                attrs!["name"],
                vec![crate::logical::AggExpr::new(AggFunc::Count, None)],
            );
        let (optimized, notes) = optimize(plan, &catalog());
        assert!(matches!(optimized, LogicalPlan::Aggregate { .. }));
        assert!(notes.iter().all(|n| n.rule != "groupby-elimination"));
    }

    #[test]
    fn mandatory_guard_is_dropped_without_selection_context() {
        // No selection pins anything: the scan's `present` set — the
        // scheme's DNF intersection — is what makes the guard the reflexive
        // case, and the note says so with the derivation.
        let plan = LogicalPlan::scan("employee").guard(attrs!["name", "salary"]);
        let (optimized, notes) = optimize(plan, &catalog());
        assert_eq!(optimized.guard_count(), 0, "{}", optimized);
        let note = notes.iter().find(|n| n.rule == "guard-elimination");
        let detail = &note.expect("the guard is eliminated").detail;
        assert!(
            detail.contains("justified by") && detail.contains("reflexivity"),
            "{detail}"
        );
        // An optional attribute is not in `present`: the guard stays.
        let plan = LogicalPlan::scan("employee").guard(attrs!["name", "typing-speed"]);
        assert_eq!(optimize(plan, &catalog()).0.guard_count(), 1);
    }

    #[test]
    fn ead_simplification_folds_excluded_variant_atoms() {
        // Pinning jobtype = 'secretary' excludes sales-commission; the
        // comparison folds to false and the filter collapses to Empty.
        let plan = LogicalPlan::scan("employee").filter(
            Predicate::eq("jobtype", flexrel_core::value::Value::tag("secretary"))
                .and(Predicate::gt("sales-commission", 10)),
        );
        let (optimized, notes) = optimize(plan, &catalog());
        assert_eq!(optimized, LogicalPlan::Empty, "{}", optimized);
        assert!(notes
            .iter()
            .any(|n| n.rule == "ead-predicate-simplification"));
    }

    #[test]
    fn ead_simplification_keeps_same_variant_atoms() {
        let plan = LogicalPlan::scan("employee").filter(
            Predicate::eq("jobtype", flexrel_core::value::Value::tag("secretary"))
                .and(Predicate::gt("typing-speed", 10)),
        );
        let (optimized, notes) = optimize(plan, &catalog());
        assert!(
            matches!(optimized, LogicalPlan::Filter { .. }),
            "{}",
            optimized
        );
        assert!(notes
            .iter()
            .all(|n| n.rule != "ead-predicate-simplification"));
    }
}
