//! The justified rewrites carried over from the single-pass optimizer:
//! guard elimination via [`analyse_guard`], variant/join pruning against
//! qualified fragments, constant folding, empty-plan propagation, selection
//! pushdown through natural joins, the partition-pruning pass and the
//! access-path pass.  The pipeline ([`super::Pipeline`]) wraps the
//! fixpoint rules as [`super::Rewrite`] passes.

use flexrel_algebra::predicate::{CmpOp, Predicate};
use flexrel_core::attr::{Attr, AttrSet};
use flexrel_core::axioms::AxiomSystem;
use flexrel_core::dep::DependencySet;
use flexrel_core::tuple::Tuple;
use flexrel_core::typecheck::{analyse_guard, GuardAnalysis, SelectionContext, TypeGuard};
use flexrel_storage::{Catalog, Database, IndexInfo, RelationDef};

use crate::logical::{LogicalPlan, ShapePredicate};

use super::{cost, Notes};

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
pub fn choose_access_paths(plan: LogicalPlan, db: &Database, notes: &mut Notes) -> LogicalPlan {
    match plan {
        LogicalPlan::Filter { input, predicate } => {
            let input = choose_access_paths(*input, db, notes);
            if let LogicalPlan::Scan {
                relation,
                qualification,
                shape,
            } = input
            {
                let pinned = predicate.implied_equalities();
                if let Some(info) = cheaper_index(db, &relation, &pinned, shape.as_ref()) {
                    let key_value = pinned.project(&info.key);
                    let mut residual =
                        strip_consumed_equalities(&predicate, &info.key, &key_value).simplify();
                    if let Some(q) = qualification {
                        // The scan would have applied its qualification;
                        // the lookup keeps it as part of the residual.
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
                    return if residual == Predicate::True {
                        lookup
                    } else {
                        lookup.filter(residual)
                    };
                }
                LogicalPlan::Filter {
                    input: Box::new(LogicalPlan::Scan {
                        relation,
                        qualification,
                        shape,
                    }),
                    predicate,
                }
            } else {
                LogicalPlan::Filter {
                    input: Box::new(input),
                    predicate,
                }
            }
        }
        other => other.map_children(|p| choose_access_paths(p, db, notes)),
    }
}

/// The most selective stored index whose key is fully pinned by the
/// equality constraints, if probing it is cheaper than the scan restricted
/// to `shape`.  Reads index and partition *metadata* only — counters and
/// shapes — so planning costs the same whatever the relation holds.
fn cheaper_index(
    db: &Database,
    relation: &str,
    pinned: &Tuple,
    shape: Option<&ShapePredicate>,
) -> Option<IndexInfo> {
    if pinned.is_empty() {
        return None;
    }
    let info = db.covering_index(relation, &pinned.attrs()).ok()??;
    let (mut partitions, mut rows) = (0, 0);
    for (_, part) in db.partition_snapshot(relation).ok()?.partitions() {
        if shape.is_none_or(|s| s.admits(part.shape())) {
            partitions += 1;
            rows += part.len();
        }
    }
    cost::index_beats_scan(&info, partitions, rows).then_some(info)
}

/// Replaces the top-level equality conjuncts the index probe answers
/// (`A = c` with `A` in the key and `c` the probed constant) by `True`; the
/// caller simplifies the remainder into the residual filter.
fn strip_consumed_equalities(p: &Predicate, key: &AttrSet, key_value: &Tuple) -> Predicate {
    match p {
        Predicate::Cmp {
            attr,
            op: CmpOp::Eq,
            value,
        } if key.contains(attr) && key_value.get(attr) == Some(value) => Predicate::True,
        Predicate::And(a, b) => strip_consumed_equalities(a, key, key_value)
            .and(strip_consumed_equalities(b, key, key_value)),
        other => other.clone(),
    }
}

/// The dependencies visible below a plan node: the union of the declared
/// dependency sets of every scanned relation in the subtree.
fn subtree_deps(plan: &LogicalPlan, catalog: &Catalog) -> DependencySet {
    match plan {
        LogicalPlan::Scan { relation, .. } | LogicalPlan::IndexLookup { relation, .. } => catalog
            .get(relation)
            .map(|def| def.deps.clone())
            .unwrap_or_default(),
        // An aggregate's output attributes are new (counts, sums, group
        // keys); the scanned relations' dependencies say nothing about them.
        LogicalPlan::Empty | LogicalPlan::Aggregate { .. } => DependencySet::new(),
        LogicalPlan::Filter { input, .. }
        | LogicalPlan::Project { input, .. }
        | LogicalPlan::Guard { input, .. }
        | LogicalPlan::Extend { input, .. } => subtree_deps(input, catalog),
        LogicalPlan::Join { left, right } => {
            subtree_deps(left, catalog).union(&subtree_deps(right, catalog))
        }
        LogicalPlan::UnionAll { inputs } => inputs.iter().fold(DependencySet::new(), |acc, p| {
            acc.union(&subtree_deps(p, catalog))
        }),
    }
}

/// The selection context established *below* a node: predicates of filters
/// and scan qualifications in the subtree contribute their required
/// attributes and implied equalities.
fn subtree_context(plan: &LogicalPlan) -> SelectionContext {
    fn merge(ctx: SelectionContext, p: &Predicate) -> SelectionContext {
        let mut ctx = ctx.with_referenced(p.required_attrs());
        for (a, v) in p.implied_equalities().iter() {
            ctx = ctx.with_equality(a.clone(), v.clone());
        }
        ctx
    }
    match plan {
        LogicalPlan::Empty => SelectionContext::none(),
        LogicalPlan::Scan { qualification, .. } => match qualification {
            Some(q) => merge(SelectionContext::none(), q),
            None => SelectionContext::none(),
        },
        // An index lookup pins its key attributes to the probe constants:
        // every yielded tuple is defined on `key` and agrees with
        // `key_value`.
        LogicalPlan::IndexLookup { key, key_value, .. } => {
            let mut ctx = SelectionContext::none().with_referenced(key.clone());
            for (a, v) in key_value.iter() {
                ctx = ctx.with_equality(a.clone(), v.clone());
            }
            ctx
        }
        LogicalPlan::Filter { input, predicate } => merge(subtree_context(input), predicate),
        LogicalPlan::Guard { input, attrs } => {
            subtree_context(input).with_referenced(attrs.clone())
        }
        LogicalPlan::Project { input, .. } | LogicalPlan::Extend { input, .. } => {
            subtree_context(input)
        }
        LogicalPlan::Join { left, right } => {
            // Both sides' constraints hold for the join result.
            let l = subtree_context(left);
            let r = subtree_context(right);
            let mut ctx = l.with_referenced(r.referenced.clone());
            for (a, v) in r.equalities.iter() {
                ctx = ctx.with_equality(a.clone(), v.clone());
            }
            ctx
        }
        // A union guarantees only what holds on every branch; be
        // conservative and claim nothing.  An aggregate rewrites tuples
        // entirely (group keys + aggregate outputs): every output row is
        // defined on the grouping attributes, but nothing else survives.
        LogicalPlan::UnionAll { .. } => SelectionContext::none(),
        LogicalPlan::Aggregate { group_by, .. } => {
            SelectionContext::none().with_referenced(group_by.clone())
        }
    }
}

/// All equality constraints established by scan qualifications inside a
/// subtree (used for branch pruning).
fn qualification_equalities(plan: &LogicalPlan) -> Tuple {
    match plan {
        LogicalPlan::Scan {
            qualification: Some(q),
            ..
        } => q.implied_equalities(),
        LogicalPlan::IndexLookup { key_value, .. } => key_value.clone(),
        LogicalPlan::Scan { .. } | LogicalPlan::Empty => Tuple::empty(),
        LogicalPlan::Filter { input, .. }
        | LogicalPlan::Project { input, .. }
        | LogicalPlan::Guard { input, .. }
        | LogicalPlan::Extend { input, .. } => qualification_equalities(input),
        LogicalPlan::Join { left, right } => {
            qualification_equalities(left).merged_with(&qualification_equalities(right))
        }
        // Aggregate outputs carry new attributes; the inputs' pinned
        // constants do not survive into them.
        LogicalPlan::UnionAll { .. } | LogicalPlan::Aggregate { .. } => Tuple::empty(),
    }
}

/// Whether two equality constraint sets contradict each other: some shared
/// attribute is pinned to different constants.
fn contradicts(a: &Tuple, b: &Tuple) -> bool {
    a.iter()
        .any(|(attr, v)| b.get(attr).map(|w| w != v).unwrap_or(false))
}

pub(super) fn rewrite(
    plan: LogicalPlan,
    catalog: &Catalog,
    above: &SelectionContext,
    notes: &mut Notes,
) -> LogicalPlan {
    match plan {
        LogicalPlan::Guard { input, attrs } => {
            let deps = subtree_deps(&input, catalog);
            let below = subtree_context(&input);
            let ctx = merge_contexts(above, &below);
            let guard = TypeGuard::new(attrs.clone());
            match analyse_guard(&deps, &ctx, &guard, AxiomSystem::E) {
                GuardAnalysis::Redundant(derivation) => {
                    notes.push("guard-elimination", || {
                        format!(
                            "guard for {} is redundant; justified by:\n{}",
                            attrs, derivation
                        )
                    });
                    rewrite(*input, catalog, above, notes)
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
                GuardAnalysis::Necessary => LogicalPlan::Guard {
                    input: Box::new(rewrite(*input, catalog, above, notes)),
                    attrs,
                },
            }
        }
        LogicalPlan::Filter { input, predicate } => {
            // Eliminate redundant / unsatisfiable IsPresent conjuncts inside
            // the predicate itself.  The context for judging a PRESENT
            // conjunct is everything known *besides* the guards themselves:
            // the constraints from above, from below, and from the
            // comparison conjuncts of this very predicate (a guard must not
            // justify itself).
            let deps = subtree_deps(&input, catalog);
            let below = subtree_context(&input);
            let own = context_without_guards(&predicate);
            let ctx_all = merge_contexts(&merge_contexts(above, &below), &own);
            let simplified = simplify_guards_in_predicate(&predicate, &deps, &ctx_all, notes);

            // Branch pruning: if the filter's equalities contradict the
            // qualification of the scans below, the result is empty.
            let filter_eq = simplified.implied_equalities();
            let qual_eq = qualification_equalities(&input);
            if contradicts(&filter_eq, &qual_eq) {
                notes.push("variant-pruning", || {
                    format!(
                        "selection {} contradicts the branch qualification {}; branch removed",
                        simplified, qual_eq
                    )
                });
                return LogicalPlan::Empty;
            }

            // Push the filter's context downwards (for nested guards and
            // union branches).
            let mut ctx_for_children = above.clone().with_referenced(simplified.required_attrs());
            for (a, v) in simplified.implied_equalities().iter() {
                ctx_for_children = ctx_for_children.with_equality(a.clone(), v.clone());
            }
            let new_input = rewrite(*input, catalog, &ctx_for_children, notes);
            if simplified == Predicate::False {
                notes.push("constant-folding", || "predicate is constant false".into());
                return LogicalPlan::Empty;
            }
            if simplified == Predicate::True {
                notes.push("constant-folding", || "predicate is constant true".into());
                return new_input;
            }
            LogicalPlan::Filter {
                input: Box::new(new_input),
                predicate: simplified,
            }
        }
        LogicalPlan::UnionAll { inputs } => {
            let mut kept = Vec::new();
            for branch in inputs {
                let qual_eq = qualification_equalities(&branch);
                if contradicts(&above.equalities, &qual_eq) {
                    notes.push("variant-pruning", || format!(
                            "union branch qualified by {} is excluded by the selection constraints {}",
                            qual_eq, above.equalities
                        ));
                    continue;
                }
                kept.push(rewrite(branch, catalog, above, notes));
            }
            LogicalPlan::UnionAll { inputs: kept }
        }
        LogicalPlan::Join { left, right } => {
            // If the constraints established above (e.g. a selection on the
            // determining attribute) contradict a side's qualification, the
            // join produces nothing.
            for side in [&left, &right] {
                let qual_eq = qualification_equalities(side);
                if contradicts(&above.equalities, &qual_eq) {
                    notes.push("join-pruning", || format!(
                            "join with a variant qualified by {} is excluded by the selection constraints {}",
                            qual_eq, above.equalities
                        ));
                    return LogicalPlan::Empty;
                }
            }
            LogicalPlan::Join {
                left: Box::new(rewrite(*left, catalog, above, notes)),
                right: Box::new(rewrite(*right, catalog, above, notes)),
            }
        }
        LogicalPlan::Project { input, attrs } => LogicalPlan::Project {
            input: Box::new(rewrite(*input, catalog, above, notes)),
            attrs,
        },
        LogicalPlan::Extend { input, attr, value } => LogicalPlan::Extend {
            input: Box::new(rewrite(*input, catalog, above, notes)),
            attr,
            value,
        },
        LogicalPlan::Aggregate {
            input,
            group_by,
            aggs,
        } => LogicalPlan::Aggregate {
            // Constraints from above refer to the aggregate's *output*
            // attributes; they must not justify rewrites below it.
            input: Box::new(rewrite(*input, catalog, &SelectionContext::none(), notes)),
            group_by,
            aggs,
        },
        leaf
        @ (LogicalPlan::Scan { .. } | LogicalPlan::IndexLookup { .. } | LogicalPlan::Empty) => leaf,
    }
}

/// The selection context a predicate establishes through its comparison
/// conjuncts only — `PRESENT(...)` atoms are ignored so that a guard cannot
/// justify its own elimination.
fn context_without_guards(p: &Predicate) -> SelectionContext {
    fn required(p: &Predicate) -> AttrSet {
        match p {
            Predicate::Cmp { attr, .. } => attr.to_set(),
            Predicate::And(a, b) => required(a).union(&required(b)),
            Predicate::Or(a, b) => required(a).intersection(&required(b)),
            _ => AttrSet::empty(),
        }
    }
    fn equalities(p: &Predicate) -> Tuple {
        match p {
            Predicate::Cmp {
                attr,
                op: flexrel_algebra::predicate::CmpOp::Eq,
                value,
            } => Tuple::new().with(attr.clone(), value.clone()),
            Predicate::And(a, b) => equalities(a).merged_with(&equalities(b)),
            _ => Tuple::empty(),
        }
    }
    let mut ctx = SelectionContext::none().with_referenced(required(p));
    for (a, v) in equalities(p).iter() {
        ctx = ctx.with_equality(a.clone(), v.clone());
    }
    ctx
}

fn merge_contexts(a: &SelectionContext, b: &SelectionContext) -> SelectionContext {
    let mut out = a.clone().with_referenced(b.referenced.clone());
    for (attr, v) in b.equalities.iter() {
        out = out.with_equality(attr.clone(), v.clone());
    }
    out
}

/// Replaces redundant `PRESENT(...)` conjuncts by `True` and unsatisfiable
/// ones by `False`, then simplifies.
fn simplify_guards_in_predicate(
    predicate: &Predicate,
    deps: &DependencySet,
    ctx: &SelectionContext,
    notes: &mut Notes,
) -> Predicate {
    fn walk(
        p: &Predicate,
        deps: &DependencySet,
        ctx: &SelectionContext,
        notes: &mut Notes,
    ) -> Predicate {
        match p {
            Predicate::IsPresent(attrs) => {
                match analyse_guard(deps, ctx, &TypeGuard::new(attrs.clone()), AxiomSystem::E) {
                    GuardAnalysis::Redundant(d) => {
                        notes.push("guard-elimination", || {
                            format!("PRESENT({}) is redundant; justified by:\n{}", attrs, d)
                        });
                        Predicate::True
                    }
                    GuardAnalysis::Unsatisfiable => {
                        notes.push("guard-unsatisfiable", || {
                            format!("PRESENT({}) can never hold under the selection", attrs)
                        });
                        Predicate::False
                    }
                    GuardAnalysis::Necessary => p.clone(),
                }
            }
            Predicate::And(a, b) => walk(a, deps, ctx, notes).and(walk(b, deps, ctx, notes)),
            // Inside disjunctions and negations the conjunction context does
            // not apply; leave them untouched.
            other => other.clone(),
        }
    }
    walk(predicate, deps, ctx, notes).simplify()
}

/// The attributes a plan's tuples can carry at most (`universe`) and carry
/// at least (`mandatory`), read off the catalog's schemes — never off live
/// partitions, so the bounds hold for every instance.  `None` for operators
/// whose output is not typed by a scheme (`Extend`, unions, aggregates):
/// nothing is pushed into or past those.
fn attr_bounds(plan: &LogicalPlan, catalog: &Catalog) -> Option<(AttrSet, AttrSet)> {
    match plan {
        LogicalPlan::Scan { relation, .. } => {
            let facts = catalog.facts(relation)?;
            Some((facts.attrs().clone(), facts.mandatory().clone()))
        }
        LogicalPlan::IndexLookup { relation, key, .. } => {
            let facts = catalog.facts(relation)?;
            Some((facts.attrs().clone(), facts.mandatory().union(key)))
        }
        LogicalPlan::Filter { input, .. } | LogicalPlan::Guard { input, .. } => {
            attr_bounds(input, catalog)
        }
        LogicalPlan::Project { input, attrs } => {
            let (universe, mandatory) = attr_bounds(input, catalog)?;
            Some((universe.intersection(attrs), mandatory.intersection(attrs)))
        }
        LogicalPlan::Join { left, right } => {
            let (lu, lm) = attr_bounds(left, catalog)?;
            let (ru, rm) = attr_bounds(right, catalog)?;
            Some((lu.union(&ru), lm.union(&rm)))
        }
        LogicalPlan::Extend { .. }
        | LogicalPlan::UnionAll { .. }
        | LogicalPlan::Aggregate { .. }
        | LogicalPlan::Empty => None,
    }
}

/// The top-level conjuncts of a predicate.
fn conjuncts(p: Predicate, out: &mut Vec<Predicate>) {
    match p {
        Predicate::And(a, b) => {
            conjuncts(*a, out);
            conjuncts(*b, out);
        }
        other => out.push(other),
    }
}

/// Whether `atom` is one of the top-level conjuncts of `p`.
fn has_conjunct(p: &Predicate, atom: &Predicate) -> bool {
    match p {
        Predicate::And(a, b) => has_conjunct(a, atom) || has_conjunct(b, atom),
        other => other == atom,
    }
}

/// Whether every tuple `plan` yields already satisfies the comparison
/// `atom`, because a filter, qualification or index key below says so —
/// which is what keeps copying a conjunct down idempotent.
fn already_selects(plan: &LogicalPlan, atom: &Predicate) -> bool {
    match plan {
        LogicalPlan::Filter { input, predicate } => {
            has_conjunct(predicate, atom) || already_selects(input, atom)
        }
        LogicalPlan::Guard { input, .. } | LogicalPlan::Project { input, .. } => {
            already_selects(input, atom)
        }
        LogicalPlan::Join { left, right } => {
            already_selects(left, atom) || already_selects(right, atom)
        }
        LogicalPlan::Scan { qualification, .. } => qualification
            .as_ref()
            .is_some_and(|q| has_conjunct(q, atom)),
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
        LogicalPlan::Filter { input, predicate } => LogicalPlan::Filter {
            input,
            predicate: predicate.and(pushed),
        },
        other => other.filter(pushed),
    }
}

/// Selection pushdown through the natural join.  A join merges compatible
/// tuples, so an output tuple's value (or absence) on attribute `A` is its
/// left part's whenever the right operand can never carry `A`, and the
/// other way round — which is decided from the operands' scheme-level
/// attribute universes ([`attr_bounds`]), not from what happens to be
/// stored.  For each top-level comparison conjunct `A op c` of a filter
/// directly above a join:
///
/// * `A` in exactly one operand's universe — the conjunct **moves** to that
///   operand: it evaluates there exactly as it did above.
/// * `A` in both universes — an output tuple may take `A` from either part
///   (one may lack it while the other supplies the passing value), so the
///   conjunct stays above the join; a **copy** goes to each operand where
///   `A` is mandatory, because there every tuple carries the value the
///   merged tuple will have.
///
/// Anything else — `NOT`, `OR`, `PRESENT`, an operand without scheme-level
/// bounds — stays where it is.  Works top-down, so a conjunct sinks through
/// a whole join tree to the scan that owns its attribute, where the
/// access-path pass and the join-strategy gate find a selective operand.
pub(super) fn push_selections(
    plan: LogicalPlan,
    catalog: &Catalog,
    notes: &mut Notes,
) -> LogicalPlan {
    let plan = match plan {
        LogicalPlan::Filter { input, predicate } => match *input {
            LogicalPlan::Join { left, right } => {
                split_over_join(predicate, *left, *right, catalog, notes)
            }
            other => other.filter(predicate),
        },
        other => other,
    };
    plan.map_children(|p| push_selections(p, catalog, notes))
}

/// One step of [`push_selections`]: distributes the conjuncts of
/// `predicate` over `left ⋈ right`.
fn split_over_join(
    predicate: Predicate,
    left: LogicalPlan,
    right: LogicalPlan,
    catalog: &Catalog,
    notes: &mut Notes,
) -> LogicalPlan {
    let bounds = attr_bounds(&left, catalog).zip(attr_bounds(&right, catalog));
    let Some(((lu, lm), (ru, rm))) = bounds else {
        return left.join(right).filter(predicate);
    };
    let (mut above, mut to_left, mut to_right) = (Vec::new(), Vec::new(), Vec::new());
    let mut all = Vec::new();
    conjuncts(predicate, &mut all);
    for c in all {
        let Predicate::Cmp { attr, .. } = &c else {
            above.push(c);
            continue;
        };
        match (lu.contains(attr), ru.contains(attr)) {
            (true, false) => to_left.push(c),
            (false, true) => to_right.push(c),
            (true, true) => {
                if lm.contains(attr) && !already_selects(&left, &c) {
                    to_left.push(c.clone());
                }
                if rm.contains(attr) && !already_selects(&right, &c) {
                    to_right.push(c.clone());
                }
                above.push(c);
            }
            (false, false) => above.push(c),
        }
    }
    if !to_left.is_empty() || !to_right.is_empty() {
        notes.push("selection-pushdown", || {
            format!(
                "pushed below the join: {:?} to the left operand, {:?} to the right",
                to_left.iter().map(Predicate::to_string).collect::<Vec<_>>(),
                to_right
                    .iter()
                    .map(Predicate::to_string)
                    .collect::<Vec<_>>()
            )
        });
    }
    let join = filter_operand(left, to_left).join(filter_operand(right, to_right));
    match above.into_iter().reduce(Predicate::and) {
        Some(predicate) => join.filter(predicate),
        None => join,
    }
}

/// The partition-pruning pass: pushes what the operators *above* a scan
/// guarantee about qualifying tuples — attributes that must be present
/// (selections via [`Predicate::required_attrs`], explicit type guards) and
/// attributes pinned to constants by equality — down into a
/// [`ShapePredicate`] on the scan, so the executor can skip whole heap
/// partitions.
///
/// The context propagates through shape-preserving operators (filters,
/// guards, projections, union branches) and is cut off where tuples gain
/// attributes from elsewhere: an [`LogicalPlan::Extend`] removes its own
/// attribute from the context (the scan's tuples need not carry it), and a
/// join resets the context for both sides — what a filter above the join
/// says about one operand alone has already been moved onto that operand by
/// [`push_selections`]; what is left above concerns attributes either side
/// may supply.
///
/// Besides pure presence, the pass performs the AD-driven step of §3.1.2 at
/// the storage level: when the selection pins an EAD's determining
/// attributes `X` to constants, Def. 2.1 fixes the exact `Y`-overlap
/// (`attr(t) ∩ Y = Yi`) of every qualifying tuple, so all partitions with a
/// different overlap are excluded — the physical counterpart of the
/// variant pruning the rewrite pass performs on qualified fragments.
pub(super) fn prune_scans(
    plan: LogicalPlan,
    catalog: &Catalog,
    required: &AttrSet,
    equalities: &Tuple,
    notes: &mut Notes,
) -> LogicalPlan {
    match plan {
        LogicalPlan::Filter { input, predicate } => {
            let req = required.union(&predicate.required_attrs());
            let eq = equalities.merged_with(&predicate.implied_equalities());
            LogicalPlan::Filter {
                input: Box::new(prune_scans(*input, catalog, &req, &eq, notes)),
                predicate,
            }
        }
        LogicalPlan::Guard { input, attrs } => {
            let req = required.union(&attrs);
            LogicalPlan::Guard {
                input: Box::new(prune_scans(*input, catalog, &req, equalities, notes)),
                attrs,
            }
        }
        LogicalPlan::Project { input, attrs } => LogicalPlan::Project {
            input: Box::new(prune_scans(*input, catalog, required, equalities, notes)),
            attrs,
        },
        LogicalPlan::Extend { input, attr, value } => {
            // The extended attribute is present in every output tuple no
            // matter what the input looked like; constraints on it must not
            // reach the scan.
            let mut req = required.clone();
            req.remove(&Attr::new(&attr));
            let mut eq = equalities.clone();
            eq.remove(&Attr::new(&attr));
            LogicalPlan::Extend {
                input: Box::new(prune_scans(*input, catalog, &req, &eq, notes)),
                attr,
                value,
            }
        }
        LogicalPlan::Join { left, right } => LogicalPlan::Join {
            left: Box::new(prune_scans(
                *left,
                catalog,
                &AttrSet::empty(),
                &Tuple::empty(),
                notes,
            )),
            right: Box::new(prune_scans(
                *right,
                catalog,
                &AttrSet::empty(),
                &Tuple::empty(),
                notes,
            )),
        },
        LogicalPlan::UnionAll { inputs } => LogicalPlan::UnionAll {
            inputs: inputs
                .into_iter()
                .map(|p| prune_scans(p, catalog, required, equalities, notes))
                .collect(),
        },
        LogicalPlan::Aggregate {
            input,
            group_by,
            aggs,
        } => {
            // Grouping is a type guard: a row not defined on all of
            // `group_by` belongs to no group, so the grouping attributes
            // are required below.  Context from above refers to the
            // aggregate's output attributes and is dropped.
            LogicalPlan::Aggregate {
                input: Box::new(prune_scans(
                    *input,
                    catalog,
                    &group_by,
                    &Tuple::empty(),
                    notes,
                )),
                group_by,
                aggs,
            }
        }
        LogicalPlan::Scan {
            relation,
            qualification,
            shape,
        } => {
            // The scan's own qualification holds for every tuple it yields,
            // so it contributes to the shape predicate as well.
            let mut req = required.clone();
            let mut eq = equalities.clone();
            if let Some(q) = &qualification {
                req.extend_with(&q.required_attrs());
                eq = eq.merged_with(&q.implied_equalities());
            }
            let pred = catalog
                .get(&relation)
                .ok()
                .and_then(|def| shape_predicate_for(def, &req, &eq));
            if let Some(p) = &pred {
                notes.push("partition-pruning", || {
                    format!("scan of {} restricted to partitions with {}", relation, p)
                });
            }
            // A shape predicate already on the scan (hand-built plans) is
            // result-affecting and must be preserved: conjoin rather than
            // replace.
            let shape = match (pred, shape) {
                (Some(mut p), Some(existing)) => {
                    p.required.extend_with(&existing.required);
                    p.regions.extend(existing.regions);
                    Some(p)
                }
                (p, existing) => p.or(existing),
            };
            LogicalPlan::Scan {
                relation,
                qualification,
                shape,
            }
        }
        LogicalPlan::IndexLookup {
            relation,
            key,
            key_value,
            shapes,
        } => {
            // The lookup's own key equalities hold for every yielded tuple,
            // exactly like a scan qualification: they contribute required
            // attributes and pinned EAD determinants to the shape predicate.
            let req = required.union(&key);
            let eq = equalities.merged_with(&key_value);
            let pred = catalog
                .get(&relation)
                .ok()
                .and_then(|def| shape_predicate_for(def, &req, &eq));
            if let Some(p) = &pred {
                notes.push("partition-pruning", || {
                    format!(
                        "index lookup on {} restricted to partitions with {}",
                        relation, p
                    )
                });
            }
            let shapes = match (pred, shapes) {
                (Some(mut p), Some(existing)) => {
                    p.required.extend_with(&existing.required);
                    p.regions.extend(existing.regions);
                    Some(p)
                }
                (p, existing) => p.or(existing),
            };
            LogicalPlan::IndexLookup {
                relation,
                key,
                key_value,
                shapes,
            }
        }
        leaf @ LogicalPlan::Empty => leaf,
    }
}

/// Builds the shape predicate for one scan from the accumulated context, or
/// `None` when nothing can be pruned.
fn shape_predicate_for(
    def: &RelationDef,
    required: &AttrSet,
    equalities: &Tuple,
) -> Option<ShapePredicate> {
    let mut regions: Vec<(AttrSet, AttrSet)> = Vec::new();
    let pinned = equalities.attrs();
    for ead in def.deps.eads() {
        if ead.lhs().is_subset(&pinned) {
            let x_value = equalities.project(ead.lhs());
            let yi = ead
                .variant_for(&x_value)
                .map(|(_, v)| v.attrs.clone())
                .unwrap_or_else(AttrSet::empty);
            regions.push((ead.rhs().clone(), yi));
        }
    }
    let pred = ShapePredicate {
        required: required.clone(),
        regions,
    };
    if pred.is_trivial() {
        None
    } else {
        Some(pred)
    }
}

/// Final cleanup: empty inputs propagate upwards.
pub(super) fn simplify_empties(plan: LogicalPlan, notes: &mut Notes) -> LogicalPlan {
    match plan {
        LogicalPlan::Filter { input, predicate } => {
            let input = simplify_empties(*input, notes);
            if matches!(input, LogicalPlan::Empty) {
                LogicalPlan::Empty
            } else {
                LogicalPlan::Filter {
                    input: Box::new(input),
                    predicate,
                }
            }
        }
        LogicalPlan::Project { input, attrs } => {
            let input = simplify_empties(*input, notes);
            if matches!(input, LogicalPlan::Empty) {
                LogicalPlan::Empty
            } else {
                LogicalPlan::Project {
                    input: Box::new(input),
                    attrs,
                }
            }
        }
        LogicalPlan::Guard { input, attrs } => {
            let input = simplify_empties(*input, notes);
            if matches!(input, LogicalPlan::Empty) {
                LogicalPlan::Empty
            } else {
                LogicalPlan::Guard {
                    input: Box::new(input),
                    attrs,
                }
            }
        }
        LogicalPlan::Extend { input, attr, value } => {
            let input = simplify_empties(*input, notes);
            if matches!(input, LogicalPlan::Empty) {
                LogicalPlan::Empty
            } else {
                LogicalPlan::Extend {
                    input: Box::new(input),
                    attr,
                    value,
                }
            }
        }
        LogicalPlan::Join { left, right } => {
            let left = simplify_empties(*left, notes);
            let right = simplify_empties(*right, notes);
            if matches!(left, LogicalPlan::Empty) || matches!(right, LogicalPlan::Empty) {
                notes.push("empty-propagation", || {
                    "join with an empty input removed".into()
                });
                LogicalPlan::Empty
            } else {
                LogicalPlan::Join {
                    left: Box::new(left),
                    right: Box::new(right),
                }
            }
        }
        LogicalPlan::UnionAll { inputs } => {
            let kept: Vec<LogicalPlan> = inputs
                .into_iter()
                .map(|p| simplify_empties(p, notes))
                .filter(|p| !matches!(p, LogicalPlan::Empty))
                .collect();
            match kept.len() {
                0 => LogicalPlan::Empty,
                1 => kept.into_iter().next().expect("one element"),
                _ => LogicalPlan::UnionAll { inputs: kept },
            }
        }
        LogicalPlan::Aggregate {
            input,
            group_by,
            aggs,
        } => {
            let input = simplify_empties(*input, notes);
            // A *grouped* aggregate over nothing has no groups; a global
            // aggregate over nothing still emits its single row
            // (`COUNT(*) = 0`), so the node must survive an empty input.
            if matches!(input, LogicalPlan::Empty) && !group_by.is_empty() {
                LogicalPlan::Empty
            } else {
                LogicalPlan::Aggregate {
                    input: Box::new(input),
                    group_by,
                    aggs,
                }
            }
        }
        leaf => leaf,
    }
}
