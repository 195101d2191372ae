//! The dependency-derived semantic rewrites.
//!
//! Where the [`mod@super::classic`] rules reason from the *selection
//! context* (what a query's own predicates establish), these rules reason
//! from the **declared dependencies themselves**, via the
//! [`SemanticFacts`] view (closure index, mandatory attributes, EAD
//! variants) the catalog holds per relation ([`super::PassContext::facts`]):
//!
//! * **join-elimination** — a join whose only purpose is to fetch
//!   attributes the other side already determines (an FD `X → A` with the
//!   join key `X` and `A` mandatory) is removed; the fetched attributes
//!   are recovered by widening the surviving side's projection.
//! * **groupby-elimination** — grouping a duplicate-free projection by
//!   attributes that functionally determine every projected attribute
//!   yields singleton groups; `COUNT(*)` aggregates are folded to the
//!   constant `1`.
//! * **guard-elimination** (mandatory form) — a type guard asking only for
//!   attributes in the intersection of the scheme's DNF disjuncts is
//!   vacuous: every admitted shape carries them.
//! * **ead-predicate-simplification** — when a filter pins an EAD's
//!   determining attributes, Def. 2.1 fixes the variant, so comparisons
//!   and `PRESENT` atoms over attributes *outside* that variant are folded
//!   to `false` (classic constant folding then collapses the filter).
//!
//! All four are **note-safe**: they log to [`Notes`] only when they
//! change the plan, so the pipeline fixpoint neither loops nor duplicates
//! notes.

use flexrel_algebra::predicate::Predicate;
use flexrel_core::attr::AttrSet;
use flexrel_core::facts::SemanticFacts;
use flexrel_core::value::Value;

use crate::logical::{AggFunc, LogicalPlan};

use super::{Notes, PassContext, Rewrite};

/// The semantic rule bundle, registered in [`super::Pipeline::standard`].
pub struct SemanticRules;

impl Rewrite for SemanticRules {
    fn name(&self) -> &'static str {
        "semantic"
    }
    fn apply(&self, plan: LogicalPlan, ctx: &PassContext<'_>, notes: &mut Notes) -> LogicalPlan {
        rewrite(plan, ctx, notes)
    }
}

/// Bottom-up traversal: children first, then the node-level rules.
fn rewrite(plan: LogicalPlan, ctx: &PassContext<'_>, notes: &mut Notes) -> LogicalPlan {
    let plan = plan.map_children(|p| rewrite(p, ctx, notes));
    let plan = try_join_elimination(plan, ctx, notes);
    let plan = try_groupby_elimination(plan, ctx, notes);
    let plan = try_guard_mandatory(plan, ctx, notes);
    try_ead_simplification(plan, ctx, notes)
}

/// The single stored relation a plan reads full tuples from, looking
/// through shape-preserving operators only.  `None` for projections,
/// extends, joins, unions and aggregates: their rows are no longer stored
/// tuples of one relation, so per-tuple dependency reasoning (FDs hold
/// pairwise on *stored* tuples) does not transfer.
fn leaf_relation(plan: &LogicalPlan) -> Option<&str> {
    match plan {
        LogicalPlan::Scan { relation, .. } | LogicalPlan::IndexLookup { relation, .. } => {
            Some(relation)
        }
        LogicalPlan::Filter { input, .. } | LogicalPlan::Guard { input, .. } => {
            leaf_relation(input)
        }
        _ => None,
    }
}

/// A lower bound on the attributes present in every tuple a probe-side
/// plan over `rel` emits, or `None` when the plan reads anything other
/// than `rel` (or produces rows that are not restrictions of stored
/// tuples).
fn probe_lower(plan: &LogicalPlan, rel: &str, facts: &SemanticFacts) -> Option<AttrSet> {
    match plan {
        LogicalPlan::Scan { relation, .. } if relation == rel => Some(facts.mandatory().clone()),
        LogicalPlan::IndexLookup { relation, key, .. } if relation == rel => {
            Some(facts.mandatory().union(key))
        }
        LogicalPlan::Filter { input, .. } => probe_lower(input, rel, facts),
        LogicalPlan::Guard { input, attrs } => Some(probe_lower(input, rel, facts)?.union(attrs)),
        LogicalPlan::Project { input, attrs } => {
            Some(probe_lower(input, rel, facts)?.intersection(attrs))
        }
        _ => None,
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

/// **join-elimination.**  In `probe ⋈ π_A(rel)` where the probe side also
/// reads `rel`, every probe tuple carries the join key `X = A ∩ attrs(probe)`
/// of a stored tuple, `A` is mandatory (so `π_A(rel)` has no partial
/// tuples) and the declared FDs give `X → A`: each probe tuple then merges
/// with **exactly one** build tuple — the `A`-projection of its own
/// originating stored tuple (the build side is duplicate-free because
/// `Project` has set semantics).  The join is the identity on the probe
/// side except for widening each tuple by `A`, so it is replaced by the
/// probe alone (when it already carries `A`) or by the probe with its
/// projection widened to `B ∪ A`.
fn try_join_elimination(
    plan: LogicalPlan,
    ctx: &PassContext<'_>,
    notes: &mut Notes,
) -> LogicalPlan {
    let LogicalPlan::Join { left, right } = plan else {
        return plan;
    };
    for (fetch, probe) in [(&left, &right), (&right, &left)] {
        let Some((rel, a)) = as_bare_projection(fetch) else {
            continue;
        };
        let Some(facts) = ctx.facts(rel) else {
            continue;
        };
        if leaf_relation_through_project(probe) != Some(rel) {
            continue;
        }
        let Some(lower) = probe_lower(probe, rel, facts) else {
            continue;
        };
        if a.is_empty() || !a.is_subset(facts.mandatory()) {
            continue;
        }
        let x = a.intersection(&lower);
        if x.is_empty() || !facts.determines(&x, a) {
            continue;
        }
        if a.is_subset(&lower) {
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
            // Widening is only sound when the projection's input rows are
            // full stored tuples (they carry the mandatory `A` with the
            // FD-consistent values).
            if leaf_relation(input).is_some() {
                notes.push("join-elimination", || {
                    format!(
                        "join with π_{}({}) removed: {} → {} lets the projection \
                         be widened to fetch {} directly",
                        a, rel, x, a, a
                    )
                });
                return LogicalPlan::Project {
                    input: input.clone(),
                    attrs: attrs.union(a),
                };
            }
        }
    }
    LogicalPlan::Join { left, right }
}

/// Like [`leaf_relation`], but also looks through one `Project` (the probe
/// side of an eliminable join is typically a projection itself).
fn leaf_relation_through_project(plan: &LogicalPlan) -> Option<&str> {
    match plan {
        LogicalPlan::Project { input, .. } => leaf_relation(input),
        other => leaf_relation(other),
    }
}

/// **groupby-elimination.**  `GROUP BY G` over the duplicate-free
/// projection `π_B(rel)` with `G ⊆ B ⊆ mandatory` and the FD `G → B`:
/// distinct `B`-values have distinct `G`-values (the FD holds pairwise on
/// the stored tuples the projection came from), so every group is a
/// singleton and `COUNT(*)` is the constant `1`.
fn try_groupby_elimination(
    plan: LogicalPlan,
    ctx: &PassContext<'_>,
    notes: &mut Notes,
) -> LogicalPlan {
    let LogicalPlan::Aggregate {
        input,
        group_by,
        aggs,
    } = plan
    else {
        return plan;
    };
    let eliminable = (|| {
        if group_by.is_empty()
            || !aggs
                .iter()
                .all(|a| matches!(a.func, AggFunc::Count) && a.input.is_none())
        {
            return None;
        }
        let LogicalPlan::Project {
            input: inner,
            attrs: b,
        } = input.as_ref()
        else {
            return None;
        };
        let rel = leaf_relation(inner)?;
        let facts = ctx.facts(rel)?;
        if b.is_subset(facts.mandatory()) && group_by.is_subset(b) && facts.determines(&group_by, b)
        {
            Some((inner.clone(), rel.to_string(), b.clone()))
        } else {
            None
        }
    })();
    match eliminable {
        Some((inner, rel, b)) => {
            notes.push("groupby-elimination", || {
                format!(
                    "GROUP BY {} over π_{}({}) has singleton groups ({} → {}); \
                     COUNT(*) folded to the constant 1",
                    group_by, b, rel, group_by, b
                )
            });
            let mut plan = LogicalPlan::Project {
                input: inner,
                attrs: group_by,
            };
            for agg in aggs {
                plan = LogicalPlan::Extend {
                    input: Box::new(plan),
                    attr: agg.output.name().to_string(),
                    value: Value::Int(1),
                };
            }
            plan
        }
        None => LogicalPlan::Aggregate {
            input,
            group_by,
            aggs,
        },
    }
}

/// **guard-elimination**, mandatory form: a guard asking only for
/// attributes every admitted shape carries (the intersection of the
/// scheme's DNF disjuncts) is vacuous regardless of any selection context.
fn try_guard_mandatory(plan: LogicalPlan, ctx: &PassContext<'_>, notes: &mut Notes) -> LogicalPlan {
    let LogicalPlan::Guard { input, attrs } = plan else {
        return plan;
    };
    let mandatory = leaf_relation(&input)
        .and_then(|rel| ctx.facts(rel))
        .is_some_and(|facts| attrs.is_subset(facts.mandatory()));
    if mandatory {
        notes.push("guard-elimination", || {
            format!(
                "guard for {} is vacuous: the attributes are mandatory \
                 (present in every disjunct of the scheme's DNF)",
                attrs
            )
        });
        *input
    } else {
        LogicalPlan::Guard { input, attrs }
    }
}

/// **ead-predicate-simplification.**  When the filter's top-level equality
/// conjuncts pin an EAD's determining attributes, Def. 2.1 fixes the
/// variant of every tuple that can still qualify; atoms over attributes
/// *outside* that variant (`rhs \ Yi`) evaluate to `false` on all such
/// tuples, and tuples of other variants already fail the pinned equality
/// conjuncts — so those atoms fold to `false` unconditionally.
fn try_ead_simplification(
    plan: LogicalPlan,
    ctx: &PassContext<'_>,
    notes: &mut Notes,
) -> LogicalPlan {
    let LogicalPlan::Filter { input, predicate } = plan else {
        return plan;
    };
    let absent = leaf_relation(&input)
        .and_then(|rel| ctx.facts(rel))
        .map(|facts| facts.absent_attrs(&predicate.implied_equalities()))
        .unwrap_or_else(AttrSet::empty);
    if absent.is_empty() {
        return LogicalPlan::Filter { input, predicate };
    }
    let folded = fold_absent(&predicate, &absent).simplify();
    if folded != predicate {
        notes.push("ead-predicate-simplification", || {
            format!(
                "the pinned EAD determinant excludes {}; atoms over those \
                 attributes folded to false",
                absent
            )
        });
        LogicalPlan::Filter {
            input,
            predicate: folded,
        }
    } else {
        LogicalPlan::Filter { input, predicate }
    }
}

/// Folds every atom touching an attribute of `absent` to `false`,
/// uniformly through the whole predicate tree (sound because tuples not
/// matching the pinned determinant fail the top-level equality conjuncts
/// either way).
fn fold_absent(p: &Predicate, absent: &AttrSet) -> Predicate {
    match p {
        Predicate::Cmp { attr, .. } if absent.contains(attr) => Predicate::False,
        Predicate::IsPresent(attrs) if !attrs.intersection(absent).is_empty() => Predicate::False,
        Predicate::And(a, b) => fold_absent(a, absent).and(fold_absent(b, absent)),
        Predicate::Or(a, b) => fold_absent(a, absent).or(fold_absent(b, absent)),
        Predicate::Not(a) => fold_absent(a, absent).negate(),
        other => other.clone(),
    }
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
        // No selection pins anything, so the classic analyse_guard pass
        // cannot justify the removal — the scheme's DNF intersection can.
        let plan = LogicalPlan::scan("employee").guard(attrs!["name", "salary"]);
        let (optimized, notes) = optimize(plan, &catalog());
        assert_eq!(optimized.guard_count(), 0, "{}", optimized);
        assert!(notes
            .iter()
            .any(|n| n.rule == "guard-elimination" && n.detail.contains("mandatory")));
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
