//! The rule-based optimizer.
//!
//! Every rewrite is *justified*: redundant type guards are removed only when
//! the axiom system ([`flexrel_core::axioms::AxiomSystem::E`], applied via
//! [`flexrel_core::typecheck::analyse_guard`]) derives the corresponding
//! attribute dependency (Example 4); branches and joins are pruned only
//! when what they pin provably contradicts the query's equality constraints
//! (§3.1.2, qualified relations); and scans are restricted to the heap
//! partitions whose shape can satisfy the selection — using the exact
//! variant overlap an [`flexrel_core::dep::Ead`] prescribes for pinned
//! determining values.
//!
//! ## Structure
//!
//! * [`mod@props`] — the one derivation: [`plan_props`] maps every
//!   operator to what holds of its output (attribute bounds, pinned values,
//!   the dependencies Theorem 4.3 lets through, the stored relation the
//!   rows come from), and `Inherited` carries what the operators above a
//!   node guarantee of the tuples that survive.
//! * [`mod@semantic`] — the one rule set: every rule is a function that
//!   asks those two.  [`optimize`] runs it to a **fixpoint** (plans are
//!   compared structurally between rounds), so rules feed each other: EAD
//!   folding turns a predicate into `false`, constant folding collapses the
//!   filter, empty propagation removes the join above it.
//! * [`mod@cost`] — the cost model: row estimates from partition metadata
//!   and table statistics, join ordering, hash versus index-nested-loop
//!   join, index probe versus pruned scan.
//! * [`mod@explain`] — renders optimized plans with estimates and the
//!   notes of the rules that fired.
//!
//! Two passes intentionally stay *outside* the fixpoint: partition pruning
//! runs once at the end (it decorates scans with
//! [`ShapePredicate`](crate::logical::ShapePredicate)s and
//! would otherwise conjoin the same regions repeatedly), and the
//! access-path pass runs last because index lookups are physical.

pub mod cost;
pub mod explain;
pub mod props;
pub mod semantic;

use flexrel_storage::{Catalog, Database};

use crate::logical::LogicalPlan;

pub use explain::{explain_query, PlanExplain};
pub use props::{plan_props, PlanProps, Source};
pub use semantic::choose_access_paths;

use props::Inherited;

/// A record of one rewrite the optimizer performed, for EXPLAIN output.
#[derive(Clone, Debug, PartialEq)]
pub struct RewriteNote {
    /// The rule that fired (e.g. `"guard-elimination"`).
    pub rule: &'static str,
    /// Human-readable description, including the derivation for
    /// guard-elimination rewrites.  Empty when the run that produced the
    /// note did not render details (see [`Notes`]).
    pub detail: String,
}

/// The rewrite log of one optimizer run.  Every rule that fires is
/// recorded by name; its description is rendered only when the log was
/// opened with [`Notes::rendered`] — `EXPLAIN` and the catalog-only
/// [`optimize`] read the prose, a statement on its way to execution does
/// not, so it does not pay for the `format!`.
#[derive(Debug, Default)]
pub struct Notes {
    render: bool,
    list: Vec<RewriteNote>,
}

impl Notes {
    /// A log that renders every note's detail.
    pub fn rendered() -> Self {
        Notes {
            render: true,
            list: Vec::new(),
        }
    }

    /// A log that records which rules fired and leaves the details empty.
    pub fn rules_only() -> Self {
        Notes::default()
    }

    /// Records that `rule` fired; `detail` runs only when details are
    /// rendered.
    pub fn push(&mut self, rule: &'static str, detail: impl FnOnce() -> String) {
        let detail = if self.render { detail() } else { String::new() };
        self.list.push(RewriteNote { rule, detail });
    }

    /// The recorded notes, in firing order.
    pub fn into_vec(self) -> Vec<RewriteNote> {
        self.list
    }
}

/// The rules converge — each removes an operator or moves a conjunct
/// down — so the bound is never met; it keeps a rule that did not from
/// hanging a statement.
const MAX_ROUNDS: usize = 8;

/// The rule set ([`mod@semantic`]) to a fixpoint, then partition pruning.
fn rewrite(mut plan: LogicalPlan, catalog: &Catalog, notes: &mut Notes) -> LogicalPlan {
    for _ in 0..MAX_ROUNDS {
        let before = plan.clone();
        plan = semantic::rewrite(plan, catalog, &Inherited::default(), notes);
        if plan == before {
            break;
        }
    }
    plan
}

/// Optimizes a plan against a catalog alone, returning the rewritten plan
/// and the rewrite notes with their details rendered: the rule set to a
/// fixpoint, then the partition-pruning pass that attaches
/// [`crate::logical::ShapePredicate`]s to scans.
pub fn optimize(plan: LogicalPlan, catalog: &Catalog) -> (LogicalPlan, Vec<RewriteNote>) {
    let mut notes = Notes::rendered();
    let plan = rewrite(plan, catalog, &mut notes);
    let plan = semantic::prune_scans(plan, catalog, &Inherited::default(), &mut notes);
    (plan, notes.into_vec())
}

/// Optimizes a plan against a live database: the rule set, the cost-based
/// join-ordering pass ([`mod@cost`]), partition pruning, and finally the
/// access-path pass ([`choose_access_paths`]), which prices an index probe
/// against the pruned scan from the database's index and partition
/// metadata.
///
/// This is the path every executed statement takes, so the returned notes
/// name the rules that fired and leave [`RewriteNote::detail`] empty;
/// [`explain_query`] runs the same passes with the details rendered.
/// Plain [`optimize`] remains for callers that only have a catalog (and for
/// measuring what the justified rewrites alone achieve).
pub fn optimize_with_db(plan: LogicalPlan, db: &Database) -> (LogicalPlan, Vec<RewriteNote>) {
    let mut notes = Notes::rules_only();
    let plan = optimize_against(plan, db, &mut notes);
    (plan, notes.into_vec())
}

/// The passes behind [`optimize_with_db`] and `EXPLAIN`, logging into the
/// caller's [`Notes`].
fn optimize_against(plan: LogicalPlan, db: &Database, notes: &mut Notes) -> LogicalPlan {
    let catalog = db.catalog();
    let plan = rewrite(plan, &catalog, notes);
    let plan = cost::order_joins(plan, db, notes);
    let plan = semantic::prune_scans(plan, &catalog, &Inherited::default(), notes);
    choose_access_paths(plan, db, notes)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse;
    use crate::planner::plan_query;
    use flexrel_algebra::predicate::Predicate;
    use flexrel_core::attr::AttrSet;
    use flexrel_core::value::Value;
    use flexrel_storage::RelationDef;
    use flexrel_workload::employee_relation;

    fn catalog() -> Catalog {
        let mut c = Catalog::new();
        c.register(RelationDef::from_relation(&employee_relation()))
            .unwrap();
        c
    }

    fn planned(frql: &str) -> LogicalPlan {
        plan_query(&parse(frql).unwrap(), &catalog()).unwrap()
    }

    #[test]
    fn example4_guard_is_eliminated_with_justification() {
        let plan = planned(
            "SELECT * FROM employee WHERE salary > 5000 AND jobtype = 'secretary' GUARD typing-speed",
        );
        assert_eq!(plan.guard_count(), 1);
        let (optimized, notes) = optimize(plan, &catalog());
        assert_eq!(optimized.guard_count(), 0, "the guard must be removed");
        let note = notes
            .iter()
            .find(|n| n.rule == "guard-elimination")
            .unwrap();
        assert!(
            note.detail.contains("A4 (left augmentation)") || note.detail.contains("AF2"),
            "the note must carry the derivation: {}",
            note.detail
        );
    }

    #[test]
    fn guard_for_excluded_variant_prunes_the_query() {
        let plan =
            planned("SELECT * FROM employee WHERE jobtype = 'secretary' GUARD sales-commission");
        let (optimized, notes) = optimize(plan, &catalog());
        assert_eq!(optimized, LogicalPlan::Empty);
        assert!(notes.iter().any(|n| n.rule == "guard-unsatisfiable"));
    }

    #[test]
    fn necessary_guard_is_kept() {
        let plan = planned("SELECT * FROM employee WHERE salary > 5000 GUARD typing-speed");
        let (optimized, notes) = optimize(plan, &catalog());
        assert_eq!(optimized.guard_count(), 1);
        assert!(notes.iter().all(|n| n.rule != "guard-elimination"));
    }

    #[test]
    fn present_conjuncts_are_simplified_too() {
        let plan =
            planned("SELECT * FROM employee WHERE jobtype = 'secretary' AND PRESENT(typing-speed)");
        let (optimized, notes) = optimize(plan, &catalog());
        assert!(notes.iter().any(|n| n.rule == "guard-elimination"));
        // The remaining filter no longer mentions the PRESENT conjunct.
        let s = optimized.to_string();
        assert!(!s.contains("present"));
        assert!(s.contains("jobtype = 'secretary'"));

        let plan =
            planned("SELECT * FROM employee WHERE jobtype = 'secretary' AND PRESENT(products)");
        let (optimized, notes) = optimize(plan, &catalog());
        assert_eq!(optimized, LogicalPlan::Empty);
        assert!(notes.iter().any(|n| n.rule == "guard-unsatisfiable"));
    }

    #[test]
    fn union_branches_with_contradicting_qualification_are_pruned() {
        // Horizontal decomposition: three qualified fragments; a selection on
        // jobtype must keep only the matching fragment.
        let branches = vec![
            LogicalPlan::qualified_scan(
                "employee",
                Predicate::eq("jobtype", Value::tag("secretary")),
            ),
            LogicalPlan::qualified_scan(
                "employee",
                Predicate::eq("jobtype", Value::tag("software engineer")),
            ),
            LogicalPlan::qualified_scan(
                "employee",
                Predicate::eq("jobtype", Value::tag("salesman")),
            ),
        ];
        let plan = LogicalPlan::UnionAll { inputs: branches }.filter(
            Predicate::eq("jobtype", Value::tag("salesman")).and(Predicate::gt("salary", 1000)),
        );
        let (optimized, notes) = optimize(plan, &catalog());
        assert_eq!(
            notes.iter().filter(|n| n.rule == "variant-pruning").count(),
            2,
            "two of the three fragments are excluded"
        );
        // The union collapses to the single surviving branch.
        let s = optimized.to_string();
        assert!(!s.contains("UnionAll"));
        assert!(s.contains("qualified by jobtype = 'salesman'"));
    }

    #[test]
    fn joins_with_excluded_variants_are_pruned() {
        // Vertical decomposition: master ⋈ detail_i where detail_i is
        // qualified by the variant's jobtype; selecting secretaries excludes
        // the salesman detail join.
        let join_with = |tag: &str| {
            LogicalPlan::scan("employee").join(LogicalPlan::qualified_scan(
                "employee",
                Predicate::eq("jobtype", Value::tag(tag)),
            ))
        };
        let plan = LogicalPlan::UnionAll {
            inputs: vec![join_with("secretary"), join_with("salesman")],
        }
        .filter(Predicate::eq("jobtype", Value::tag("secretary")));
        let (optimized, notes) = optimize(plan, &catalog());
        assert!(notes
            .iter()
            .any(|n| n.rule == "variant-pruning" || n.rule == "join-pruning"));
        assert_eq!(
            optimized.join_count(),
            1,
            "only the secretary join survives"
        );
    }

    #[test]
    fn partition_pruning_pushes_required_attrs_and_ead_regions() {
        // Equality on the EAD determinant → exact-overlap region constraint.
        let plan = planned("SELECT * FROM employee WHERE jobtype = 'secretary' AND salary > 1000");
        let (optimized, notes) = optimize(plan, &catalog());
        assert_eq!(optimized.pruned_scan_count(), 1);
        let note = notes
            .iter()
            .find(|n| n.rule == "partition-pruning")
            .unwrap();
        assert!(
            note.detail.contains("shape ⊇") && note.detail.contains("shape ∩"),
            "{}",
            note.detail
        );
        // A kept (necessary) guard contributes its attributes too.
        let plan = planned("SELECT * FROM employee WHERE salary > 5000 GUARD typing-speed");
        let (optimized, _) = optimize(plan, &catalog());
        assert_eq!(optimized.guard_count(), 1);
        assert_eq!(optimized.pruned_scan_count(), 1);
        let s = optimized.to_string();
        assert!(s.contains("typing-speed"), "{}", s);
    }

    #[test]
    fn partition_pruning_preserves_hand_built_shape_predicates() {
        use crate::logical::ShapePredicate;
        use flexrel_core::attrs;
        // A hand-built scan restricted to typing-speed partitions is
        // result-affecting; optimizing a filter on top must conjoin, not
        // replace, the restriction.
        let plan = LogicalPlan::Scan {
            relation: "employee".into(),
            qualification: None,
            shape: Some(ShapePredicate {
                required: attrs!["typing-speed"],
                regions: Vec::new(),
            }),
        }
        .filter(Predicate::gt("salary", 0));
        let (optimized, _) = optimize(plan, &catalog());
        let LogicalPlan::Filter { input, .. } = optimized else {
            panic!("filter must survive");
        };
        let LogicalPlan::Scan {
            shape: Some(sp), ..
        } = *input
        else {
            panic!("scan must keep a shape predicate");
        };
        assert!(
            sp.required.is_superset(&attrs!["salary", "typing-speed"]),
            "hand-built restriction merged with the pushed context: {}",
            sp
        );
    }

    #[test]
    fn partition_pruning_stops_at_extend_and_join() {
        // A filter on the extended attribute must not constrain the scan:
        // the attribute exists on every extended tuple regardless of shape.
        let plan = LogicalPlan::Extend {
            input: Box::new(LogicalPlan::scan("employee")),
            attr: "source".into(),
            value: Value::tag("hr"),
        }
        .filter(Predicate::eq("source", Value::tag("hr")));
        let (optimized, _) = optimize(plan, &catalog());
        assert_eq!(
            optimized.pruned_scan_count(),
            0,
            "extend cuts the context off: {}",
            optimized
        );

        // A filter above a join on an attribute both sides may supply and
        // neither must carry stays above it (see `push_selections` for what
        // does move), and nothing reaches either scan.
        let plan = LogicalPlan::scan("employee")
            .join(LogicalPlan::scan("employee"))
            .filter(Predicate::gt("typing-speed", 100));
        let (optimized, _) = optimize(plan, &catalog());
        assert_eq!(optimized.pruned_scan_count(), 0, "{}", optimized);
    }

    /// `dept(deptno, floor)` next to `employee`: one attribute of its own.
    fn catalog_with_dept() -> Catalog {
        use flexrel_core::scheme::FlexScheme;
        let mut c = catalog();
        c.register(RelationDef::new(
            "dept",
            FlexScheme::relational(flexrel_core::attrs!["empno", "floor"]),
        ))
        .unwrap();
        c
    }

    #[test]
    fn selections_move_to_the_join_operand_that_owns_their_attribute() {
        // `floor` exists only in dept, `salary` only in employee: both
        // conjuncts leave the join; `empno` is mandatory on both sides, so
        // it is copied to both and kept above.
        let plan = LogicalPlan::scan("employee")
            .join(LogicalPlan::scan("dept"))
            .filter(
                Predicate::eq("floor", 3)
                    .and(Predicate::gt("salary", 1000))
                    .and(Predicate::lt("empno", 10)),
            );
        let (optimized, notes) = optimize(plan, &catalog_with_dept());
        assert!(notes.iter().any(|n| n.rule == "selection-pushdown"));
        assert_eq!(
            optimized.to_string(),
            "Filter empno < 10\n  Join\n    \
             Filter (salary > 1000 AND empno < 10)\n      \
             Scan employee [partitions: shape ⊇ {empno, salary}]\n    \
             Filter (floor = 3 AND empno < 10)\n      \
             Scan dept [partitions: shape ⊇ {empno, floor}]\n"
        );
        // Optimizing the result again changes nothing: the copies are
        // recognised below the join.
        let (again, notes) = optimize(optimized.clone(), &catalog_with_dept());
        assert_eq!(again, optimized);
        assert!(notes.iter().all(|n| n.rule != "selection-pushdown"));
    }

    #[test]
    fn selections_that_either_operand_could_satisfy_stay_above_the_join() {
        // typing-speed is in both universes and mandatory in neither; a
        // PRESENT atom, a disjunction and a negation are never split.
        let join = || LogicalPlan::scan("employee").join(LogicalPlan::scan("employee"));
        for pred in [
            Predicate::gt("typing-speed", 100),
            Predicate::present(flexrel_core::attrs!["foreign-languages"]),
            Predicate::gt("salary", 1).or(Predicate::lt("empno", 5)),
            Predicate::gt("salary", 1).negate(),
        ] {
            let (optimized, notes) = optimize(join().filter(pred), &catalog_with_dept());
            assert!(
                matches!(&optimized, LogicalPlan::Filter { input, .. }
                    if matches!(**input, LogicalPlan::Join { .. })),
                "{}",
                optimized
            );
            assert!(notes.iter().all(|n| n.rule != "selection-pushdown"));
        }
    }

    #[test]
    fn selections_move_onto_an_extended_operand_too() {
        // `ε` has attribute bounds like any operator (its input's plus its
        // own attribute): `floor` and `source` are the extended operand's
        // alone, and the scan below it is pruned through the extension.
        let extended = LogicalPlan::Extend {
            input: Box::new(LogicalPlan::scan("dept")),
            attr: "source".into(),
            value: Value::tag("hr"),
        };
        let plan = extended
            .join(LogicalPlan::scan("employee"))
            .filter(Predicate::eq("floor", 3).and(Predicate::eq("source", Value::tag("hr"))));
        let (optimized, notes) = optimize(plan, &catalog_with_dept());
        assert!(notes.iter().any(|n| n.rule == "selection-pushdown"));
        assert_eq!(
            optimized.to_string(),
            "Join\n  \
             Filter (floor = 3 AND source = 'hr')\n    \
             Extend source := 'hr'\n      \
             Scan dept [partitions: shape ⊇ {floor}]\n  \
             Scan employee\n"
        );
    }

    fn database(n: usize) -> Database {
        use flexrel_workload::{generate_employees, EmployeeConfig};
        let db = Database::new();
        db.create_relation(RelationDef::from_relation(&employee_relation()))
            .unwrap();
        for t in generate_employees(&EmployeeConfig::clean(n)) {
            db.insert("employee", t).unwrap();
        }
        db
    }

    #[test]
    fn access_path_pass_rewrites_covered_equality_filters() {
        let db = database(50);
        let plan = planned("SELECT * FROM employee WHERE empno = 3 AND salary > 0");
        let (optimized, notes) = optimize_with_db(plan, &db);
        assert_eq!(optimized.index_lookup_count(), 1, "{}", optimized);
        assert!(notes.iter().any(|n| n.rule == "access-path"));
        let s = optimized.to_string();
        assert!(s.contains("IndexLookup employee"), "{}", s);
        assert!(s.contains("salary > 0"), "residual filter kept: {}", s);
        assert!(!s.contains("empno = 3"), "consumed equality removed: {}", s);
    }

    #[test]
    fn access_path_pass_needs_a_covering_index() {
        let db = database(30);
        // No index on name: the filter stays a filtered scan.
        let plan = planned("SELECT * FROM employee WHERE name = 'emp3'");
        let (optimized, _) = optimize_with_db(plan.clone(), &db);
        assert_eq!(optimized.index_lookup_count(), 0, "{}", optimized);
        // A user-created secondary index enables the rewrite.
        db.create_index("employee", flexrel_core::attrs!["name"])
            .unwrap();
        let (optimized, notes) = optimize_with_db(plan, &db);
        assert_eq!(optimized.index_lookup_count(), 1, "{}", optimized);
        assert!(notes.iter().any(|n| n.rule == "access-path"));
    }

    #[test]
    fn index_lookup_composes_with_partition_pruning() {
        // The unique key takes its index while the equality on the EAD
        // determinant pins the variant region; the shape predicate pushed
        // by prune_scans must survive on the lookup node.  (The determinant
        // alone no longer takes its index — see the next test — so the
        // composition is shown on the key that does.)
        let db = database(600);
        let plan = planned("SELECT * FROM employee WHERE empno = 7 AND jobtype = 'secretary'");
        let (optimized, _) = optimize_with_db(plan, &db);
        let LogicalPlan::Filter { input, .. } = optimized else {
            panic!("expected a residual filter over the lookup");
        };
        let LogicalPlan::IndexLookup {
            shapes: Some(sp),
            key,
            ..
        } = *input
        else {
            panic!("expected an index lookup");
        };
        assert_eq!(key, flexrel_core::attrs!["empno"]);
        assert!(!sp.is_trivial());
        assert!(
            sp.regions.iter().any(|(_, yi)| !yi.is_empty()),
            "the pinned determinant fixes the variant region: {}",
            sp
        );
    }

    #[test]
    fn a_low_cardinality_determinant_is_priced_out_of_its_index() {
        // jobtype has an index (it is the EAD determinant) but three keys:
        // its chain is the whole secretary partition, which the pruned scan
        // reads from columns for less than a rid fetch per row.
        let db = database(600);
        assert!(db.has_index("employee", &flexrel_core::attrs!["jobtype"]));
        let plan = planned("SELECT * FROM employee WHERE jobtype = 'secretary'");
        let (optimized, notes) = optimize_with_db(plan, &db);
        assert_eq!(optimized.index_lookup_count(), 0, "{}", optimized);
        assert_eq!(optimized.pruned_scan_count(), 1, "{}", optimized);
        assert!(notes.iter().all(|n| n.rule != "access-path"));
        // The same relation's unique key keeps its probe.
        let plan = planned("SELECT * FROM employee WHERE empno = 7");
        assert_eq!(optimize_with_db(plan, &db).0.index_lookup_count(), 1);
    }

    #[test]
    fn executed_statements_record_rules_without_rendering_details() {
        let db = database(50);
        let plan = planned("SELECT * FROM employee WHERE empno = 3");
        let (_, notes) = optimize_with_db(plan.clone(), &db);
        assert!(notes.iter().any(|n| n.rule == "access-path"));
        assert!(notes.iter().all(|n| n.detail.is_empty()));
        let explained = explain_query("SELECT * FROM employee WHERE empno = 3", &db).unwrap();
        assert!(explained.contains("[access-path] scan of employee replaced"));
        let (_, notes) = optimize(plan, &db.catalog());
        assert!(notes.iter().all(|n| !n.detail.is_empty()));
    }

    #[test]
    fn aggregation_pushes_group_attrs_and_survives_empty_inputs() {
        // Grouping attributes are required below the aggregate, so the scan
        // gets a shape predicate.
        let plan = planned("SELECT typing-speed, COUNT(*) FROM employee GROUP BY typing-speed");
        let (optimized, notes) = optimize(plan, &catalog());
        assert_eq!(optimized.pruned_scan_count(), 1, "{}", optimized);
        assert!(notes.iter().any(|n| n.rule == "partition-pruning"));

        // A global aggregate over a proven-empty input keeps its node (it
        // still emits COUNT(*) = 0); a grouped one collapses.
        let plan = LogicalPlan::Empty.aggregate(
            AttrSet::empty(),
            vec![crate::logical::AggExpr::new(
                crate::logical::AggFunc::Count,
                None,
            )],
        );
        let (optimized, _) = optimize(plan, &catalog());
        assert!(matches!(optimized, LogicalPlan::Aggregate { .. }));
        let plan = LogicalPlan::Empty.aggregate(
            flexrel_core::attrs!["jobtype"],
            vec![crate::logical::AggExpr::new(
                crate::logical::AggFunc::Count,
                None,
            )],
        );
        let (optimized, _) = optimize(plan, &catalog());
        assert_eq!(optimized, LogicalPlan::Empty);
    }

    #[test]
    fn constant_false_filter_collapses_to_empty() {
        let plan = LogicalPlan::scan("employee").filter(Predicate::False);
        let (optimized, _) = optimize(plan, &catalog());
        assert_eq!(optimized, LogicalPlan::Empty);
        let plan = LogicalPlan::scan("employee").filter(Predicate::True);
        let (optimized, _) = optimize(plan, &catalog());
        assert_eq!(optimized, LogicalPlan::scan("employee"));
    }

    #[test]
    fn empty_propagation_through_joins_and_unions() {
        let plan = LogicalPlan::Empty.join(LogicalPlan::scan("employee"));
        let (optimized, notes) = optimize(plan, &catalog());
        assert_eq!(optimized, LogicalPlan::Empty);
        assert!(notes.iter().any(|n| n.rule == "empty-propagation"));

        let plan = LogicalPlan::UnionAll {
            inputs: vec![LogicalPlan::Empty, LogicalPlan::scan("employee")],
        };
        let (optimized, _) = optimize(plan, &catalog());
        assert_eq!(optimized, LogicalPlan::scan("employee"));
    }
}
