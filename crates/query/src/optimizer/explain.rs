//! `EXPLAIN` rendering: the optimized plan as an indented tree with
//! per-node row estimates, followed by the rewrite notes of every rule
//! that fired.

use std::fmt;

use flexrel_core::error::Result;
use flexrel_storage::Database;

use crate::logical::{JoinStrategy, LogicalPlan};
use crate::parser::parse;
use crate::planner::plan_query;

use super::{cost, optimize_against, Notes, RewriteNote};

/// A rendered explanation of an optimized plan: the operator tree (one
/// line per node, `~rows=` estimates where statistics allow one) and the
/// rewrite notes.  Build one with [`PlanExplain::new`], print it via
/// [`fmt::Display`].
#[derive(Clone, Debug)]
pub struct PlanExplain {
    rendered: String,
}

impl PlanExplain {
    /// Renders a plan.  With a database, each node is annotated with the
    /// cost model's row estimate (which consults the stored statistics);
    /// without one the tree and notes alone are shown.
    pub fn new(plan: &LogicalPlan, notes: &[RewriteNote], db: Option<&Database>) -> Self {
        let mut out = String::new();
        render_node(plan, db, 0, &mut out);
        if !notes.is_empty() {
            out.push_str("rewrites:\n");
            for n in notes {
                // Multi-line details (derivations) are indented under the
                // rule name.
                let detail = n.detail.replace('\n', "\n      ");
                out.push_str(&format!("  [{}] {}\n", n.rule, detail));
            }
        }
        PlanExplain { rendered: out }
    }
}

impl fmt::Display for PlanExplain {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.rendered)
    }
}

fn render_node(plan: &LogicalPlan, db: Option<&Database>, depth: usize, out: &mut String) {
    let indent = "  ".repeat(depth);
    let label = node_label(plan);
    let est = db
        .and_then(|db| cost::estimate_rows(plan, db))
        .map(|n| format!("  ~rows={}", n))
        .unwrap_or_default();
    out.push_str(&format!("{}{}{}\n", indent, label, est));
    for child in plan.children() {
        render_node(child, db, depth + 1, out);
    }
}

fn node_label(plan: &LogicalPlan) -> String {
    match plan {
        LogicalPlan::Scan {
            relation,
            qualification,
            shape,
        } => {
            let mut s = format!("Scan {}", relation);
            if let Some(q) = qualification {
                s.push_str(&format!(" qualified by {}", q));
            }
            if let Some(sp) = shape {
                s.push_str(&format!(" [{}]", sp));
            }
            s
        }
        LogicalPlan::IndexLookup {
            relation,
            key,
            key_value,
            shapes,
        } => {
            let mut s = format!("IndexLookup {} on {} = {}", relation, key, key_value);
            if let Some(sp) = shapes {
                s.push_str(&format!(" [{}]", sp));
            }
            s
        }
        LogicalPlan::Filter { predicate, .. } => format!("Filter {}", predicate),
        LogicalPlan::Project { attrs, .. } => format!("Project {}", attrs),
        LogicalPlan::Guard { attrs, .. } => format!("Guard {}", attrs),
        LogicalPlan::Extend { attr, value, .. } => format!("Extend {} := {}", attr, value),
        LogicalPlan::Join { strategy, .. } => match strategy {
            JoinStrategy::Hash => "Join".to_string(),
            _ => format!("Join [{}]", strategy),
        },
        LogicalPlan::UnionAll { .. } => "UnionAll".to_string(),
        LogicalPlan::Aggregate { group_by, aggs, .. } => {
            let outputs: Vec<&str> = aggs.iter().map(|a| a.output.name()).collect();
            if group_by.is_empty() {
                format!("Aggregate [{}]", outputs.join(", "))
            } else {
                format!("Aggregate group by {} [{}]", group_by, outputs.join(", "))
            }
        }
        LogicalPlan::Empty => "Empty".to_string(),
    }
}

/// The `EXPLAIN` front end: parses FRQL (a leading `EXPLAIN` keyword is
/// accepted and implied), plans, optimizes against the live database, and
/// renders the result — the one caller of the database-aware passes that
/// asks for the rewrite notes' prose.
pub fn explain_query(frql: &str, db: &Database) -> Result<String> {
    let query = parse(frql)?;
    let plan = plan_query(&query, &db.catalog())?;
    let mut notes = Notes::rendered();
    let optimized = optimize_against(plan, db, &mut notes);
    Ok(PlanExplain::new(&optimized, &notes.into_vec(), Some(db)).to_string())
}

#[cfg(test)]
mod tests {
    use super::*;
    use flexrel_storage::RelationDef;
    use flexrel_workload::{employee_relation, generate_employees, EmployeeConfig};

    fn database(n: usize) -> Database {
        let db = Database::new();
        db.create_relation(RelationDef::from_relation(&employee_relation()))
            .unwrap();
        for t in generate_employees(&EmployeeConfig::clean(n)) {
            db.insert("employee", t).unwrap();
        }
        db
    }

    #[test]
    fn explain_renders_tree_estimates_and_notes() {
        // A unique key so the costed access-path pass takes the index (the
        // determinant `jobtype` alone stays a pruned scan).
        let db = database(600);
        let out = explain_query(
            "EXPLAIN SELECT * FROM employee WHERE empno = 7 \
             AND jobtype = 'secretary' GUARD typing-speed",
            &db,
        )
        .unwrap();
        assert!(out.contains("IndexLookup employee"), "{}", out);
        assert!(out.contains("~rows="), "{}", out);
        assert!(out.contains("[guard-elimination]"), "{}", out);
        assert!(out.contains("rewrites:"), "{}", out);
    }

    #[test]
    fn explain_keyword_is_optional_in_the_front_end() {
        let db = database(10);
        let with = explain_query("EXPLAIN SELECT * FROM employee", &db).unwrap();
        let without = explain_query("SELECT * FROM employee", &db).unwrap();
        assert_eq!(with, without);
    }
}
