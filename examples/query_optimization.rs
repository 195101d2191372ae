//! AD-driven query optimization: the redundant type guard of Example 4 and
//! variant pruning over a horizontally decomposed employee entity.
//!
//! Run with `cargo run -p flexrel-examples --bin query_optimization`.

use flexrel_algebra::predicate::Predicate;
use flexrel_core::value::Value;
use flexrel_query::prelude::*;
use flexrel_storage::{Database, RelationDef};
use flexrel_workload::{employee_relation, generate_employees, EmployeeConfig, JobType};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let db = Database::new();
    db.create_relation(RelationDef::from_relation(&employee_relation()))?;
    for t in generate_employees(&EmployeeConfig::clean(20_000)) {
        db.insert("employee", t)?;
    }

    // Example 4: the selection already determines that typing-speed exists.
    let q = parse(
        "SELECT empno, typing-speed FROM employee \
         WHERE salary > 5000 AND jobtype = 'secretary' GUARD typing-speed",
    )?;
    let naive = plan_query(&q, &db.catalog())?;
    println!("naive plan:\n{}", naive);
    let (optimized, notes) = optimize(naive.clone(), &db.catalog());
    println!("optimized plan:\n{}", optimized);
    for n in &notes {
        println!("rewrite [{}]:\n{}\n", n.rule, n.detail);
    }
    let a = execute_collect(&naive, &db, &ExecOptions::serial())?.0;
    let b = execute_collect(&optimized, &db, &ExecOptions::serial())?.0;
    println!(
        "both plans return {} rows (identical: {})",
        a.len(),
        a.len() == b.len()
    );

    // Variant pruning: a union of qualified fragments, filtered on the
    // determining attribute.
    let branches: Vec<LogicalPlan> = JobType::all()
        .into_iter()
        .map(|j| {
            LogicalPlan::qualified_scan("employee", Predicate::eq("jobtype", Value::tag(j.tag())))
        })
        .collect();
    let plan = LogicalPlan::UnionAll { inputs: branches }
        .filter(Predicate::eq("jobtype", Value::tag("salesman")));
    println!("\nfragmented plan:\n{}", plan);
    let (pruned, notes) = optimize(plan, &db.catalog());
    println!("after variant pruning:\n{}", pruned);
    println!(
        "{} branches were pruned",
        notes.iter().filter(|n| n.rule == "variant-pruning").count()
    );
    Ok(())
}
