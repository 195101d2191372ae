//! A small HR database: the paper's employee entity stored in the
//! flexrel-storage engine, queried through FRQL, decomposed and restored.
//!
//! Run with `cargo run -p flexrel-examples --bin hr_database`.

use flexrel_core::attr::AttrSet;
use flexrel_core::dep::example2_jobtype_ead;
use flexrel_decompose::{horizontal_decompose, stats, vertical_decompose};
use flexrel_query::prelude::*;
use flexrel_storage::{Database, RelationDef};
use flexrel_workload::{employee_relation, generate_employees, EmployeeConfig};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let db = Database::new();
    db.create_relation(RelationDef::from_relation(&employee_relation()))?;

    // Bulk load inside a transaction; the first tuple that fails type
    // checking returns its error from the closure and rolls the load back.
    db.transact(&["employee"], |tx| {
        generate_employees(&EmployeeConfig::clean(5_000))
            .into_iter()
            .try_for_each(|t| tx.insert("employee", t).map(drop))
    })?;
    println!("loaded {} employees", db.count("employee")?);

    // FRQL queries.
    for frql in [
        "SELECT empno, name, typing-speed FROM employee WHERE jobtype = 'secretary' AND salary > 7000",
        "SELECT empno, products FROM employee WHERE jobtype = 'salesman' GUARD products",
    ] {
        let q = parse(frql)?;
        let plan = plan_query(&q, &db.catalog())?;
        let (optimized, notes) = optimize(plan, &db.catalog());
        let rows = execute_collect(&optimized, &db, &ExecOptions::serial())?.0;
        println!("\n{}\n  -> {} rows, {} optimizer rewrites", frql, rows.len(), notes.len());
        for n in &notes {
            println!("     [{}]", n.rule);
        }
    }

    // Decompose the snapshot along the jobtype EAD and compare storage.
    let snapshot = db.snapshot("employee")?;
    let ead = example2_jobtype_ead();
    let h = horizontal_decompose(&snapshot, &ead)?;
    let v = vertical_decompose(&snapshot, &ead, &AttrSet::singleton("empno"))?;
    println!("\nstorage comparison (cells):");
    println!("  flexible     : {:?}", stats::flexible_stats(&snapshot));
    println!("  horizontal   : {:?}", stats::horizontal_stats(&h));
    println!("  vertical     : {:?}", stats::vertical_stats(&v));
    println!("\nrestored (outer union): {} tuples", h.restore()?.len());
    println!("restored (multiway join): {} tuples", v.restore()?.len());
    Ok(())
}
