//! # flexrel-query
//!
//! Query processing over flexible relations: a small query language (FRQL),
//! logical plans, a rule-based optimizer whose rewrites are justified by
//! attribute dependencies (§3.1.2 and Example 4 of Kalus & Dadam, ICDE
//! 1995), and a partition-aware chunk executor running against
//! [`flexrel_storage::Database`].
//!
//! ## The optimizer's AD-driven rewrites
//!
//! Every rule asks one derivation, [`plan_props`]: what holds of the tuples
//! a plan node yields — attribute bounds, pinned values, and the
//! dependencies Theorem 4.3 ([`flexrel_algebra::propagate`]) lets through
//! each operator.
//!
//! * **Redundant type-guard elimination** (Example 4): a guard asking for
//!   attributes whose presence already follows — via the axiom system ℛ/ℰ
//!   ([`flexrel_core::typecheck::analyse_guard`]) — from the selection
//!   formula is removed; the derivation justifying the removal is attached
//!   to the rewrite note.
//! * **Unsatisfiable-guard pruning**: a guard asking for attributes the
//!   selected variant can never carry collapses the subtree to an empty
//!   plan.
//! * **Variant/branch pruning** (qualified relations): joins and union
//!   branches whose qualification contradicts the query's equality
//!   constraints on the determining attributes are eliminated — the
//!   "unnecessary joins with variants that are known to be excluded".
//! * **Partition pruning**: the attributes a selection requires present
//!   ([`flexrel_algebra::predicate::Predicate::required_attrs`]) and the
//!   exact variant overlap an [`Ead`](flexrel_core::dep::Ead) prescribes
//!   for pinned determining values are pushed into a
//!   [`ShapePredicate`] on the scan; the executor
//!   evaluates it per heap partition and skips partitions whose shape
//!   cannot qualify.
//! * **Selection pushdown through joins**: a comparison above a natural
//!   join moves to the operand that alone can carry its attribute (or is
//!   copied to the operands whose tuples always carry a shared one), so it
//!   meets that operand's index.
//! * **Index access paths** ([`optimize_with_db`]): equality selections
//!   covered by a stored index (the auto-created determinant indexes, or a
//!   user-defined secondary one) become
//!   [`IndexLookup`](LogicalPlan::IndexLookup) probes with a residual
//!   filter when the probe is priced below the shape-pruned scan, and joins
//!   on an indexed key stream one side against the index
//!   ([`join_strategy`], gated by the index statistics) instead of
//!   building a hash table.  The chosen method is recorded on the plan's
//!   [`Join`](LogicalPlan::Join) node; the executor follows it.
//!
//! ## The executor
//!
//! [`execute_chunks`] runs a plan to its result chunks — the one result
//! boundary — and [`execute_collect`] materializes them as tuples;
//! [`run_statement`] and [`run_statement_chunks`] take an FRQL string
//! through parse → plan → [`optimize_with_db`] → execute.
//!
//! ```
//! use flexrel_query::prelude::*;
//! use flexrel_storage::{Database, RelationDef};
//! use flexrel_workload::{employee_relation, generate_employees, EmployeeConfig};
//!
//! let mut db = Database::new();
//! let def = RelationDef::from_relation(&employee_relation());
//! db.create_relation(def).unwrap();
//! for t in generate_employees(&EmployeeConfig::clean(100)) {
//!     db.insert("employee", t).unwrap();
//! }
//!
//! let query = parse(
//!     "SELECT empno, typing-speed FROM employee \
//!      WHERE salary > 3000 AND jobtype = 'secretary' GUARD typing-speed",
//! ).unwrap();
//! let plan = plan_query(&query, &db.catalog()).unwrap();
//! let (optimized, notes) = optimize(plan, &db.catalog());
//! assert!(notes.iter().any(|n| n.rule == "guard-elimination"));
//! let (rows, _stats) = execute_collect(&optimized, &db, &ExecOptions::serial()).unwrap();
//! assert!(rows.iter().all(|t| t.has_name("typing-speed")));
//! ```

#![deny(missing_docs)]

pub mod agg;
pub mod batch;
pub mod colscan;
pub mod exec;
pub mod logical;
pub mod optimizer;
pub mod parser;
pub mod planner;
pub mod statement;

pub use agg::{Acc, GroupedAggs};
pub use batch::{Chunk, ColChunk, ExecStats};
pub use colscan::{aggregate_selected, compile as compile_predicates, Compiled};
pub use exec::{execute_chunks, execute_collect, plan_attrs, ExecOptions};
pub use logical::{AggExpr, AggFunc, JoinStrategy, LogicalPlan, ShapePredicate};
pub use optimizer::cost::{estimate_rows, join_strategy};
pub use optimizer::{
    choose_access_paths, explain_query, optimize, optimize_with_db, plan_props, PlanExplain,
    PlanProps, RewriteNote,
};
pub use parser::{parse, Query};
pub use planner::plan_query;
pub use statement::{run_statement, run_statement_chunks, StatementOutcome};

/// The most commonly used items.
pub mod prelude {
    pub use crate::exec::{execute_chunks, execute_collect, ExecOptions};
    pub use crate::logical::{AggExpr, AggFunc, JoinStrategy, LogicalPlan, ShapePredicate};
    pub use crate::optimizer::{
        explain_query, optimize, optimize_with_db, PlanExplain, RewriteNote,
    };
    pub use crate::parser::{parse, Query};
    pub use crate::planner::plan_query;
    pub use crate::statement::{run_statement, StatementOutcome};
}
