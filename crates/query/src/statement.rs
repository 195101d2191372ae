//! The text-statement entry point: one call that takes an FRQL string and a
//! database handle through parse → plan → optimize → execute, with an
//! optional deadline.
//!
//! This is the boundary the network server (and any other embedder that
//! receives statements as text) calls per statement.  It owns two contracts
//! the lower layers leave to the caller:
//!
//! * **`EXPLAIN` dispatch** — a statement prefixed with `EXPLAIN` returns
//!   the rendered optimized plan instead of rows.
//! * **Timeout surfacing** — when [`ExecOptions::deadline`] trips, the
//!   pipeline ends its chunk stream early and [`execute_chunks`] returns
//!   [`CoreError::Timeout`](flexrel_core::error::CoreError::Timeout), so
//!   truncated row sets never escape to a client.
//!
//! Parse → plan → optimize → execute exists once, in
//! [`run_statement_chunks`], which stops at the result chunks;
//! [`run_statement`] materializes them, the network server encodes them in
//! place.

use flexrel_core::error::Result;
use flexrel_core::tuple::Tuple;
use flexrel_storage::Database;

use crate::batch::{Chunk, ExecStats};
use crate::exec::{execute_chunks, ExecOptions};
use crate::optimizer::{explain_query, optimize_with_db};
use crate::parser::parse;
use crate::planner::plan_query;

/// What a successfully executed statement produced: by default its result
/// tuples; [`run_statement_chunks`] yields the unmaterialized result chunks
/// instead.
#[derive(Clone, Debug, PartialEq)]
pub enum StatementOutcome<R = Vec<Tuple>> {
    /// The result of a query, in pipeline order (a multiset).
    Rows(R),
    /// The rendered optimized plan of an `EXPLAIN` statement.
    Explain(String),
}

/// Parses, plans, optimizes (against the live database's statistics and
/// indexes) and executes one FRQL statement up to its result chunks
/// ([`execute_chunks`]): nothing is materialized yet.
///
/// Errors from every stage come back as
/// [`CoreError`](flexrel_core::error::CoreError): parse and binding errors,
/// unknown relations, and — when `opts.deadline` has passed before the
/// pipeline finished — `CoreError::Timeout`.
pub fn run_statement_chunks(
    db: &Database,
    frql: &str,
    opts: &ExecOptions,
) -> Result<StatementOutcome<(Vec<Chunk>, ExecStats)>> {
    let query = parse(frql)?;
    if query.explain {
        return Ok(StatementOutcome::Explain(explain_query(frql, db)?));
    }
    let plan = plan_query(&query, &db.catalog())?;
    let (optimized, _notes) = optimize_with_db(plan, db);
    Ok(StatementOutcome::Rows(execute_chunks(
        &optimized, db, opts,
    )?))
}

/// [`run_statement_chunks`] with the result materialized as tuples
/// ([`Chunk::collect_tuples`]).
pub fn run_statement(db: &Database, frql: &str, opts: &ExecOptions) -> Result<StatementOutcome> {
    Ok(match run_statement_chunks(db, frql, opts)? {
        StatementOutcome::Rows((chunks, stats)) => {
            StatementOutcome::Rows(Chunk::collect_tuples(chunks, &stats))
        }
        StatementOutcome::Explain(text) => StatementOutcome::Explain(text),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use flexrel_core::error::CoreError;
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
    fn runs_queries_and_explains_from_text() {
        let db = database(64);
        let out = run_statement(
            &db,
            "SELECT empno FROM employee WHERE jobtype = 'secretary'",
            &ExecOptions::serial(),
        )
        .unwrap();
        match out {
            StatementOutcome::Rows(rows) => {
                assert!(!rows.is_empty());
                assert!(rows.iter().all(|t| t.has_name("empno")));
            }
            other => panic!("expected rows, got {:?}", other),
        }

        let out = run_statement(
            &db,
            "EXPLAIN SELECT * FROM employee WHERE jobtype = 'secretary'",
            &ExecOptions::serial(),
        )
        .unwrap();
        match out {
            StatementOutcome::Explain(text) => assert!(text.contains("employee"), "{}", text),
            other => panic!("expected explain, got {:?}", other),
        }
    }

    #[test]
    fn statement_errors_are_typed_not_panics() {
        let db = database(4);
        assert!(run_statement(&db, "SELEC oops", &ExecOptions::serial()).is_err());
        assert!(run_statement(&db, "SELECT * FROM nowhere", &ExecOptions::serial()).is_err());
        assert!(matches!(
            run_statement(&db, "SELECT bogus FROM employee", &ExecOptions::serial()),
            Err(CoreError::UnknownAttribute(_))
        ));
    }

    #[test]
    fn an_expired_deadline_yields_timeout_never_truncated_rows() {
        let db = database(256);
        let opts = ExecOptions::serial().with_deadline(std::time::Instant::now());
        let err = run_statement(&db, "SELECT * FROM employee", &opts).unwrap_err();
        assert!(matches!(err, CoreError::Timeout(_)), "{:?}", err);
        // The same statement without a deadline still works on the same
        // handle — cancellation leaves no residue in the database.
        let out = run_statement(&db, "SELECT * FROM employee", &ExecOptions::serial()).unwrap();
        assert!(matches!(out, StatementOutcome::Rows(r) if r.len() == 256));
    }
}
