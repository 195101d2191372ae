//! Turning generated [`Op`]s into statements, and checking what comes back.

use flexrel_core::attrs;
use flexrel_core::tuple::Tuple;
use flexrel_core::value::Value;
use flexrel_server::{Request, Response, WriteOp};
use flexrel_workload::{wide_kind_tag, wide_variant_attr};

use crate::gen::{Kind, Op, Seeded, VARIANTS};

/// The FRQL text of a query op.
pub fn frql(op: &Op) -> String {
    match op.kind {
        Kind::Lookup => format!("SELECT * FROM wide WHERE id = {}", op.id),
        Kind::Join => format!(
            "SELECT kind, label FROM wide JOIN kinds WHERE id = {}",
            op.id
        ),
        Kind::Agg => format!(
            "SELECT COUNT(*), SUM({}) FROM wide WHERE kind = '{}'",
            wide_variant_attr(op.variant),
            wide_kind_tag(op.variant)
        ),
        Kind::Scan => format!(
            "SELECT * FROM wide WHERE kind = '{}'",
            wide_kind_tag(op.variant)
        ),
        Kind::Group => "SELECT kind, COUNT(*) FROM wide GROUP BY kind".to_string(),
        Kind::Insert | Kind::Delete => unreachable!("writes are not FRQL statements"),
    }
}

/// The tuple an insert op writes.
pub fn insert_tuple(op: &Op) -> Tuple {
    Tuple::new()
        .with("id", op.id)
        .with("kind", Value::tag(wide_kind_tag(op.variant)))
        .with(wide_variant_attr(op.variant), op.id % 1000)
}

/// The wire request of an op.
pub fn request(op: &Op) -> Request {
    match op.kind {
        Kind::Insert => Request::Transact {
            relation: "wide".into(),
            ops: vec![WriteOp::Insert(insert_tuple(op))],
        },
        Kind::Delete => Request::Transact {
            relation: "wide".into(),
            ops: vec![WriteOp::DeleteEq {
                key: attrs!["id"],
                key_value: Tuple::new().with("id", op.id),
            }],
        },
        _ => Request::Query { frql: frql(op) },
    }
}

/// How counts are held to the seeded ground truth: read-only workloads
/// must match it exactly; beside writers, in-flight inserts may add rows
/// (writers only ever delete their own inserts, so never fewer).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Counts {
    Exact,
    AtLeast,
}

impl Counts {
    fn admits(self, got: usize, seeded: usize) -> bool {
        match self {
            Counts::Exact => got == seeded,
            Counts::AtLeast => got >= seeded,
        }
    }
}

fn int(t: &Tuple, name: &str) -> Option<i64> {
    match t.get_name(name) {
        Some(Value::Int(i)) => Some(*i),
        _ => None,
    }
}

fn variant_of(t: &Tuple) -> Option<usize> {
    match t.get_name("kind") {
        Some(Value::Tag(k)) => k.strip_prefix('k')?.parse().ok(),
        _ => None,
    }
}

/// Whether `rows` is the right answer to query `op`.
pub fn rows_ok(op: &Op, rows: &[Tuple], seeded: &Seeded, counts: Counts) -> bool {
    match op.kind {
        Kind::Lookup => rows.len() == 1 && int(&rows[0], "id") == Some(op.id),
        // The seeded dimension maps kind `k<v>` to label `variant <v>`.
        Kind::Join => {
            rows.len() == 1
                && match (variant_of(&rows[0]), rows[0].get_name("label")) {
                    (Some(v), Some(Value::Str(label))) => {
                        label.strip_prefix("variant ").and_then(|s| s.parse().ok()) == Some(v)
                    }
                    _ => false,
                }
        }
        Kind::Agg => {
            rows.len() == 1
                && int(&rows[0], "count")
                    .is_some_and(|c| c >= 0 && counts.admits(c as usize, seeded.counts[op.variant]))
        }
        Kind::Scan => {
            counts.admits(rows.len(), seeded.counts[op.variant])
                && rows.iter().all(|t| variant_of(t) == Some(op.variant))
        }
        Kind::Group => {
            let total: i64 = rows.iter().filter_map(|t| int(t, "count")).sum();
            rows.len() == VARIANTS && total >= 0 && counts.admits(total as usize, seeded.n)
        }
        Kind::Insert | Kind::Delete => false,
    }
}

/// Whether `rsp` is the right answer to `op`.  Anything else — a wrong
/// answer, `Busy`, `Timeout`, any error, a delete that found nothing (a
/// lost write) — is a failed operation.
pub fn response_ok(op: &Op, rsp: &Response, seeded: &Seeded, counts: Counts) -> bool {
    match (op.kind, rsp) {
        (Kind::Insert, Response::TxnOk { inserted, deleted }) => *inserted == 1 && *deleted == 0,
        (Kind::Delete, Response::TxnOk { inserted, deleted }) => *inserted == 0 && *deleted == 1,
        (Kind::Insert | Kind::Delete, _) => false,
        (_, Response::Rows(rows)) => rows_ok(op, rows, seeded, counts),
        _ => false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn op(kind: Kind, id: i64, variant: usize) -> Op {
        Op { kind, id, variant }
    }

    fn wide(id: i64, v: usize) -> Tuple {
        insert_tuple(&op(Kind::Insert, id, v))
    }

    #[test]
    fn answers_are_checked_against_the_seeded_truth() {
        let seeded = Seeded::new(2_000);
        let lookup = op(Kind::Lookup, 7, 0);
        assert!(rows_ok(&lookup, &[wide(7, 1)], &seeded, Counts::Exact));
        assert!(!rows_ok(&lookup, &[wide(8, 1)], &seeded, Counts::Exact));
        assert!(!rows_ok(&lookup, &[], &seeded, Counts::Exact));

        let join = op(Kind::Join, 7, 0);
        let row = |label: &str| {
            Tuple::new()
                .with("kind", Value::tag("k3"))
                .with("label", label)
        };
        assert!(rows_ok(&join, &[row("variant 3")], &seeded, Counts::Exact));
        assert!(!rows_ok(&join, &[row("variant 4")], &seeded, Counts::Exact));

        let scan = op(Kind::Scan, 0, 2);
        let rows: Vec<Tuple> = (0..seeded.counts[2]).map(|i| wide(i as i64, 2)).collect();
        assert!(rows_ok(&scan, &rows, &seeded, Counts::Exact));
        assert!(!rows_ok(&scan, &rows[1..], &seeded, Counts::AtLeast));
        let mut extra = rows.clone();
        extra.push(wide(1_000_000_000, 2));
        assert!(!rows_ok(&scan, &extra, &seeded, Counts::Exact));
        assert!(rows_ok(&scan, &extra, &seeded, Counts::AtLeast));
        extra.push(wide(1_000_000_001, 5));
        assert!(!rows_ok(&scan, &extra, &seeded, Counts::AtLeast));
    }

    #[test]
    fn errors_and_lost_writes_are_failures() {
        let seeded = Seeded::new(2_000);
        let ok = |inserted, deleted| Response::TxnOk { inserted, deleted };
        let delete = op(Kind::Delete, 1_000_000_000, 0);
        assert!(response_ok(&delete, &ok(0, 1), &seeded, Counts::AtLeast));
        assert!(!response_ok(&delete, &ok(0, 0), &seeded, Counts::AtLeast));
        let busy = Response::Error {
            code: flexrel_server::ErrorCode::Busy,
            message: String::new(),
        };
        assert!(!response_ok(&delete, &busy, &seeded, Counts::AtLeast));
        assert!(!response_ok(
            &op(Kind::Lookup, 1, 0),
            &busy,
            &seeded,
            Counts::Exact
        ));
    }
}
