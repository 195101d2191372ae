//! The executor's front door: execution options, the per-query snapshot
//! context, the attribute bounds derived from it, and the result boundary
//! that runs a logical plan against a [`flexrel_storage::Database`] through
//! the chunk pipeline in [`crate::batch`].
//!
//! The executor runs the plan it is given and decides nothing physical:
//! partition pruning ([`ShapePredicate`](crate::logical::ShapePredicate)s
//! on scans, evaluated once per partition so pruned partitions are never
//! touched), index probes ([`LogicalPlan::IndexLookup`]) and the join
//! method ([`JoinStrategy`] on each
//! [`LogicalPlan::Join`]) are all chosen by the optimizer and recorded in
//! the plan.  A plan that did not pass through
//! [`choose_access_paths`](crate::optimizer::choose_access_paths) — a raw
//! planner plan, or one optimized against the catalog alone — therefore
//! hash-joins, just as its `Filter ∘ Scan` never becomes an index probe.
//! The executor reads no table statistics.  The only blocking points are
//! the ones inherent to the operators: the build side of a hash join,
//! aggregation, and the duplicate-elimination state of projections and
//! unions.
//!
//! # Snapshot discipline
//!
//! Before any tuple flows, the executor captures **one** snapshot per
//! scanned relation: its partition catalog and — when the plan probes
//! that relation's index — its index set, taken atomically
//! ([`relation_snapshot`](Database::relation_snapshot)).  Every read of the
//! query — the partitions a pruned scan visits, the attribute bounds that
//! size joins ([`plan_attrs`] at execution time), index probes and the
//! index-nested-loop inner side — goes through that capture.  Concurrent
//! writers can therefore neither tear a result mid-scan nor race a
//! shape-creating insert between the plan's pruning decision and the scan
//! it prunes; a query observes each relation at a single point in time.
//! An index the plan names but the capture lacks (dropped after planning)
//! makes its operator fall back to a scan of the captured partitions.

use std::cell::OnceCell;
use std::sync::Arc;

use flexrel_core::attr::AttrSet;
use flexrel_core::error::{CoreError, Result};
use flexrel_core::tuple::Tuple;
use flexrel_storage::{Database, HashIndex, PartitionSnapshot};

use crate::batch::{self, Chunk};
use crate::logical::{JoinStrategy, LogicalPlan};

/// Execution options: the statement deadline.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ExecOptions {
    /// Optional execution deadline.  The pipeline checks it at every chunk
    /// source (scans) and between result chunks, so a statement is
    /// cancelled within one 1024-slot segment of work.  When it trips,
    /// [`execute_chunks`] — and every entry point built on it — returns
    /// [`CoreError::Timeout`] instead of the truncated result.  `None` (the
    /// default) never cancels.
    pub deadline: Option<std::time::Instant>,
}

impl ExecOptions {
    /// The default options: no deadline.
    pub fn serial() -> Self {
        ExecOptions::default()
    }

    /// Sets the execution deadline (builder style).  See
    /// [`ExecOptions::deadline`] for the cancellation contract.
    pub fn with_deadline(mut self, deadline: std::time::Instant) -> Self {
        self.deadline = Some(deadline);
        self
    }
}

/// One relation's atomically captured read state: partition snapshot plus
/// index snapshots (see [`Database::relation_snapshot`]).
#[derive(Clone)]
pub(crate) struct RelSnap {
    pub(crate) parts: PartitionSnapshot,
    pub(crate) indexes: Vec<Arc<HashIndex>>,
}

impl RelSnap {
    pub(crate) fn index_on(&self, key: &AttrSet) -> Option<&Arc<HashIndex>> {
        self.indexes.iter().find(|idx| idx.key() == key)
    }
}

/// What executing a plan reads, folded over its nodes: the relations, and
/// which of them it probes through an index (an `IndexLookup`'s relation,
/// or the inner side of a join the optimizer set to index-nested-loop).
/// Each name is listed once, borrowed from the plan.
#[derive(Default)]
struct Reads<'p> {
    relations: Vec<&'p str>,
    probed: Vec<&'p str>,
}

impl<'p> Reads<'p> {
    fn of(mut self, plan: &'p LogicalPlan) -> Self {
        fn add<'p>(names: &mut Vec<&'p str>, name: &'p str) {
            if !names.contains(&name) {
                names.push(name);
            }
        }
        match plan {
            LogicalPlan::Scan { relation, .. } => add(&mut self.relations, relation),
            LogicalPlan::IndexLookup { relation, .. } => {
                add(&mut self.relations, relation);
                add(&mut self.probed, relation);
            }
            LogicalPlan::Join {
                left,
                right,
                strategy,
            } => {
                // The side `batch::exec_chunks` probes; without one it
                // hash-joins and probes nothing.
                let inner = match strategy {
                    JoinStrategy::Hash => None,
                    JoinStrategy::IndexNestedLoopRight => Some(right),
                    JoinStrategy::IndexNestedLoopLeft => Some(left),
                };
                if let Some(side) = inner.and_then(|p| batch::inl_inner_side(p)) {
                    add(&mut self.probed, side.relation);
                }
            }
            _ => {}
        }
        plan.children().into_iter().fold(self, Reads::of)
    }
}

/// The per-query execution context: one snapshot per scanned relation.
/// Built once before any tuple flows; the chunk operators in
/// [`crate::batch`] read every relation through it.
pub(crate) struct ExecContext {
    /// One entry per relation: a plan reads a handful, so finding one by
    /// comparing names beats hashing them.
    snaps: Vec<(String, RelSnap)>,
    /// Returned for relations outside the captured set (unreachable after
    /// a successful `build`, which snapshots every relation the plan
    /// mentions); avoids cloning in the hot `snap` accessor.
    empty: RelSnap,
}

/// A context that captured nothing: every relation reads as empty.
impl Default for ExecContext {
    fn default() -> Self {
        ExecContext {
            snaps: Vec::new(),
            empty: RelSnap {
                parts: PartitionSnapshot::default(),
                indexes: Vec::new(),
            },
        }
    }
}

impl ExecContext {
    /// The context an execution of `plan` reads through.
    pub(crate) fn build(plan: &LogicalPlan, db: &Database) -> Result<ExecContext> {
        let reads = Reads::default().of(plan);
        ExecContext::capture(&reads.relations, &reads.probed, db)
    }

    /// The partitions of the relations `plans` scan, without index
    /// snapshots: what metadata derivations and cost estimates read.
    pub(crate) fn partitions(plans: &[&LogicalPlan], db: &Database) -> Result<ExecContext> {
        let reads = plans.iter().fold(Reads::default(), |r, p| r.of(p));
        ExecContext::capture(&reads.relations, &[], db)
    }

    /// Captures the relations.  Index snapshots are only taken of the
    /// `probed` ones: every other relation — and any query that probes
    /// none — then holds no `Arc<HashIndex>`, so concurrent index
    /// maintenance there stays copy-free (see the index-granularity note
    /// on [`Database::relation_snapshot`]).
    fn capture(
        relations: &[impl AsRef<str>],
        probed: &[&str],
        db: &Database,
    ) -> Result<ExecContext> {
        let mut snaps = Vec::with_capacity(relations.len());
        for rel in relations {
            let rel = rel.as_ref();
            let snap = if probed.contains(&rel) {
                let (parts, indexes) = db.relation_snapshot(rel)?;
                RelSnap { parts, indexes }
            } else {
                RelSnap {
                    parts: db.partition_snapshot(rel)?,
                    indexes: Vec::new(),
                }
            };
            snaps.push((rel.to_owned(), snap));
        }
        Ok(ExecContext {
            snaps,
            ..ExecContext::default()
        })
    }

    /// Borrows the relation's captured snapshot; the metadata derivations
    /// (`snap_plan_attrs`, the cost model) call this per plan node, so no
    /// clone happens here — only the few ownership sites (scan and
    /// index-nested-loop streams) clone.
    pub(crate) fn snap(&self, relation: &str) -> &RelSnap {
        self.snaps
            .iter()
            .find(|(r, _)| r == relation)
            .map_or(&self.empty, |(_, snap)| snap)
    }
}

/// [`ExecContext::partitions`] of one plan, taken when first read: the
/// access-path pass prices every join and filtered scan of a plan against
/// one capture, and a plan with neither takes none.
pub(crate) struct LazyPartitions<'a> {
    relations: Vec<String>,
    db: &'a Database,
    ctx: OnceCell<ExecContext>,
}

impl<'a> LazyPartitions<'a> {
    pub(crate) fn of(plan: &LogicalPlan, db: &'a Database) -> Self {
        let reads = Reads::default().of(plan);
        LazyPartitions {
            relations: reads.relations.into_iter().map(str::to_owned).collect(),
            db,
            ctx: OnceCell::new(),
        }
    }

    /// The capture, taken on the first call.  A relation it cannot find
    /// fails the statement when it runs; until then every relation reads
    /// as empty, which prices the scan and the hash join.
    pub(crate) fn get(&self) -> &ExecContext {
        self.ctx
            .get_or_init(|| ExecContext::capture(&self.relations, &[], self.db).unwrap_or_default())
    }
}

/// An upper bound on the attribute set of the tuples a plan can produce,
/// derived from partition catalog metadata — for a base scan this is the
/// exact union of the live (admitted) partition shapes; no operator folds
/// over tuples to discover attributes.
///
/// Used by the hash join to compute the common-attribute set of its inputs:
/// any attribute shared by an actual pair of tuples is contained in the
/// intersection of the two bounds, which is what the join hashes on.
///
/// This entry point reads the database's *current* state and serves the
/// optimizer; during execution the same derivation runs against the query's
/// captured snapshots instead, so the bound always matches the partitions
/// the scan actually visits.
pub fn plan_attrs(plan: &LogicalPlan, db: &Database) -> AttrSet {
    match ExecContext::partitions(&[plan], db) {
        Ok(ctx) => snap_plan_attrs(plan, &ctx),
        Err(_) => AttrSet::empty(),
    }
}

pub(crate) fn snap_plan_attrs(plan: &LogicalPlan, ctx: &ExecContext) -> AttrSet {
    match plan {
        LogicalPlan::Empty => AttrSet::empty(),
        LogicalPlan::Scan {
            relation, shape, ..
        } => ctx
            .snap(relation)
            .parts
            .partitions()
            .filter(|(_, p)| shape.as_ref().map(|s| s.admits(p.shape())).unwrap_or(true))
            .fold(AttrSet::empty(), |acc, (_, p)| acc.union(p.shape())),
        LogicalPlan::IndexLookup {
            relation,
            key,
            shapes,
            ..
        } => ctx
            .snap(relation)
            .parts
            .partitions()
            // An equality probe only reaches tuples defined on the key, so
            // partitions whose shape lacks it cannot contribute.
            .filter(|(_, p)| key.is_subset(p.shape()))
            .filter(|(_, p)| shapes.as_ref().map(|s| s.admits(p.shape())).unwrap_or(true))
            .fold(AttrSet::empty(), |acc, (_, p)| acc.union(p.shape())),
        LogicalPlan::Filter { input, .. } | LogicalPlan::Guard { input, .. } => {
            snap_plan_attrs(input, ctx)
        }
        LogicalPlan::Project { input, attrs } => snap_plan_attrs(input, ctx).intersection(attrs),
        LogicalPlan::Extend { input, attr, .. } => {
            let mut out = snap_plan_attrs(input, ctx);
            out.insert(attr.as_str());
            out
        }
        LogicalPlan::Join { left, right, .. } => {
            snap_plan_attrs(left, ctx).union(&snap_plan_attrs(right, ctx))
        }
        LogicalPlan::UnionAll { inputs } => inputs.iter().fold(AttrSet::empty(), |acc, p| {
            acc.union(&snap_plan_attrs(p, ctx))
        }),
        // The output attributes are the grouping attributes plus the
        // aggregate outputs (an upper bound: an aggregate that saw no input
        // omits its output).
        LogicalPlan::Aggregate { group_by, aggs, .. } => {
            let mut out = group_by.clone();
            for a in aggs {
                out.insert(a.output.clone());
            }
            out
        }
    }
}

/// Runs a plan to its result chunks: the executor's one result boundary.
/// Catalog errors (unknown relations) surface here, before any tuple
/// flows; so does the per-relation snapshot capture.  Columnar chunks are
/// still selections over shared column segments — nothing is materialized
/// here — and the returned [`batch::ExecStats`] keep counting for whichever
/// consumer reads them: [`Chunk::collect_tuples`] (the embedded API) or the
/// network server's reply encoder, which reads the columns in place.  The
/// chunks own what they read, so they stay a consistent snapshot however
/// long the caller holds them.
///
/// This is the one place an expired deadline becomes
/// [`CoreError::Timeout`]: the chunk list would be truncated, so it is
/// discarded rather than returned.
pub fn execute_chunks(
    plan: &LogicalPlan,
    db: &Database,
    opts: &ExecOptions,
) -> Result<(Vec<Chunk>, batch::ExecStats)> {
    let ctx = ExecContext::build(plan, db)?;
    let stats = batch::ExecStats::with_deadline(opts.deadline);
    let stream = batch::exec_chunks(plan, &ctx, &stats)?;
    // The operators own what they read.  Releasing the context — and with
    // it every index snapshot no operator kept — before the drain means a
    // writer arriving while the pipeline runs mutates its index in place
    // instead of copying it whole.
    drop(ctx);
    let chunks: Vec<Chunk> = stream.take_while(|_| !stats.deadline_expired()).collect();
    if stats.timed_out() {
        return Err(CoreError::Timeout(format!(
            "deadline passed after {} result chunks were produced",
            chunks.len()
        )));
    }
    Ok((chunks, stats))
}

/// Executes a plan, returning the result tuples together with the
/// pipeline's [`batch::ExecStats`] — notably how many input-side tuples
/// were materialized.  The stats are how tests pin down that late
/// materialization is actually happening (an aggregate query must report
/// **zero** materialized input tuples).  It is [`execute_chunks`] followed
/// by [`Chunk::collect_tuples`].
pub fn execute_collect(
    plan: &LogicalPlan,
    db: &Database,
    opts: &ExecOptions,
) -> Result<(Vec<Tuple>, batch::ExecStats)> {
    let (chunks, stats) = execute_chunks(plan, db, opts)?;
    Ok((Chunk::collect_tuples(chunks, &stats), stats))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::logical::ShapePredicate;
    use crate::optimizer::cost::{estimate_rows, join_strategy};
    use crate::optimizer::{choose_access_paths, optimize, Notes};
    use crate::parser::parse;
    use crate::planner::plan_query;
    use flexrel_algebra::predicate::Predicate;
    use flexrel_core::attrs;
    use flexrel_core::value::Value;
    use flexrel_storage::RelationDef;
    use flexrel_workload::{employee_relation, generate_employees, EmployeeConfig};

    fn db(n: usize) -> Database {
        let db = Database::new();
        db.create_relation(RelationDef::from_relation(&employee_relation()))
            .unwrap();
        for t in generate_employees(&EmployeeConfig::clean(n)) {
            db.insert("employee", t).unwrap();
        }
        db
    }

    fn run(db: &Database, frql: &str) -> Vec<Tuple> {
        let q = parse(frql).unwrap();
        let plan = plan_query(&q, &db.catalog()).unwrap();
        rows(&plan, db)
    }

    fn rows(plan: &LogicalPlan, db: &Database) -> Vec<Tuple> {
        execute_collect(plan, db, &ExecOptions::serial()).unwrap().0
    }

    /// The plan with its access paths and join methods chosen.
    fn costed(plan: LogicalPlan, db: &Database) -> LogicalPlan {
        choose_access_paths(plan, db, &mut Notes::rules_only())
    }

    #[test]
    fn scan_filter_project_guard() {
        let db = db(200);
        let all = run(&db, "SELECT * FROM employee");
        assert_eq!(all.len(), 200);

        let secretaries = run(&db, "SELECT * FROM employee WHERE jobtype = 'secretary'");
        assert!(!secretaries.is_empty());
        assert!(secretaries
            .iter()
            .all(|t| t.get_name("jobtype") == Some(&Value::tag("secretary"))));

        let projected = run(
            &db,
            "SELECT empno, salary FROM employee WHERE salary > 5000",
        );
        assert!(projected
            .iter()
            .all(|t| t.attrs() == attrs!["empno", "salary"]));

        let guarded = run(&db, "SELECT * FROM employee GUARD products");
        assert!(guarded.iter().all(|t| t.has_name("products")));
        assert!(guarded.len() < 200);
    }

    #[test]
    fn optimized_and_unoptimized_plans_agree() {
        let db = db(300);
        let queries = [
            "SELECT * FROM employee WHERE salary > 5000 AND jobtype = 'secretary' GUARD typing-speed",
            "SELECT empno FROM employee WHERE jobtype = 'salesman' GUARD sales-commission",
            "SELECT * FROM employee WHERE jobtype = 'secretary' GUARD products",
            "SELECT empno, products FROM employee WHERE jobtype = 'software engineer' AND PRESENT(products)",
            "SELECT * FROM employee WHERE salary > 9999999",
        ];
        for q in queries {
            let parsed = parse(q).unwrap();
            let plan = plan_query(&parsed, &db.catalog()).unwrap();
            let naive: std::collections::BTreeSet<Tuple> = rows(&plan, &db).into_iter().collect();
            let (optimized, _) = optimize(plan, &db.catalog());
            let fast: std::collections::BTreeSet<Tuple> =
                rows(&optimized, &db).into_iter().collect();
            assert_eq!(
                naive, fast,
                "optimization must not change results for {}",
                q
            );
        }
    }

    #[test]
    fn shape_predicates_prune_partitions_without_changing_results() {
        let db = db(240);
        let frql = "SELECT * FROM employee WHERE jobtype = 'secretary' AND salary > 3000";
        let parsed = parse(frql).unwrap();
        let plan = plan_query(&parsed, &db.catalog()).unwrap();
        let (optimized, notes) = optimize(plan.clone(), &db.catalog());
        assert_eq!(optimized.pruned_scan_count(), 1, "{}", optimized);
        assert!(notes.iter().any(|n| n.rule == "partition-pruning"));
        let naive: std::collections::BTreeSet<Tuple> = rows(&plan, &db).into_iter().collect();
        let pruned: std::collections::BTreeSet<Tuple> = rows(&optimized, &db).into_iter().collect();
        assert_eq!(naive, pruned);
        // The pruned scan bound covers only the secretary partition.
        let bound = plan_attrs(&optimized, &db);
        assert!(bound.is_superset(&attrs!["typing-speed", "foreign-languages"]));
        assert!(!bound.contains_name("sales-commission"));
    }

    #[test]
    fn join_and_union_execution() {
        let db = db(50);
        // Join employee with itself projected on empno/salary: equivalent to
        // the original relation (key join).
        let left = LogicalPlan::scan("employee").project(attrs!["empno", "salary"]);
        let right = LogicalPlan::scan("employee").project(attrs!["empno", "jobtype"]);
        let joined = rows(&left.join(right), &db);
        assert_eq!(joined.len(), 50);
        assert!(joined
            .iter()
            .all(|t| t.attrs() == attrs!["empno", "salary", "jobtype"]));

        let union = LogicalPlan::UnionAll {
            inputs: vec![
                LogicalPlan::scan("employee")
                    .filter(Predicate::eq("jobtype", Value::tag("secretary"))),
                LogicalPlan::scan("employee")
                    .filter(Predicate::eq("jobtype", Value::tag("salesman"))),
                LogicalPlan::scan("employee")
                    .filter(Predicate::eq("jobtype", Value::tag("salesman"))),
            ],
        };
        let union_rows = rows(&union, &db);
        let by_scan = run(
            &db,
            "SELECT * FROM employee WHERE jobtype = 'secretary' OR jobtype = 'salesman'",
        );
        assert_eq!(
            union_rows.len(),
            by_scan.len(),
            "duplicates across branches are removed"
        );
    }

    #[test]
    fn join_common_attrs_come_from_partition_metadata() {
        let db = db(60);
        let left = LogicalPlan::scan("employee").project(attrs!["empno", "salary"]);
        let right = LogicalPlan::scan("employee").project(attrs!["empno", "jobtype"]);
        assert_eq!(plan_attrs(&left, &db), attrs!["empno", "salary"]);
        assert_eq!(
            plan_attrs(&left, &db).intersection(&plan_attrs(&right, &db)),
            attrs!["empno"]
        );
        let join = left.join(right);
        assert_eq!(plan_attrs(&join, &db), attrs!["empno", "salary", "jobtype"]);
        assert_eq!(plan_attrs(&LogicalPlan::Empty, &db), AttrSet::empty());
    }

    #[test]
    fn extend_adds_constant() {
        let db = db(10);
        let plan = LogicalPlan::Extend {
            input: Box::new(LogicalPlan::scan("employee")),
            attr: "source".into(),
            value: Value::tag("hr"),
        };
        assert!(rows(&plan, &db)
            .iter()
            .all(|t| t.get_name("source") == Some(&Value::tag("hr"))));
        assert!(plan_attrs(&plan, &db).contains_name("source"));
    }

    #[test]
    fn qualified_scan_applies_its_predicate() {
        let db = db(40);
        let plan = LogicalPlan::qualified_scan(
            "employee",
            Predicate::eq("jobtype", Value::tag("salesman")),
        );
        assert!(rows(&plan, &db)
            .iter()
            .all(|t| t.get_name("jobtype") == Some(&Value::tag("salesman"))));
    }

    #[test]
    fn hand_built_shape_predicate_restricts_the_scan() {
        let db = db(80);
        let full = rows(&LogicalPlan::scan("employee"), &db).len();
        let plan = LogicalPlan::Scan {
            relation: "employee".into(),
            qualification: None,
            shape: Some(ShapePredicate {
                required: attrs!["typing-speed"],
                regions: Vec::new(),
            }),
        };
        let pruned = rows(&plan, &db);
        assert!(!pruned.is_empty());
        assert!(pruned.len() < full);
        assert!(pruned.iter().all(|t| t.has_name("typing-speed")));
    }

    #[test]
    fn empty_plan_returns_nothing() {
        let db = db(5);
        assert!(rows(&LogicalPlan::Empty, &db).is_empty());
    }

    #[test]
    fn index_lookup_plans_agree_with_scans() {
        use crate::optimizer::optimize_with_db;
        let db = db(250);
        // The unique key takes its index; the three-valued determinant is
        // priced out (its chain is a whole partition) and stays a pruned
        // scan.  Either way the rows are the naive plan's.
        for (frql, lookups) in [
            ("SELECT * FROM employee WHERE empno = 17", 1),
            ("SELECT * FROM employee WHERE jobtype = 'secretary'", 0),
            (
                "SELECT empno FROM employee WHERE jobtype = 'salesman' AND salary > 4000",
                0,
            ),
        ] {
            let parsed = parse(frql).unwrap();
            let plan = plan_query(&parsed, &db.catalog()).unwrap();
            let naive: std::collections::BTreeSet<Tuple> = rows(&plan, &db).into_iter().collect();
            let (indexed, _) = optimize_with_db(plan, &db);
            assert_eq!(
                indexed.index_lookup_count(),
                lookups,
                "{}: {}",
                frql,
                indexed
            );
            let fast: std::collections::BTreeSet<Tuple> = rows(&indexed, &db).into_iter().collect();
            assert_eq!(
                naive, fast,
                "index access must not change results: {}",
                frql
            );
        }
    }

    #[test]
    fn index_lookup_applies_its_shape_predicate_per_rid() {
        let db = db(120);
        // A hand-built lookup on the jobtype index restricted to shapes that
        // carry typing-speed: salesman/engineer partitions are excluded even
        // though the probe key matches no secretaries... probe 'salesman'
        // with a secretary-only shape predicate: nothing may come back.
        let plan = LogicalPlan::IndexLookup {
            relation: "employee".into(),
            key: attrs!["jobtype"],
            key_value: Tuple::new().with("jobtype", Value::tag("salesman")),
            shapes: Some(ShapePredicate {
                required: attrs!["typing-speed"],
                regions: Vec::new(),
            }),
        };
        assert!(rows(&plan, &db).is_empty());
        // Without the shape restriction the probe returns the salesmen.
        let plan = LogicalPlan::IndexLookup {
            relation: "employee".into(),
            key: attrs!["jobtype"],
            key_value: Tuple::new().with("jobtype", Value::tag("salesman")),
            shapes: None,
        };
        let salesmen = rows(&plan, &db);
        assert!(!salesmen.is_empty());
        assert!(salesmen
            .iter()
            .all(|t| t.get_name("jobtype") == Some(&Value::tag("salesman"))));
    }

    #[test]
    fn index_paths_count_the_tuples_they_fetch() {
        let db = with_wanted(db(120), &[3, 7, 11]);
        // A probe returning k rows fetched k tuples and entered one chunk.
        let lookup = LogicalPlan::IndexLookup {
            relation: "employee".into(),
            key: attrs!["jobtype"],
            key_value: Tuple::new().with("jobtype", Value::tag("salesman")),
            shapes: None,
        };
        let (rows, stats) = execute_collect(&lookup, &db, &ExecOptions::serial()).unwrap();
        assert!(!rows.is_empty());
        assert_eq!(stats.materialized(), rows.len() as u64);
        assert_eq!(stats.chunks(), 1);
        // A probe that finds nothing fetched nothing.
        let miss = LogicalPlan::IndexLookup {
            relation: "employee".into(),
            key: attrs!["empno"],
            key_value: Tuple::new().with("empno", -1),
            shapes: None,
        };
        let (rows, stats) = execute_collect(&miss, &db, &ExecOptions::serial()).unwrap();
        assert!(rows.is_empty());
        assert_eq!((stats.materialized(), stats.chunks()), (0, 0));
        // Index-nested-loop: three outer tuples plus one inner fetch each.
        let join = costed(
            LogicalPlan::scan("wanted").join(LogicalPlan::scan("employee")),
            &db,
        );
        assert!(
            matches!(join, LogicalPlan::Join { strategy, .. }
                if strategy == JoinStrategy::IndexNestedLoopRight),
            "{}",
            join
        );
        let (rows, stats) = execute_collect(&join, &db, &ExecOptions::serial()).unwrap();
        assert_eq!(rows.len(), 3);
        assert_eq!(stats.materialized(), 6);
    }

    /// A small key-list relation to drive index-nested-loop joins.
    fn with_wanted(db: Database, keys: &[i64]) -> Database {
        use flexrel_core::scheme::FlexScheme;
        db.create_relation(RelationDef::new(
            "wanted",
            FlexScheme::relational(attrs!["empno"]),
        ))
        .unwrap();
        for k in keys {
            db.insert("wanted", Tuple::new().with("empno", *k)).unwrap();
        }
        db
    }

    /// Registers a dependency-free copy of `employee` under `name` with the
    /// same instance.  No dependencies means no indexes, so joins against
    /// it always take the hash path — the baseline INL is checked against.
    fn with_shadow(db: Database, name: &str) -> Database {
        let scheme = db.catalog().get("employee").unwrap().scheme.clone();
        db.create_relation(RelationDef::new(name, scheme)).unwrap();
        let tuples: Vec<Tuple> = db
            .scan("employee")
            .unwrap()
            .into_iter()
            .map(|(_, t)| t)
            .collect();
        for t in tuples {
            db.insert(name, t).unwrap();
        }
        db
    }

    #[test]
    fn small_probe_side_picks_index_nested_loop() {
        let db = with_shadow(with_wanted(db(300), &[3, 7, 11, 200]), "employee_nx");
        let wanted = LogicalPlan::scan("wanted");
        let employee = LogicalPlan::scan("employee");
        // Indexed side right resp. left: both orientations are picked.
        assert_eq!(
            join_strategy(&wanted, &employee, &db),
            JoinStrategy::IndexNestedLoopRight
        );
        assert_eq!(
            join_strategy(&employee, &wanted, &db),
            JoinStrategy::IndexNestedLoopLeft
        );
        // A residual filter over the indexed scan folds into the probe's
        // qualification instead of disqualifying the side.
        let filtered = LogicalPlan::scan("employee").filter(Predicate::gt("salary", 0));
        assert_eq!(
            join_strategy(&wanted, &filtered, &db),
            JoinStrategy::IndexNestedLoopRight
        );

        // All INL shapes agree with the hash join over the index-free
        // shadow copy of the same instance.
        let inl: std::collections::BTreeSet<Tuple> =
            rows(&costed(wanted.clone().join(employee), &db), &db)
                .into_iter()
                .collect();
        let inl_filtered: std::collections::BTreeSet<Tuple> =
            rows(&costed(wanted.clone().join(filtered), &db), &db)
                .into_iter()
                .collect();
        let shadow = LogicalPlan::scan("employee_nx");
        assert_eq!(
            join_strategy(&wanted, &shadow, &db),
            JoinStrategy::Hash,
            "no index exists on the shadow relation"
        );
        let hash: std::collections::BTreeSet<Tuple> = rows(&costed(wanted.join(shadow), &db), &db)
            .into_iter()
            .collect();
        assert_eq!(inl, hash);
        assert_eq!(inl_filtered, hash, "salary > 0 holds for every employee");
        assert_eq!(hash.len(), 4, "empnos 3, 7, 11 and 200 exist among 300");
    }

    #[test]
    fn large_probe_side_stays_with_hash_join() {
        // Equal-size self join on the indexed key: probing 300 times with
        // ~1 match each is not cheaper than one 300-tuple build side, so
        // the statistics gate keeps the hash join.
        let db = db(300);
        let l = LogicalPlan::scan("employee").project(attrs!["empno"]);
        let r = LogicalPlan::scan("employee");
        assert!(db.has_index("employee", &attrs!["empno"]));
        assert_eq!(join_strategy(&l, &r, &db), JoinStrategy::Hash);
    }

    #[test]
    fn estimate_rows_uses_partition_and_index_statistics() {
        let db = with_wanted(db(240), &[1, 2]);
        assert_eq!(estimate_rows(&LogicalPlan::Empty, &db), Some(0));
        assert_eq!(
            estimate_rows(&LogicalPlan::scan("employee"), &db),
            Some(240)
        );
        assert_eq!(estimate_rows(&LogicalPlan::scan("wanted"), &db), Some(2));
        // A pruned scan counts only admitted partitions.
        let pruned = LogicalPlan::Scan {
            relation: "employee".into(),
            qualification: None,
            shape: Some(ShapePredicate {
                required: attrs!["typing-speed"],
                regions: Vec::new(),
            }),
        };
        let est = estimate_rows(&pruned, &db).unwrap();
        assert!(est > 0 && est < 240, "est = {}", est);
        // An index lookup estimates one hash chain.
        let lookup = LogicalPlan::IndexLookup {
            relation: "employee".into(),
            key: attrs!["empno"],
            key_value: Tuple::new().with("empno", 5),
            shapes: None,
        };
        assert_eq!(estimate_rows(&lookup, &db), Some(1));
        // A join on a shared key estimates |L|·|R| / distinct(key): each
        // of the 2 wanted rows expects one employee partner.
        assert_eq!(
            estimate_rows(
                &LogicalPlan::scan("wanted").join(LogicalPlan::scan("employee")),
                &db
            ),
            Some(2)
        );
        // A grouped aggregate is bounded by the group key's distinct count.
        let grouped = LogicalPlan::scan("employee").aggregate(
            attrs!["jobtype"],
            vec![crate::logical::AggExpr::new(
                crate::logical::AggFunc::Count,
                None,
            )],
        );
        let est = estimate_rows(&grouped, &db).unwrap();
        assert!(est <= 3, "three job types, est = {}", est);
        // A global aggregate emits exactly one row.
        let global = LogicalPlan::scan("employee").aggregate(
            AttrSet::empty(),
            vec![crate::logical::AggExpr::new(
                crate::logical::AggFunc::Count,
                None,
            )],
        );
        assert_eq!(estimate_rows(&global, &db), Some(1));
    }

    /// The collecting entry points never hand back rows a deadline
    /// truncated.
    #[test]
    fn an_expired_deadline_is_a_timeout_not_truncated_rows() {
        let db = db(300);
        let plan = LogicalPlan::scan("employee");
        let opts = ExecOptions::serial().with_deadline(std::time::Instant::now());
        assert!(matches!(
            execute_chunks(&plan, &db, &opts),
            Err(CoreError::Timeout(_))
        ));
        assert!(matches!(
            execute_collect(&plan, &db, &opts),
            Err(CoreError::Timeout(_))
        ));
        assert_eq!(ExecOptions::default(), ExecOptions::serial());
        let later = std::time::Instant::now() + std::time::Duration::from_secs(3600);
        let opts = ExecOptions::serial().with_deadline(later);
        assert_eq!(execute_collect(&plan, &db, &opts).unwrap().0.len(), 300);
    }

    #[test]
    fn executor_snapshots_shield_a_query_from_concurrent_writes() {
        let db = db(120);
        let plan = LogicalPlan::scan("employee").filter(Predicate::gt("salary", 0));
        // Build the pipeline (captures the snapshot), pull one chunk, then
        // delete every row before pulling the rest: the remaining chunks
        // still come from the capture.
        let ctx = ExecContext::build(&plan, &db).unwrap();
        let stats = batch::ExecStats::default();
        let mut pipeline = batch::exec_chunks(&plan, &ctx, &stats).unwrap();
        drop(ctx);
        let first = pipeline.next().expect("a first chunk");
        assert!(first.len() < 120, "the scan spans several chunks");
        let rids: Vec<flexrel_storage::Rid> = db
            .scan("employee")
            .unwrap()
            .into_iter()
            .map(|(r, _)| r)
            .collect();
        for rid in rids {
            db.delete("employee", rid).unwrap();
        }
        assert_eq!(db.count("employee").unwrap(), 0);
        let seen = first.len() + pipeline.map(|c| c.len()).sum::<usize>();
        assert_eq!(seen, 120, "the pipeline sees its snapshot");
        // A fresh execution sees the new state.
        assert_eq!(rows(&plan, &db).len(), 0);
    }

    /// An index-nested-loop join captures the indexes of the relation it
    /// probes and of no other: the outer side's scan holds partitions
    /// only, so a writer to the outer relation keeps updating its indexes
    /// in place while the join runs.
    #[test]
    fn a_join_captures_only_the_probed_relations_indexes() {
        let db = with_wanted(db(300), &[3, 7, 11]);
        db.create_index("wanted", attrs!["empno"]).unwrap();
        let plan = LogicalPlan::Join {
            left: Box::new(LogicalPlan::scan("employee")),
            right: Box::new(LogicalPlan::scan("wanted")),
            strategy: JoinStrategy::IndexNestedLoopRight,
        };
        let counts = |relation: &str| -> Vec<usize> {
            let (_, indexes) = db.relation_snapshot(relation).unwrap();
            // Less the handle this snapshot itself holds.
            indexes.iter().map(|i| Arc::strong_count(i) - 1).collect()
        };
        let (outer, inner) = (counts("employee"), counts("wanted"));
        assert!(!outer.is_empty(), "the outer relation is indexed");

        let ctx = ExecContext::build(&plan, &db).unwrap();
        let stats = batch::ExecStats::default();
        let mut pipeline = batch::exec_chunks(&plan, &ctx, &stats).unwrap();
        assert!(pipeline.next().is_some(), "a first chunk");
        assert_eq!(counts("employee"), outer, "the outer scan holds no index");
        assert!(
            counts("wanted")
                .iter()
                .zip(&inner)
                .all(|(now, before)| now > before),
            "the probed relation's indexes are captured"
        );
        drop((pipeline, ctx));
        assert_eq!(counts("wanted"), inner);
    }
}
