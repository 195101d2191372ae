//! End-to-end reproduction of the paper's worked examples, spanning all
//! crates of the workspace.

use flexrel_core::attrs;
use flexrel_core::axioms::{implies, AxiomSystem};
use flexrel_core::dep::{example2_jobtype_ead, Ad, Dependency};
use flexrel_core::er::employee_specialization;
use flexrel_core::scheme::example1_scheme;
use flexrel_core::subtype::{RecordType, SubtypeFamily, SupertypeJudgement};
use flexrel_core::value::{Domain, Value};
use flexrel_query::prelude::*;
use flexrel_storage::{Database, RelationDef};
use flexrel_workload::{
    employee_domains, employee_relation, employee_scheme, generate_employees, EmployeeConfig,
};

/// Example 1: the flexible scheme `<4,4,{A,B,<1,1,{C,D}>,<1,3,{E,F,G}>}>`
/// unfolds to exactly the paper's 14 attribute combinations.
#[test]
fn example1_dnf_has_14_combinations() {
    let fs = example1_scheme();
    let dnf = fs.dnf();
    assert_eq!(dnf.len(), 14);
    assert!(dnf.contains(&attrs!["A", "B", "C", "E"]));
    assert!(dnf.contains(&attrs!["A", "B", "D", "E", "F", "G"]));
    assert!(!dnf.contains(&attrs!["A", "B", "C", "D", "E"]));
}

/// Example 2 + §3.1: the jobtype EAD rejects the salesman-with-typing-speed
/// tuple that every purely existential scheme admits — end to end through
/// the storage engine.
#[test]
fn example2_type_checking_through_the_storage_engine() {
    let db = Database::new();
    db.create_relation(RelationDef::from_relation(&employee_relation()))
        .unwrap();
    for t in generate_employees(&EmployeeConfig::clean(500)) {
        db.insert("employee", t).unwrap();
    }
    let bad = flexrel_core::tuple::Tuple::new()
        .with("empno", 99_999)
        .with("name", "intruder")
        .with("salary", 1_000.0)
        .with("jobtype", Value::tag("salesman"))
        .with("typing-speed", 400)
        .with("foreign-languages", "french, russian");
    // The scheme alone admits the attribute combination…
    assert!(employee_scheme().admits(&bad.attrs()));
    // …but the AD-aware engine rejects the tuple.
    let err = db.insert("employee", bad).unwrap_err();
    assert!(err.to_string().contains("attribute dependency"));
    assert_eq!(db.count("employee").unwrap(), 500);
}

/// Example 3: the AD-induced subtype family reproduces the employee types
/// and flags the salary-only supertype as accidental.
#[test]
fn example3_subtype_family_and_accidental_supertype() {
    let family = SubtypeFamily::derive(
        &employee_scheme(),
        &example2_jobtype_ead(),
        &employee_domains(),
        "employee",
    )
    .unwrap();
    assert_eq!(family.subtypes().len(), 3);
    assert!(family.record_rule_holds());
    let salary_only = RecordType::new("salary_only").with_field("salary", Domain::Float);
    assert_eq!(
        family.judge_supertype(&salary_only),
        SupertypeJudgement::AccidentalSupertype
    );
    assert_eq!(
        family.judge_supertype(family.supertype()),
        SupertypeJudgement::SemanticSupertype
    );
}

/// Example 4: the derivation `{jobtype,salary} --attr--> {typing-speed}` is
/// found by the axiom system, the optimizer removes the guard, and the
/// optimized plan returns exactly the same rows.
#[test]
fn example4_guard_elimination_end_to_end() {
    // The implication itself.
    let sigma =
        flexrel_core::dep::DependencySet::from_deps(vec![Dependency::Ead(example2_jobtype_ead())]);
    let target = Dependency::Ad(Ad::new(attrs!["jobtype", "salary"], attrs!["typing-speed"]));
    assert!(implies(&sigma, &target, AxiomSystem::R));

    // Through the query stack.
    let db = Database::new();
    db.create_relation(RelationDef::from_relation(&employee_relation()))
        .unwrap();
    for t in generate_employees(&EmployeeConfig::clean(2_000)) {
        db.insert("employee", t).unwrap();
    }
    let q = parse(
        "SELECT empno, typing-speed FROM employee \
         WHERE salary > 5000 AND jobtype = 'secretary' GUARD typing-speed",
    )
    .unwrap();
    let naive = plan_query(&q, &db.catalog()).unwrap();
    let (optimized, notes) = optimize(naive.clone(), &db.catalog());
    assert_eq!(naive.guard_count(), 1);
    assert_eq!(optimized.guard_count(), 0);
    assert!(notes.iter().any(|n| n.rule == "guard-elimination"));

    let mut a = execute_collect(&naive, &db, &ExecOptions::serial())
        .unwrap()
        .0;
    let mut b = execute_collect(&optimized, &db, &ExecOptions::serial())
        .unwrap()
        .0;
    a.sort();
    b.sort();
    assert_eq!(a, b);
    assert!(!a.is_empty());
    assert!(a.iter().all(|t| t.has_name("typing-speed")));
}

/// §3.1: the ER specialization of the employee entity maps one-to-one onto
/// the Example 2 EAD.
#[test]
fn er_specialization_matches_example2() {
    let spec = employee_specialization();
    assert_eq!(spec.to_ead().unwrap(), example2_jobtype_ead());
}
