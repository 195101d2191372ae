//! Theorem 4.3, checked against instances: whatever an operator declares of
//! its output — scheme and dependency set — the output instance satisfies
//! (`FlexRelation::validate_instance`).  Operand pairs are generated in the
//! three ways two flexible schemes can meet: disjoint attribute sets, a
//! shared mandatory key, and a shared attribute that is optional on one side
//! and determined by an explicit AD on the other — the `employee ⋈ perks`
//! shape, where a merged tuple takes the attribute from the operand its
//! dependency does not speak for.

use proptest::prelude::*;

use flexrel_algebra::predicate::Predicate;
use flexrel_algebra::{
    difference, extend, multiway_join, natural_join, outer_union, product, project, rename, select,
    tagged_union, union,
};
use flexrel_core::attr::{Attr, AttrSet};
use flexrel_core::attrs;
use flexrel_core::dep::{example2_jobtype_ead, Ad, Ead, EadVariant, Fd};
use flexrel_core::relation::FlexRelation;
use flexrel_core::scheme::{FlexScheme, SchemeBuilder};
use flexrel_core::tuple::Tuple;
use flexrel_core::value::Value;

/// `left(k, a, [p], [q])`: `k → a`, and `a` decides by an explicit AD which
/// of `p`, `q` a tuple carries.
fn left(rng: &mut TestRng, n: usize) -> FlexRelation {
    let scheme = SchemeBuilder::all_of(["k", "a"])
        .optional("p")
        .optional("q")
        .build()
        .unwrap();
    let ead = Ead::new(
        attrs!["a"],
        attrs!["p", "q"],
        vec![
            EadVariant::new(vec![Tuple::new().with("a", 0)], attrs!["p"]),
            EadVariant::new(vec![Tuple::new().with("a", 1)], attrs!["q"]),
        ],
    )
    .unwrap();
    let mut rel = FlexRelation::new("left", scheme)
        .with_dep(ead)
        .with_dep(Fd::new(attrs!["k"], attrs!["a"]));
    for k in 0..n as i64 {
        let a = (rng.next_u64() % 3) as i64;
        let mut t = Tuple::new().with("k", k).with("a", a);
        match a {
            0 => t.insert("p", (rng.next_u64() % 4) as i64),
            1 => t.insert("q", (rng.next_u64() % 4) as i64),
            _ => {}
        }
        rel.insert(t).unwrap();
    }
    rel
}

/// The right operand, by how its attributes meet `left`'s: `0` disjoint
/// (`m`, `[n]`), `1` sharing the mandatory key (`k`, `m`, `[n]`), `2`
/// sharing the key and carrying `p` — which `left`'s explicit AD determines
/// — as an optional attribute of its own.
fn right(rng: &mut TestRng, n: usize, mode: u8) -> FlexRelation {
    let (mandatory, optional): (&[&str], &str) = match mode {
        0 => (&["m"], "n"),
        1 => (&["k", "m"], "n"),
        _ => (&["k", "m"], "p"),
    };
    let scheme = SchemeBuilder::all_of(mandatory.iter().copied())
        .optional(optional)
        .build()
        .unwrap();
    // `m` decides whether the optional attribute is there.
    let mut rel = FlexRelation::new("right", scheme)
        .with_dep(Ad::new(attrs!["m"], AttrSet::singleton(optional)));
    for i in 0..n as i64 {
        let m = (rng.next_u64() % 4) as i64;
        let mut t = Tuple::new().with("m", m);
        if mode > 0 {
            // Keys repeat and overshoot `left`'s, so some tuples of either
            // side find several partners and some none.
            t.insert("k", (rng.next_u64() % (n as u64 + 2)) as i64);
        }
        if m % 2 == 0 {
            t.insert(optional, i % 5);
        }
        rel.insert(t).unwrap();
    }
    rel
}

fn assert_valid(out: &FlexRelation) -> Result<(), TestCaseError> {
    prop_assert!(
        out.validate_instance().is_ok(),
        "{}: {:?}",
        out.name(),
        out.validate_instance()
    );
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn every_operator_output_satisfies_what_it_declares(seed in 0u64..10_000, n in 1usize..14, mode in 0u8..3) {
        let mut rng = TestRng::new(seed);
        let (l, r) = (left(&mut rng, n), right(&mut rng, n, mode));
        assert_valid(&l)?;
        assert_valid(&r)?;

        let joined = natural_join(&l, &r).unwrap();
        assert_valid(&joined)?;
        assert_valid(&natural_join(&r, &l).unwrap())?;
        assert_valid(&multiway_join(&[l.clone(), r.clone(), l.clone()]).unwrap())?;
        if mode == 0 {
            assert_valid(&product(&l, &r).unwrap())?;
        }

        let pred = Predicate::ge("a", 1).or(Predicate::present(attrs!["p"]));
        let selected = select(&l, &pred);
        assert_valid(&selected)?;
        assert_valid(&difference(&l, &FlexRelation::from_parts(
            "sel", l.scheme().clone(), l.domains().clone(), l.deps().clone(), selected.tuples().to_vec(),
        )).unwrap())?;
        assert_valid(&union(&l, &l).unwrap())?;
        assert_valid(&outer_union(&l, &r).unwrap())?;
        // Rule (6) speaks for operands that each satisfy both dependency
        // sets — two instances of one relation, as in a restored horizontal
        // decomposition.
        let l2 = left(&mut rng, n);
        assert_valid(&tagged_union(&l, &l2, "src", 0, 1).unwrap())?;
        assert_valid(&extend(&joined, "tag", Value::tag("x")).unwrap())?;
        assert_valid(&rename(&l, &Attr::new("q"), &Attr::new("q2")).unwrap())?;

        // Every non-empty projection of the operands and of their join.
        for rel in [&l, &r, &joined] {
            for x in rel.attrs().power_set().into_iter().filter(|x| !x.is_empty()) {
                assert_valid(&project(rel, &x).unwrap())?;
            }
        }
    }
}

/// The issue's own counterexample: `perks(empno, sales-commission)` hands a
/// secretary a sales commission, which `employee`'s jobtype AD rules out —
/// so the join must not declare that AD of its result.
#[test]
fn employee_join_perks_declares_only_what_holds() {
    let scheme = SchemeBuilder::all_of(["empno", "salary", "jobtype"])
        .nested(
            FlexScheme::new(
                0,
                5,
                [
                    "typing-speed",
                    "foreign-languages",
                    "products",
                    "programming-languages",
                    "sales-commission",
                ],
            )
            .unwrap(),
        )
        .build()
        .unwrap();
    let mut employee = FlexRelation::new("employee", scheme)
        .with_dep(example2_jobtype_ead())
        .with_dep(Fd::new(attrs!["empno"], attrs!["salary", "jobtype"]));
    employee
        .insert(
            Tuple::new()
                .with("empno", 1)
                .with("salary", 5500)
                .with("jobtype", Value::tag("secretary"))
                .with("typing-speed", 300)
                .with("foreign-languages", "fr"),
        )
        .unwrap();
    employee
        .insert(
            Tuple::new()
                .with("empno", 2)
                .with("salary", 4800)
                .with("jobtype", Value::tag("salesman"))
                .with("products", "crm")
                .with("sales-commission", 10),
        )
        .unwrap();
    let mut perks = FlexRelation::new(
        "perks",
        FlexScheme::relational(attrs!["empno", "sales-commission"]),
    );
    for (empno, commission) in [(1, 7), (2, 10), (2, 11)] {
        perks
            .insert(
                Tuple::new()
                    .with("empno", empno)
                    .with("sales-commission", commission),
            )
            .unwrap();
    }
    let joined = natural_join(&employee, &perks).unwrap();
    assert_eq!(joined.len(), 2, "the secretary's and the salesman's 10");
    assert!(
        joined.validate_instance().is_ok(),
        "{:?}",
        joined.validate_instance()
    );
    // What the other operand cannot disturb is still declared.
    let ead = joined.deps().eads().next().expect("the trimmed jobtype AD");
    assert!(
        ead.rhs().contains_name("typing-speed") && !ead.rhs().contains_name("sales-commission")
    );
    assert!(joined
        .deps()
        .fds()
        .any(|fd| fd.rhs().contains_name("salary")));
}
