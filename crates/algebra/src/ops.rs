//! The algebraic operators over flexible relations.
//!
//! Every operator computes three things for its output relation: the
//! instance, the output scheme (see [`crate::schemes`]) and the output
//! dependency set (see [`crate::propagate`], Theorem 4.3).

use std::collections::{BTreeMap, BTreeSet, HashMap};

use flexrel_core::attr::{Attr, AttrSet};
use flexrel_core::error::{CoreError, Result};
use flexrel_core::relation::FlexRelation;
use flexrel_core::tuple::Tuple;
use flexrel_core::value::{Domain, Value};

use crate::predicate::Predicate;
use crate::propagate;
use crate::schemes;

fn merged_domains(
    left: &BTreeMap<Attr, Domain>,
    right: &BTreeMap<Attr, Domain>,
) -> BTreeMap<Attr, Domain> {
    let mut out = left.clone();
    for (a, d) in right {
        out.entry(a.clone()).or_insert_with(|| d.clone());
    }
    out
}

/// Selection `σ_F(FR)`: keeps the tuples satisfying the predicate.  Scheme
/// and dependencies are unchanged (Theorem 4.3, rule 3).
pub fn select(fr: &FlexRelation, predicate: &Predicate) -> FlexRelation {
    let tuples = fr
        .tuples()
        .iter()
        .filter(|t| predicate.eval(t))
        .cloned()
        .collect();
    FlexRelation::from_parts(
        format!("σ[{}]({})", predicate, fr.name()),
        fr.scheme().clone(),
        fr.domains().clone(),
        propagate::select_deps(fr.deps()),
        tuples,
    )
}

/// Projection `π_X(FR)`: restricts every tuple to the attributes of `x`.
/// Dependencies whose determinant is retained survive with a trimmed right
/// side (Theorem 4.3, rule 2); all others are invalidated.
pub fn project(fr: &FlexRelation, x: &AttrSet) -> Result<FlexRelation> {
    let scheme = schemes::project_scheme(fr.scheme(), x).ok_or_else(|| {
        CoreError::Invalid(format!(
            "projection of {} onto {} retains no attribute",
            fr.name(),
            x
        ))
    })?;
    let mut seen = BTreeSet::new();
    let mut tuples = Vec::new();
    for t in fr.tuples() {
        let p = t.project(x);
        if seen.insert(p.clone()) {
            tuples.push(p);
        }
    }
    let domains = fr
        .domains()
        .iter()
        .filter(|(a, _)| x.contains(a))
        .map(|(a, d)| (a.clone(), d.clone()))
        .collect();
    Ok(FlexRelation::from_parts(
        format!("π[{}]({})", x, fr.name()),
        scheme,
        domains,
        propagate::project_deps(fr.deps(), x),
        tuples,
    ))
}

/// Cartesian product `FR1 × FR2`.  The attribute sets must be disjoint.
/// Dependencies of both sides survive (Theorem 4.3, rule 1).
pub fn product(left: &FlexRelation, right: &FlexRelation) -> Result<FlexRelation> {
    if !left.attrs().is_disjoint(&right.attrs()) {
        return Err(CoreError::Invalid(format!(
            "cartesian product requires disjoint schemes; shared: {}",
            left.attrs().intersection(&right.attrs())
        )));
    }
    let scheme = schemes::product_scheme(left.scheme(), right.scheme())?;
    let mut tuples = Vec::with_capacity(left.len() * right.len());
    for l in left.tuples() {
        for r in right.tuples() {
            tuples.push(l.merged_with(r));
        }
    }
    Ok(FlexRelation::from_parts(
        format!("({} × {})", left.name(), right.name()),
        scheme,
        merged_domains(left.domains(), right.domains()),
        propagate::product_deps(left.deps(), right.deps()),
        tuples,
    ))
}

/// Union `FR1 ∪ FR2` of two relations over the *same* flexible scheme.
/// No dependency survives (Theorem 4.3, rule 4) — one cannot tell which
/// input a result tuple came from.
pub fn union(left: &FlexRelation, right: &FlexRelation) -> Result<FlexRelation> {
    if left.scheme() != right.scheme() {
        return Err(CoreError::Invalid(
            "union requires both relations to share the same flexible scheme; \
             use outer_union for heterogeneous schemes"
                .into(),
        ));
    }
    let mut seen: BTreeSet<Tuple> = BTreeSet::new();
    let mut tuples = Vec::new();
    for t in left.tuples().iter().chain(right.tuples()) {
        if seen.insert(t.clone()) {
            tuples.push(t.clone());
        }
    }
    Ok(FlexRelation::from_parts(
        format!("({} ∪ {})", left.name(), right.name()),
        left.scheme().clone(),
        merged_domains(left.domains(), right.domains()),
        propagate::union_deps(),
        tuples,
    ))
}

/// Difference `FR1 − FR2`.  The left operand's dependencies survive
/// (Theorem 4.3, rule 5).
pub fn difference(left: &FlexRelation, right: &FlexRelation) -> Result<FlexRelation> {
    if left.scheme() != right.scheme() {
        return Err(CoreError::Invalid(
            "difference requires both relations to share the same flexible scheme".into(),
        ));
    }
    let exclude: BTreeSet<&Tuple> = right.tuples().iter().collect();
    let tuples = left
        .tuples()
        .iter()
        .filter(|t| !exclude.contains(t))
        .cloned()
        .collect();
    Ok(FlexRelation::from_parts(
        format!("({} − {})", left.name(), right.name()),
        left.scheme().clone(),
        left.domains().clone(),
        propagate::difference_deps(left.deps()),
        tuples,
    ))
}

/// Extension `ε_{A:a}(FR)`: adds attribute `A` with the constant value `a`
/// to every tuple.  Used for tagging before unions (Theorem 4.3, rule 6).
pub fn extend(
    fr: &FlexRelation,
    attr: impl Into<Attr>,
    value: impl Into<Value>,
) -> Result<FlexRelation> {
    let attr = attr.into();
    let value = value.into();
    if fr.attrs().contains(&attr) {
        return Err(CoreError::Invalid(format!(
            "extension attribute {} already occurs in {}",
            attr,
            fr.name()
        )));
    }
    let scheme = schemes::extend_scheme(fr.scheme(), &attr)?;
    let tuples = fr
        .tuples()
        .iter()
        .map(|t| {
            let mut t2 = t.clone();
            t2.insert(attr.clone(), value.clone());
            t2
        })
        .collect();
    let mut domains = fr.domains().clone();
    domains.insert(attr.clone(), Domain::finite([value.clone()]));
    Ok(FlexRelation::from_parts(
        format!("ε[{}:{}]({})", attr, value, fr.name()),
        scheme,
        domains,
        propagate::extend_deps(fr.deps()),
        tuples,
    ))
}

/// Renaming `ρ_{A→B}(FR)` of a single attribute.
pub fn rename(fr: &FlexRelation, from: &Attr, to: &Attr) -> Result<FlexRelation> {
    if !fr.attrs().contains(from) {
        return Err(CoreError::UnknownAttribute(from.name().to_string()));
    }
    if fr.attrs().contains(to) {
        return Err(CoreError::Invalid(format!(
            "target attribute {} already exists in {}",
            to,
            fr.name()
        )));
    }
    // Scheme: rebuild by renaming inside the shape cover (exact renaming of
    // nested schemes is a pure structural substitution).
    let scheme = rename_scheme(fr.scheme(), from, to)?;
    let tuples = fr.tuples().iter().map(|t| t.rename(from, to)).collect();
    let mut domains = fr.domains().clone();
    if let Some(d) = domains.remove(from) {
        domains.insert(to.clone(), d);
    }
    let mut deps = flexrel_core::dep::DependencySet::new();
    for dep in fr.deps().iter() {
        // A dependency mentioning the renamed attribute is rewritten at the
        // abbreviated level (explicit variant values would need value-level
        // renaming, which `Tuple::rename` provides, but the abbreviation is
        // sufficient for propagation purposes).
        let rename_set = |s: &AttrSet| -> AttrSet {
            if s.contains(from) {
                let mut out = s.clone();
                out.remove(from);
                out.insert(to.clone());
                out
            } else {
                s.clone()
            }
        };
        match dep {
            flexrel_core::dep::Dependency::Fd(fd) => deps.add(flexrel_core::dep::Fd::new(
                rename_set(fd.lhs()),
                rename_set(fd.rhs()),
            )),
            other => deps.add(flexrel_core::dep::Ad::new(
                rename_set(other.lhs()),
                rename_set(other.rhs()),
            )),
        }
    }
    Ok(FlexRelation::from_parts(
        format!("ρ[{}→{}]({})", from, to, fr.name()),
        scheme,
        domains,
        deps,
        tuples,
    ))
}

fn rename_scheme(
    scheme: &flexrel_core::scheme::FlexScheme,
    from: &Attr,
    to: &Attr,
) -> Result<flexrel_core::scheme::FlexScheme> {
    use flexrel_core::scheme::{Component, FlexScheme};
    let components: Result<Vec<Component>> = scheme
        .components()
        .iter()
        .map(|c| -> Result<Component> {
            Ok(match c {
                Component::Attr(a) if a == from => Component::Attr(to.clone()),
                Component::Attr(a) => Component::Attr(a.clone()),
                Component::Scheme(s) => Component::Scheme(rename_scheme(s, from, to)?),
            })
        })
        .collect();
    FlexScheme::new(scheme.at_least(), scheme.at_most(), components?)
}

/// Tagged union (Theorem 4.3, rule 6): both inputs are extended with the tag
/// attribute carrying a distinct constant, then united.  Unlike the plain
/// union, the dependencies of both inputs survive with the tag added to
/// their left sides.
pub fn tagged_union(
    left: &FlexRelation,
    right: &FlexRelation,
    tag: impl Into<Attr>,
    left_value: impl Into<Value>,
    right_value: impl Into<Value>,
) -> Result<FlexRelation> {
    let tag = tag.into();
    let left_value = left_value.into();
    let right_value = right_value.into();
    if left_value == right_value {
        return Err(CoreError::Invalid(
            "tagged union requires distinct tag values for the two inputs".into(),
        ));
    }
    let l = extend(left, tag.clone(), left_value.clone())?;
    let r = extend(right, tag.clone(), right_value.clone())?;
    let mut shapes: BTreeSet<AttrSet> = l.scheme().dnf();
    shapes.extend(r.scheme().dnf());
    let scheme = schemes::covering_scheme(&shapes)?;
    let mut tuples = l.tuples().to_vec();
    tuples.extend(r.tuples().iter().cloned());
    let mut domains = merged_domains(l.domains(), r.domains());
    domains.insert(tag.clone(), Domain::finite([left_value, right_value]));
    Ok(FlexRelation::from_parts(
        format!("({} ⊎[{}] {})", left.name(), tag, right.name()),
        scheme,
        domains,
        propagate::tagged_union_deps(left.deps(), right.deps(), &tag),
        tuples,
    ))
}

/// Outer union: unites relations over different schemes without padding,
/// keeping each tuple's own shape.  Used to restore horizontally decomposed
/// entities (§3.1.1).  No dependency survives.
pub fn outer_union(left: &FlexRelation, right: &FlexRelation) -> Result<FlexRelation> {
    let mut shapes: BTreeSet<AttrSet> = left.scheme().dnf();
    shapes.extend(right.scheme().dnf());
    let scheme = schemes::covering_scheme(&shapes)?;
    let mut seen: BTreeSet<Tuple> = BTreeSet::new();
    let mut tuples = Vec::new();
    for t in left.tuples().iter().chain(right.tuples()) {
        if seen.insert(t.clone()) {
            tuples.push(t.clone());
        }
    }
    Ok(FlexRelation::from_parts(
        format!("({} ⊎ {})", left.name(), right.name()),
        scheme,
        merged_domains(left.domains(), right.domains()),
        propagate::outer_union_deps(),
        tuples,
    ))
}

/// Natural join `FR1 ⋈ FR2`: merges pairs of tuples that agree on every
/// shared attribute both are defined on.  Tuples defined on all shared
/// attributes are matched with a hash table; tuples missing part of the
/// shared attributes fall back to a scan.  The result declares the
/// dependencies [`propagate::join_deps`] derives from the operands' schemes
/// (their attributes and the mandatory ones among them).
pub fn natural_join(left: &FlexRelation, right: &FlexRelation) -> Result<FlexRelation> {
    let common = left.attrs().intersection(&right.attrs());

    // Partition the right side: tuples fully defined on the shared attributes
    // are hashable, the rest must be scanned.
    let mut hashed: HashMap<Tuple, Vec<&Tuple>> = HashMap::new();
    let mut scan: Vec<&Tuple> = Vec::new();
    for r in right.tuples() {
        if r.defined_on(&common) {
            hashed.entry(r.project(&common)).or_default().push(r);
        } else {
            scan.push(r);
        }
    }

    let mut tuples = Vec::new();
    for l in left.tuples() {
        if l.defined_on(&common) {
            if let Some(partners) = hashed.get(&l.project(&common)) {
                for r in partners {
                    tuples.push(l.merged_with(r));
                }
            }
            for r in &scan {
                if l.joinable_with(r) {
                    tuples.push(l.merged_with(r));
                }
            }
        } else {
            for r in right.tuples() {
                if l.joinable_with(r) {
                    tuples.push(l.merged_with(r));
                }
            }
        }
    }

    let scheme = match schemes::join_shapes(left.scheme(), right.scheme()) {
        Some(shapes) if !shapes.is_empty() => schemes::covering_scheme(&shapes)?,
        _ => {
            let mut shapes: BTreeSet<AttrSet> = tuples.iter().map(|t| t.attrs()).collect();
            if shapes.is_empty() {
                shapes.insert(left.attrs().union(&right.attrs()));
            }
            schemes::covering_scheme(&shapes)?
        }
    };
    let (left_attrs, right_attrs) = (left.attrs(), right.attrs());
    let (left_mandatory, right_mandatory) = (left.scheme().mandatory(), right.scheme().mandatory());
    let deps = propagate::join_deps(
        left.deps(),
        right.deps(),
        propagate::AttrBounds {
            universe: &left_attrs,
            present: &left_mandatory,
        },
        propagate::AttrBounds {
            universe: &right_attrs,
            present: &right_mandatory,
        },
    );
    Ok(FlexRelation::from_parts(
        format!("({} ⋈ {})", left.name(), right.name()),
        scheme,
        merged_domains(left.domains(), right.domains()),
        deps,
        tuples,
    ))
}

/// Multiway join: the natural join of all listed relations, left to right.
/// Restores vertically decomposed entities (§3.1.1).
pub fn multiway_join(relations: &[FlexRelation]) -> Result<FlexRelation> {
    let mut iter = relations.iter();
    let first = iter
        .next()
        .ok_or_else(|| CoreError::Invalid("multiway join needs at least one input".into()))?;
    let mut acc = first.clone();
    for next in iter {
        acc = natural_join(&acc, next)?;
    }
    Ok(acc)
}

#[cfg(test)]
mod tests {
    use super::*;
    use flexrel_core::dep::{example2_jobtype_ead, Fd};
    use flexrel_core::scheme::{Component, FlexScheme, SchemeBuilder};
    use flexrel_core::{attrs, tuple};

    fn employee() -> FlexRelation {
        let variants = FlexScheme::new(
            0,
            5,
            vec![
                Component::from("typing-speed"),
                Component::from("foreign-languages"),
                Component::from("products"),
                Component::from("programming-languages"),
                Component::from("sales-commission"),
            ],
        )
        .unwrap();
        let scheme = SchemeBuilder::all_of(["empno", "salary", "jobtype"])
            .nested(variants)
            .build()
            .unwrap();
        let mut rel = FlexRelation::new("employee", scheme)
            .with_dep(example2_jobtype_ead())
            .with_dep(Fd::new(attrs!["empno"], attrs!["salary", "jobtype"]));
        rel.insert(tuple! {
            "empno" => 1, "salary" => 5500, "jobtype" => Value::tag("secretary"),
            "typing-speed" => 300, "foreign-languages" => "fr"
        })
        .unwrap();
        rel.insert(tuple! {
            "empno" => 2, "salary" => 7000, "jobtype" => Value::tag("software engineer"),
            "products" => "db", "programming-languages" => "modula-2"
        })
        .unwrap();
        rel.insert(tuple! {
            "empno" => 3, "salary" => 4800, "jobtype" => Value::tag("salesman"),
            "products" => "crm", "sales-commission" => 10
        })
        .unwrap();
        rel
    }

    #[test]
    fn select_preserves_scheme_and_deps() {
        let e = employee();
        let out = select(&e, &Predicate::gt("salary", 5000));
        assert_eq!(out.len(), 2);
        assert_eq!(out.scheme(), e.scheme());
        assert_eq!(out.deps().len(), e.deps().len());
        // The propagated dependencies indeed hold on the output instance.
        assert!(out.deps().satisfied_by(out.tuples()));
    }

    #[test]
    fn project_trims_dependencies() {
        let e = employee();
        let out = project(&e, &attrs!["jobtype", "products", "typing-speed"]).unwrap();
        assert_eq!(out.len(), 3);
        for t in out.tuples() {
            assert!(out.scheme().admits(&t.attrs()), "scheme must admit {}", t);
            assert!(t
                .attrs()
                .is_subset(&attrs!["jobtype", "products", "typing-speed"]));
        }
        // The FD on empno is gone; the jobtype EAD survives with a trimmed
        // right side and still holds.
        assert_eq!(out.deps().fds().count(), 0);
        assert!(out.deps().satisfied_by(out.tuples()));
    }

    #[test]
    fn project_deduplicates() {
        let e = employee();
        let out = project(&e, &attrs!["jobtype"]).unwrap();
        assert_eq!(out.len(), 3); // three distinct jobtypes
        let out2 = project(&e, &attrs!["salary"]).unwrap();
        assert_eq!(out2.len(), 3);
    }

    #[test]
    fn project_onto_nothing_is_an_error() {
        let e = employee();
        assert!(project(&e, &attrs!["unknown"]).is_err());
    }

    #[test]
    fn product_requires_disjoint_attrs() {
        let e = employee();
        assert!(product(&e, &e).is_err());

        let mut dept = FlexRelation::new("dept", FlexScheme::relational(attrs!["dname", "budget"]));
        dept.insert(tuple! {"dname" => "hq", "budget" => 100})
            .unwrap();
        dept.insert(tuple! {"dname" => "lab", "budget" => 200})
            .unwrap();
        let out = product(&e, &dept).unwrap();
        assert_eq!(out.len(), 6);
        assert!(out.deps().len() >= e.deps().len());
        assert!(out.deps().satisfied_by(out.tuples()));
        for t in out.tuples() {
            assert!(out.scheme().admits(&t.attrs()));
        }
    }

    #[test]
    fn union_requires_same_scheme_and_loses_deps() {
        let e1 = employee();
        let e2 = employee();
        let out = union(&e1, &e2).unwrap();
        assert_eq!(out.len(), 3, "duplicates are removed");
        assert!(out.deps().is_empty(), "rule (4): no dependency survives");

        let other = FlexRelation::new("x", FlexScheme::relational(attrs!["a"]));
        assert!(union(&e1, &other).is_err());
    }

    #[test]
    fn difference_keeps_left_deps() {
        let e = employee();
        let sec = select(&e, &Predicate::eq("jobtype", Value::tag("secretary")));
        // Rebuild a relation with the same scheme for the difference.
        let sec_same_scheme = FlexRelation::from_parts(
            "sec",
            e.scheme().clone(),
            e.domains().clone(),
            e.deps().clone(),
            sec.tuples().to_vec(),
        );
        let out = difference(&e, &sec_same_scheme).unwrap();
        assert_eq!(out.len(), 2);
        assert_eq!(out.deps().len(), e.deps().len());
        assert!(out.deps().satisfied_by(out.tuples()));
    }

    #[test]
    fn extend_adds_constant_attribute() {
        let e = employee();
        let out = extend(&e, "source", Value::tag("hr")).unwrap();
        assert_eq!(out.len(), 3);
        for t in out.tuples() {
            assert_eq!(t.get_name("source"), Some(&Value::tag("hr")));
            assert!(out.scheme().admits(&t.attrs()));
        }
        assert!(
            extend(&e, "salary", 0).is_err(),
            "existing attribute is rejected"
        );
    }

    #[test]
    fn tagged_union_keeps_augmented_deps() {
        let e1 = employee();
        let e2 = employee();
        let out = tagged_union(&e1, &e2, "src", Value::tag("a"), Value::tag("b")).unwrap();
        assert_eq!(out.len(), 6);
        assert!(
            !out.deps().is_empty(),
            "rule (6): dependencies survive augmented"
        );
        for d in out.deps().iter() {
            assert!(d.lhs().contains_name("src"));
        }
        assert!(out.deps().satisfied_by(out.tuples()));
        assert!(tagged_union(&e1, &e2, "src", 1, 1).is_err());
    }

    #[test]
    fn outer_union_merges_heterogeneous_schemes() {
        let mut people = FlexRelation::new("people", FlexScheme::relational(attrs!["name", "age"]));
        people
            .insert(tuple! {"name" => "ann", "age" => 30})
            .unwrap();
        let mut firms = FlexRelation::new("firms", FlexScheme::relational(attrs!["name", "vat"]));
        firms
            .insert(tuple! {"name" => "acme", "vat" => 42})
            .unwrap();
        let out = outer_union(&people, &firms).unwrap();
        assert_eq!(out.len(), 2);
        assert!(out.deps().is_empty());
        for t in out.tuples() {
            assert!(out.scheme().admits(&t.attrs()));
        }
    }

    #[test]
    fn natural_join_recombines_decomposed_relations() {
        let mut master =
            FlexRelation::new("master", FlexScheme::relational(attrs!["empno", "salary"]));
        master
            .insert(tuple! {"empno" => 1, "salary" => 100})
            .unwrap();
        master
            .insert(tuple! {"empno" => 2, "salary" => 200})
            .unwrap();
        let mut detail = FlexRelation::new(
            "detail",
            FlexScheme::relational(attrs!["empno", "products"]),
        );
        detail
            .insert(tuple! {"empno" => 2, "products" => "crm"})
            .unwrap();
        detail
            .insert(tuple! {"empno" => 3, "products" => "erp"})
            .unwrap();
        let out = natural_join(&master, &detail).unwrap();
        assert_eq!(out.len(), 1);
        let t = &out.tuples()[0];
        assert_eq!(t.get_name("empno"), Some(&Value::Int(2)));
        assert_eq!(t.attrs(), attrs!["empno", "salary", "products"]);
        assert!(out.scheme().admits(&t.attrs()));
    }

    #[test]
    fn natural_join_without_common_attrs_is_a_product() {
        let mut a = FlexRelation::new("a", FlexScheme::relational(attrs!["x"]));
        a.insert(tuple! {"x" => 1}).unwrap();
        a.insert(tuple! {"x" => 2}).unwrap();
        let mut b = FlexRelation::new("b", FlexScheme::relational(attrs!["y"]));
        b.insert(tuple! {"y" => 10}).unwrap();
        let out = natural_join(&a, &b).unwrap();
        assert_eq!(out.len(), 2);
    }

    #[test]
    fn multiway_join_folds() {
        let mut r1 = FlexRelation::new("r1", FlexScheme::relational(attrs!["k", "a"]));
        r1.insert(tuple! {"k" => 1, "a" => 10}).unwrap();
        let mut r2 = FlexRelation::new("r2", FlexScheme::relational(attrs!["k", "b"]));
        r2.insert(tuple! {"k" => 1, "b" => 20}).unwrap();
        let mut r3 = FlexRelation::new("r3", FlexScheme::relational(attrs!["k", "c"]));
        r3.insert(tuple! {"k" => 1, "c" => 30}).unwrap();
        let out = multiway_join(&[r1, r2, r3]).unwrap();
        assert_eq!(out.len(), 1);
        assert_eq!(out.tuples()[0].attrs(), attrs!["k", "a", "b", "c"]);
        assert!(multiway_join(&[]).is_err());
    }

    #[test]
    fn rename_rewrites_scheme_deps_and_tuples() {
        let e = employee();
        let out = rename(&e, &Attr::new("salary"), &Attr::new("pay")).unwrap();
        assert!(out.attrs().contains_name("pay"));
        assert!(!out.attrs().contains_name("salary"));
        for t in out.tuples() {
            assert!(t.has_name("pay"));
            assert!(out.scheme().admits(&t.attrs()));
        }
        // The FD empno → {salary, jobtype} is rewritten to mention pay.
        assert!(out
            .deps()
            .fds()
            .any(|fd| fd.rhs().contains_name("pay") && !fd.rhs().contains_name("salary")));
        assert!(rename(&e, &Attr::new("nope"), &Attr::new("x")).is_err());
        assert!(rename(&e, &Attr::new("salary"), &Attr::new("empno")).is_err());
    }

    #[test]
    fn propagated_ads_hold_on_projection_output() {
        // Ground-truth check of rule (2): every propagated dependency is
        // satisfied by the materialized projection.
        let e = employee();
        for x in [
            attrs!["jobtype", "typing-speed", "products", "sales-commission"],
            attrs!["jobtype", "salary"],
            attrs!["empno", "salary"],
            attrs!["salary", "typing-speed"],
        ] {
            let out = project(&e, &x).unwrap();
            assert!(
                out.deps().satisfied_by(out.tuples()),
                "propagated deps must hold after projecting onto {}",
                x
            );
        }
    }
}
