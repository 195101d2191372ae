//! Flexible relations: a flexible scheme, attached dependencies and an
//! instance of heterogeneous tuples.
//!
//! A flexible relation is the pair `FR = <FS, inst>` with
//! `inst ⊆ dom(FS) = ⋃_{X ∈ dnf(FS)} Tup(X)` (§2.1).  In addition to the
//! paper's definition we attach the declared dependencies (ADs/FDs) and the
//! attribute domains here, since they are needed for type checking (§3.1).

use std::collections::BTreeMap;
use std::fmt;

use crate::attr::{Attr, AttrSet};
use crate::dep::{Dependency, DependencySet};
use crate::error::{CoreError, Result};
use crate::scheme::FlexScheme;
use crate::tuple::Tuple;
use crate::value::Domain;

/// How strictly [`FlexRelation::insert`] checks incoming tuples.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CheckLevel {
    /// No checking at all (bulk loads of pre-validated data).
    None,
    /// Only the existential constraint: `attr(t) ∈ dnf(FS)` and domains.
    SchemeOnly,
    /// Scheme, domains and all declared dependencies (full type checking).
    Full,
}

/// Checks every value of `t` against its attribute's declared domain and
/// the no-nulls rule — the value-level half of the existential constraint,
/// which the storage layer's insert check shares.
pub fn check_domains(domains: &BTreeMap<Attr, Domain>, t: &Tuple) -> Result<()> {
    for (a, v) in t.iter() {
        if let Some(d) = domains.get(a) {
            d.check(a.name(), v)?;
        }
        if v.is_null() {
            return Err(CoreError::DomainViolation {
                attr: a.name().to_string(),
                value: "NULL".into(),
                domain: "flexible relations model absence structurally, not with nulls".into(),
            });
        }
    }
    Ok(())
}

/// A flexible relation.
#[derive(Clone, Debug)]
pub struct FlexRelation {
    name: String,
    scheme: FlexScheme,
    domains: BTreeMap<Attr, Domain>,
    deps: DependencySet,
    tuples: Vec<Tuple>,
}

impl FlexRelation {
    /// Creates an empty flexible relation over the given scheme.
    pub fn new(name: impl Into<String>, scheme: FlexScheme) -> Self {
        FlexRelation {
            name: name.into(),
            scheme,
            domains: BTreeMap::new(),
            deps: DependencySet::new(),
            tuples: Vec::new(),
        }
    }

    /// The relation's name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// `scheme(FR)`.
    pub fn scheme(&self) -> &FlexScheme {
        &self.scheme
    }

    /// `inst(FR)`.
    pub fn tuples(&self) -> &[Tuple] {
        &self.tuples
    }

    /// Number of tuples in the instance.
    pub fn len(&self) -> usize {
        self.tuples.len()
    }

    /// Whether the instance is empty.
    pub fn is_empty(&self) -> bool {
        self.tuples.is_empty()
    }

    /// The declared dependencies.
    pub fn deps(&self) -> &DependencySet {
        &self.deps
    }

    /// The declared attribute domains.
    pub fn domains(&self) -> &BTreeMap<Attr, Domain> {
        &self.domains
    }

    /// All attributes of the scheme.
    pub fn attrs(&self) -> AttrSet {
        self.scheme.attrs()
    }

    /// Declares the domain of an attribute (builder style).
    pub fn with_domain(mut self, attr: impl Into<Attr>, domain: Domain) -> Self {
        self.domains.insert(attr.into(), domain);
        self
    }

    /// Declares a dependency (builder style).
    pub fn with_dep(mut self, dep: impl Into<Dependency>) -> Self {
        self.deps.add(dep);
        self
    }

    /// Declares a dependency.
    pub fn add_dep(&mut self, dep: impl Into<Dependency>) {
        self.deps.add(dep);
    }

    /// Declares the domain of an attribute.
    pub fn set_domain(&mut self, attr: impl Into<Attr>, domain: Domain) {
        self.domains.insert(attr.into(), domain);
    }

    /// The domain declared for an attribute, defaulting to [`Domain::Any`].
    pub fn domain_of(&self, attr: &Attr) -> Domain {
        self.domains.get(attr).cloned().unwrap_or(Domain::Any)
    }

    /// Validates a tuple against the scheme's existential constraint and the
    /// attribute domains (but not the dependencies).
    pub fn check_scheme(&self, t: &Tuple) -> Result<()> {
        if !self.scheme.admits(&t.attrs()) {
            return Err(CoreError::SchemeViolation {
                tuple_attrs: t.attrs().to_string(),
                scheme: self.scheme.to_string(),
            });
        }
        check_domains(&self.domains, t)
    }

    /// Validates a tuple against the declared dependencies relative to the
    /// current instance.
    pub fn check_deps(&self, t: &Tuple) -> Result<()> {
        self.deps.check_insert(&self.tuples, t)
    }

    /// Inserts a tuple with the requested checking level.
    pub fn insert_checked(&mut self, t: Tuple, level: CheckLevel) -> Result<()> {
        match level {
            CheckLevel::None => {}
            CheckLevel::SchemeOnly => self.check_scheme(&t)?,
            CheckLevel::Full => {
                self.check_scheme(&t)?;
                self.check_deps(&t)?;
            }
        }
        self.tuples.push(t);
        Ok(())
    }

    /// Inserts a tuple with full type checking (scheme, domains and
    /// dependencies).
    pub fn insert(&mut self, t: Tuple) -> Result<()> {
        self.insert_checked(t, CheckLevel::Full)
    }

    /// Inserts many tuples with full checking, stopping at the first error.
    pub fn insert_all<I: IntoIterator<Item = Tuple>>(&mut self, tuples: I) -> Result<usize> {
        let mut n = 0;
        for t in tuples {
            self.insert(t)?;
            n += 1;
        }
        Ok(n)
    }

    /// Deletes all tuples matching the predicate, returning how many were
    /// removed.  Deletion can never violate a scheme or dependency.
    pub fn delete_where<F: FnMut(&Tuple) -> bool>(&mut self, mut pred: F) -> usize {
        let before = self.tuples.len();
        self.tuples.retain(|t| !pred(t));
        before - self.tuples.len()
    }

    /// Replaces a tuple at `index` after re-checking scheme and dependencies
    /// (an update may cause a *type change*, e.g. changing `jobtype`
    /// requires the variant attributes to change with it, §3.1 footnote 3).
    pub fn update(&mut self, index: usize, new: Tuple) -> Result<()> {
        if index >= self.tuples.len() {
            return Err(CoreError::NotFound(format!("tuple index {}", index)));
        }
        self.check_scheme(&new)?;
        // Check dependencies against the instance *without* the tuple being
        // replaced.
        let mut others: Vec<Tuple> = Vec::with_capacity(self.tuples.len() - 1);
        others.extend(self.tuples[..index].iter().cloned());
        others.extend(self.tuples[index + 1..].iter().cloned());
        self.deps.check_insert(&others, &new)?;
        self.tuples[index] = new;
        Ok(())
    }

    /// Whether the *entire current instance* satisfies scheme and
    /// dependencies.  Useful after bulk loads with [`CheckLevel::None`].
    pub fn validate_instance(&self) -> Result<()> {
        for t in &self.tuples {
            self.check_scheme(t)?;
        }
        if let Some(v) = self.deps.first_violation(&self.tuples) {
            return Err(CoreError::Invalid(format!(
                "instance violates dependency {}",
                v
            )));
        }
        Ok(())
    }

    /// Groups the instance by `attr(t)`, yielding each occurring attribute
    /// combination with its tuple count.  This is the "set of objects" view
    /// of the instance.
    pub fn shape_histogram(&self) -> BTreeMap<AttrSet, usize> {
        let mut out = BTreeMap::new();
        for t in &self.tuples {
            *out.entry(t.attrs()).or_insert(0) += 1;
        }
        out
    }

    /// Builds a relation directly from parts without checking (used by the
    /// algebra, whose outputs are correct by construction).
    pub fn from_parts(
        name: impl Into<String>,
        scheme: FlexScheme,
        domains: BTreeMap<Attr, Domain>,
        deps: DependencySet,
        tuples: Vec<Tuple>,
    ) -> Self {
        FlexRelation {
            name: name.into(),
            scheme,
            domains,
            deps,
            tuples,
        }
    }

    /// Renames the relation.
    pub fn renamed(mut self, name: impl Into<String>) -> Self {
        self.name = name.into();
        self
    }
}

impl fmt::Display for FlexRelation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "{} :: {}", self.name, self.scheme)?;
        for t in &self.tuples {
            writeln!(f, "  {}", t)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dep::{example2_jobtype_ead, Fd};
    use crate::scheme::{Component, SchemeBuilder};
    use crate::value::Value;
    use crate::{attrs, tuple};

    /// The employee relation of §1/§3: empno, name, salary, jobtype are
    /// unconditioned; the variant attributes form a nested optional group.
    pub fn employee_relation() -> FlexRelation {
        let variant_group = FlexScheme::new(
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
        let scheme = SchemeBuilder::all_of(["empno", "name", "salary", "jobtype"])
            .nested(variant_group)
            .build()
            .unwrap();
        FlexRelation::new("employee", scheme)
            .with_domain("empno", Domain::Int)
            .with_domain("salary", Domain::Float)
            .with_domain(
                "jobtype",
                Domain::enumeration(["secretary", "software engineer", "salesman"]),
            )
            .with_dep(example2_jobtype_ead())
            .with_dep(Fd::new(
                attrs!["empno"],
                attrs!["name", "salary", "jobtype"],
            ))
    }

    fn secretary(empno: i64) -> Tuple {
        tuple! {
            "empno" => empno,
            "name" => format!("sec{empno}"),
            "salary" => 4000 + empno,
            "jobtype" => Value::tag("secretary"),
            "typing-speed" => 300,
            "foreign-languages" => "french"
        }
    }

    fn salesman(empno: i64) -> Tuple {
        tuple! {
            "empno" => empno,
            "name" => format!("sales{empno}"),
            "salary" => 5000 + empno,
            "jobtype" => Value::tag("salesman"),
            "products" => "crm",
            "sales-commission" => 12
        }
    }

    #[test]
    fn insert_valid_tuples() {
        let mut rel = employee_relation();
        rel.insert(secretary(1)).unwrap();
        rel.insert(salesman(2)).unwrap();
        assert_eq!(rel.len(), 2);
        assert!(rel.validate_instance().is_ok());
    }

    #[test]
    fn scheme_only_check_admits_what_full_check_rejects() {
        // The invalid salesman tuple of §3.1: scheme-wise fine (jobtype,
        // typing-speed, foreign-languages is an admissible combination), but
        // the EAD rejects it.
        let mut rel = employee_relation();
        let bad = tuple! {
            "empno" => 9,
            "name" => "bad",
            "salary" => 1000,
            "jobtype" => Value::tag("salesman"),
            "typing-speed" => 999,
            "foreign-languages" => "french, russian"
        };
        assert!(
            rel.check_scheme(&bad).is_ok(),
            "scheme alone cannot reject this tuple"
        );
        let err = rel.insert(bad).unwrap_err();
        assert!(matches!(err, CoreError::AdViolation { .. }));
        assert_eq!(rel.len(), 0);
    }

    #[test]
    fn scheme_violation_detected() {
        let mut rel = employee_relation();
        let missing_jobtype = tuple! {"empno" => 1, "name" => "x", "salary" => 1};
        assert!(matches!(
            rel.insert(missing_jobtype).unwrap_err(),
            CoreError::SchemeViolation { .. }
        ));
    }

    #[test]
    fn domain_violation_detected() {
        let mut rel = employee_relation();
        let bad_domain = tuple! {
            "empno" => 1,
            "name" => "x",
            "salary" => 100,
            "jobtype" => Value::tag("astronaut")
        };
        assert!(matches!(
            rel.insert(bad_domain).unwrap_err(),
            CoreError::DomainViolation { .. }
        ));
    }

    #[test]
    fn nulls_are_rejected() {
        let mut rel = employee_relation();
        let withnull = tuple! {
            "empno" => 1,
            "name" => "x",
            "salary" => 100,
            "jobtype" => Value::Null
        };
        assert!(rel.insert(withnull).is_err());
    }

    #[test]
    fn fd_violation_detected() {
        let mut rel = employee_relation();
        rel.insert(secretary(1)).unwrap();
        let mut clash = secretary(1);
        clash.insert("salary", 1);
        assert!(matches!(
            rel.insert(clash).unwrap_err(),
            CoreError::FdViolation { .. }
        ));
    }

    #[test]
    fn update_enforces_type_change() {
        // Footnote 3: changing the jobtype causes a type change; updating
        // jobtype without adapting the variant attributes must fail.
        let mut rel = employee_relation();
        rel.insert(secretary(1)).unwrap();
        let mut changed = secretary(1);
        changed.insert("jobtype", Value::tag("salesman"));
        assert!(rel.update(0, changed).is_err());

        let mut proper = secretary(1);
        proper.insert("jobtype", Value::tag("salesman"));
        proper.remove(&Attr::new("typing-speed"));
        proper.remove(&Attr::new("foreign-languages"));
        proper.insert("products", "crm");
        proper.insert("sales-commission", 9);
        rel.update(0, proper).unwrap();
        assert!(rel.validate_instance().is_ok());
    }

    #[test]
    fn update_out_of_range() {
        let mut rel = employee_relation();
        assert!(rel.update(5, secretary(1)).is_err());
    }

    #[test]
    fn delete_where_counts() {
        let mut rel = employee_relation();
        rel.insert(secretary(1)).unwrap();
        rel.insert(salesman(2)).unwrap();
        rel.insert(secretary(3)).unwrap();
        let removed = rel.delete_where(|t| t.get_name("jobtype") == Some(&Value::tag("secretary")));
        assert_eq!(removed, 2);
        assert_eq!(rel.len(), 1);
    }

    #[test]
    fn bulk_load_then_validate() {
        let mut rel = employee_relation();
        rel.insert_checked(secretary(1), CheckLevel::None).unwrap();
        rel.insert_checked(salesman(2), CheckLevel::None).unwrap();
        assert!(rel.validate_instance().is_ok());
        rel.insert_checked(
            tuple! {"empno" => 3, "name" => "b", "salary" => 1, "jobtype" => Value::tag("secretary"), "products" => "x"},
            CheckLevel::None,
        )
        .unwrap();
        assert!(rel.validate_instance().is_err());
    }

    #[test]
    fn shape_histogram_groups_by_attr_sets() {
        let mut rel = employee_relation();
        rel.insert(secretary(1)).unwrap();
        rel.insert(secretary(2)).unwrap();
        rel.insert(salesman(3)).unwrap();
        let hist = rel.shape_histogram();
        assert_eq!(hist.len(), 2);
        assert_eq!(hist.values().sum::<usize>(), 3);
        assert!(hist.values().any(|&c| c == 2));
    }

    #[test]
    fn insert_all_reports_count() {
        let mut rel = employee_relation();
        let n = rel.insert_all(vec![secretary(1), salesman(2)]).unwrap();
        assert_eq!(n, 2);
    }

    #[test]
    fn display_shows_scheme_and_tuples() {
        let mut rel = employee_relation();
        rel.insert(secretary(1)).unwrap();
        let s = rel.to_string();
        assert!(s.contains("employee ::"));
        assert!(s.contains("'secretary'"));
    }
}
