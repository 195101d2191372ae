//! Flexible schemes: the single generic scheme constructor of the model.
//!
//! A flexible scheme is a three-tuple `< at-least, at-most, {components} >`
//! whose components are either single attributes or, recursively, flexible
//! schemes (§2.1).  The cardinality constraint says how many components must
//! at least and may at most be present in a tuple:
//!
//! * a traditional relational scheme over `A1 … An` is `< n, n, {A1 … An} >`,
//! * a disjoint union (variant) is `< 1, 1, {A1 … An} >`,
//! * a non-disjoint union is `< 1, n, {A1 … An} >`.
//!
//! Unfolding a flexible scheme into the set of admissible attribute
//! combinations yields its disjunctive normal form `dnf(FS)`, which
//! corresponds to Sciore's "set of objects" view.

use std::collections::BTreeSet;
use std::fmt;

use crate::attr::{Attr, AttrSet};
use crate::error::{CoreError, Result};

/// A component of a flexible scheme: a single attribute or a nested scheme.
#[derive(Clone, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Component {
    /// A plain attribute.
    Attr(Attr),
    /// A nested flexible scheme.
    Scheme(FlexScheme),
}

impl Component {
    /// All attributes mentioned by this component.
    pub fn attrs(&self) -> AttrSet {
        match self {
            Component::Attr(a) => a.to_set(),
            Component::Scheme(s) => s.attrs(),
        }
    }

    /// The admissible attribute combinations this component can contribute
    /// when it is taken.
    fn combinations(&self) -> BTreeSet<AttrSet> {
        match self {
            Component::Attr(a) => {
                let mut s = BTreeSet::new();
                s.insert(a.to_set());
                s
            }
            Component::Scheme(sch) => sch.dnf(),
        }
    }

    /// Whether this component, when taken, can contribute the empty attribute
    /// combination (only possible for nested schemes with `at_least = 0` or
    /// nested schemes all of whose mandatory components can themselves be
    /// empty).
    fn admits_empty(&self) -> bool {
        match self {
            Component::Attr(_) => false,
            Component::Scheme(s) => s.admits(&AttrSet::empty()),
        }
    }
}

impl From<Attr> for Component {
    fn from(a: Attr) -> Self {
        Component::Attr(a)
    }
}
impl From<&str> for Component {
    fn from(a: &str) -> Self {
        Component::Attr(Attr::new(a))
    }
}
impl From<FlexScheme> for Component {
    fn from(s: FlexScheme) -> Self {
        Component::Scheme(s)
    }
}

/// A flexible scheme `< at_least, at_most, {components} >`.
#[derive(Clone, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct FlexScheme {
    at_least: usize,
    at_most: usize,
    components: Vec<Component>,
}

impl FlexScheme {
    /// Constructs a flexible scheme and validates it (see [`validate`]).
    ///
    /// [`validate`]: FlexScheme::validate
    pub fn new<I, C>(at_least: usize, at_most: usize, components: I) -> Result<Self>
    where
        I: IntoIterator<Item = C>,
        C: Into<Component>,
    {
        let scheme = FlexScheme {
            at_least,
            at_most,
            components: components.into_iter().map(Into::into).collect(),
        };
        scheme.validate()?;
        Ok(scheme)
    }

    /// A traditional (homogeneous) relational scheme: all attributes present,
    /// `< n, n, {A1 … An} >`.
    pub fn relational(attrs: impl Into<AttrSet>) -> Self {
        let attrs = attrs.into();
        let n = attrs.len();
        FlexScheme {
            at_least: n,
            at_most: n,
            components: attrs.into_iter().map(Component::Attr).collect(),
        }
    }

    /// A disjoint union (exactly one component present): `< 1, 1, {…} >`.
    pub fn disjoint_union<I, C>(components: I) -> Result<Self>
    where
        I: IntoIterator<Item = C>,
        C: Into<Component>,
    {
        Self::new(1, 1, components)
    }

    /// A non-disjoint union (at least one, at most all components present):
    /// `< 1, n, {…} >`.
    pub fn non_disjoint_union<I, C>(components: I) -> Result<Self>
    where
        I: IntoIterator<Item = C>,
        C: Into<Component>,
    {
        let components: Vec<Component> = components.into_iter().map(Into::into).collect();
        let n = components.len();
        Self::new(1, n, components)
    }

    /// An optional component: `< 0, 1, {…} >`.
    pub fn optional<C: Into<Component>>(component: C) -> Self {
        FlexScheme {
            at_least: 0,
            at_most: 1,
            components: vec![component.into()],
        }
    }

    /// The `at-least` cardinality bound.
    pub fn at_least(&self) -> usize {
        self.at_least
    }

    /// The `at-most` cardinality bound.
    pub fn at_most(&self) -> usize {
        self.at_most
    }

    /// The scheme's components.
    pub fn components(&self) -> &[Component] {
        &self.components
    }

    /// Validates the scheme:
    ///
    /// * `at_least ≤ at_most ≤ |components|`,
    /// * at least one component,
    /// * the attribute sets of distinct components are pairwise disjoint
    ///   (so every attribute of a tuple identifies the component it came
    ///   from), and
    /// * nested schemes are themselves valid.
    pub fn validate(&self) -> Result<()> {
        if self.components.is_empty() {
            return Err(CoreError::InvalidScheme(
                "a flexible scheme needs at least one component".into(),
            ));
        }
        if self.at_least > self.at_most {
            return Err(CoreError::InvalidScheme(format!(
                "at-least ({}) exceeds at-most ({})",
                self.at_least, self.at_most
            )));
        }
        if self.at_most > self.components.len() {
            return Err(CoreError::InvalidScheme(format!(
                "at-most ({}) exceeds the number of components ({})",
                self.at_most,
                self.components.len()
            )));
        }
        let mut seen = AttrSet::empty();
        for c in &self.components {
            if let Component::Scheme(s) = c {
                s.validate()?;
            }
            let cattrs = c.attrs();
            if !seen.is_disjoint(&cattrs) {
                return Err(CoreError::InvalidScheme(format!(
                    "components share attributes: {}",
                    seen.intersection(&cattrs)
                )));
            }
            seen.extend_with(&cattrs);
        }
        Ok(())
    }

    /// `attr(FS)`: all attributes mentioned anywhere in the scheme.
    pub fn attrs(&self) -> AttrSet {
        let mut out = AttrSet::empty();
        for c in &self.components {
            out.extend_with(&c.attrs());
        }
        out
    }

    /// Whether the scheme is homogeneous, i.e. equivalent to a traditional
    /// relational scheme (every admissible combination is the full attribute
    /// set).
    pub fn is_homogeneous(&self) -> bool {
        self.dnf().len() == 1
    }

    /// `dnf(FS)`: the set of admissible attribute combinations obtained by
    /// unfolding the scheme.  Duplicate combinations arising from components
    /// that may contribute the empty set are merged (it is a set).
    pub fn dnf(&self) -> BTreeSet<AttrSet> {
        let per_component: Vec<BTreeSet<AttrSet>> =
            self.components.iter().map(|c| c.combinations()).collect();
        let mut out = BTreeSet::new();
        // Choose which components are taken (a bitmask over components), with
        // the number of taken components within [at_least, at_most]; then take
        // the cross product of the chosen components' own combinations.
        let n = self.components.len();
        assert!(
            n <= 24,
            "dnf materialization supports at most 24 components per level"
        );
        for mask in 0u32..(1u32 << n) {
            let taken = mask.count_ones() as usize;
            if taken < self.at_least || taken > self.at_most {
                continue;
            }
            let chosen: Vec<&BTreeSet<AttrSet>> = (0..n)
                .filter(|i| mask & (1 << i) != 0)
                .map(|i| &per_component[i])
                .collect();
            let mut partial: Vec<AttrSet> = vec![AttrSet::empty()];
            for combos in chosen {
                let mut next = Vec::with_capacity(partial.len() * combos.len());
                for p in &partial {
                    for c in combos {
                        next.push(p.union(c));
                    }
                }
                partial = next;
            }
            out.extend(partial);
        }
        out
    }

    /// The attributes every admissible combination carries: the
    /// intersection of the disjuncts of `dnf(FS)` (empty for a scheme that
    /// admits nothing).
    pub fn mandatory(&self) -> AttrSet {
        let mut disjuncts = self.dnf().into_iter();
        match disjuncts.next() {
            Some(first) => disjuncts.fold(first, |acc, d| acc.intersection(&d)),
            None => AttrSet::empty(),
        }
    }

    /// The number of admissible attribute combinations, `|dnf(FS)|`.
    ///
    /// When no component can contribute the empty combination this is
    /// computed combinatorially without materializing the DNF; otherwise it
    /// falls back to materialization (distinct combinations only).
    pub fn dnf_len(&self) -> usize {
        if self.components.iter().any(|c| c.admits_empty()) {
            return self.dnf().len();
        }
        // ways[k] = number of attribute combinations using exactly k taken
        // components, accumulated left to right over the components.
        let counts: Vec<usize> = self
            .components
            .iter()
            .map(|c| match c {
                Component::Attr(_) => 1,
                Component::Scheme(s) => s.dnf_len(),
            })
            .collect();
        let n = counts.len();
        let mut ways = vec![0usize; n + 1];
        ways[0] = 1;
        for &c in &counts {
            for k in (0..n).rev() {
                let add = ways[k].saturating_mul(c);
                ways[k + 1] = ways[k + 1].saturating_add(add);
            }
        }
        (self.at_least..=self.at_most).map(|k| ways[k]).sum()
    }

    /// Whether the attribute set `x` is an admissible combination of this
    /// scheme, i.e. `x ∈ dnf(FS)`.  Decided recursively without materializing
    /// the DNF: because components have pairwise-disjoint attribute sets,
    /// every attribute of `x` identifies the component that must contribute
    /// it.
    pub fn admits(&self, x: &AttrSet) -> bool {
        if !x.is_subset(&self.attrs()) {
            return false;
        }
        let mut forced = 0usize; // components that must be taken
        let mut optional = 0usize; // components that could be taken contributing ∅
        for c in &self.components {
            let part = x.intersection(&c.attrs());
            if part.is_empty() {
                if c.admits_empty() {
                    optional += 1;
                }
                continue;
            }
            let ok = match c {
                Component::Attr(_) => true, // part == {A} by construction
                Component::Scheme(s) => s.admits(&part),
            };
            if !ok {
                return false;
            }
            forced += 1;
        }
        // Some number k of components is taken, forced ≤ k ≤ forced+optional,
        // and k must satisfy the cardinality constraint.
        let lo = forced.max(self.at_least);
        let hi = (forced + optional).min(self.at_most);
        lo <= hi
    }

    /// The nesting depth of the scheme (a flat scheme has depth 1).
    pub fn depth(&self) -> usize {
        1 + self
            .components
            .iter()
            .map(|c| match c {
                Component::Attr(_) => 0,
                Component::Scheme(s) => s.depth(),
            })
            .max()
            .unwrap_or(0)
    }

    /// Total number of components, counting nested components recursively.
    pub fn component_count(&self) -> usize {
        self.components
            .iter()
            .map(|c| match c {
                Component::Attr(_) => 1,
                Component::Scheme(s) => 1 + s.component_count(),
            })
            .sum()
    }
}

impl fmt::Display for FlexScheme {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "<{}, {}, {{", self.at_least, self.at_most)?;
        for (i, c) in self.components.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            match c {
                Component::Attr(a) => write!(f, "{}", a)?,
                Component::Scheme(s) => write!(f, "{}", s)?,
            }
        }
        write!(f, "}}>")
    }
}

/// Fluent builder for flexible schemes, mostly useful in examples and tests.
///
/// ```
/// use flexrel_core::scheme::SchemeBuilder;
/// let fs = SchemeBuilder::all_of(["ZipCode", "Town"])
///     .disjoint(["PostOfficeBoxNumber", "Street"])
///     .optional("HouseNumber")
///     .build()
///     .unwrap();
/// assert!(fs.attrs().contains_name("Street"));
/// ```
#[derive(Clone, Debug, Default)]
pub struct SchemeBuilder {
    mandatory: Vec<Component>,
    groups: Vec<Component>,
}

impl SchemeBuilder {
    /// Starts a builder with a set of unconditioned (always present)
    /// attributes.
    pub fn all_of<I, S>(attrs: I) -> Self
    where
        I: IntoIterator<Item = S>,
        S: AsRef<str>,
    {
        SchemeBuilder {
            mandatory: attrs
                .into_iter()
                .map(|a| Component::Attr(Attr::new(a.as_ref())))
                .collect(),
            groups: Vec::new(),
        }
    }

    /// Adds another unconditioned attribute.
    pub fn attr(mut self, name: impl AsRef<str>) -> Self {
        self.mandatory
            .push(Component::Attr(Attr::new(name.as_ref())));
        self
    }

    /// Adds a disjoint union over the given attributes (exactly one present).
    pub fn disjoint<I, S>(mut self, attrs: I) -> Self
    where
        I: IntoIterator<Item = S>,
        S: AsRef<str>,
    {
        let comps: Vec<Component> = attrs
            .into_iter()
            .map(|a| Component::Attr(Attr::new(a.as_ref())))
            .collect();
        let n = comps.len();
        self.groups.push(Component::Scheme(FlexScheme {
            at_least: 1,
            at_most: 1,
            components: comps,
        }));
        let _ = n;
        self
    }

    /// Adds a non-disjoint union over the given attributes (at least one
    /// present).
    pub fn some_of<I, S>(mut self, attrs: I) -> Self
    where
        I: IntoIterator<Item = S>,
        S: AsRef<str>,
    {
        let comps: Vec<Component> = attrs
            .into_iter()
            .map(|a| Component::Attr(Attr::new(a.as_ref())))
            .collect();
        let n = comps.len();
        self.groups.push(Component::Scheme(FlexScheme {
            at_least: 1,
            at_most: n,
            components: comps,
        }));
        self
    }

    /// Adds an optional attribute (present or absent).
    pub fn optional(mut self, name: impl AsRef<str>) -> Self {
        self.groups.push(Component::Scheme(FlexScheme {
            at_least: 0,
            at_most: 1,
            components: vec![Component::Attr(Attr::new(name.as_ref()))],
        }));
        self
    }

    /// Adds an arbitrary nested component.
    pub fn nested(mut self, c: impl Into<Component>) -> Self {
        self.groups.push(c.into());
        self
    }

    /// Finishes the builder.  Mandatory attributes and every group become
    /// components of an outer scheme requiring all of them to be taken.
    pub fn build(self) -> Result<FlexScheme> {
        let mut components = self.mandatory;
        components.extend(self.groups);
        let n = components.len();
        FlexScheme::new(n, n, components)
    }
}

/// The flexible scheme of the paper's Example 1:
/// `FS = <4,4,{ A, B, <1,1,{C,D}>, <1,3,{E,F,G}> }>`.
pub fn example1_scheme() -> FlexScheme {
    FlexScheme::new(
        4,
        4,
        vec![
            Component::from("A"),
            Component::from("B"),
            Component::Scheme(FlexScheme::disjoint_union(["C", "D"]).unwrap()),
            Component::Scheme(FlexScheme::non_disjoint_union(["E", "F", "G"]).unwrap()),
        ],
    )
    .expect("example 1 scheme is valid")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::attrs;

    #[test]
    fn relational_scheme_is_homogeneous() {
        let fs = FlexScheme::relational(attrs!["A", "B", "C"]);
        assert_eq!(fs.at_least(), 3);
        assert_eq!(fs.at_most(), 3);
        assert!(fs.is_homogeneous());
        assert_eq!(fs.dnf().len(), 1);
        assert!(fs.admits(&attrs!["A", "B", "C"]));
        assert!(!fs.admits(&attrs!["A", "B"]));
    }

    #[test]
    fn disjoint_union_admits_exactly_one() {
        let fs = FlexScheme::disjoint_union(["C", "D"]).unwrap();
        assert!(fs.admits(&attrs!["C"]));
        assert!(fs.admits(&attrs!["D"]));
        assert!(!fs.admits(&attrs!["C", "D"]));
        assert!(!fs.admits(&AttrSet::empty()));
        assert_eq!(fs.dnf_len(), 2);
    }

    #[test]
    fn non_disjoint_union_is_electronic_communication_address() {
        let fs =
            FlexScheme::non_disjoint_union(["tel-number", "FAX-number", "email-address"]).unwrap();
        // 2^3 - 1 = 7 non-empty subsets.
        assert_eq!(fs.dnf_len(), 7);
        assert!(fs.admits(&attrs!["tel-number"]));
        assert!(fs.admits(&attrs!["tel-number", "FAX-number", "email-address"]));
        assert!(!fs.admits(&AttrSet::empty()));
    }

    #[test]
    fn example1_dnf_matches_paper() {
        let fs = example1_scheme();
        let dnf = fs.dnf();
        let expected: BTreeSet<AttrSet> = [
            attrs!["A", "B", "C", "E"],
            attrs!["A", "B", "D", "E"],
            attrs!["A", "B", "C", "F"],
            attrs!["A", "B", "D", "F"],
            attrs!["A", "B", "C", "G"],
            attrs!["A", "B", "D", "G"],
            attrs!["A", "B", "C", "E", "F"],
            attrs!["A", "B", "D", "E", "F"],
            attrs!["A", "B", "C", "E", "G"],
            attrs!["A", "B", "D", "E", "G"],
            attrs!["A", "B", "C", "F", "G"],
            attrs!["A", "B", "D", "F", "G"],
            attrs!["A", "B", "C", "E", "F", "G"],
            attrs!["A", "B", "D", "E", "F", "G"],
        ]
        .into_iter()
        .collect();
        assert_eq!(dnf, expected, "dnf(FS) must be the paper's 14 combinations");
        assert_eq!(fs.dnf_len(), 14);
    }

    #[test]
    fn admits_agrees_with_dnf_on_example1() {
        let fs = example1_scheme();
        let dnf = fs.dnf();
        for candidate in fs.attrs().power_set() {
            assert_eq!(
                fs.admits(&candidate),
                dnf.contains(&candidate),
                "admits() and dnf() disagree on {}",
                candidate
            );
        }
    }

    #[test]
    fn address_scheme_from_introduction() {
        // ZipCode, Town unconditioned; PO box or street (disjoint); house
        // number optional.  The optional house number is modelled as a nested
        // <0,1,{HouseNumber}> group.
        let fs = SchemeBuilder::all_of(["ZipCode", "Town"])
            .disjoint(["PostOfficeBoxNumber", "Street"])
            .optional("HouseNumber")
            .build()
            .unwrap();
        assert!(fs.admits(&attrs!["ZipCode", "Town", "PostOfficeBoxNumber"]));
        assert!(fs.admits(&attrs!["ZipCode", "Town", "Street"]));
        assert!(fs.admits(&attrs!["ZipCode", "Town", "Street", "HouseNumber"]));
        // A house number with a PO box is admitted by the *scheme* (the
        // existence-based constraint cannot forbid it); ruling it out is the
        // job of an attribute dependency.
        assert!(fs.admits(&attrs![
            "ZipCode",
            "Town",
            "PostOfficeBoxNumber",
            "HouseNumber"
        ]));
        assert!(!fs.admits(&attrs!["ZipCode", "Town"]));
        assert!(!fs.admits(&attrs!["ZipCode", "Town", "PostOfficeBoxNumber", "Street"]));
    }

    #[test]
    fn validation_rejects_bad_cardinalities() {
        assert!(FlexScheme::new(3, 2, vec!["A", "B", "C"]).is_err());
        assert!(FlexScheme::new(1, 4, vec!["A", "B", "C"]).is_err());
        assert!(FlexScheme::new::<Vec<&str>, &str>(0, 0, vec![]).is_err());
    }

    #[test]
    fn validation_rejects_shared_attributes() {
        let nested = FlexScheme::disjoint_union(["A", "B"]).unwrap();
        let err = FlexScheme::new(2, 2, vec![Component::from("A"), Component::Scheme(nested)]);
        assert!(err.is_err());
    }

    #[test]
    fn optional_component_admits_empty() {
        let fs = FlexScheme::optional("HouseNumber");
        assert!(fs.admits(&AttrSet::empty()));
        assert!(fs.admits(&attrs!["HouseNumber"]));
        assert_eq!(fs.dnf().len(), 2);
    }

    #[test]
    fn dnf_len_combinatorial_matches_materialized() {
        let fs = example1_scheme();
        assert_eq!(fs.dnf_len(), fs.dnf().len());

        let nested = FlexScheme::new(
            1,
            2,
            vec![
                Component::Scheme(FlexScheme::disjoint_union(["P", "Q"]).unwrap()),
                Component::from("R"),
                Component::from("S"),
            ],
        )
        .unwrap();
        assert_eq!(nested.dnf_len(), nested.dnf().len());
    }

    #[test]
    fn depth_and_component_count() {
        let fs = example1_scheme();
        assert_eq!(fs.depth(), 2);
        assert_eq!(fs.component_count(), 4 + 2 + 3);
        assert_eq!(FlexScheme::relational(attrs!["A"]).depth(), 1);
    }

    #[test]
    fn display_round_trips_paper_notation() {
        let fs = example1_scheme();
        let s = fs.to_string();
        assert!(s.starts_with("<4, 4, {"));
        assert!(s.contains("<1, 1, {C, D}>"));
        assert!(s.contains("<1, 3, {E, F, G}>"));
    }

    #[test]
    fn builder_some_of_and_attr() {
        let fs = SchemeBuilder::all_of(["id"])
            .attr("name")
            .some_of(["tel", "fax", "email"])
            .build()
            .unwrap();
        assert!(fs.admits(&attrs!["id", "name", "tel"]));
        assert!(fs.admits(&attrs!["id", "name", "tel", "fax", "email"]));
        assert!(!fs.admits(&attrs!["id", "name"]));
        assert!(!fs.admits(&attrs!["id", "tel"]));
    }

    #[test]
    fn admits_rejects_foreign_attributes() {
        let fs = example1_scheme();
        assert!(!fs.admits(&attrs!["A", "B", "C", "E", "Z"]));
    }
}
