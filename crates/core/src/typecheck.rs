//! Type checking and type guards (§3.1, §3.1.2, Example 4).
//!
//! Flexible schemes already catch *existence-based* violations; value-based
//! violations (the salesman carrying a typing-speed) are caught by the
//! attribute dependencies.  Retrieval-side type checking uses **type
//! guards**: predicates of the form "attributes `G` are present in the
//! tuple".  ADs make two optimizations possible:
//!
//! * a guard can be recognized as **redundant** when the rest of the query
//!   (e.g. an equality selection on the determining attributes) already
//!   guarantees the guarded attributes are present — Example 4;
//! * dually, a guard can be recognized as **unsatisfiable**, allowing the
//!   whole branch to be pruned.

use std::fmt;

use crate::attr::AttrSet;
use crate::axioms::{derive, AxiomSystem, Derivation};
use crate::dep::{Ad, Dependency, DependencySet, Ead};
use crate::tuple::Tuple;

/// A type guard: the check that all attributes of `required` are present in
/// a tuple (`required ⊆ attr(t)`).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TypeGuard {
    /// The attributes whose presence is asserted.
    pub required: AttrSet,
}

impl TypeGuard {
    /// Creates a guard for the given attributes.
    pub fn new(required: impl Into<AttrSet>) -> Self {
        TypeGuard {
            required: required.into(),
        }
    }

    /// Evaluates the guard against a tuple.
    pub fn check(&self, t: &Tuple) -> bool {
        t.defined_on(&self.required)
    }
}

impl fmt::Display for TypeGuard {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "guard[{} present]", self.required)
    }
}

/// The outcome of analysing a type guard against the constraints known to
/// hold in a query context.
#[derive(Clone, Debug, PartialEq)]
pub enum GuardAnalysis {
    /// The guarded attributes are always present; the guard is redundant and
    /// may be removed.  Carries the derivation justifying the conclusion at
    /// the AD level (Example 4's two-step derivation).
    Redundant(Box<Derivation>),
    /// The guarded attributes can never all be present under the known
    /// constraints; the guarded branch may be pruned entirely.
    Unsatisfiable,
    /// Nothing can be concluded; the guard must stay.
    Necessary,
}

impl GuardAnalysis {
    /// Whether the analysis allows dropping the guard.
    pub fn is_redundant(&self) -> bool {
        matches!(self, GuardAnalysis::Redundant(_))
    }
}

/// The statically known facts a selection formula provides about the tuples
/// that survive it: which attributes it *references* (and therefore requires
/// to be present for the predicate to evaluate to true) and which attributes
/// it pins to constants by equality.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct SelectionContext {
    /// Attributes the selection references; a tuple passing the selection is
    /// necessarily defined on them (e.g. both `salary` and `jobtype` in
    /// `salary > 5000 AND jobtype = 'secretary'`).
    pub referenced: AttrSet,
    /// Attribute-to-constant equalities implied by the selection (e.g.
    /// `jobtype = 'secretary'`).
    pub equalities: Tuple,
}

impl SelectionContext {
    /// An empty context (no selection applied).
    pub fn none() -> Self {
        SelectionContext::default()
    }

    /// Builder: record that an attribute is referenced by the selection.
    pub fn with_referenced(mut self, attrs: impl Into<AttrSet>) -> Self {
        self.referenced.extend_with(&attrs.into());
        self
    }

    /// Builder: record an equality `attr = value`.
    pub fn with_equality(
        mut self,
        attr: impl Into<crate::attr::Attr>,
        value: impl Into<crate::value::Value>,
    ) -> Self {
        let attr = attr.into();
        self.referenced.insert(attr.clone());
        self.equalities.insert(attr, value);
        self
    }

    /// All attributes known to be present in qualifying tuples.
    pub fn known_present(&self) -> AttrSet {
        self.referenced.union(&self.equalities.attrs())
    }
}

/// Analyses whether a type guard is redundant or unsatisfiable given a
/// selection context and the relation's dependencies.
///
/// Two complementary arguments are combined:
///
/// 1. **AD-level** (Example 4): if `K --attr--> G` is derivable, where `K`
///    are the attributes referenced by the selection, then within the
///    selection result the presence of `G` is fully determined by the
///    `K`-values; combined with the explicit variant information (2) this
///    makes the guard removable.  The derivation is returned as
///    justification.
/// 2. **Variant-level**: the selection's equalities select a set of possible
///    variants of each EAD; if every possible variant prescribes all guarded
///    attributes, the guard always holds; if no possible variant prescribes
///    some guarded attribute (and the attribute belongs to the EAD's
///    determined set), the guard can never hold.
pub fn analyse_guard(
    deps: &DependencySet,
    ctx: &SelectionContext,
    guard: &TypeGuard,
    system: AxiomSystem,
) -> GuardAnalysis {
    // Attributes already known present make that part of the guard trivially
    // redundant.
    let remaining = guard.required.difference(&ctx.known_present());
    if remaining.is_empty() {
        // Guard follows from the selection referencing those attributes; the
        // derivation is the trivial reflexive one.
        let target = Dependency::Ad(Ad::new(ctx.known_present(), guard.required.clone()));
        if let Some(d) = derive(deps, &target, system) {
            return GuardAnalysis::Redundant(Box::new(d));
        }
    }

    // Variant-level reasoning per explicit AD.
    for ead in deps.eads() {
        match variant_outcome(ead, ctx, &remaining) {
            VariantOutcome::AlwaysPresent => {
                // Justify at the AD level: the referenced attributes (which
                // include the EAD determinant pinned by the equalities)
                // existentially determine the guarded attributes.
                let lhs = ctx.known_present().union(ead.lhs());
                let target = Dependency::Ad(Ad::new(lhs, guard.required.clone()));
                if let Some(d) = derive(deps, &target, system) {
                    return GuardAnalysis::Redundant(Box::new(d));
                }
            }
            VariantOutcome::NeverPresent => return GuardAnalysis::Unsatisfiable,
            VariantOutcome::Unknown => {}
        }
    }
    GuardAnalysis::Necessary
}

enum VariantOutcome {
    AlwaysPresent,
    NeverPresent,
    Unknown,
}

/// Decides, for one EAD, whether the selection context forces the guarded
/// attributes (restricted to the EAD's determined set) to be present, absent
/// or neither.
fn variant_outcome(ead: &Ead, ctx: &SelectionContext, guard: &AttrSet) -> VariantOutcome {
    let guarded_in_y = guard.intersection(ead.rhs());
    if guarded_in_y.is_empty() {
        return VariantOutcome::Unknown;
    }
    // The candidate variants: those whose value sets are consistent with the
    // selection's equalities on the determining attributes.  If the
    // equalities do not pin all of X we must also consider "no variant".
    let pinned = ctx.equalities.project(ead.lhs());
    let pinned_attrs = pinned.attrs();
    let fully_pinned = pinned_attrs == *ead.lhs();
    let mut possible_required: Vec<AttrSet> = Vec::new();
    for variant in ead.variants() {
        let consistent = variant.values.iter().any(|v| {
            pinned_attrs
                .iter_unordered()
                .all(|a| v.get(&a) == pinned.get(&a))
        });
        if consistent {
            possible_required.push(variant.attrs.clone());
        }
    }
    if !fully_pinned || possible_required.is_empty() {
        // "No matching variant" (⟹ no Y attribute present) stays possible
        // when X is not fully pinned or no variant matches the pinned values.
        possible_required.push(AttrSet::empty());
    }
    if possible_required
        .iter()
        .all(|req| guarded_in_y.is_subset(req))
        && guard.is_subset(&guarded_in_y.union(&ctx.known_present()))
    {
        VariantOutcome::AlwaysPresent
    } else if possible_required
        .iter()
        .all(|req| !guarded_in_y.is_empty() && guarded_in_y.intersection(req).is_empty())
    {
        VariantOutcome::NeverPresent
    } else {
        VariantOutcome::Unknown
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dep::example2_jobtype_ead;
    use crate::value::Value;
    use crate::{attrs, tuple};

    fn employee_deps() -> DependencySet {
        DependencySet::from_deps(vec![Dependency::Ead(example2_jobtype_ead())])
    }

    #[test]
    fn example4_guard_is_redundant() {
        // σ[salary > 5000 AND jobtype = 'secretary'] followed by a guard for
        // typing-speed: redundant.
        let ctx = SelectionContext::none()
            .with_referenced(attrs!["salary"])
            .with_equality("jobtype", Value::tag("secretary"));
        let guard = TypeGuard::new(attrs!["typing-speed"]);
        let analysis = analyse_guard(&employee_deps(), &ctx, &guard, AxiomSystem::R);
        match analysis {
            GuardAnalysis::Redundant(derivation) => {
                derivation.verify(&employee_deps()).unwrap();
                // The justification is the Example 4 dependency
                // {jobtype, salary} --attr--> {typing-speed}.
                assert_eq!(
                    derivation.target(),
                    &Dependency::Ad(Ad::new(attrs!["jobtype", "salary"], attrs!["typing-speed"]))
                );
            }
            other => panic!("expected Redundant, got {:?}", other),
        }
    }

    #[test]
    fn guard_for_wrong_variant_is_unsatisfiable() {
        // Selecting secretaries and then guarding for sales-commission can
        // never succeed.
        let ctx = SelectionContext::none().with_equality("jobtype", Value::tag("secretary"));
        let guard = TypeGuard::new(attrs!["sales-commission"]);
        assert_eq!(
            analyse_guard(&employee_deps(), &ctx, &guard, AxiomSystem::R),
            GuardAnalysis::Unsatisfiable
        );
    }

    #[test]
    fn guard_without_selection_is_necessary() {
        let ctx = SelectionContext::none();
        let guard = TypeGuard::new(attrs!["typing-speed"]);
        assert_eq!(
            analyse_guard(&employee_deps(), &ctx, &guard, AxiomSystem::R),
            GuardAnalysis::Necessary
        );
    }

    #[test]
    fn guard_on_attribute_outside_y_is_necessary() {
        let ctx = SelectionContext::none().with_equality("jobtype", Value::tag("secretary"));
        let guard = TypeGuard::new(attrs!["badge-number"]);
        assert_eq!(
            analyse_guard(&employee_deps(), &ctx, &guard, AxiomSystem::R),
            GuardAnalysis::Necessary
        );
    }

    #[test]
    fn guard_over_referenced_attributes_is_redundant() {
        // The selection already references salary, so guarding for salary is
        // redundant by reflexivity.
        let ctx = SelectionContext::none().with_referenced(attrs!["salary"]);
        let guard = TypeGuard::new(attrs!["salary"]);
        assert!(analyse_guard(&employee_deps(), &ctx, &guard, AxiomSystem::R).is_redundant());
    }

    #[test]
    fn partial_pinning_is_inconclusive() {
        // With a two-attribute determinant, pinning only one of them leaves
        // the variant open.
        let mk = |sex: &str, ms: &str| {
            Tuple::new()
                .with("sex", Value::tag(sex))
                .with("marital-status", Value::tag(ms))
        };
        let ead = Ead::new(
            attrs!["sex", "marital-status"],
            attrs!["maiden-name"],
            vec![crate::dep::EadVariant::new(
                vec![mk("female", "married")],
                attrs!["maiden-name"],
            )],
        )
        .unwrap();
        let deps = DependencySet::from_deps(vec![Dependency::Ead(ead)]);
        let ctx = SelectionContext::none().with_equality("sex", Value::tag("female"));
        let guard = TypeGuard::new(attrs!["maiden-name"]);
        assert_eq!(
            analyse_guard(&deps, &ctx, &guard, AxiomSystem::R),
            GuardAnalysis::Necessary
        );
        // Pinning both determines the variant.
        let ctx = ctx.with_equality("marital-status", Value::tag("married"));
        assert!(analyse_guard(&deps, &ctx, &guard, AxiomSystem::R).is_redundant());
    }

    #[test]
    fn guard_evaluation_on_tuples() {
        let guard = TypeGuard::new(attrs!["typing-speed"]);
        assert!(guard.check(&tuple! {"typing-speed" => 300}));
        assert!(!guard.check(&tuple! {"salary" => 300}));
        assert!(guard.to_string().contains("typing-speed"));
    }

    #[test]
    fn selection_context_accessors() {
        let ctx = SelectionContext::none()
            .with_referenced(attrs!["salary"])
            .with_equality("jobtype", Value::tag("salesman"));
        assert_eq!(ctx.known_present(), attrs!["salary", "jobtype"]);
        assert_eq!(
            ctx.equalities.get_name("jobtype"),
            Some(&Value::tag("salesman"))
        );
    }
}
