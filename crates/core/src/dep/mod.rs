//! Dependencies: attribute dependencies (ADs), explicit attribute
//! dependencies (EADs) and functional dependencies (FDs) adapted to flexible
//! relations.
//!
//! * [`Ead`] is the explicit form of Def. 2.1: the values in `X` determine,
//!   variant by variant, which subset of `Y` is present.
//! * [`Ad`] is the abbreviated form of Def. 4.1 used by the axiom systems:
//!   tuples agreeing on `X` possess the same subset of `Y`.
//! * [`Fd`] is the classical functional dependency adapted to structural
//!   variants by guarding value access with `X ⊆ attr(t)` (Def. 4.2).

mod ad;
mod ead;
mod fd;
mod set;

pub use ad::Ad;
pub use ead::{example2_jobtype_ead, Ead, EadVariant};
pub use fd::Fd;
pub use set::DependencySet;

use std::fmt;

use crate::tuple::Tuple;

/// Either kind of dependency, as stored in schemes, catalogs and the combined
/// axiom system ℰ.
///
/// Explicit ADs are kept as their own variant rather than being abbreviated
/// immediately: the abbreviated form (Def. 4.1) constrains *pairs* of tuples,
/// whereas the explicit form (Def. 2.1) already constrains a single tuple —
/// exactly what insert-time type checking needs.  The axiom systems see the
/// explicit dependency through its abbreviation (`Ead::to_ad`).
#[derive(Clone, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Dependency {
    /// An attribute dependency `X --attr--> Y` (abbreviated form).
    Ad(Ad),
    /// An explicit attribute dependency with its variants.
    Ead(Ead),
    /// A functional dependency `X --func--> Y`.
    Fd(Fd),
}

impl Dependency {
    /// The left-hand (determining) side.
    pub fn lhs(&self) -> &crate::attr::AttrSet {
        match self {
            Dependency::Ad(d) => d.lhs(),
            Dependency::Ead(d) => d.lhs(),
            Dependency::Fd(d) => d.lhs(),
        }
    }

    /// The right-hand (determined) side.
    pub fn rhs(&self) -> &crate::attr::AttrSet {
        match self {
            Dependency::Ad(d) => d.rhs(),
            Dependency::Ead(d) => d.rhs(),
            Dependency::Fd(d) => d.rhs(),
        }
    }

    /// Whether this is an attribute dependency (abbreviated or explicit).
    pub fn is_ad(&self) -> bool {
        matches!(self, Dependency::Ad(_) | Dependency::Ead(_))
    }

    /// Whether this is a functional dependency.
    pub fn is_fd(&self) -> bool {
        matches!(self, Dependency::Fd(_))
    }

    /// The abbreviated AD view of this dependency, if it is an attribute
    /// dependency of either form.
    pub fn as_ad(&self) -> Option<Ad> {
        match self {
            Dependency::Ad(d) => Some(d.clone()),
            Dependency::Ead(d) => Some(d.to_ad()),
            Dependency::Fd(_) => None,
        }
    }

    /// Whether the pair of tuples satisfies this dependency (the universally
    /// quantified body of Def. 4.1 / 4.2 for one `(t1, t2)`; for an explicit
    /// AD both tuples are checked individually per Def. 2.1).
    pub fn pair_satisfied(&self, t1: &Tuple, t2: &Tuple) -> bool {
        match self {
            Dependency::Ad(d) => d.pair_satisfied(t1, t2),
            Dependency::Ead(d) => d.check_tuple(t1).is_ok() && d.check_tuple(t2).is_ok(),
            Dependency::Fd(d) => d.pair_satisfied(t1, t2),
        }
    }

    /// Whether the dependency holds on the given instance.
    pub fn satisfied_by(&self, tuples: &[Tuple]) -> bool {
        match self {
            Dependency::Ad(d) => d.satisfied_by(tuples),
            Dependency::Ead(d) => d.satisfied_by(tuples),
            Dependency::Fd(d) => d.satisfied_by(tuples),
        }
    }
}

impl fmt::Display for Dependency {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Dependency::Ad(d) => write!(f, "{}", d),
            Dependency::Ead(d) => write!(f, "{}", d),
            Dependency::Fd(d) => write!(f, "{}", d),
        }
    }
}

impl From<Ad> for Dependency {
    fn from(d: Ad) -> Self {
        Dependency::Ad(d)
    }
}

impl From<Fd> for Dependency {
    fn from(d: Fd) -> Self {
        Dependency::Fd(d)
    }
}

impl From<Ead> for Dependency {
    fn from(d: Ead) -> Self {
        Dependency::Ead(d)
    }
}
