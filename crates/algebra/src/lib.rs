//! # flexrel-algebra
//!
//! Relational algebra for flexible relations, together with the propagation
//! of attribute dependencies under algebraic transformations (Theorem 4.3 of
//! Kalus & Dadam, ICDE 1995).
//!
//! The operators are *materializing*: each takes whole
//! [`FlexRelation`](flexrel_core::relation::FlexRelation) values and produces
//! a new one whose scheme, dependency set and instance are all computed.  The
//! iterator-based execution engine lives in `flexrel-query`; it reuses the
//! per-tuple logic exposed here.
//!
//! ## Operators
//!
//! | operator | function | AD propagation (Thm. 4.3) |
//! |----------|----------|----------------------------|
//! | selection `σ_F` | [`ops::select`] | `ads(σ_F(FR)) = ads(FR)` |
//! | projection `π_X` | [`ops::project`] | keep `V→W∩X` when `V ⊆ X` |
//! | cartesian product `×` | [`ops::product`] | union of both sides |
//! | union `∪` | [`ops::union`] | `∅` |
//! | difference `−` | [`ops::difference`] | `ads(FR1)` |
//! | extension `ε_{A:a}` | [`ops::extend`] | preserved |
//! | tagged union | [`ops::tagged_union`] | `{AX→Y \| X→Y ∈ ads(FRi)}` |
//! | natural / multiway join | [`ops::natural_join`], [`ops::multiway_join`] | what the other operand cannot disturb ([`propagate::join_deps`]) |
//! | outer union | [`ops::outer_union`] | `∅` |
//! | rename | [`ops::rename`] | renamed |

pub mod ops;
pub mod predicate;
pub mod propagate;
pub mod schemes;

pub use ops::{
    difference, extend, multiway_join, natural_join, outer_union, product, project, rename, select,
    tagged_union, union,
};
pub use predicate::{CmpOp, Predicate};
