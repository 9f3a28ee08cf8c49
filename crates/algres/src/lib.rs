#![warn(missing_docs)]

//! # algres
//!
//! A from-scratch reproduction of the **ALGRES** substrate the LOGRES paper
//! prototypes on: "a main-memory based programming environment supporting an
//! Extended Relational Algebra" over complex (NF²) objects. The paper credits
//! "the very liberal structure of the closure operation in ALGRES \[which\]
//! makes it possible to change the semantics of rules very easily"
//! (Section 1).
//!
//! The engine operates on [`Relation`]s: sets of labeled tuples whose fields
//! may be atomic values, oids, nested tuples, sets, multisets or sequences
//! (the [`logres_model::Value`] universe). The algebra ([`AlgExpr`])
//! provides:
//!
//! * classical operators — select, project, rename, product, natural join,
//!   union, difference, intersect, semijoin and antijoin;
//! * NF² operators — **nest** (group and collect into a set-valued column)
//!   and **unnest** (flatten a collection-valued column);
//! * **extend** (computed columns), the fused **emit** reshape, and grouped
//!   **aggregate** (count, sum, min, max, avg, collect).
//!
//! The closure is not an operator but a loop over an [`Evaluator`] session:
//! the caller binds each round's delta relation, evaluates its step plans,
//! and folds the new tuples into the accumulated relation with
//! [`Evaluator::extend_binding`]. Because the session memoizes stable
//! sub-expressions and keeps join hash tables across rounds, the caller is
//! free to choose the semantics of each round — this is the "liberal"
//! closure.
//!
//! `logres-engine` lowers the positive, function-free fragment of the
//! LOGRES rule language (plus stratified negation) to this algebra,
//! mirroring the translation of \[Ca90\], *Implementing an Object-Oriented
//! Data Model in Relational Algebra*, and drives the semi-naive rounds over
//! one session per stratum.

pub mod error;
pub mod eval;
pub mod expr;
pub mod optimize;
pub mod relation;

pub use error::AlgError;
pub use eval::{eval, Env, EvalStats, Evaluator, OpStats};
pub use expr::{AggFun, AlgExpr, CmpOp, Pred, Scalar};
pub use optimize::{fuse_reshapes, push_selections, push_selections_with, Catalog};
pub use relation::Relation;
