//! Core data model for *rankings with ties* (bucket orders / partial rankings).
//!
//! This crate implements the objects of Fagin, Kumar, Mahdian, Sivakumar and
//! Vee, *"Comparing and Aggregating Rankings with Ties"* (PODS 2004):
//!
//! * [`BucketOrder`] — a transitive binary relation whose domain is
//!   partitioned into ordered *buckets*; elements in the same bucket are
//!   tied. A *full ranking* (permutation) is the special case where every
//!   bucket is a singleton, and a *top-k list* is `k` singleton buckets
//!   followed by one bottom bucket.
//! * [`Pos`] — exact bucket positions. The paper's
//!   `pos(B_i) = Σ_{j<i}|B_j| + (|B_i|+1)/2` is always a multiple of `1/2`,
//!   so positions are stored in integer *half-units* (`2×` the paper's
//!   value) and all downstream metrics are exact integer arithmetic.
//! * [`refine`] — the refinement relation `σ ⪯ τ` and the tie-breaking
//!   operator `τ∗σ` ("refine σ, breaking ties by τ") of Section 2, plus an
//!   iterator over all full refinements used for brute-force verification.
//! * [`TypeSeq`] — the *type* of a partial ranking (the sequence of bucket
//!   sizes, Appendix A.1).
//! * [`consistent`] — consistency between score functions and partial
//!   rankings, the induced ranking `f̄`, and the projection `⟨f⟩_α` of a
//!   score function onto a type (Lemma 27 / Lemma 34).
//! * [`alg`] — small shared algorithmic substrate (Fenwick tree, inversion
//!   counting) used by the metric implementations.
//!
//! # Example
//!
//! ```
//! use bucketrank_core::{BucketOrder, Pos};
//!
//! // Restaurants ranked by star rating: {0, 2} share 3 stars, {1} has 2.
//! let sigma = BucketOrder::from_buckets(3, vec![vec![0, 2], vec![1]]).unwrap();
//! assert_eq!(sigma.position(0), Pos::from_half_units(3)); // pos = 1.5
//! assert_eq!(sigma.position(1), Pos::from_half_units(6)); // pos = 3
//! assert!(!sigma.is_full());
//! assert!(sigma.is_tied(0, 2));
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]
#![forbid(unsafe_code)]

pub mod alg;
mod bucket_order;
pub mod consistent;
mod domain;
mod error;
pub mod ops;
pub mod parse;
mod pos;
pub mod profile;
pub mod refine;
mod typeseq;

pub use bucket_order::{BucketOrder, BucketOrderBuilder, Buckets, BucketsIter};
pub use domain::{Domain, ElementId};
pub use error::CoreError;
pub use pos::Pos;
pub use typeseq::{fubini, TypeSeq};
