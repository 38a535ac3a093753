//! Metrics between partial rankings, after Fagin, Kumar, Mahdian,
//! Sivakumar and Vee, *"Comparing and Aggregating Rankings with Ties"*
//! (PODS 2004).
//!
//! The paper defines four metrics on bucket orders over a fixed domain and
//! proves they are within constant multiples of each other (Theorem 7):
//!
//! | metric | definition | here |
//! |---|---|---|
//! | `Kprof` | Kendall tau with penalty `p = 1/2` for pairs tied in exactly one ranking; equivalently `L1` between K-profiles | [`kendall::kprof_x2`] |
//! | `Fprof` | `L1` between position vectors (F-profiles) | [`footrule::fprof_x2`] |
//! | `KHaus` | Hausdorff–Kendall over the sets of full refinements | [`hausdorff::khaus`] |
//! | `FHaus` | Hausdorff–footrule over the sets of full refinements | [`hausdorff::fhaus`] |
//!
//! # Exact arithmetic
//!
//! Every metric value in the paper is a multiple of `1/2`, so this crate
//! returns **exact integers** with an explicit scale:
//!
//! * functions suffixed `_x2` return **twice** the paper's value
//!   (`Kprof`, `Fprof`, `Kavg`, `F^(ℓ)`);
//! * `KHaus`, `FHaus` and the full-ranking `K`, `F` are integers already
//!   and are returned unscaled.
//!
//! Floating-point convenience wrappers ([`kendall::kprof`],
//! [`footrule::fprof`], …) divide at the boundary.
//!
//! # Example
//!
//! ```
//! use bucketrank_core::BucketOrder;
//! use bucketrank_metrics::{footrule, hausdorff, kendall};
//!
//! let sigma = BucketOrder::from_buckets(3, vec![vec![0, 1], vec![2]]).unwrap();
//! let tau = BucketOrder::from_buckets(3, vec![vec![0], vec![1], vec![2]]).unwrap();
//!
//! let kp2 = kendall::kprof_x2(&sigma, &tau).unwrap(); // 2·Kprof
//! let fp2 = footrule::fprof_x2(&sigma, &tau).unwrap(); // 2·Fprof
//! let kh = hausdorff::khaus(&sigma, &tau).unwrap();
//! let fh = hausdorff::fhaus(&sigma, &tau).unwrap();
//!
//! // Theorem 7 equivalences, in scaled units:
//! assert!(kp2 <= fp2 && fp2 <= 2 * kp2);          // Kprof ≤ Fprof ≤ 2·Kprof
//! assert!(kh <= fh && fh <= 2 * kh);              // KHaus ≤ FHaus ≤ 2·KHaus
//! assert!(kp2 <= 2 * kh && kh <= kp2);            // Kprof ≤ KHaus ≤ 2·Kprof
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]
#![forbid(unsafe_code)]

pub mod batch;
mod error;
pub mod footrule;
pub mod full;
pub mod hausdorff;
pub mod kendall;
pub mod near;
pub mod normalized;
pub mod pairs;
pub mod prepared;
pub mod profile;
pub mod related;
pub mod topk;
pub mod weighted;

pub use error::MetricsError;
pub use pairs::PairCounts;
pub use prepared::PreparedRanking;
pub use weighted::Weights;
