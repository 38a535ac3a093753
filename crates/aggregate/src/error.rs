//! Error type for aggregation.

use crate::median::WeightFault;
use bucketrank_core::CoreError;
use bucketrank_metrics::MetricsError;
use std::fmt;

/// Errors produced by aggregation algorithms.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum AggregateError {
    /// Aggregation requires at least one input ranking.
    NoInputs,
    /// The input rankings do not all share one domain.
    DomainMismatch {
        /// Domain size of the first input.
        expected: usize,
        /// Differing domain size encountered.
        found: usize,
    },
    /// `k` exceeds the domain size.
    InvalidK {
        /// The requested `k`.
        k: usize,
        /// The domain size.
        domain_size: usize,
    },
    /// A requested output type does not sum to the domain size.
    TypeSizeMismatch {
        /// Sum of the type's bucket sizes.
        type_total: usize,
        /// The domain size.
        domain_size: usize,
    },
    /// An exact algorithm was asked for a domain too large to enumerate.
    DomainTooLarge {
        /// The domain size given.
        n: usize,
        /// The maximum the algorithm accepts.
        max: usize,
    },
    /// An algorithm restricted to full-ranking inputs received ties.
    NotFullRanking,
    /// A voter id not present in a dynamic profile was removed or
    /// replaced. Returned typed — never a wrapped panic — so streaming
    /// callers can retry or drop the edit without tearing down the
    /// engine (`remove_voter` on an absent id must not underflow any
    /// tally cell).
    UnknownVoter {
        /// The id the caller presented.
        id: u64,
    },
    /// A dynamic profile is at the voter-capacity limit of its `u32`
    /// tally cells; the push was rejected with state unchanged.
    TooManyVoters {
        /// The maximum number of voters the tally cells can hold.
        limit: usize,
    },
    /// A restore ([`crate::dynamic::DynamicProfile::from_voters`])
    /// presented the same voter id twice, or an id not strictly below
    /// the declared `next_id`. Checkpoint decoders surface this as
    /// corruption rather than silently double-counting a voter or
    /// letting a future push collide with a restored id.
    InvalidVoterId {
        /// The offending id.
        id: u64,
    },
    /// A [`crate::minmax::WindowRule`]'s prefix window lies outside
    /// `1..=n`.
    InvalidConstraintWindow {
        /// Index of the offending rule.
        index: usize,
        /// The window given.
        window: usize,
        /// The domain size the labels describe.
        domain_size: usize,
    },
    /// A [`crate::minmax::WindowRule`] has `min > max` or a `max`
    /// exceeding its own window.
    InvalidConstraintBounds {
        /// Index of the offending rule.
        index: usize,
        /// The rule's `min`.
        min: usize,
        /// The rule's `max`.
        max: usize,
        /// The rule's window.
        window: usize,
    },
    /// A [`crate::minmax::WindowRule`] references a class label no
    /// candidate carries.
    UnknownClass {
        /// Index of the offending rule.
        index: usize,
        /// The class label the rule names.
        class: u32,
    },
    /// A well-formed rule set that no permutation can satisfy (caps and
    /// floors collide). Raised by the constrained solvers and by
    /// [`crate::minmax::ClassConstraints::repair`].
    InfeasibleConstraints,
    /// A voter-weight vector was rejected
    /// ([`crate::median::weight_units`]).
    InvalidWeights(WeightFault),
}

impl fmt::Display for AggregateError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            AggregateError::NoInputs => write!(f, "aggregation requires at least one input"),
            AggregateError::DomainMismatch { expected, found } => write!(
                f,
                "inputs must share a domain (expected size {expected}, found {found})"
            ),
            AggregateError::InvalidK { k, domain_size } => {
                write!(f, "k = {k} exceeds the domain size {domain_size}")
            }
            AggregateError::TypeSizeMismatch {
                type_total,
                domain_size,
            } => write!(
                f,
                "output type sums to {type_total} but the domain has {domain_size} elements"
            ),
            AggregateError::DomainTooLarge { n, max } => write!(
                f,
                "exact algorithm limited to domains of size ≤ {max}, got {n}"
            ),
            AggregateError::NotFullRanking => {
                write!(f, "algorithm requires full-ranking inputs (no ties)")
            }
            AggregateError::UnknownVoter { id } => {
                write!(f, "voter {id} is not present in the dynamic profile")
            }
            AggregateError::TooManyVoters { limit } => {
                write!(f, "dynamic profile is full ({limit} voters)")
            }
            AggregateError::InvalidVoterId { id } => {
                write!(f, "voter id {id} is invalid for restore (duplicate or ≥ next_id)")
            }
            AggregateError::InvalidConstraintWindow {
                index,
                window,
                domain_size,
            } => write!(
                f,
                "constraint {index}: window {window} outside 1..={domain_size}"
            ),
            AggregateError::InvalidConstraintBounds {
                index,
                min,
                max,
                window,
            } => write!(
                f,
                "constraint {index}: bounds min {min}, max {max} invalid for window {window}"
            ),
            AggregateError::UnknownClass { index, class } => write!(
                f,
                "constraint {index} references class {class}, which no candidate carries"
            ),
            AggregateError::InfeasibleConstraints => {
                write!(f, "no permutation satisfies the class constraints")
            }
            AggregateError::InvalidWeights(fault) => write!(f, "invalid voter weights: {fault}"),
        }
    }
}

impl std::error::Error for AggregateError {}

impl From<CoreError> for AggregateError {
    fn from(e: CoreError) -> Self {
        match e {
            CoreError::DomainMismatch { left, right } => AggregateError::DomainMismatch {
                expected: left,
                found: right,
            },
            CoreError::TypeSizeMismatch {
                type_total,
                domain_size,
            } => AggregateError::TypeSizeMismatch {
                type_total,
                domain_size,
            },
            CoreError::InvalidK { k, domain_size } => AggregateError::InvalidK { k, domain_size },
            other => unreachable!("unexpected core error in aggregation: {other}"),
        }
    }
}

impl From<MetricsError> for AggregateError {
    fn from(e: MetricsError) -> Self {
        match e {
            MetricsError::DomainMismatch { left, right } => AggregateError::DomainMismatch {
                expected: left,
                found: right,
            },
            MetricsError::NotFullRanking => AggregateError::NotFullRanking,
            // A weight vector that does not cover the shared domain is
            // the same shape fault as a mismatched input ranking.
            MetricsError::WeightsLengthMismatch { weights, domain } => {
                AggregateError::DomainMismatch {
                    expected: domain,
                    found: weights,
                }
            }
            other => unreachable!("unexpected metrics error in aggregation: {other}"),
        }
    }
}

/// Checks a nonempty input slice sharing one domain; returns the domain
/// size.
pub(crate) fn check_inputs(
    inputs: &[bucketrank_core::BucketOrder],
) -> Result<usize, AggregateError> {
    let first = inputs.first().ok_or(AggregateError::NoInputs)?;
    let n = first.len();
    for s in &inputs[1..] {
        if s.len() != n {
            return Err(AggregateError::DomainMismatch {
                expected: n,
                found: s.len(),
            });
        }
    }
    Ok(n)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display() {
        assert!(AggregateError::NoInputs.to_string().contains("at least one"));
        assert!(AggregateError::DomainTooLarge { n: 12, max: 8 }
            .to_string()
            .contains("12"));
        assert!(AggregateError::UnknownVoter { id: 7 }
            .to_string()
            .contains("voter 7"));
        assert!(AggregateError::TooManyVoters { limit: 4 }
            .to_string()
            .contains('4'));
        assert!(AggregateError::InvalidConstraintWindow {
            index: 2,
            window: 9,
            domain_size: 5
        }
        .to_string()
        .contains("window 9"));
        assert!(AggregateError::InvalidConstraintBounds {
            index: 0,
            min: 3,
            max: 1,
            window: 4
        }
        .to_string()
        .contains("min 3"));
        assert!(AggregateError::UnknownClass { index: 1, class: 7 }
            .to_string()
            .contains("class 7"));
        assert!(AggregateError::InfeasibleConstraints
            .to_string()
            .contains("no permutation"));
    }

    #[test]
    fn check_inputs_helper() {
        use bucketrank_core::BucketOrder;
        assert_eq!(check_inputs(&[]), Err(AggregateError::NoInputs));
        let a = BucketOrder::trivial(3);
        let b = BucketOrder::trivial(4);
        assert_eq!(check_inputs(std::slice::from_ref(&a)), Ok(3));
        assert_eq!(
            check_inputs(&[a, b]),
            Err(AggregateError::DomainMismatch {
                expected: 3,
                found: 4
            })
        );
    }
}
