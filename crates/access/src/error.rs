//! Error type for the access layer.

use bucketrank_aggregate::median::WeightFault;
use std::fmt;

/// Errors produced by the access model and the fielded-search substrate.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum AccessError {
    /// No ranking sources were supplied.
    NoSources,
    /// Sources disagree on the domain size.
    DomainMismatch {
        /// Domain size of the first source.
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
    /// An attribute name was not found in the schema.
    UnknownAttribute {
        /// The attribute that was requested.
        name: String,
    },
    /// A row value does not match the declared attribute kind, or an
    /// order spec does not apply to the attribute's kind.
    TypeMismatch {
        /// The attribute involved.
        attribute: String,
        /// What was expected.
        expected: &'static str,
    },
    /// A row has the wrong number of values.
    RowArityMismatch {
        /// Number of values supplied.
        got: usize,
        /// Number of columns in the schema.
        expected: usize,
    },
    /// A float value was not finite (NaN/inf cannot be ranked).
    NonFiniteValue {
        /// The attribute involved.
        attribute: String,
    },
    /// Binning was requested on a spec that does not rank numerically.
    NonNumericBinning {
        /// The attribute involved.
        attribute: String,
    },
    /// A source-weight vector was rejected
    /// (`aggregate::median::weight_units`).
    InvalidWeights(WeightFault),
}

impl fmt::Display for AccessError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AccessError::NoSources => write!(f, "at least one ranking source is required"),
            AccessError::DomainMismatch { expected, found } => write!(
                f,
                "sources must share a domain (expected size {expected}, found {found})"
            ),
            AccessError::InvalidK { k, domain_size } => {
                write!(f, "k = {k} exceeds the domain size {domain_size}")
            }
            AccessError::UnknownAttribute { name } => {
                write!(f, "unknown attribute {name:?}")
            }
            AccessError::TypeMismatch {
                attribute,
                expected,
            } => write!(f, "attribute {attribute:?} is not {expected}"),
            AccessError::RowArityMismatch { got, expected } => {
                write!(f, "row has {got} values but the schema has {expected} columns")
            }
            AccessError::NonFiniteValue { attribute } => {
                write!(f, "attribute {attribute:?} contains a non-finite float")
            }
            AccessError::NonNumericBinning { attribute } => {
                write!(
                    f,
                    "binning applies to numeric specs only, but {attribute:?} ranks by text preference"
                )
            }
            AccessError::InvalidWeights(fault) => write!(f, "invalid source weights: {fault}"),
        }
    }
}

impl std::error::Error for AccessError {}

/// The input check every multi-source top-k algorithm shares (MEDRANK,
/// TA, NRA): at least one source, every source over the first one's
/// domain, and `k` within it. Takes the sources' domain sizes and
/// returns the shared one.
pub(crate) fn check_sources(
    sizes: impl IntoIterator<Item = usize>,
    k: usize,
) -> Result<usize, AccessError> {
    let mut sizes = sizes.into_iter();
    let n = sizes.next().ok_or(AccessError::NoSources)?;
    if let Some(found) = sizes.find(|&size| size != n) {
        return Err(AccessError::DomainMismatch { expected: n, found });
    }
    if k > n {
        return Err(AccessError::InvalidK { k, domain_size: n });
    }
    Ok(n)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display() {
        assert!(AccessError::UnknownAttribute {
            name: "zip".into()
        }
        .to_string()
        .contains("zip"));
        assert!(AccessError::RowArityMismatch {
            got: 2,
            expected: 3
        }
        .to_string()
        .contains("2 values"));
    }
}
