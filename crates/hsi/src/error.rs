//! Error type shared across the hyperspectral substrate.

use std::fmt;

/// Errors produced by cube construction, solvers and classification.
#[derive(Debug, Clone, PartialEq)]
pub enum HsiError {
    /// The supplied buffer length does not match `width * height * bands`.
    DimensionMismatch {
        /// Expected element count.
        expected: usize,
        /// Actual element count supplied.
        actual: usize,
    },
    /// A requested spatial/spectral region falls outside the cube.
    OutOfBounds {
        /// Human-readable description of the offending access.
        what: String,
    },
    /// A cube dimension was zero.
    EmptyDimension {
        /// Which dimension (e.g. "width").
        which: &'static str,
    },
    /// A linear system was singular or not positive definite.
    SingularMatrix,
    /// Operands of a binary operation had incompatible shapes.
    ShapeMismatch {
        /// Left operand shape: `(rows, cols)` of a matrix, `(width, height)`
        /// of an image.
        left: (usize, usize),
        /// Right operand shape, in the left operand's order.
        right: (usize, usize),
    },
    /// Classification was requested with an invalid class count.
    InvalidClassCount {
        /// Requested number of classes.
        requested: usize,
        /// Number of pixels available.
        available: usize,
    },
    /// A structuring element had an even side or zero size.
    InvalidStructuringElement {
        /// Human-readable reason.
        reason: String,
    },
}

impl fmt::Display for HsiError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            HsiError::DimensionMismatch { expected, actual } => write!(
                f,
                "buffer length {actual} does not match cube dimensions (expected {expected})"
            ),
            HsiError::OutOfBounds { what } => write!(f, "out of bounds: {what}"),
            HsiError::EmptyDimension { which } => write!(f, "cube dimension `{which}` is zero"),
            HsiError::SingularMatrix => write!(f, "matrix is singular or not positive definite"),
            HsiError::ShapeMismatch { left, right } => write!(
                f,
                "shape mismatch: {}x{} vs {}x{}",
                left.0, left.1, right.0, right.1
            ),
            HsiError::InvalidClassCount {
                requested,
                available,
            } => write!(
                f,
                "invalid class count {requested} (only {available} pixels available)"
            ),
            HsiError::InvalidStructuringElement { reason } => {
                write!(f, "invalid structuring element: {reason}")
            }
        }
    }
}

impl std::error::Error for HsiError {}

/// Convenient result alias for this crate.
pub type Result<T> = std::result::Result<T, HsiError>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages_are_informative() {
        let e = HsiError::DimensionMismatch {
            expected: 10,
            actual: 4,
        };
        assert!(e.to_string().contains("10"));
        assert!(e.to_string().contains('4'));

        let e = HsiError::ShapeMismatch {
            left: (2, 3),
            right: (4, 5),
        };
        assert!(e.to_string().contains("2x3"));
        assert!(e.to_string().contains("4x5"));

        let e = HsiError::EmptyDimension { which: "width" };
        assert!(e.to_string().contains("width"));
    }

    #[test]
    fn error_is_std_error() {
        fn assert_err<E: std::error::Error>() {}
        assert_err::<HsiError>();
    }
}
