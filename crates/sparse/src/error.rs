//! Error type shared by the sparse substrate.

use std::fmt;

/// Errors produced while constructing, converting or reading sparse
/// matrices.
#[derive(Debug, Clone, PartialEq)]
pub enum SparseError {
    /// An index was outside the matrix dimensions.
    IndexOutOfBounds {
        /// Row index of the offending entry.
        row: usize,
        /// Column index of the offending entry.
        col: usize,
        /// Number of rows in the matrix.
        nrows: usize,
        /// Number of columns in the matrix.
        ncols: usize,
    },
    /// A CSR/CSC structural invariant was violated (unsorted or duplicate
    /// column indices, row-pointer not monotone, length mismatch, …).
    InvalidStructure(String),
    /// A permutation vector was not a bijection on `0..n`.
    InvalidPermutation(String),
    /// The operation requires a square matrix.
    NotSquare {
        /// Number of rows.
        nrows: usize,
        /// Number of columns.
        ncols: usize,
    },
    /// A zero (or numerically unusable) pivot was encountered.
    ZeroPivot {
        /// Row at which factorization broke down.
        row: usize,
    },
    /// The matrix is missing a structural diagonal entry required by the
    /// algorithm (ILU requires a full diagonal).
    MissingDiagonal {
        /// First row with no diagonal entry.
        row: usize,
    },
    /// An I/O or parse failure while reading/writing an external format.
    Io(String),
    /// Two operands had incompatible shapes.
    DimensionMismatch(String),
    /// A matrix's sparsity pattern differs from the pattern an analysis
    /// was built for (numeric refactorization requires an identical
    /// pattern).
    PatternMismatch(String),
    /// A non-finite (NaN or infinite) value where a finite number is
    /// required — hostile input files and poisoned matrices are rejected
    /// at the boundary rather than propagated into the kernels.
    NonFinite {
        /// Row index of the offending value.
        row: usize,
        /// Column index of the offending value.
        col: usize,
    },
    /// Factorization broke down and every recovery attempt was
    /// exhausted (see `ZeroPivotPolicy::ShiftRetry` in the core crate).
    Breakdown {
        /// Row at which the final attempt collapsed.
        row: usize,
        /// Number of numeric attempts performed (including the first).
        attempts: usize,
        /// Absolute diagonal shift applied on the final attempt.
        shift: f64,
    },
    /// A size or index does not fit the `u32` indices of a compact
    /// internal storage layout (for instance the triangular-solve layout
    /// of the ILU factors).
    IndexOverflow {
        /// The quantity that overflowed (e.g. `"n"` or `"nnz_lu"`).
        what: &'static str,
        /// Its value.
        value: usize,
    },
}

impl fmt::Display for SparseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SparseError::IndexOutOfBounds {
                row,
                col,
                nrows,
                ncols,
            } => write!(
                f,
                "entry ({row},{col}) out of bounds for {nrows}x{ncols} matrix"
            ),
            SparseError::InvalidStructure(msg) => write!(f, "invalid sparse structure: {msg}"),
            SparseError::InvalidPermutation(msg) => write!(f, "invalid permutation: {msg}"),
            SparseError::NotSquare { nrows, ncols } => {
                write!(f, "operation requires a square matrix, got {nrows}x{ncols}")
            }
            SparseError::ZeroPivot { row } => write!(f, "zero pivot at row {row}"),
            SparseError::MissingDiagonal { row } => {
                write!(f, "missing structural diagonal entry at row {row}")
            }
            SparseError::Io(msg) => write!(f, "i/o error: {msg}"),
            SparseError::DimensionMismatch(msg) => write!(f, "dimension mismatch: {msg}"),
            SparseError::PatternMismatch(msg) => write!(f, "sparsity pattern mismatch: {msg}"),
            SparseError::NonFinite { row, col } => {
                write!(f, "non-finite value at entry ({row},{col})")
            }
            SparseError::Breakdown {
                row,
                attempts,
                shift,
            } => write!(
                f,
                "factorization breakdown at row {row} after {attempts} attempt(s) \
                 (final diagonal shift {shift:e})"
            ),
            SparseError::IndexOverflow { what, value } => {
                write!(f, "{what} = {value} exceeds the u32 index range")
            }
        }
    }
}

impl std::error::Error for SparseError {}

impl From<std::io::Error> for SparseError {
    fn from(e: std::io::Error) -> Self {
        SparseError::Io(e.to_string())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages_are_informative() {
        let e = SparseError::IndexOutOfBounds {
            row: 5,
            col: 7,
            nrows: 3,
            ncols: 3,
        };
        assert!(e.to_string().contains("(5,7)"));
        assert!(e.to_string().contains("3x3"));
        let e = SparseError::ZeroPivot { row: 42 };
        assert!(e.to_string().contains("42"));
        let e = SparseError::MissingDiagonal { row: 3 };
        assert!(e.to_string().contains("row 3"));
        let e = SparseError::NonFinite { row: 1, col: 2 };
        assert!(e.to_string().contains("(1,2)"));
        let e = SparseError::Breakdown {
            row: 9,
            attempts: 4,
            shift: 1e-2,
        };
        assert!(e.to_string().contains("row 9"));
        assert!(e.to_string().contains("4 attempt"));
        let e = SparseError::IndexOverflow {
            what: "nnz_lu",
            value: 7,
        };
        assert!(e.to_string().contains("nnz_lu = 7 exceeds the u32"));
    }

    #[test]
    fn io_error_converts() {
        let io = std::io::Error::new(std::io::ErrorKind::NotFound, "gone");
        let e: SparseError = io.into();
        assert!(matches!(e, SparseError::Io(_)));
    }
}
