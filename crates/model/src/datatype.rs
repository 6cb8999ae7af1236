//! The **data type editor**: data types exchanged over data-flow arcs.
//!
//! In SAGE the data type editor "is used to define the various data types and
//! striping and parallelization relationships for the different functions".
//! The type determines the byte size of logical buffers; the striping
//! relationship lives on the ports ([`crate::port::Striping`]) and is
//! interpreted against the type's shape.

use std::fmt;

/// Primitive scalar kinds.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum ScalarKind {
    /// 32-bit IEEE float.
    F32,
    /// 64-bit IEEE float.
    F64,
    /// 32-bit signed integer.
    I32,
    /// 16-bit signed integer (common in sensor front-ends).
    I16,
    /// 8-bit unsigned integer.
    U8,
}

impl ScalarKind {
    /// Size in bytes.
    pub fn size_bytes(self) -> usize {
        match self {
            ScalarKind::F32 | ScalarKind::I32 => 4,
            ScalarKind::F64 => 8,
            ScalarKind::I16 => 2,
            ScalarKind::U8 => 1,
        }
    }
}

/// A data type definable in the data type editor.
#[derive(Clone, Debug, PartialEq)]
pub enum DataType {
    /// A primitive scalar.
    Scalar(ScalarKind),
    /// A single-precision complex sample (the benchmark element type).
    Complex,
    /// A dense multi-dimensional array of an element type; `shape` is
    /// outermost-first (e.g. `[rows, cols]` for a row-major matrix).
    Array {
        /// Element type.
        elem: Box<DataType>,
        /// Extent of each dimension, outermost first.
        shape: Vec<usize>,
    },
    /// A named record of fields (message headers, detection reports, ...).
    Record(Vec<(String, DataType)>),
}

impl DataType {
    /// Convenience constructor: a `rows x cols` complex matrix.
    pub fn complex_matrix(rows: usize, cols: usize) -> DataType {
        DataType::Array {
            elem: Box::new(DataType::Complex),
            shape: vec![rows, cols],
        }
    }

    /// Total size in bytes (packed layout, no padding).
    pub fn size_bytes(&self) -> usize {
        match self {
            DataType::Scalar(k) => k.size_bytes(),
            DataType::Complex => 8,
            DataType::Array { elem, shape } => elem.size_bytes() * shape.iter().product::<usize>(),
            DataType::Record(fields) => fields.iter().map(|(_, t)| t.size_bytes()).sum(),
        }
    }

    /// Total number of leaf elements.
    pub fn element_count(&self) -> usize {
        match self {
            DataType::Scalar(_) | DataType::Complex => 1,
            DataType::Array { elem, shape } => {
                elem.element_count() * shape.iter().product::<usize>()
            }
            DataType::Record(fields) => fields.iter().map(|(_, t)| t.element_count()).sum(),
        }
    }

    /// The array shape if this is an array type.
    pub fn shape(&self) -> Option<&[usize]> {
        match self {
            DataType::Array { shape, .. } => Some(shape),
            _ => None,
        }
    }

    /// Extent of dimension `dim` (arrays only).
    pub fn dim(&self, dim: usize) -> Option<usize> {
        self.shape().and_then(|s| s.get(dim).copied())
    }

    /// Whether a striped distribution along `dim` into `parts` even pieces is
    /// well-defined for this type: the type must be an array, the dimension
    /// must exist, and the extent must divide evenly.
    ///
    /// This is the model-level check the Designer performs before accepting a
    /// striped connection; the runtime re-checks at buffer-build time.
    pub fn stripeable(&self, dim: usize, parts: usize) -> bool {
        if parts == 0 {
            return false;
        }
        match self.dim(dim) {
            Some(extent) => extent % parts == 0,
            None => false,
        }
    }

    /// Size in bytes of one stripe when split along `dim` into `parts`.
    ///
    /// # Panics
    /// Panics if [`DataType::stripeable`] is false for these arguments.
    pub fn stripe_bytes(&self, dim: usize, parts: usize) -> usize {
        assert!(
            self.stripeable(dim, parts),
            "{self:?} cannot be striped along dim {dim} into {parts} parts"
        );
        self.size_bytes() / parts
    }
}

impl fmt::Display for DataType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DataType::Scalar(k) => write!(f, "{k:?}"),
            DataType::Complex => write!(f, "Complex32"),
            DataType::Array { elem, shape } => {
                write!(f, "{elem}[")?;
                for (i, d) in shape.iter().enumerate() {
                    if i > 0 {
                        write!(f, "x")?;
                    }
                    write!(f, "{d}")?;
                }
                write!(f, "]")
            }
            DataType::Record(fields) => {
                write!(f, "{{")?;
                for (i, (name, t)) in fields.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{name}: {t}")?;
                }
                write!(f, "}}")
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalar_sizes() {
        assert_eq!(DataType::Scalar(ScalarKind::F32).size_bytes(), 4);
        assert_eq!(DataType::Scalar(ScalarKind::F64).size_bytes(), 8);
        assert_eq!(DataType::Scalar(ScalarKind::I16).size_bytes(), 2);
        assert_eq!(DataType::Scalar(ScalarKind::U8).size_bytes(), 1);
        assert_eq!(DataType::Complex.size_bytes(), 8);
    }

    #[test]
    fn matrix_size_and_count() {
        let m = DataType::complex_matrix(1024, 1024);
        assert_eq!(m.size_bytes(), 1024 * 1024 * 8);
        assert_eq!(m.element_count(), 1024 * 1024);
        assert_eq!(m.shape(), Some(&[1024usize, 1024][..]));
    }

    #[test]
    fn record_size_is_sum() {
        let r = DataType::Record(vec![
            ("hdr".into(), DataType::Scalar(ScalarKind::I32)),
            (
                "payload".into(),
                DataType::Array {
                    elem: Box::new(DataType::Complex),
                    shape: vec![4],
                },
            ),
        ]);
        assert_eq!(r.size_bytes(), 4 + 32);
        assert_eq!(r.element_count(), 5);
    }

    #[test]
    fn striping_rules() {
        let m = DataType::complex_matrix(8, 6);
        assert!(m.stripeable(0, 4)); // 8 rows / 4 parts
        assert!(m.stripeable(1, 3)); // 6 cols / 3 parts
        assert!(!m.stripeable(0, 3)); // 8 % 3 != 0
        assert!(!m.stripeable(2, 2)); // no dim 2
        assert!(!m.stripeable(0, 0));
        assert!(!DataType::Complex.stripeable(0, 2)); // scalars aren't arrays
        assert_eq!(m.stripe_bytes(0, 4), 8 * 6 * 8 / 4);
    }

    #[test]
    #[should_panic(expected = "cannot be striped")]
    fn stripe_bytes_rejects_uneven() {
        DataType::complex_matrix(7, 3).stripe_bytes(0, 2);
    }

    #[test]
    fn display_forms() {
        assert_eq!(DataType::complex_matrix(2, 3).to_string(), "Complex32[2x3]");
        assert_eq!(DataType::Scalar(ScalarKind::F32).to_string(), "F32");
    }
}
