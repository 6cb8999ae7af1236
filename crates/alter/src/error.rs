//! Lex and parse errors.

use std::fmt;

/// What can go wrong while reading Alter-syntax text. Both kinds carry the
/// byte offset they point at.
#[derive(Clone, Debug, PartialEq)]
pub enum AlterError {
    /// Lexical error at a byte offset.
    Lex {
        /// Human-readable description.
        message: String,
        /// Byte offset into the source.
        offset: usize,
    },
    /// Structural parse error (unbalanced parens, stray token).
    Parse {
        /// Human-readable description.
        message: String,
        /// Byte offset into the source.
        offset: usize,
    },
}

impl AlterError {
    /// The byte offset this error points at.
    pub fn offset(&self) -> usize {
        match self {
            AlterError::Lex { offset, .. } | AlterError::Parse { offset, .. } => *offset,
        }
    }
}

impl fmt::Display for AlterError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AlterError::Lex { message, offset } => write!(f, "lex error at {offset}: {message}"),
            AlterError::Parse { message, offset } => {
                write!(f, "parse error at {offset}: {message}")
            }
        }
    }
}

impl std::error::Error for AlterError {}
