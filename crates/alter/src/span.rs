//! Byte-offset source spans and line/column resolution.
//!
//! Spans are half-open byte ranges into the original source text. They are
//! produced by the lexer, kept on every form by the parser
//! ([`crate::parser::parse_program`]), and consumed by the model loader and
//! the `sage-lint` diagnostics engine (to render rustc-style caret
//! diagnostics).

use std::fmt;

/// A half-open byte range `[start, end)` into a source string.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub struct Span {
    /// Byte offset of the first byte covered.
    pub start: usize,
    /// Byte offset one past the last byte covered.
    pub end: usize,
}

impl Span {
    /// A span covering `[start, end)`.
    pub fn new(start: usize, end: usize) -> Span {
        Span { start, end }
    }

    /// A zero-width span at `offset` (used for end-of-input errors).
    pub fn point(offset: usize) -> Span {
        Span {
            start: offset,
            end: offset,
        }
    }

    /// The smallest span covering both `self` and `other`.
    pub fn merge(self, other: Span) -> Span {
        Span {
            start: self.start.min(other.start),
            end: self.end.max(other.end),
        }
    }

    /// Resolves the span start to a 1-based `(line, column)` in `src`.
    ///
    /// Columns count Unicode scalar values, matching how editors display
    /// cursor positions. Offsets past the end of `src` resolve to one past
    /// the last character.
    pub fn line_col(&self, src: &str) -> (usize, usize) {
        line_col_at(src, self.start)
    }
}

impl fmt::Display for Span {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}..{}", self.start, self.end)
    }
}

/// Resolves a byte `offset` in `src` to a 1-based `(line, column)`.
pub fn line_col_at(src: &str, offset: usize) -> (usize, usize) {
    let offset = offset.min(src.len());
    let before = &src[..offset];
    let line = before.bytes().filter(|&b| b == b'\n').count() + 1;
    let line_start = before.rfind('\n').map(|p| p + 1).unwrap_or(0);
    let col = src[line_start..offset].chars().count() + 1;
    (line, col)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn line_col_resolution() {
        let src = "abc\ndef\n(g)";
        assert_eq!(line_col_at(src, 0), (1, 1));
        assert_eq!(line_col_at(src, 2), (1, 3));
        assert_eq!(line_col_at(src, 4), (2, 1));
        assert_eq!(line_col_at(src, 8), (3, 1));
        assert_eq!(line_col_at(src, 10), (3, 3));
        // Past the end clamps.
        assert_eq!(line_col_at(src, 999), (3, 4));
    }

    #[test]
    fn merge_covers_both() {
        let a = Span::new(3, 7);
        let b = Span::new(5, 12);
        assert_eq!(a.merge(b), Span::new(3, 12));
    }
}
