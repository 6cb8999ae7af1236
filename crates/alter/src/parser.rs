//! S-expression parser producing the one spanned tree, [`Ast`], and the
//! tree's accessors and printer.

use crate::error::AlterError;
use crate::lexer::{lex, SpannedToken, Token};
use crate::span::Span;
use std::fmt;

/// A parsed form annotated with its source byte range.
#[derive(Clone, Debug, PartialEq)]
pub struct Ast {
    /// The form itself.
    pub node: AstNode,
    /// Byte range of the whole form, including delimiters.
    pub span: Span,
}

/// The shape of a parsed form.
#[derive(Clone, Debug, PartialEq)]
pub enum AstNode {
    /// `nil`
    Nil,
    /// `#t` / `#f`
    Bool(bool),
    /// Integer literal.
    Int(i64),
    /// Float literal.
    Float(f64),
    /// String literal.
    Str(String),
    /// Symbol.
    Symbol(String),
    /// `( ... )` — also produced by the `'x` quote shorthand.
    List(Vec<Ast>),
}

impl Ast {
    /// The head symbol if this is a non-empty list starting with a symbol.
    pub fn head_symbol(&self) -> Option<&str> {
        self.as_list()?.first()?.as_symbol()
    }

    /// The items of a list; `nil` is the empty list.
    pub fn as_list(&self) -> Option<&[Ast]> {
        match &self.node {
            AstNode::List(items) => Some(items),
            AstNode::Nil => Some(&[]),
            _ => None,
        }
    }

    /// The contents of a string literal.
    pub fn as_str(&self) -> Option<&str> {
        match &self.node {
            AstNode::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The name of a symbol.
    pub fn as_symbol(&self) -> Option<&str> {
        match &self.node {
            AstNode::Symbol(s) => Some(s),
            _ => None,
        }
    }

    /// An integer; a float qualifies only when it is integral.
    pub fn as_i64(&self) -> Option<i64> {
        match self.node {
            AstNode::Int(i) => Some(i),
            AstNode::Float(x) if x.fract() == 0.0 => Some(x as i64),
            _ => None,
        }
    }

    /// A number, widened to `f64`.
    pub fn as_f64(&self) -> Option<f64> {
        match self.node {
            AstNode::Int(i) => Some(i as f64),
            AstNode::Float(x) => Some(x),
            _ => None,
        }
    }
}

/// The printer. `{}` is the display form error messages quote (string
/// contents bare, `nil` as `()`); `{:#}` is the written form, which
/// [`parse_program`] reads back to the same tree: strings quoted and
/// escaped, `nil` by name, floats never printed as integers.
impl fmt::Display for Ast {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let written = f.alternate();
        match &self.node {
            AstNode::Nil if written => write!(f, "nil"),
            AstNode::Nil => write!(f, "()"),
            AstNode::Bool(true) => write!(f, "#t"),
            AstNode::Bool(false) => write!(f, "#f"),
            AstNode::Int(i) => write!(f, "{i}"),
            AstNode::Float(x) if written => write!(f, "{x:?}"),
            AstNode::Float(x) if x.fract() == 0.0 && x.abs() < 1e15 => write!(f, "{x:.1}"),
            AstNode::Float(x) => write!(f, "{x}"),
            AstNode::Str(s) if written => {
                write!(f, "\"")?;
                for c in s.chars() {
                    match c {
                        '\n' => write!(f, "\\n")?,
                        '\t' => write!(f, "\\t")?,
                        '"' | '\\' => write!(f, "\\{c}")?,
                        c => write!(f, "{c}")?,
                    }
                }
                write!(f, "\"")
            }
            AstNode::Str(s) | AstNode::Symbol(s) => write!(f, "{s}"),
            AstNode::List(items) => {
                write!(f, "(")?;
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        write!(f, " ")?;
                    }
                    fmt::Display::fmt(item, f)?;
                }
                write!(f, ")")
            }
        }
    }
}

/// Parses a whole source text: a sequence of top-level forms, each keeping
/// the byte span of every sub-form.
pub fn parse_program(src: &str) -> Result<Vec<Ast>, AlterError> {
    let tokens = lex(src)?;
    let mut pos = 0;
    let mut forms = Vec::new();
    while pos < tokens.len() {
        let (a, next) = parse_form(&tokens, pos, src.len())?;
        forms.push(a);
        pos = next;
    }
    Ok(forms)
}

/// Parses a single form, returning it and the index of the next token.
fn parse_form(
    tokens: &[SpannedToken],
    pos: usize,
    src_len: usize,
) -> Result<(Ast, usize), AlterError> {
    let Some(st) = tokens.get(pos) else {
        return Err(AlterError::Parse {
            message: "unexpected end of input".into(),
            offset: tokens.last().map(|t| t.span.end).unwrap_or(src_len),
        });
    };
    let span = st.span;
    match &st.token {
        Token::RParen => Err(AlterError::Parse {
            message: "unexpected `)`".into(),
            offset: span.start,
        }),
        Token::Quote => {
            let (inner, next) = parse_form(tokens, pos + 1, src_len)?;
            let whole = span.merge(inner.span);
            let quote_sym = Ast {
                node: AstNode::Symbol("quote".into()),
                span,
            };
            Ok((
                Ast {
                    node: AstNode::List(vec![quote_sym, inner]),
                    span: whole,
                },
                next,
            ))
        }
        Token::LParen => {
            let mut items = Vec::new();
            let mut p = pos + 1;
            loop {
                match tokens.get(p) {
                    None => {
                        return Err(AlterError::Parse {
                            message: "unclosed `(`".into(),
                            offset: span.start,
                        })
                    }
                    Some(st) if st.token == Token::RParen => {
                        return Ok((
                            Ast {
                                node: AstNode::List(items),
                                span: span.merge(st.span),
                            },
                            p + 1,
                        ));
                    }
                    _ => {
                        let (a, next) = parse_form(tokens, p, src_len)?;
                        items.push(a);
                        p = next;
                    }
                }
            }
        }
        Token::Int(i) => Ok((
            Ast {
                node: AstNode::Int(*i),
                span,
            },
            pos + 1,
        )),
        Token::Float(x) => Ok((
            Ast {
                node: AstNode::Float(*x),
                span,
            },
            pos + 1,
        )),
        Token::Str(s) => Ok((
            Ast {
                node: AstNode::Str(s.clone()),
                span,
            },
            pos + 1,
        )),
        Token::Symbol(s) => {
            let node = match s.as_str() {
                "#t" => AstNode::Bool(true),
                "#f" => AstNode::Bool(false),
                "nil" => AstNode::Nil,
                _ => AstNode::Symbol(s.clone()),
            };
            Ok((Ast { node, span }, pos + 1))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_nested_lists() {
        let forms = parse_program("(a (b 1) \"s\")").unwrap();
        assert_eq!(forms.len(), 1);
        assert_eq!(forms[0].to_string(), "(a (b 1) s)");
        assert_eq!(format!("{:#}", forms[0]), "(a (b 1) \"s\")");
    }

    #[test]
    fn parses_multiple_top_level_forms() {
        let forms = parse_program("1 2 (3)").unwrap();
        assert_eq!(forms.len(), 3);
    }

    #[test]
    fn quote_expands() {
        let forms = parse_program("'(1 2)").unwrap();
        assert_eq!(forms[0].to_string(), "(quote (1 2))");
    }

    #[test]
    fn literals() {
        let forms = parse_program("#t #f nil").unwrap();
        assert_eq!(forms[0].node, AstNode::Bool(true));
        assert_eq!(forms[1].node, AstNode::Bool(false));
        assert_eq!(forms[2].node, AstNode::Nil);
    }

    #[test]
    fn accessors_coerce_numbers_and_nil() {
        let forms = parse_program("3 2.0 2.5 \"x\" nil (a)").unwrap();
        assert_eq!(forms[0].as_f64(), Some(3.0));
        assert_eq!(forms[1].as_i64(), Some(2));
        assert_eq!(forms[2].as_i64(), None);
        assert_eq!(forms[3].as_f64(), None);
        assert_eq!(forms[3].as_str(), Some("x"));
        assert_eq!(forms[4].as_list().map(<[Ast]>::len), Some(0));
        assert_eq!(forms[5].head_symbol(), Some("a"));
        assert_eq!(forms[0].as_list(), None);
    }

    #[test]
    fn display_and_written_forms() {
        let forms = parse_program("(1 a 2.0 #t nil \"q\\\"\\\\\") 1e15").unwrap();
        assert_eq!(forms[0].to_string(), "(1 a 2.0 #t () q\"\\)");
        assert_eq!(format!("{:#}", forms[0]), "(1 a 2.0 #t nil \"q\\\"\\\\\")");
        // The display form of a large integral float reads back as an
        // integer; the written form does not.
        assert_eq!(forms[1].to_string(), "1000000000000000");
        assert_eq!(format!("{:#}", forms[1]), "1000000000000000.0");
    }

    #[test]
    fn errors_on_unbalanced() {
        assert!(parse_program("(a (b)").is_err());
        assert!(parse_program(")").is_err());
        assert!(parse_program("'").is_err());
    }

    #[test]
    fn parse_errors_carry_offsets() {
        assert_eq!(parse_program("  )").unwrap_err().offset(), 2);
        assert_eq!(parse_program("(a (b)").unwrap_err().offset(), 0);
        assert!(matches!(
            parse_program("(a \"b"),
            Err(AlterError::Lex { offset: 3, .. })
        ));
    }

    #[test]
    fn spans_cover_whole_forms() {
        let src = "(a (b 1))\n42";
        let forms = parse_program(src).unwrap();
        assert_eq!(&src[forms[0].span.start..forms[0].span.end], "(a (b 1))");
        assert_eq!(&src[forms[1].span.start..forms[1].span.end], "42");
        // Inner form `(b 1)` keeps its own span.
        let items = forms[0].as_list().expect("list");
        assert_eq!(&src[items[1].span.start..items[1].span.end], "(b 1)");
    }

    #[test]
    fn quote_shorthand_span_includes_tick() {
        let src = "'(1 2)";
        let forms = parse_program(src).unwrap();
        assert_eq!(forms[0].span, Span::new(0, 6));
    }
}
