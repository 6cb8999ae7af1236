//! Tokenizer for Alter source text.

use crate::error::AlterError;
use crate::span::Span;

/// A lexical token.
#[derive(Clone, Debug, PartialEq)]
pub enum Token {
    /// `(`
    LParen,
    /// `)`
    RParen,
    /// `'` (quote shorthand)
    Quote,
    /// Integer literal.
    Int(i64),
    /// Float literal.
    Float(f64),
    /// Double-quoted string literal (escapes `\n`, `\t`, `\"`, `\\` handled).
    Str(String),
    /// Any other atom (identifier, operator, `#t`, `#f`).
    Symbol(String),
}

/// A token together with the byte range it was lexed from.
#[derive(Clone, Debug, PartialEq)]
pub struct SpannedToken {
    /// The token itself.
    pub token: Token,
    /// Source byte range covered by the token.
    pub span: Span,
}

/// Tokenizes `src`, skipping whitespace and `;` line comments and keeping
/// the byte span of every token.
pub fn lex(src: &str) -> Result<Vec<SpannedToken>, AlterError> {
    let bytes = src.as_bytes();
    let mut out = Vec::new();
    let mut i = 0;
    let mut push = |token: Token, start: usize, end: usize| {
        out.push(SpannedToken {
            token,
            span: Span::new(start, end),
        });
    };
    while i < bytes.len() {
        let c = bytes[i] as char;
        match c {
            c if c.is_whitespace() => i += 1,
            ';' => {
                while i < bytes.len() && bytes[i] != b'\n' {
                    i += 1;
                }
            }
            '(' => {
                push(Token::LParen, i, i + 1);
                i += 1;
            }
            ')' => {
                push(Token::RParen, i, i + 1);
                i += 1;
            }
            '\'' => {
                push(Token::Quote, i, i + 1);
                i += 1;
            }
            '"' => {
                let start = i;
                i += 1;
                let mut s = String::new();
                loop {
                    if i >= bytes.len() {
                        return Err(AlterError::Lex {
                            message: "unterminated string".into(),
                            offset: start,
                        });
                    }
                    match bytes[i] {
                        b'"' => {
                            i += 1;
                            break;
                        }
                        b'\\' => {
                            i += 1;
                            if i >= bytes.len() {
                                return Err(AlterError::Lex {
                                    message: "dangling escape".into(),
                                    offset: i,
                                });
                            }
                            s.push(match bytes[i] {
                                b'n' => '\n',
                                b't' => '\t',
                                b'"' => '"',
                                b'\\' => '\\',
                                other => {
                                    return Err(AlterError::Lex {
                                        message: format!("bad escape `\\{}`", other as char),
                                        offset: i,
                                    })
                                }
                            });
                            i += 1;
                        }
                        b => {
                            s.push(b as char);
                            i += 1;
                        }
                    }
                }
                push(Token::Str(s), start, i);
            }
            _ => {
                let start = i;
                while i < bytes.len() {
                    let b = bytes[i] as char;
                    if b.is_whitespace() || b == '(' || b == ')' || b == '"' || b == ';' {
                        break;
                    }
                    i += 1;
                }
                let atom = &src[start..i];
                push(classify_atom(atom), start, i);
            }
        }
    }
    Ok(out)
}

fn classify_atom(atom: &str) -> Token {
    if let Ok(n) = atom.parse::<i64>() {
        return Token::Int(n);
    }
    // Floats must contain a digit; bare `.` or `-` stay symbols.
    if atom.chars().any(|c| c.is_ascii_digit()) {
        if let Ok(x) = atom.parse::<f64>() {
            return Token::Float(x);
        }
    }
    Token::Symbol(atom.to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tokens(src: &str) -> Result<Vec<Token>, AlterError> {
        Ok(lex(src)?.into_iter().map(|t| t.token).collect())
    }

    #[test]
    fn basic_tokens() {
        let t = tokens("(+ 1 2.5 \"hi\" foo)").unwrap();
        assert_eq!(
            t,
            vec![
                Token::LParen,
                Token::Symbol("+".into()),
                Token::Int(1),
                Token::Float(2.5),
                Token::Str("hi".into()),
                Token::Symbol("foo".into()),
                Token::RParen,
            ]
        );
    }

    #[test]
    fn comments_skipped() {
        let t = tokens("1 ; the rest is ignored (even parens\n2").unwrap();
        assert_eq!(t, vec![Token::Int(1), Token::Int(2)]);
    }

    #[test]
    fn string_escapes() {
        let t = tokens(r#""a\nb\t\"\\""#).unwrap();
        assert_eq!(t, vec![Token::Str("a\nb\t\"\\".into())]);
    }

    #[test]
    fn unterminated_string_errors() {
        assert!(matches!(tokens("\"abc"), Err(AlterError::Lex { .. })));
    }

    #[test]
    fn negative_numbers_and_minus_symbol() {
        assert_eq!(tokens("-5").unwrap(), vec![Token::Int(-5)]);
        assert_eq!(tokens("-").unwrap(), vec![Token::Symbol("-".into())]);
        assert_eq!(tokens("-1.5e3").unwrap(), vec![Token::Float(-1500.0)]);
    }

    #[test]
    fn quote_shorthand() {
        let t = tokens("'x").unwrap();
        assert_eq!(t, vec![Token::Quote, Token::Symbol("x".into())]);
    }

    #[test]
    fn spans_cover_token_text() {
        let src = "(add 12 \"ab\")";
        let t = lex(src).unwrap();
        let texts: Vec<&str> = t
            .iter()
            .map(|st| &src[st.span.start..st.span.end])
            .collect();
        assert_eq!(texts, vec!["(", "add", "12", "\"ab\"", ")"]);
    }

    #[test]
    fn spans_skip_comments_and_whitespace() {
        let src = "; c\n  foo";
        let t = lex(src).unwrap();
        assert_eq!(t.len(), 1);
        assert_eq!(t[0].span, Span::new(6, 9));
    }
}
