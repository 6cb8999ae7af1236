//! # sage-alter
//!
//! **Alter** is "a programming language similar to Lisp in its syntax and
//! style, which provides a direct interface to the contents of a SAGE
//! model" (paper §2); the real SAGE glue-code generator was written in it.
//! This reproduction keeps Alter's *syntax*: Designer model files are
//! Alter-syntax s-expressions, and this crate is the reader every model
//! file goes through exactly once — a lexer, a parser, and one spanned
//! tree ([`Ast`]) with its accessors and printer. Nothing here evaluates:
//! the generator is native Rust (`sage_core::codegen`), a documented
//! substitution.
//!
//! ```
//! use sage_alter::parse_program;
//! let src = "(model \"m\" (threads 4))";
//! let forms = parse_program(src).unwrap();
//! assert_eq!(forms[0].head_symbol(), Some("model"));
//! let name = &forms[0].as_list().unwrap()[1];
//! assert_eq!(&src[name.span.start..name.span.end], "\"m\"");
//! assert_eq!(format!("{:#}", forms[0]), src);
//! ```

#![warn(missing_docs)]

pub mod error;
pub mod lexer;
pub mod parser;
pub mod span;

pub use error::AlterError;
pub use parser::{parse_program, Ast, AstNode};
pub use span::{line_col_at, Span};
