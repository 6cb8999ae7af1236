//! Maps model entities back to source locations.
//!
//! Model files are Alter-syntax s-expressions, so the reader's spanned
//! tree gives us byte ranges for every block and port name. The index keys
//! blocks by their *flattened* dotted name (`stage.fft`), matching the
//! names the model checks and the glue program report.

use sage_alter::{Ast, Span};
use std::collections::HashMap;

/// Source spans of the names declared in a model file.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct ModelSpans {
    /// Flattened block name → span of the name literal.
    pub blocks: HashMap<String, Span>,
    /// (flattened block name, port name) → span of the port-name literal.
    pub ports: HashMap<(String, String), Span>,
}

impl ModelSpans {
    /// Indexes the forms of a parsed model file — the same forms the loader
    /// builds the model from, so a file is read once.
    pub fn index(forms: &[Ast]) -> ModelSpans {
        let mut spans = ModelSpans::default();
        for f in forms {
            spans.walk_model(f, "");
        }
        spans
    }

    /// Span of a block name, falling back through dotted prefixes so that
    /// `stage.fft[3]`-style task names still resolve to `stage.fft`.
    pub fn block(&self, name: &str) -> Option<Span> {
        let base = name.split('[').next().unwrap_or(name);
        self.blocks.get(base).copied()
    }

    /// Span of a port name on a (flattened) block.
    pub fn port(&self, block: &str, port: &str) -> Option<Span> {
        self.ports
            .get(&(block.to_string(), port.to_string()))
            .copied()
    }

    /// Walks `form` if it is a `(model ...)`; anything else is skipped.
    fn walk_model(&mut self, form: &Ast, prefix: &str) {
        if form.head_symbol() != Some("model") {
            return;
        }
        for block in form.as_list().unwrap_or_default().iter().skip(2) {
            if block.head_symbol() == Some("block") {
                self.walk_block(block, prefix);
            }
        }
    }

    fn walk_block(&mut self, block: &Ast, prefix: &str) {
        let items = block.as_list().unwrap_or_default();
        let Some(name_ast) = items.get(1) else {
            return;
        };
        let Some(name) = name_ast.as_str() else {
            return;
        };
        let full = if prefix.is_empty() {
            name.to_string()
        } else {
            format!("{prefix}.{name}")
        };
        // A hierarchical block disappears during flattening, but record its
        // own span too: boundary-port errors name the hierarchical block.
        self.blocks.insert(full.clone(), name_ast.span);
        for form in items.iter().skip(2) {
            let parts = form.as_list().unwrap_or_default();
            match form.head_symbol() {
                Some("port") => {
                    if let Some(pn) = parts.get(2) {
                        if let Some(pname) = pn.as_str() {
                            let key = (full.clone(), pname.to_string());
                            self.ports.insert(key, pn.span);
                        }
                    }
                }
                Some("hierarchical") => {
                    if let Some(sub) = parts.get(1) {
                        self.walk_model(sub, &full);
                    }
                }
                _ => {}
            }
        }
    }
}

#[cfg(test)]
mod tests {
    // The tests index hand-parsed forms directly.
    #![allow(clippy::disallowed_methods)]

    use super::*;

    const SRC: &str = r#"; model
(model "m"
  (block "src" (source 4)
    (port out "out" (array (complex) 8 8) (striped 0)))
  (block "stage" (hierarchical
      (model "impl"
        (block "fft" (primitive "isspl.fft_rows" 4 (cost 1.0 2.0))
          (port in "in" (array (complex) 8 8) (striped 0))
          (port out "out" (array (complex) 8 8) (striped 0)))))
    (port in "in" (array (complex) 8 8) (striped 0))
    (port out "out" (array (complex) 8 8) (striped 0)))
  (connect "src" "out" "stage" "in"))
"#;

    fn index(src: &str) -> ModelSpans {
        ModelSpans::index(&sage_alter::parse_program(src).expect("parses"))
    }

    #[test]
    fn indexes_flat_and_nested_blocks() {
        let spans = index(SRC);
        let b = spans.block("src").unwrap();
        assert_eq!(&SRC[b.start..b.end], "\"src\"");
        let nested = spans.block("stage.fft").unwrap();
        assert_eq!(&SRC[nested.start..nested.end], "\"fft\"");
        // Task names resolve through the bracket suffix.
        assert_eq!(spans.block("stage.fft[3]"), Some(nested));
        let p = spans.port("stage.fft", "in").unwrap();
        assert_eq!(&SRC[p.start..p.end], "\"in\"");
        assert!(spans.block("nope").is_none());
    }

    #[test]
    fn forms_without_a_model_yield_an_empty_index() {
        assert_eq!(
            index("(block \"b\" (source 1)) 7 nil"),
            ModelSpans::default()
        );
    }
}
