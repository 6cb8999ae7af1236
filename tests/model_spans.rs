//! The one reader, checked from the outside: the span index built from a
//! model file's forms agrees with the model built from the same forms, and
//! `load` is exactly those two over a single parse.

use sage::alter::parse_program;
use sage::core::load;
use sage::core::model_io::{model_from_sexpr, model_to_sexpr};
use sage::lint::ModelSpans;
use sage::model::{AppGraph, BlockKind};
use sage_fuzz::gen::{derive_seed, gen_model, GenConfig};

/// Every committed model file plus 200 generated ones, as `(label, text)`.
fn corpus() -> Vec<(String, String)> {
    let mut out = Vec::new();
    for dir in ["examples/models", "tests/fixtures"] {
        let dir = format!("{}/{dir}", env!("CARGO_MANIFEST_DIR"));
        for entry in std::fs::read_dir(&dir).unwrap() {
            let path = entry.unwrap().path();
            if path.extension().is_some_and(|e| e == "sexpr") {
                let text = std::fs::read_to_string(&path).unwrap();
                out.push((path.display().to_string(), text));
            }
        }
    }
    assert!(out.len() >= 14, "committed models went missing");
    let cfg = GenConfig::default();
    for i in 0..200 {
        let m = gen_model(derive_seed(22, i), &cfg);
        out.push((format!("fuzz seed {:#x}", m.seed), model_to_sexpr(&m.app)));
    }
    out
}

/// Asserts that every block and port declared under `app` is indexed under
/// its dotted name and that the span covers exactly the quoted name.
/// Returns how many names it checked.
fn check_declared(app: &AppGraph, prefix: &str, spans: &ModelSpans, src: &str, at: &str) -> usize {
    let mut checked = 0;
    for b in app.blocks() {
        let full = if prefix.is_empty() {
            b.name.clone()
        } else {
            format!("{prefix}.{}", b.name)
        };
        let span = spans
            .block(&full)
            .unwrap_or_else(|| panic!("{at}: block `{full}` has no span"));
        assert_eq!(
            &src[span.start..span.end],
            format!("\"{}\"", b.name),
            "{at}"
        );
        for p in &b.ports {
            let span = spans
                .port(&full, &p.name)
                .unwrap_or_else(|| panic!("{at}: port `{full}.{}` has no span", p.name));
            assert_eq!(
                &src[span.start..span.end],
                format!("\"{}\"", p.name),
                "{at}"
            );
        }
        checked += 1 + b.ports.len();
        if let BlockKind::Hierarchical { subgraph } = &b.kind {
            checked += check_declared(subgraph, &full, spans, src, at);
        }
    }
    checked
}

#[test]
fn spans_agree_with_the_model() {
    let mut nested = 0;
    for (at, src) in corpus() {
        let app = model_from_sexpr(&src).unwrap_or_else(|e| panic!("{at}: {e}"));
        let spans = ModelSpans::index(&parse_program(&src).unwrap());
        let declared = check_declared(&app, "", &spans, &src, &at);
        assert_eq!(declared, spans.blocks.len() + spans.ports.len(), "{at}");
        // The names diagnostics use are the flattened ones.
        if let Ok(flat) = app.flatten() {
            nested += usize::from(flat.block_count() != app.block_count());
            for b in flat.blocks() {
                let span = spans
                    .block(&b.name)
                    .unwrap_or_else(|| panic!("{at}: flattened block `{}` has no span", b.name));
                let leaf = b.name.rsplit('.').next().unwrap();
                assert_eq!(&src[span.start..span.end], format!("\"{leaf}\""), "{at}");
            }
        }
    }
    assert!(nested > 0, "no hierarchical model in the corpus");
}

#[test]
fn load_is_the_model_and_the_index_of_one_parse() {
    let mut loaded = 0;
    for (at, src) in corpus() {
        let Ok(l) = load(&src, 4) else { continue };
        loaded += 1;
        assert_eq!(l.project.app, model_from_sexpr(&src).unwrap(), "{at}");
        assert_eq!(
            l.spans,
            ModelSpans::index(&parse_program(&src).unwrap()),
            "{at}"
        );
    }
    assert!(loaded >= 100, "only {loaded} models passed the gate");
}
