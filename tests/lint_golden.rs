//! Golden-file tests for whole-model-source lint: the front end in
//! `sage_core::lint_model_source` ties the s-expression loader, the model
//! checks, and the program-level deadlock analysis together, so the
//! rendered output here covers spans resolved against the model file.
//!
//! Program-level goldens live in `sage-check` and `tests/check_golden.rs`.
//! Regenerate after an intentional rendering change with
//! `UPDATE_GOLDEN=1 cargo test --test lint_golden`.

use sage_core::lint_model_source;

fn fixture_path(name: &str) -> String {
    format!("{}/tests/fixtures/{name}", env!("CARGO_MANIFEST_DIR"))
}

fn check_golden(name: &str, actual: &str) {
    let path = fixture_path(&format!("{name}.expected"));
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::write(&path, actual).unwrap();
        return;
    }
    let expected = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("{path}: {e} (run with UPDATE_GOLDEN=1 to create)"));
    assert_eq!(
        actual, expected,
        "rendered output for `{name}` drifted from its golden file; \
         if intentional, regenerate with UPDATE_GOLDEN=1"
    );
}

#[test]
fn sage030_striping_factor_vs_node_count() {
    let src = std::fs::read_to_string(fixture_path("striping_mismatch.sexpr")).unwrap();
    // Eight threads per block on three nodes: neither divides the other.
    let diags = lint_model_source(&src, 3);
    assert!(
        diags.diags.iter().any(|d| d.code == "SAGE030"),
        "{:?}",
        diags.diags
    );
    // A mapping hazard, not a hard error: plain lint passes, strict fails.
    assert!(!diags.fails(false));
    assert!(diags.fails(true));
    check_golden(
        "striping_mismatch",
        &diags.render("striping_mismatch.sexpr", Some(&src)),
    );
}

#[test]
fn sage030_clears_when_the_counts_align() {
    let src = std::fs::read_to_string(fixture_path("striping_mismatch.sexpr")).unwrap();
    for nodes in [1usize, 2, 4, 8] {
        let diags = lint_model_source(&src, nodes);
        assert!(diags.is_empty(), "nodes={nodes}: {:?}", diags.diags);
    }
}

#[test]
fn sage007_unloadable_source_golden() {
    let src = "(model \"broken\"\n  (block \"x\"";
    let diags = lint_model_source(src, 4);
    assert!(
        diags.diags.iter().any(|d| d.code == "SAGE007"),
        "{:?}",
        diags.diags
    );
    assert!(diags.fails(false));
    check_golden("unloadable_model", &diags.render("broken.sexpr", Some(src)));
    // The reader's byte offset travels as a span, in JSON too: the unclosed
    // `(` of `(block` on line 2.
    let json = diags.to_json("broken.sexpr", Some(src));
    assert!(json.contains("\"span\":{\"start\":18,\"end\":18},\"line\":2,\"column\":3"));
}
