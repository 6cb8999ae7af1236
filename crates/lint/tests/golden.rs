//! Golden-file tests: the exact rendered output for each stable `SAGE0xx`
//! code this crate produces on its own — Alter script analysis. Model-file
//! goldens (SAGE030 and friends) live in the workspace-level test suite
//! because they need the `sage-core` front end; glue-program goldens
//! (SAGE019/040/041 included) live in `sage-check`.
//!
//! Regenerate after an intentional rendering change with
//! `UPDATE_GOLDEN=1 cargo test -p sage-lint --test golden`.

use sage_lint::lint_script;

fn fixture_path(name: &str) -> String {
    format!("{}/tests/fixtures/{name}", env!("CARGO_MANIFEST_DIR"))
}

/// Compares `actual` against the committed `<name>.expected`; with
/// `UPDATE_GOLDEN` set, (re)writes the fixture instead.
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

/// Lints the fixture script `<name>.alt` and golden-checks the rendering.
fn check_script_golden(name: &str, expect_code: &str) {
    let script = fixture_path(&format!("{name}.alt"));
    let src = std::fs::read_to_string(&script).unwrap();
    let mut diags = lint_script(&src, None);
    diags.sort();
    assert!(
        diags.diags.iter().any(|d| d.code == expect_code),
        "{name}: expected {expect_code}, got {:?}",
        diags.diags
    );
    check_golden(name, &diags.render(&format!("{name}.alt"), Some(&src)));
}

#[test]
fn sage001_unbound_symbol() {
    check_script_golden("sage001_unbound", "SAGE001");
}

#[test]
fn sage002_wrong_arity() {
    check_script_golden("sage002_arity", "SAGE002");
}

#[test]
fn sage004_shadowed_builtin() {
    check_script_golden("sage004_shadow", "SAGE004");
}

#[test]
fn sage005_unreachable_branch() {
    check_script_golden("sage005_unreachable", "SAGE005");
}

#[test]
fn sage006_syntax_error() {
    check_script_golden("sage006_syntax", "SAGE006");
}

/// Every golden fixture uses only codes from the published registry.
#[test]
fn golden_fixtures_only_use_registered_codes() {
    let dir = fixture_path("");
    for entry in std::fs::read_dir(&dir).unwrap() {
        let path = entry.unwrap().path();
        if path.extension().and_then(|e| e.to_str()) != Some("expected") {
            continue;
        }
        let text = std::fs::read_to_string(&path).unwrap();
        for line in text.lines() {
            if let Some(start) = line.find("[SAGE") {
                let code = &line[start + 1..start + 8];
                assert!(
                    sage_lint::code_summary(code).is_some(),
                    "{}: unregistered code {code}",
                    path.display()
                );
            }
        }
    }
}
