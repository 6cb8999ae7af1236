#!/usr/bin/env python3
"""Non-test Rust outside benchmark/: per crate and total, raw lines and code lines.

Skips `tests/` directories and every `#[cfg(test)] mod … { … }` block; "code"
also skips blank lines and `//` comment lines. Run from anywhere:
`python3 scripts/loc.py [TREE]` (default: this checkout). CHANGES.md quotes it.
"""
import pathlib
import sys

root = pathlib.Path(sys.argv[1] if len(sys.argv) > 1 else __file__ + "/../..").resolve()
totals = {}
for path in sorted(root.rglob("*.rs")):
    parts = path.relative_to(root).parts
    if parts[0] in ("benchmark", "target") or "tests" in parts:
        continue
    crate = "/".join(parts[:2]) if parts[0] == "crates" else "sage (root)"
    raw = code = 0
    lines = path.read_text().splitlines()
    i = 0
    while i < len(lines):
        if lines[i].strip() == "#[cfg(test)]" and lines[i + 1].lstrip().startswith("mod "):
            indent = lines[i][: len(lines[i]) - len(lines[i].lstrip())]
            while lines[i] != indent + "}":  # the block's own closing brace
                i += 1
            i += 1
            continue
        raw += 1
        code += bool(lines[i].strip()) and not lines[i].lstrip().startswith("//")
        i += 1
    r, c = totals.get(crate, (0, 0))
    totals[crate] = (r + raw, c + code)
for crate, (raw, code) in totals.items():
    print(f"{crate:28} {raw:6} raw {code:6} code")
print(f"{'total':28} {sum(r for r, _ in totals.values()):6} raw {sum(c for _, c in totals.values()):6} code")
