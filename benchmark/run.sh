#!/usr/bin/env bash
# Builds the benchmark package (its own Cargo package, path-depending on the
# repo's `sage` crate) and runs it. Arguments go to the binary unchanged:
#
#   benchmark/run.sh --workload W --seed N --seconds S --trace 0|1   one pass (BENCHMARK.json's command)
#   benchmark/run.sh [--seed N] [--seconds S]                        every workload, both passes
#   benchmark/run.sh --selfcheck [--seed N] [--seconds S]            end-to-end pass twice, compared
#
# See benchmark/README.md.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
target="${CARGO_TARGET_DIR:-$here/target}"
# Cargo reports on stderr; stdout stays the benchmark's.
cargo build --release --offline --quiet \
    --manifest-path "$here/Cargo.toml" --target-dir "$target" >&2
exec "$target/release/sage-benchmark" "$@"
