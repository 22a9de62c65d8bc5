#!/usr/bin/env bash
# Regenerates every table and figure of the paper into results/.
# Usage: scripts/run_experiments.sh [tiny|small|default]
set -euo pipefail
scale="${1:-small}"
cd "$(dirname "$0")/.."
mkdir -p results
cargo build --release -p gmap-bench
# fig6 runs grids a-e back to back (one preparation, one capture pair per
# benchmark) and puts the grid letter before the CSV's extension:
# results/fig6a.csv ... results/fig6d.csv.
for f in table1 fig5 fig6 fig7 fig8 ablation; do
  echo "=== $f (scale: $scale) ==="
  cargo run --release -q -p gmap-bench --bin "$f" -- --scale "$scale" \
    --csv "results/$f.csv" | tee "results/$f.txt"
done
echo "All experiment outputs in results/"
