#!/usr/bin/env bash
# Regenerate every table and figure of the paper plus the extension
# experiments, writing outputs under bench_results/ (or the directory
# given as the first argument). Any binary's non-zero exit stops the run
# with that status.
set -euo pipefail
cd "$(dirname "$0")/.."
OUT_DIR=${1:-bench_results}
mkdir -p "$OUT_DIR"

BINS=(
  fig01_shapes fig02_blocks fig03_workflow fig05_pairs fig06_kernels
  fig08_matrices tab02_workspace fig09_workspace tab03_speedup
  fig10_throughput_fp32 fig11_throughput_fp16 tab04_accuracy fig12_mare
  fig13_training claim_flop_reduction ablations accuracy_analysis
  model_sweep
)

cargo build --release -p winrs-bench --bins
for bin in "${BINS[@]}"; do
  echo "== $bin =="
  ./target/release/"$bin" | tee "$OUT_DIR/$bin.txt"
  echo
done
echo "All outputs in $OUT_DIR/"
