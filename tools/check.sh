#!/usr/bin/env bash
# Runs the documentation lint (tools/docs_lint.sh), then configures,
# builds and tests each preset of CMakePresets.json. The default and
# asan-ubsan test presets have no filter, so they run every test, every
# label included; the tsan preset builds and runs only the labelled
# concurrency, workspace, cachepolicy, replication and serving binaries.
#
# The default preset then runs the bench regression gate: the benches'
# RESULT_JSON rows are diffed against bench/baselines/seed.json by
# tools/bench_compare.py. Virtual-time values are deterministic, so it
# fails on >10% drift, a schema violation or a lost row; HOSTPAR rows
# must also report steady_state_allocs == 0 (DESIGN.md §11), and the
# baseline's `directions` map gates some rows one-sided.
#
#   tools/check.sh            # docs lint + all presets
#   tools/check.sh default    # docs lint + one preset
set -euo pipefail

cd "$(dirname "$0")/.."
jobs=$(nproc)
presets=("$@")
if [ ${#presets[@]} -eq 0 ]; then
  presets=(default asan-ubsan tsan)
fi

echo "=== docs lint"
tools/docs_lint.sh

for preset in "${presets[@]}"; do
  echo "=== [$preset] configure"
  cmake --preset "$preset"
  echo "=== [$preset] build"
  cmake --build --preset "$preset" -j "$jobs"
  echo "=== [$preset] test"
  ctest --preset "$preset" -j "$jobs"
  if [ "$preset" = "default" ]; then
    echo "=== [$preset] bench regression gate"
    benchlog=$(mktemp -d)
    build/bench/bench_fig03_request_rate > "$benchlog/fig03.log"
    build/bench/bench_fig13_e2e_samsung > "$benchlog/fig13.log"
    build/bench/bench_host_parallelism > "$benchlog/hostpar.log"
    build/bench/bench_abl_cache_policy > "$benchlog/cachepolicy.log"
    build/bench/bench_abl_replication > "$benchlog/replication.log"
    build/bench/bench_serving > "$benchlog/serving.log"
    build/bench/bench_abl_coalescing > "$benchlog/coalescing.log"
    python3 tools/bench_compare.py --baseline bench/baselines/seed.json \
      "$benchlog/fig03.log" "$benchlog/fig13.log" "$benchlog/hostpar.log" \
      "$benchlog/cachepolicy.log" "$benchlog/replication.log" \
      "$benchlog/serving.log" "$benchlog/coalescing.log"
    rm -rf "$benchlog"
  fi
done

echo "=== all presets passed"
