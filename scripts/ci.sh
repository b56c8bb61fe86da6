#!/usr/bin/env bash
# Workspace CI gate. Offline-safe: every external dependency is vendored as a
# path dependency (see [workspace.dependencies] in Cargo.toml), so no step
# touches the network or a registry.
#
# Steps, numbered by their functions below:
#
#   01  release build of every workspace target
#   02  full test suite (unit + integration + property + doc tests; every
#       build compiles the whole SIMD width family, so the width and
#       scheduler bit-identity suites run at every width the host has)
#   03  the no-default-feature leg (core and gemm without `faults`)
#   04  a WINRS_FORCE_WIDTH matrix replay of the scheduler suite over
#       every width available on the host; a junk width must be a typed
#       error on the WinRS rung and on a substitute's
#   04b the exhaustive binary16 round-trip proof (all 2^32 f32 inputs,
#       release) under the same per-width loop
#   05  a compile-only aarch64 cross-check of the portable bodies (the
#       only ones that target runs) when that stdlib is installed
#   06  clippy with warnings promoted to errors, including the
#       `unwrap_used = "deny"` fail-safe lint on library crates
#   07  the benchmark package (`perfbench/`, its own Cargo workspace)
#       built and tested against the library crates it calls, so an API
#       change that breaks it fails here instead of at benchmark time
#   08  workspace-accounting smoke test: the CLI's layout breakdown must
#       print all four rows and match the paper formula, its total arena
#       must be the overflow, scratch and guard rows alone (bucket 0 is the
#       caller's gradient; also on fig10's largest, Z = 1 key), and an execution
#       under the default (auto) policy and under strict must each run
#       WinRS and report that formula's bytes as its planned and peak
#       workspace and a zero-allocation hot loop
#   09  profiling smoke test: `winrs profile` must print the wall phases
#       with a warm plan cache, the FT/IT/EWMM/OT busy split, the block
#       tasks, workers and utilisation, and the per-task min/mean/max
#   09b every paper artifact: each binary `scripts/run_experiments.sh`
#       lists must exit 0 (outputs go to a scratch directory)
#   10  autotuner smoke test: a cold `winrs tune --shapes fig10 --dry-run`
#       must print the full 32-row decision table from the cost model alone,
#       a `--db` run must persist a winrs-tune-v1 database that round-trips
#       through `--inspect`, and `--measure 1` on one key must store one
#       entry with a measured mean and `trials` 1
#   11  serve smoke: `winrs serve` on an ephemeral port answers an
#       oversized job and a 200,000-deep JSON body with 400 each, then a
#       raw `POST /v1/bfc` with 200 + a well-formed ExecutionReport,
#       serves one `winrs loadgen` job with zero failures, and shuts
#       itself down cleanly (exit 0) once its `--max-jobs` budget drains —
#       DESIGN.md §13
#   12  `cargo xtask audit`: the workspace's own invariant lints (hot-loop
#       allocation ban, unsafe registry + SAFETY comments, atomic-ordering
#       justifications, bit-identity FMA ban, error hygiene) plus the
#       cross-crate analyses (lock-order against the DESIGN.md §10.2
#       hierarchy, panic-reachability from the ExecHandle surface,
#       workspace-bounds dataflow over the hot loop) and both inventory
#       drift checks, with clickable file:line:col diagnostics — DESIGN.md §10
#   13  the same findings archived as SARIF for review tooling
#   14  loom concurrency models: exhaustive interleaving checks of
#       TimingSink / ScratchPool / the per-shape plan store / the leasing WorkspacePool
#       and the serve dispatcher's coalescing queue under `--cfg loom`,
#       built in a separate target dir so the cfg flag doesn't thrash the
#       cache
#   15  seeded chaos campaigns: deterministic fault injection (hot-loop
#       panic, slot exhaustion, allocation-budget refusal, deadline-blowing
#       slowness) against the resilient pool layer, on two chaos legs
#       (`faults` at the detected width and at WINRS_FORCE_WIDTH=scalar),
#       plus a `winrs verify --fault-seed` replay smoke — DESIGN.md §11
#       (the torn tuning-db site is exercised by tests/tuner_dispatch.rs
#       in step 02)
#   16  Miri smoke on the pure-arithmetic crates (gated)
#   17  ThreadSanitizer pass over the loom-modelled types (gated)
#
#   Steps 16 and 17 skip themselves with a notice when their toolchain
#   component is not installed.
set -euo pipefail
cd "$(dirname "$0")/.."

# Every step runs to the end in its own subshell (with `set -euo pipefail`
# inside it), so one failing step does not hide the others. The summary
# at the end lists each step's result, and the script exits non-zero if
# any step failed.
STEP_RESULTS=()
FAILED_STEPS=0
run_step() {
  local name=$1 fn=$2 rc
  echo "==> $name"
  set +e
  ( set -euo pipefail; "$fn" )
  rc=$?
  set -e
  if [ "$rc" -eq 0 ]; then
    STEP_RESULTS+=("PASS  $name")
  else
    STEP_RESULTS+=("FAIL  $name (exit $rc)")
    FAILED_STEPS=$((FAILED_STEPS + 1))
  fi
}
# The CLI binary step 1 builds; the smoke steps drive it.
WINRS=target/release/winrs

step_01() {
  cargo build --release --workspace
}
run_step "cargo build --release" step_01

step_02() {
  cargo test --workspace -q
}
run_step "cargo test --workspace -q" step_02

step_03() {
  cargo test -q -p winrs-core -p winrs-gemm --no-default-features
}
run_step "feature matrix: engine + gemm without default features (no faults)" step_03

step_04() {
  # `winrs simd` reports per-width availability on this host; replay the
  # scheduler determinism suite under each pin. The env override re-applies
  # on every engine entry, so the whole suite runs at exactly that width.
  AVAILABLE_WIDTHS=$(cargo run -q -p winrs-cli -- simd | awk '$3 == "yes" { print $1 }')
  for W in $AVAILABLE_WIDTHS; do
    echo "    width: $W"
    WINRS_FORCE_WIDTH=$W cargo test -q --test engine_sched
  done
  # An unknown token must be a typed hard error, never a silent fallback,
  # on the WinRS rung and on a substitute's.
  if WINRS_FORCE_WIDTH=avx1024 cargo run -q -p winrs-cli -- \
       verify --n 1 --res 8 --ic 2 --oc 2 --f 3 >/dev/null 2>&1; then
    echo "forced-width matrix: junk WINRS_FORCE_WIDTH was silently accepted"; exit 1
  fi
  if WINRS_FORCE_WIDTH=avx1024 cargo run -q -p winrs-cli -- \
       verify --n 1 --res 8 --ic 2 --oc 2 --f 3 --fallback-policy force-gemm >/dev/null 2>&1; then
    echo "forced-width matrix: junk WINRS_FORCE_WIDTH was silently accepted by force-gemm"; exit 1
  fi
}
run_step "forced-width matrix (WINRS_FORCE_WIDTH over every available width)" step_04

step_04b() {
  # Exhaustive proof of the FP16 re-rounding kernel: all 2^32 f32 bit
  # patterns through `micro::round_f16` at each width `winrs simd` reports,
  # against the scalar body, on value bits and saturation count. The test
  # is ignored under plain `cargo test` (35-60 s per width in release on
  # a 2-vCPU AVX-512 VM, far longer in debug).
  AVAILABLE_WIDTHS=$(cargo run -q -p winrs-cli -- simd | awk '$3 == "yes" { print $1 }')
  for W in $AVAILABLE_WIDTHS; do
    echo "    width: $W"
    WINRS_FORCE_WIDTH=$W cargo test -q --release --test f16_rounding -- --ignored
  done
}
run_step "exhaustive binary16 round trip (all 2^32 f32 inputs, release, every available width)" step_04b

step_05() {
  # The offline image may ship only the host stdlib; skip gracefully then.
  AARCH64_LIBDIR=$(rustc --print target-libdir --target aarch64-unknown-linux-gnu 2>/dev/null || true)
  if [ -n "$AARCH64_LIBDIR" ] && [ -d "$AARCH64_LIBDIR" ]; then
    CARGO_TARGET_DIR=target/aarch64 cargo check -q -p winrs-gemm -p winrs-core \
      --target aarch64-unknown-linux-gnu
  else
    echo "    aarch64-unknown-linux-gnu stdlib not installed; skipping cross-check"
  fi
}
run_step "aarch64 cross-check (compile-only: the portable bodies, the only ones aarch64 runs)" step_05

step_06() {
  cargo clippy --workspace --all-targets -- -D warnings
}
run_step "cargo clippy (all targets, -D warnings)" step_06

step_07() {
  cargo test --release --offline --features simd --manifest-path perfbench/Cargo.toml
}
run_step "benchmark package builds and passes its tests (perfbench/)" step_07

# `total arena` is the overflow-buckets, thread-scratch and guard rows'
# bytes: bucket 0 (the dw-bucket row) is the caller's gradient, not arena.
arena_is_the_other_rows() {
  local out=$1 rows total
  rows=$(awk '$1 == "overflow-buckets" || $1 == "thread-scratch" || $1 == "guard-counters" { s += $4 } END { print s }' <<<"$out")
  total=$(sed -n 's/^total arena    : \([0-9]*\) bytes .*/\1/p' <<<"$out")
  [ -n "$total" ] && [ "$total" = "$rows" ]
}

step_08() {
  REF_SHAPE=(--n 32 --res 56 --ic 16 --oc 16 --f 3)
  WORKSPACE_OUT=$("$WINRS" workspace "${REF_SHAPE[@]}")
  printf '%s\n' "$WORKSPACE_OUT" >&2
  for row in dw-bucket overflow-buckets thread-scratch guard-counters; do
    grep -q "^$row " <<<"$WORKSPACE_OUT"
  done
  grep -q "overflow check : matches" <<<"$WORKSPACE_OUT"
  arena_is_the_other_rows "$WORKSPACE_OUT"
  FORMULA_B=$(sed -n 's/^paper formula  : .* = \([0-9]*\) B$/\1/p' <<<"$WORKSPACE_OUT")
  [ -n "$FORMULA_B" ]
  # fig10's largest gradient (Z = 1, |gradW| = 25 MiB): the arena is the
  # scratch and the guard counters alone.
  BIG_OUT=$("$WINRS" workspace --n 1 --res 14 --ic 512 --oc 512 --f 5)
  printf '%s\n' "$BIG_OUT" >&2
  grep -q "^segments       : Z = 1$" <<<"$BIG_OUT"
  arena_is_the_other_rows "$BIG_OUT"
  # The default policy (auto: the tuner's choice) and strict (WinRS pinned)
  # must both run WinRS here, at exactly the formula's workspace.
  for POLICY in auto strict; do
    VERIFY_OUT=$("$WINRS" verify "${REF_SHAPE[@]}" --fallback-policy "$POLICY")
    printf '%s\n' "$VERIFY_OUT" >&2
    grep -q "algorithm=winrs " <<<"$VERIFY_OUT"
    grep -q " workspace=${FORMULA_B}B peak=${FORMULA_B}B hot_loop_allocs=0 " <<<"$VERIFY_OUT"
  done
}
run_step "workspace accounting smoke (reference shape 32x56x56, 16->16, f=3)" step_08

step_09() {
  PROFILE_OUT=$("$WINRS" profile --n 1 --res 16 --ic 4 --oc 8 --f 3 --trips 3)
  echo "$PROFILE_OUT" >&2
  grep -q "wall-clock phases" <<<"$PROFILE_OUT"
  grep -Eq "plan-cache   : 2 hits / 1 misses" <<<"$PROFILE_OUT"
  grep -q "total" <<<"$PROFILE_OUT"
  # The FT/IT/EWMM/OT busy split is one timed pass after the last trip.
  grep -q "FT/IT/EWMM/OT busy split" <<<"$PROFILE_OUT"
  for phase in FT IT EWMM OT; do
    grep -Eq "^  $phase +[0-9]" <<<"$PROFILE_OUT"
  done
  # The block tasks, workers and utilisation, and the per-task spread.
  grep -Eq "^  [0-9]+ block tasks .* on [0-9]+ workers, utilisation [0-9]+%$" <<<"$PROFILE_OUT"
  grep -Eq "^  per-task wall min/mean/max: [0-9.]+ / [0-9.]+ / [0-9.]+ us$" <<<"$PROFILE_OUT"
  # The named wall phases must account for the total (`other` closes the gap
  # by construction; 10% slack absorbs the 3-decimal print rounding).
  echo "$PROFILE_OUT" | awk '
    $1 ~ /^(plan|block-loop|promote|reduce|other)$/ && $2+0 == $2 { sum += $2 }
    $1 == "total" && $2+0 == $2 { total = $2 }
    END {
      if (total <= 0) { print "profile smoke: no total row"; exit 1 }
      d = sum - total; if (d < 0) d = -d
      if (d > 0.1 * total + 0.01) {
        printf "profile smoke: phases %.3f ms != total %.3f ms\n", sum, total
        exit 1
      }
    }'
}
run_step "profiling smoke (winrs profile: wall phases, busy split, block tasks, per-task spread)" step_09

step_09b() {
  # run_experiments.sh runs under `set -euo pipefail`, so any binary's
  # non-zero exit fails the step.
  ARTIFACT_DIR=$(mktemp -d -t winrs-ci-artifacts-XXXXXX)
  trap 'rm -rf "$ARTIFACT_DIR"' EXIT
  scripts/run_experiments.sh "$ARTIFACT_DIR" >"$ARTIFACT_DIR/run.log" \
    || { tail -n 20 "$ARTIFACT_DIR/run.log"; exit 1; }
}
run_step "paper artifacts (every scripts/run_experiments.sh binary exits 0)" step_09b

step_10() {
  # Cold run: no database on disk, so every row must resolve from the cost
  # model alone. fig10 is 8 dimension-series shapes x filter sizes {3,5,7,9}.
  TUNE_OUT=$("$WINRS" tune --shapes fig10 --dry-run)
  echo "$TUNE_OUT" >&2
  grep -q "schema      : winrs-tune-v1" <<<"$TUNE_OUT"
  grep -q "chosen" <<<"$TUNE_OUT"
  [ "$(grep -c " model$" <<<"$TUNE_OUT")" -eq 32 ] \
    || { echo "tuner smoke: expected 32 model-resolved fig10 rows"; exit 1; }
  # Persistence round-trip: write the small sweep's decisions, check the
  # on-disk schema token, and read the file back through --inspect.
  TUNE_DB=$(mktemp -t winrs-ci-tune-XXXXXX.json)
  trap 'rm -f "$TUNE_DB"' EXIT
  "$WINRS" tune --shapes small --db "$TUNE_DB" | grep -q "wrote 24 entries"
  grep -q '"schema":"winrs-tune-v1"' "$TUNE_DB"
  INSPECT=$("$WINRS" tune --db "$TUNE_DB" --inspect)
  printf '%s\n' "$INSPECT" >&2
  grep -q "24 entries, schema winrs-tune-v1" <<<"$INSPECT"
  # Measured tuning: every candidate of one key timed once after a
  # warm-up; the one stored entry carries a measured mean and trials 1.
  rm -f "$TUNE_DB"
  "$WINRS" tune --n 2 --res 16 --ic 8 --oc 8 --f 3 --measure 1 --db "$TUNE_DB" >&2
  INSPECT=$("$WINRS" tune --db "$TUNE_DB" --inspect)
  echo "$INSPECT" >&2
  grep -q "1 entries, schema winrs-tune-v1" <<<"$INSPECT"
  # Row fields: the 9 shape dims, precision, algo, predicted ms,
  # measured ms, trials, device.
  echo "$INSPECT" | awk '
    $1 ~ /^\[[0-9]/ { rows++; if ($13 == "-" || $14 != 1) bad = 1 }
    END {
      if (rows != 1 || bad) { print "tuner smoke: expected one measured entry with trials 1"; exit 1 }
    }'
  rm -f "$TUNE_DB"
}
run_step "autotuner smoke (winrs tune decision table + winrs-tune-v1 schema)" step_10

step_11() {
  # Start the service on an ephemeral port with a 2-job budget: one raw
  # HTTP POST (bash /dev/tcp — the image ships no curl) plus one job from
  # the official load generator drain the budget, after which the server
  # must shut itself down cleanly (exit 0) — the leak-free teardown check.
  # Two hostile posts go first; a refused job is never admitted, so they
  # spend none of the budget.
  SERVE_ADDR_FILE=$(mktemp -t winrs-ci-serve-XXXXXX.addr)
  : > "$SERVE_ADDR_FILE"
  "$WINRS" serve --port 0 --addr-file "$SERVE_ADDR_FILE" --max-jobs 2 --window-ms 1 &
  SERVE_PID=$!
  # A failed check must not leave the server waiting for its budget.
  trap 'kill "$SERVE_PID" 2>/dev/null || true; rm -f "$SERVE_ADDR_FILE"' EXIT
  for _ in $(seq 1 100); do [ -s "$SERVE_ADDR_FILE" ] && break; sleep 0.05; done
  [ -s "$SERVE_ADDR_FILE" ] || { echo "serve smoke: server never bound"; exit 1; }
  SERVE_HOST=$(cut -d: -f1 "$SERVE_ADDR_FILE")
  SERVE_PORT=$(cut -d: -f2 "$SERVE_ADDR_FILE")
  # post BODY: one raw `POST /v1/bfc`; prints the whole response.
  post() {
    exec 3<>"/dev/tcp/$SERVE_HOST/$SERVE_PORT"
    printf 'POST /v1/bfc HTTP/1.1\r\nHost: %s\r\nContent-Type: application/json\r\nContent-Length: %s\r\nConnection: close\r\n\r\n%s' \
      "$SERVE_HOST" "${#1}" "$1" >&3
    cat <&3
    exec 3<&- 3>&-
  }
  # A shape whose operands would take 4e14 bytes, and a body of 200,000
  # `[`: each must be a 400 naming the problem, and the server must live.
  HOSTILE_OUT=$(post '{"shape": {"n":1000, "ih":10000, "iw":10000, "ic":1000, "oc":4, "fh":3, "fw":3}}')
  head -1 <<<"$HOSTILE_OUT" >&2
  grep -q "HTTP/1.1 400 Bad Request" <<<"$HOSTILE_OUT"
  grep -q "job too large" <<<"$HOSTILE_OUT"
  HOSTILE_OUT=$(post "$(head -c 200000 /dev/zero | tr '\0' '[')")
  head -1 <<<"$HOSTILE_OUT" >&2
  grep -q "HTTP/1.1 400 Bad Request" <<<"$HOSTILE_OUT"
  grep -q "nesting deeper than 64 levels" <<<"$HOSTILE_OUT"
  # One fig10 job over raw HTTP: must answer 200 with a well-formed
  # ExecutionReport (algorithm, timing, pool counters, summary line).
  SERVE_OUT=$(post '{"shape": {"n":2, "ih":16, "iw":16, "ic":8, "oc":8, "fh":3, "fw":3}}')
  head -1 <<<"$SERVE_OUT" >&2
  grep -q "HTTP/1.1 200 OK" <<<"$SERVE_OUT"
  grep -q '"ok":true' <<<"$SERVE_OUT"
  grep -q '"algorithm":"winrs"' <<<"$SERVE_OUT"
  grep -q '"total_s":' <<<"$SERVE_OUT"
  grep -q '"pool":' <<<"$SERVE_OUT"
  grep -q '"summary":' <<<"$SERVE_OUT"
  grep -q '"fnv1a64":' <<<"$SERVE_OUT"
  # Second job through the official client; its exit code asserts zero
  # failed jobs, which also drains the server's budget.
  "$WINRS" loadgen --addr "$SERVE_HOST:$SERVE_PORT" --jobs 1 --concurrency 1 >&2
  # Clean self-stop: the server must exit 0 on its own, no kill needed.
  wait "$SERVE_PID"
  rm -f "$SERVE_ADDR_FILE"
}
run_step "serve smoke (batched BFC service: POST /v1/bfc end-to-end)" step_11

step_12() {
  cargo xtask audit
}
run_step "cargo xtask audit (invariant lints + cross-crate analyses + inventories)" step_12

step_13() {
  # Re-emit the clean run as SARIF for review tooling; fixed-string greps
  # stand in for a schema validator on this jq-optional image.
  cargo xtask audit --format sarif --out target/audit.sarif
  grep -q 'sarif-2.1.0.json' target/audit.sarif
  grep -q '"version":"2.1.0"' target/audit.sarif
  grep -q '"name":"winrs-audit"' target/audit.sarif
}
run_step "audit SARIF archive (target/audit.sarif, schema-checked)" step_13

step_14() {
  # Separate target dir: --cfg loom changes every crate's fingerprint, and
  # sharing target/ would force a full rebuild of the normal profile next run.
  RUSTFLAGS="--cfg loom" CARGO_TARGET_DIR=target/loom \
    cargo test -q -p winrs-core --test loom_models --test pool_models --release
  RUSTFLAGS="--cfg loom" CARGO_TARGET_DIR=target/loom \
    cargo test -q -p winrs-serve --test loom_dispatch --release
}
run_step "loom concurrency models (TimingSink / ScratchPool / plan store / WorkspacePool / serve DispatchQueue)" step_14

step_15() {
  # Fixed seeds inside the suite make every failure replayable from one u64.
  # The resilience contract must hold with SIMD and with portable dispatch:
  # the first leg runs at the detected width, the second pins the scalar
  # bodies. (winrs-core has no default features, so `faults` alone is also
  # the no-default-features build.)
  cargo test -q -p winrs-core --features faults --test chaos
  WINRS_FORCE_WIDTH=scalar cargo test -q -p winrs-core --features faults --test chaos
  # CLI replay smoke: campaign seed 6 injects a hot-loop panic; the verify
  # must contain it (typed degradation, poison+rebuild) and stay green.
  CHAOS_OUT=$("$WINRS" verify --n 1 --res 16 --ic 4 --oc 4 --f 3 --fault-seed 6 2>/dev/null)
  printf '%s\n' "$CHAOS_OUT" >&2
  grep -q "fired     : \[hot-loop-panic\]" <<<"$CHAOS_OUT"
  CHAOS_OUT=$("$WINRS" verify --n 1 --res 16 --ic 4 --oc 4 --f 3 --fault-seed 6 2>/dev/null)
  printf '%s\n' "$CHAOS_OUT" >&2
  grep -q "poisonings=1 rebuilds=1" <<<"$CHAOS_OUT"
}
run_step "seeded chaos campaigns (panic / exhaustion / alloc-budget / deadline)" step_15

step_16() {
  # Miri exercises the bit-twiddling conversion kernels for UB; it needs the
  # rustup `miri` component + nightly, which the offline image does not ship.
  if cargo miri --version >/dev/null 2>&1; then
    # Isolated target dir for the same fingerprint reason as the loom job.
    CARGO_TARGET_DIR=target/miri cargo miri test -q -p winrs-fp16 -p winrs-rational
  else
    echo "    miri not installed; skipping (install the rustup component to enable)"
  fi
}
run_step "miri smoke (winrs-fp16 + winrs-rational, skipped if unavailable)" step_16

step_17() {
  # TSan needs -Z sanitizer (nightly) plus a rebuilt std (rust-src / -Z
  # build-std), neither of which is available offline. When present, it runs
  # the same loom_models scenarios against the real std::sync types.
  if rustc +nightly --version >/dev/null 2>&1 \
     && rustc +nightly --print target-libdir 2>/dev/null | grep -q . \
     && [ -d "$(rustc +nightly --print sysroot)/lib/rustlib/src/rust/library" ]; then
    RUSTFLAGS="-Zsanitizer=thread" CARGO_TARGET_DIR=target/tsan \
      cargo +nightly test -q -p winrs-core --lib metrics -Z build-std \
      --target "$(rustc -vV | sed -n 's/^host: //p')"
  else
    echo "    nightly rust-src not installed; skipping TSan job"
  fi
}
run_step "thread sanitizer (loom-modelled types, skipped if unavailable)" step_17

echo
echo "==> summary"
for r in "${STEP_RESULTS[@]}"; do
  echo "    $r"
done
if [ "$FAILED_STEPS" -ne 0 ]; then
  echo "CI FAILED: $FAILED_STEPS of ${#STEP_RESULTS[@]} steps failed"
  exit 1
fi
echo "CI OK"
