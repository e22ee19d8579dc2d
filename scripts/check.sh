#!/usr/bin/env bash
# Tier-1 gate: build + full ctest in the default configuration, then
# again under AddressSanitizer (-DUSFQ_SANITIZE=address).  Run from the
# repo root; pass extra ctest args after `--` (e.g. `-- -L sta`).  The
# default configuration (build/, also what bench-artifacts, regress and
# obs build) passes -DUSFQ_WERROR=ON, so a new compiler warning fails
# the stage; the sanitizer configurations (asan, ubsan, tsan) are left
# as they were and keep warnings non-fatal.
#
#   ./scripts/check.sh                 # both configurations, full suite
#   ./scripts/check.sh -- -L unit      # both configurations, unit tier
#   ./scripts/check.sh diff            # functional-backend and kernel
#                                      # gate: unit (incl. the event
#                                      # kernel's determinism tests and
#                                      # its order differential, and the
#                                      # span-kernel fuzzer), golden,
#                                      # diff and sta tiers under default,
#                                      # ASan and UBSan builds (a UBSan
#                                      # report fails the stage)
#   ./scripts/check.sh svc             # service gate: the svc tier
#                                      # (C API, structural hash, result
#                                      # cache, broker + the usfq_serve
#                                      # 1000-request smoke) under
#                                      # default and ASan builds
#   ./scripts/check.sh tsan            # concurrency gate: the svc tier
#                                      # (broker facts table + result
#                                      # cache under N workers, the C ABI
#                                      # hammer tests, the run lock, the
#                                      # svc_serve_smoke), the noc tier,
#                                      # the determinism tests (sweep
#                                      # workers owning per-worker rigs
#                                      # and operand buffers) and
#                                      # the unit-obs tier (traced broker
#                                      # round trips: worker threads
#                                      # appending netlist phase spans to
#                                      # the shared span log), under
#                                      # ThreadSanitizer only
#   ./scripts/check.sh gen             # design-space compiler gate: the
#                                      # gen, sta and golden tiers (spec
#                                      # round-trips, balancer convergence,
#                                      # the 500-spec generator
#                                      # differential, generated goldens,
#                                      # the timing engine and its
#                                      # bit-identity lock, the golden
#                                      # traces' STA envelope) plus
#                                      # json_lock_test (lint and STA
#                                      # finding text) under default,
#                                      # ASan and UBSan builds
#   ./scripts/check.sh noc             # temporal-NoC gate: the noc tier
#                                      # (plan/router/grid units, the
#                                      # fabric differential up to 8x8,
#                                      # the fig_noc_* benches and the
#                                      # noc_mesh smoke) under default
#                                      # and ASan builds
#   ./scripts/check.sh bench-artifacts # run benches with artifact
#                                      # output into ./artifacts/ and
#                                      # validate every BENCH_*.json
#   ./scripts/check.sh regress         # regression gate: regenerate
#                                      # artifacts into a temp dir and
#                                      # diff them against the committed
#                                      # ./artifacts baseline
#                                      # (bench/bench_diff.cpp), after
#                                      # proving the gate can fire via
#                                      # its --self-test
#   ./scripts/check.sh obs             # observability gate: the obs
#                                      # tier (trace round-trips, broker
#                                      # tracing, metrics ABI), golden
#                                      # tiers rerun with tracing forced
#                                      # on (USFQ_TRACE_OUT), a lint of
#                                      # the traced usfq_serve smoke's
#                                      # trace (netlist phase spans
#                                      # present), then the regress stage
#   ./scripts/check.sh perfbench       # benchmark gate: configure and
#                                      # build build-release/ (Release,
#                                      # -DUSFQ_WERROR=ON, so the -O3
#                                      # build stays warning-free), then
#                                      # build perfbench/ against this
#                                      # tree (Release) and run every
#                                      # BENCHMARK.json workload at
#                                      # --tiny through perfbench/smoke.py
#                                      # (correct results, repeatable
#                                      # digests)
#
# docs/observability.md describes the artifact format; docs/functional.md
# describes the diff tier (differential fuzzer + functional goldens).

set -euo pipefail

repo="$(cd "$(dirname "$0")/.." && pwd)"
jobs="$(nproc 2>/dev/null || sysctl -n hw.ncpu 2>/dev/null || echo 4)"

mode="default"
if [[ "${1:-}" == "bench-artifacts" || "${1:-}" == "diff" ||
      "${1:-}" == "svc" ||
      "${1:-}" == "gen" || "${1:-}" == "noc" || "${1:-}" == "tsan" ||
      "${1:-}" == "regress" || "${1:-}" == "obs" ||
      "${1:-}" == "perfbench" ]]; then
    mode="$1"
    shift
fi

ctest_args=()
if [[ "${1:-}" == "--" ]]; then
    shift
    ctest_args=("$@")
fi

if [[ "$mode" == "diff" ]]; then
    # The tiers that lock the functional backend to the pulse-level
    # simulator: unit (properties + models), golden (incl. functional
    # goldens), diff (the differential fuzzer) and sta.  The unit tier
    # carries the event kernel's determinism tests and its order
    # differential against a reference heap, and the span-kernel fuzzer
    # under func::PulseStream; runs under UBSan as well, since the
    # bucket ring is shift-and-mask arithmetic on signed 64-bit ticks
    # and the SIMD kernels are where silent UB would hide.
    ctest_args=(-L 'unit|golden|diff|sta' "${ctest_args[@]}")
elif [[ "$mode" == "svc" ]]; then
    # The simulation-service gate (docs/service.md): the stable C API
    # round-trips, structural-hash determinism, cache hit-vs-recompute
    # bit-identity, broker behavior, and the usfq_serve smoke that
    # pushes >=1000 mixed requests through the worker pool and checks
    # every response against a direct engine run.
    ctest_args=(-L 'svc' "${ctest_args[@]}")
elif [[ "$mode" == "tsan" ]]; then
    # The concurrency gate (docs/service.md, "Thread safety"): the svc
    # tier -- broker workers sharing the design-facts table and the
    # result cache, per-thread fatal() modes, the C ABI hammer tests,
    # the run lock at 3 sweep threads -- and the svc_serve_smoke
    # (already in the svc label); plus the noc and determinism tiers,
    # whose multi-threaded sweeps hand every pool thread its own
    # mutable rig and operand buffers (sim/sweep.hh, WorkerLocal).
    # Plus the unit-obs tier: its traced broker round trip has worker
    # threads appending netlist phase spans to the process-wide span
    # log.  Under ThreadSanitizer.
    ctest_args=(-L 'svc|noc|determinism|unit-obs' "${ctest_args[@]}")
elif [[ "$mode" == "gen" ]]; then
    # The design-space compiler gate (docs/synthesis.md): spec JSON
    # round-trips and hash determinism, balancer convergence/budget
    # accounting, the 500-spec generator differential (lint-clean,
    # STA-gated, pulse vs functional at 1 and 4 threads) and the
    # generated-netlist goldens -- plus the sta tier the compiler runs
    # on (docs/sta.md), including the StaReport bit-identity lock.
    # Also every suite that reads the timing graph's port numbering or
    # pins bytes the compile path formats: the golden tier (its traces
    # must stay inside windowOf/separationFloor) and json_lock_test
    # (lint and STA finding text; label svc-obs, whose other member,
    # the traced usfq_serve smoke, stays out).  Runs under UBSan as
    # well -- the slot algebra, the padding arithmetic and the timing
    # graph's CSR and port-slot index arithmetic are integer-heavy code
    # where silent UB would hide.
    ctest_args=(-L 'gen|sta|golden|svc-obs' -E '^svc_serve_trace$'
                "${ctest_args[@]}")
elif [[ "$mode" == "noc" ]]; then
    # The temporal-NoC gate (docs/noc.md): plan placement and router
    # units, the flit-for-flit fabric differential (sink counts AND
    # per-router collision ledgers, pulse vs functional, up to 8x8),
    # the facade thread/batch bit-identity contracts, the fig_noc_*
    # bench binaries and the noc_mesh example smoke.
    ctest_args=(-L 'noc' "${ctest_args[@]}")
fi

run_config() {
    local name="$1" build_dir="$2"
    shift 2
    echo "==> [$name] configure ($*)"
    cmake -B "$build_dir" -S "$repo" "$@"
    echo "==> [$name] build"
    cmake --build "$build_dir" -j "$jobs"
    echo "==> [$name] ctest"
    ctest --test-dir "$build_dir" --output-on-failure -j "$jobs" \
        "${ctest_args[@]}"
}

if [[ "$mode" == "perfbench" ]]; then
    # The repository benchmark (perfbench/README.md) builds from this
    # tree in its own Release build dir, which no other stage compiles:
    # smoke.py builds it and runs every workload at a tiny size,
    # checking correct=true, the metric set, and that a seed repeats
    # its input and output digests.  First the whole tree in Release
    # with -Werror: -O3 inlines deeper than the default build and
    # brings warnings of its own (GCC 12's -Wrestrict on
    # `"x" + std::to_string(i)`), which no other stage would see.
    echo "==> [perfbench] configure + build build-release (Release, -Werror)"
    cmake -B "$repo/build-release" -S "$repo" -DCMAKE_BUILD_TYPE=Release \
        -DUSFQ_WERROR=ON
    cmake --build "$repo/build-release" -j "$jobs"
    echo "==> [perfbench] smoke (build + tiny runs of every workload)"
    (cd "$repo" && python3 perfbench/smoke.py)
    echo "==> perfbench gate passed"
    exit 0
fi

if [[ "$mode" == "bench-artifacts" ]]; then
    # Build, then run the bench tiers with USFQ_BENCH_JSON pointed at
    # ./artifacts so every bench drops its BENCH_<name>.json, and fail
    # if any artifact is missing or malformed (bench/json_lint.cpp).
    artifacts="$repo/artifacts"
    rm -rf "$artifacts"
    mkdir -p "$artifacts"
    cmake -B "$repo/build" -S "$repo" -DUSFQ_WERROR=ON
    cmake --build "$repo/build" -j "$jobs"
    echo "==> [bench-artifacts] running lint + bench-smoke tiers"
    USFQ_BENCH_JSON="$artifacts" ctest --test-dir "$repo/build" \
        --output-on-failure -j "$jobs" -L 'lint|bench-smoke' \
        "${ctest_args[@]}"
    shopt -s nullglob
    files=("$artifacts"/BENCH_*.json)
    if [[ ${#files[@]} -eq 0 ]]; then
        echo "==> [bench-artifacts] FAILED: no BENCH_*.json produced" >&2
        exit 1
    fi
    echo "==> [bench-artifacts] validating ${#files[@]} artifacts"
    "$repo/build/bench/json_lint" "${files[@]}"
    echo "==> bench artifacts ok (${#files[@]} files in ./artifacts)"
    exit 0
fi

if [[ "$mode" == "regress" || "$mode" == "obs" ]]; then
    cmake -B "$repo/build" -S "$repo" -DUSFQ_WERROR=ON
    cmake --build "$repo/build" -j "$jobs"
    tmproot="$(mktemp -d)"
    trap 'rm -rf "$tmproot"' EXIT

    if [[ "$mode" == "obs" ]]; then
        # The obs tier: trace round-trips, broker span chains, metrics
        # ABI, telemetry mirroring.
        echo "==> [obs] tracing + metrics tier"
        serve_trace="$repo/build/tests/svc_serve_trace.json"
        rm -f "$serve_trace"
        ctest --test-dir "$repo/build" --output-on-failure -j "$jobs" \
            -L 'obs' "${ctest_args[@]}"
        # Tracing must be invisible to results: rerun the golden tier
        # with a trace sink forced on (serially -- the test processes
        # share the sink file).
        echo "==> [obs] golden tier with USFQ_TRACE_OUT forced on"
        USFQ_TRACE_OUT="$tmproot/golden_trace.json" ctest \
            --test-dir "$repo/build" --output-on-failure -j 1 -L golden
        # The traced usfq_serve smoke (svc_serve_trace) leaves its
        # Trace Event file behind: it must parse, and the netlist
        # phases its workers ran must be in it as spans.
        echo "==> [obs] linting the svc_serve_trace trace"
        if [[ ! -s "$serve_trace" ]]; then
            echo "==> [obs] FAILED: svc_serve_trace wrote no $serve_trace" >&2
            exit 1
        fi
        "$repo/build/bench/json_lint" "$serve_trace"
        if ! grep -q '"name": "netlist/elaborate"' "$serve_trace"; then
            echo "==> [obs] FAILED: no netlist/elaborate span in" \
                "$serve_trace" >&2
            exit 1
        fi
    fi

    # Regression gate: the committed ./artifacts baseline vs a fresh
    # regeneration, after proving the gate can fire at all.
    baseline="$repo/artifacts"
    if [[ ! -d "$baseline" ]]; then
        echo "==> [regress] FAILED: no committed ./artifacts baseline" >&2
        echo "    (run ./scripts/check.sh bench-artifacts, commit it)" >&2
        exit 1
    fi
    echo "==> [regress] proving the gate fires (bench_diff --self-test)"
    "$repo/build/bench/bench_diff" --self-test "$baseline"
    echo "==> [regress] regenerating artifacts into a scratch dir"
    mkdir -p "$tmproot/fresh"
    USFQ_BENCH_JSON="$tmproot/fresh" ctest --test-dir "$repo/build" \
        --output-on-failure -j "$jobs" -L 'lint|bench-smoke' >/dev/null
    echo "==> [regress] diffing fresh artifacts against ./artifacts"
    "$repo/build/bench/bench_diff" "$baseline" "$tmproot/fresh"
    echo "==> ${mode} gate passed"
    exit 0
fi

if [[ "$mode" == "tsan" ]]; then
    # halt_on_error: a race report fails the stage, not just the log.
    TSAN_OPTIONS="halt_on_error=1 second_deadlock_stack=1" \
        run_config tsan "$repo/build-tsan" -DUSFQ_SANITIZE=thread \
        -DUSFQ_BUILD_BENCH=OFF
    echo "==> tsan gate passed"
    exit 0
fi

run_config default "$repo/build" -DUSFQ_WERROR=ON
run_config asan "$repo/build-asan" -DUSFQ_SANITIZE=address
if [[ "$mode" == "gen" || "$mode" == "diff" ]]; then
    # halt_on_error: a UBSan report fails its test, not just the log
    # (the build keeps UBSan's default recoverable checks).
    UBSAN_OPTIONS="halt_on_error=1 print_stacktrace=1" \
        run_config ubsan "$repo/build-ubsan" -DUSFQ_SANITIZE=undefined
    echo "==> all checks passed (default + asan + ubsan)"
else
    echo "==> all checks passed (default + asan)"
fi
