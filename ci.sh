#!/usr/bin/env bash
# Repository CI gate. Run locally before pushing; the GitHub Actions
# workflow (.github/workflows/ci.yml) runs these same stages as parallel
# jobs, so keep all command lines here — the workflow only dispatches.
#
#   ./ci.sh             # all stages
#   ./ci.sh lint        # rustfmt + clippy (deny warnings) + written-once guards
#   ./ci.sh tier1       # release build, root-package tests, smokes + zolo leg
#   ./ci.sh zolo        # r-way Zolo graph: plan/determinism tests + CP gate
#   ./ci.sh workspace   # full workspace tests + standalone facade build
#   ./ci.sh verify      # accuracy gate, run twice under deterministic
#                       # replay — the two reports must be byte-identical
#   ./ci.sh bench       # benchmark package: its unit tests + a smoke run
#                       # of all five workloads with every output checked
#   ./ci.sh fast        # lint + tier1 only
#   ./ci.sh artifacts S # print stage S's artifact paths, one per line
#
# `artifacts` is the single source of truth for what each stage produces;
# the workflow upload steps consume it (./ci.sh artifacts tier1), so a
# new smoke artifact added here can never silently miss upload.
#
# All cargo invocations are --offline: every external dependency is
# vendored under crates/shims/ (see Cargo.toml), so CI needs no registry.
set -euo pipefail
cd "$(dirname "$0")"

step() { printf '\n== %s ==\n' "$*"; }
fail() { echo "ci.sh: $*" >&2; exit 1; }

# Artifact manifest per stage (tier1 includes its embedded zolo leg).
artifacts_for() {
    case "$1" in
        tier1)
            printf '%s\n' \
                target/bench_smoke.json \
                target/profile_smoke.json \
                target/trace_smoke.json \
                target/analyze_smoke.json
            artifacts_for zolo
            ;;
        zolo)
            printf '%s\n' \
                target/profile_zolo_smoke.json \
                target/trace_zolo_smoke.json \
                target/analyze_zolo_smoke.json
            ;;
        workspace)
            printf '%s\n' target/svc_sweep_smoke.json
            ;;
        verify)
            printf '%s\n' ACCURACY_report.json
            ;;
        bench)
            printf '%s\n' benchmark/out/result.json
            ;;
        *) fail "no artifact manifest for stage '$1'" ;;
    esac
}

# Delete a stage's artifacts up front (a leftover file from an earlier
# run must never satisfy the non-empty checks), run the stage body, then
# require every manifest entry to exist non-empty.
check_artifacts() {
    local f
    while IFS= read -r f; do
        test -s "$f" || fail "stage produced empty or missing artifact: $f"
    done < <(artifacts_for "$1")
}

stage_lint() {
    step "rustfmt"
    cargo fmt --check

    step "clippy (workspace, all targets, deny warnings)"
    cargo clippy --offline --workspace --all-targets -- -D warnings

    step "one emitter per tile graph: tile-QR kernels named in lapack only"
    # every tile graph is emitted by crates/lapack/src/tiled.rs; a second
    # file calling the kernels, under any of their names, is a second copy
    # of a graph
    local kernels='\b(geqrt|tsqrt|tsmqr|unmqr_tile)(_blocked(_into)?)?\('
    local strays
    # (kernels_perf times the kernels one by one; it emits no graph)
    strays=$(grep -rlE "$kernels" crates/*/src \
        | grep -vE '^crates/(lapack/src/(tile_qr|tiled)|bench/src/bin/kernels_perf)\.rs$' || true)
    test -z "$strays" || fail "tile kernels called outside polar-lapack's tiled.rs: $strays"
    # nor may a second file add factorization tasks to a graph, with or
    # without bodies: the simulator and the communication meter read the
    # graph the emit modules build. (Not tile graphs: polar-runtime's and
    # sim/real.rs's unit tests build toy graphs in the vocabulary.)
    local emitters='lapack/src/tiled|core/src/(graph|solve_dag)'
    emitters="$emitters|runtime/src/[a-z_]+|sim/src/real"
    strays=$(grep -rlPzo '\badd(_task|_on)?\(\s*KernelKind::(Geqrt|Tsqrt|Tsmqr|Unmqr|Potrf)\b' crates/*/src \
        | grep -vE "^crates/($emitters)\.rs$" || true)
    test -z "$strays" || fail "tile-factorization tasks added outside the emit modules: $strays"
    # and the Cholesky term (factor, invert the diagonal tiles, two sweeps)
    # is emitted by solve_dag.rs for every step: the whole-solve graph may
    # not carry a sweep of its own
    strays=$(grep -rlE '\b(emit_potrf|trtri_lower)\(' crates/core/src \
        | grep -vE '^crates/core/src/solve_dag\.rs$' || true)
    test -z "$strays" || fail "Cholesky sweep emitted outside core's solve_dag.rs: $strays"
    # a step is emitted once, for QDWH's one term and Zolo-PD's r: the
    # phase loop of a whole-solve graph is in one file
    strays=$(grep -rl 'next_phase(' crates/core/src || true)
    test "$strays" = crates/core/src/graph.rs \
        || fail "the whole-solve phase loop is not in core's graph.rs alone: $strays"

    step "one solve skeleton: estimate, plan, cost and telemetry written in core's skeleton.rs only"
    # Algorithm 1's recipe around the task graphs is crates/core/src/skeleton.rs;
    # a second file calling what it is built from is a second copy of a stage.
    # Each rule: code lines (comments dropped) matching a pattern may sit only
    # in the files named. The simulator's cost model is independent on
    # purpose (like sim/kernel_flops.rs): what it predicts is checked
    # against what the solver reports.
    local rule pattern allowed
    for rule in \
        '\b(halley_parameters|update_ell)\(@core/src/(skeleton|params)\.rs' \
        '\b(tr_sigma_min_est|trcondest|gecondest)\b@core/src/skeleton\.rs|lapack/src/.*' \
        '\bQdwhInfo \{@core/src/skeleton\.rs' \
        '8\.0 \+ 2\.0 / 3\.0|10\.0 / 3\.0@core/src/skeleton\.rs|sim/src/.*'
    do
        pattern=${rule%@*} allowed=${rule##*@}
        strays=$(grep -rnE "$pattern" crates/*/src | grep -vE '^[^:]+:[0-9]+:\s*//' \
            | cut -d: -f1 | sort -u | grep -vE "^crates/($allowed)$" || true)
        test -z "$strays" || fail "a solve stage written outside the skeleton ($pattern): $strays"
    done

    step "env knobs: every POLAR_* name in the sources is on the list"
    # each knob is one more configuration to test and to benchmark; adding
    # one means adding a line here, where a reviewer sees it
    # (POLAR_TEST_UNSET_VAR_XYZ is a unit test's never-set name)
    local knobs='POLAR_DETERMINISTIC POLAR_GEMM_KC POLAR_GEMM_MC POLAR_GEMM_MR
        POLAR_GEMM_NC POLAR_GEMM_NR POLAR_LOG POLAR_METRICS
        POLAR_NUM_THREADS POLAR_PAR_THRESHOLD_FLOPS POLAR_SEED
        POLAR_TEST_UNSET_VAR_XYZ POLAR_TRACE'
    strays=$(grep -rhoE '"POLAR_[A-Z0-9_]+"' crates/*/src crates/shims/*/src src \
        | tr -d '"' | sort -u | grep -vxFf <(printf '%s\n' $knobs) || true)
    test -z "$strays" || fail "env knob read but not on ci.sh's list: $strays"

    step "one path: no switch beside the task graph"
    # every solve is a task graph (DESIGN section 12): the flat loop, the
    # option that picked it and the env pin that forced it are gone, and a
    # second implementation of a step comes back under one of these names
    strays=$(grep -rlE 'TiledPath|TiledDecision|POLAR_TILED' --include='*.rs' \
        crates/*/src src tests examples || true)
    test -z "$strays" || fail "the tiled/flat switch is back: $strays"

    step "one queue, one job epilogue: no channel shim, no second finish"
    # the service's queue is crates/svc/src/queue.rs and a job's result a
    # std sync_channel; the channel shim had one user
    strays=$(grep -rli crossbeam --include='Cargo.toml' --include='*.rs' \
        Cargo.toml crates src tests examples || true)
    test -z "$strays" || fail "crossbeam is named again: $strays"
    # a job that ran ends in worker.rs' finish_job; the only other send is
    # the queued-cancel return of a job that never ran. A second copy of
    # the epilogue comes back as a third send
    local sends
    sends=$(grep -c 'result_tx\.send' crates/svc/src/worker.rs)
    test "$sends" -eq 2 || fail "worker.rs sends on result_tx in $sends places, not 2"
    strays=$(grep -rn 'falling back to scalar' crates || true)
    test -z "$strays" || fail "a fused group re-runs as scalar jobs again: $strays"

    step "unsafe: the word appears in code only in the files on the list"
    # raw-pointer code lives in a few audited files (DESIGN section 10);
    # everything else that could hold it is #![forbid(unsafe_code)] or
    # caught here. A new site means a new line below, where a reviewer
    # sees it
    local unsafe_ok='matrix/src/view|blas/src/packed|lapack/src/tiled|shims/rayon/src/[a-z_]+'
    strays=$(grep -rnw unsafe --include='*.rs' crates/*/src crates/*/tests crates/shims/*/src \
            src tests examples \
        | grep -vE '^[^:]+:[0-9]+:\s*//' | cut -d: -f1 | sort -u \
        | grep -vE "^crates/($unsafe_ok)\.rs$" || true)
    test -z "$strays" || fail "unsafe outside the allow-list: $strays"
    local c
    for c in core obs svc sim gen verify scalar runtime batch; do
        grep -qx '#!\[forbid(unsafe_code)\]' "crates/$c/src/lib.rs" \
            || fail "crates/$c/src/lib.rs lost its #![forbid(unsafe_code)]"
    done

    step "no boxed iterators on the tile path"
    # a tile body runs slice loops and packed kernels; an iterator chosen at
    # run time behind a Box is an allocation and an indirect call per step
    strays=$(grep -rl 'Box<dyn Iterator' crates/blas/src \
        crates/lapack/src/tile_qr.rs crates/lapack/src/qr.rs crates/lapack/src/householder.rs || true)
    test -z "$strays" || fail "Box<dyn Iterator> under a tile task: $strays"
}

stage_tier1() {
    step "tier-1: release build"
    cargo build --offline --release

    step "tier-1: root package tests"
    cargo test --offline -q

    artifacts_for tier1 | xargs rm -f

    step "bench-smoke: packed GEMM vs reference, all types"
    cargo run --offline --release -p polar-bench --bin kernels_perf -- \
        --smoke --out target/bench_smoke.json >/dev/null

    step "profile-smoke: instrumented QDWH + Zolo, trace + post-mortem checks"
    # validates the Chrome trace, profile JSON, and scheduler post-mortem
    # (per-worker utilization <= 1, makespan >= measured critical path,
    # the sim-vs-real row re-parses) and asserts the disabled-path span
    # overhead stays under 1% of a small gemm; --analyze runs at n = 512,
    # so the post-mortem covers a graph of several tile columns
    POLAR_NUM_THREADS="${POLAR_NUM_THREADS:-4}" \
    cargo run --offline --release -p polar-bench --bin solver_profile -- \
        --smoke --analyze --out target/profile_smoke.json \
        --trace target/trace_smoke.json \
        --analyze-out target/analyze_smoke.json >/dev/null

    stage_zolo
    check_artifacts tier1
}

stage_zolo() {
    step "zolo: plan, QR accounting, accuracy + bitwise determinism (pinned schedule)"
    # the r-way graph must run the scalar plan with its QR accounting and
    # meet the accuracy bars for every scalar type, and be bitwise
    # deterministic via its fixed-order reduction; POLAR_DETERMINISTIC=1
    # additionally pins the pool schedule so the run is replayable
    POLAR_DETERMINISTIC=1 \
    cargo test --offline --release -q -p polar-qdwh zolo

    artifacts_for zolo | xargs rm -f

    step "zolo: r=4 solve, post-mortem branch-concurrency gate"
    # --zolo-cp-gate asserts the measured critical path of the fused r=4
    # dag sits strictly below the serial sum of its QR-class task
    # durations — i.e. the analyzer saw >= 2 concurrently-runnable QR
    # branches. The CP is computed from the dependency graph, so the
    # gate holds even on single-core runners. It also asserts the dag
    # holds task_potrf tasks and qr_factorizations < r * iterations: a
    # silent fall-back to QR-only iterations fails here.
    POLAR_NUM_THREADS="${POLAR_NUM_THREADS:-4}" \
    cargo run --offline --release -p polar-bench --bin solver_profile -- \
        --smoke --analyze --zolo-r 4 --zolo-cp-gate \
        --out target/profile_zolo_smoke.json \
        --trace target/trace_zolo_smoke.json \
        --analyze-out target/analyze_zolo_smoke.json >/dev/null

    check_artifacts zolo
}

stage_workspace() {
    step "workspace tests"
    cargo test --offline -q --workspace

    step "serving tier in the build it ships in"
    # the service's timing tests calibrate themselves, and the batch
    # engine's bitwise claims are about optimized kernels
    cargo test --offline --release -q -p polar-svc -p polar-batch

    step "facade builds standalone"
    cargo build --offline --release -p polar

    step "distributed emulation: the graph meter on 1x1 ... 4x4 grids"
    # solve -> emit -> place -> meter on every grid; the example asserts
    # the factors do not depend on the grid
    cargo run --offline --release -q --example distributed_emulation >/dev/null

    step "batch-sweep smoke: fused service batches + engine comparison"
    # exercises JobKind::Batched end-to-end (submit_batch -> dispatcher
    # coalescing -> fused worker path) and re-parses the artifact; the
    # full sweep that refreshes the checked-in BENCH_svc.json runs
    # nightly (.github/workflows/nightly.yml)
    artifacts_for workspace | xargs rm -f
    cargo run --offline --release -p polar-bench --bin svc_loadgen -- \
        --batch-sweep --smoke --out target/svc_sweep_smoke.json >/dev/null
    check_artifacts workspace
}

stage_verify() {
    step "accuracy gate (deterministic replay, two runs, byte compare)"
    rm -f target/verify_run_a.json target/verify_run_b.json ACCURACY_report.json
    POLAR_DETERMINISTIC=1 POLAR_SEED=42 \
    cargo run --offline --release -q -p polar-verify -- \
        --gate --out target/verify_run_a.json
    POLAR_DETERMINISTIC=1 POLAR_SEED=42 \
    cargo run --offline --release -q -p polar-verify -- \
        --gate --out target/verify_run_b.json >/dev/null
    cmp target/verify_run_a.json target/verify_run_b.json \
        || fail "deterministic replay broken: the two gate reports differ"
    cp target/verify_run_a.json ACCURACY_report.json
    check_artifacts verify
    echo "deterministic replay OK: reports byte-identical"
}

stage_bench() {
    # The benchmark is a package of its own (own workspace and lock file),
    # so the workspace stages never build it. Its unit tests pin the
    # contract with BENCHMARK.json; the smoke run drives every workload
    # (tiny shapes, seconds in total) through the same code as a real run
    # and exits non-zero if any operation fails its output check. It
    # writes only to the git-ignored benchmark/out.
    step "bench: benchmark package unit tests"
    cargo test --offline --manifest-path benchmark/Cargo.toml

    artifacts_for bench | xargs rm -f

    step "bench: smoke run, all workloads, outputs checked"
    cargo run --release --offline --manifest-path benchmark/Cargo.toml -- run --smoke
    check_artifacts bench
}

case "${1:-all}" in
    lint)      stage_lint ;;
    tier1)     stage_tier1 ;;
    zolo)      stage_zolo ;;
    workspace) stage_workspace ;;
    verify)    stage_verify ;;
    bench)     stage_bench ;;
    fast)      stage_lint; stage_tier1 ;;
    all)       stage_lint; stage_tier1; stage_workspace; stage_verify; stage_bench ;;
    artifacts) artifacts_for "${2:?usage: ./ci.sh artifacts <stage>}"; exit 0 ;;
    *)         fail "unknown stage '${1}' (expected lint|tier1|zolo|workspace|verify|bench|fast|all|artifacts)" ;;
esac

step "OK"
