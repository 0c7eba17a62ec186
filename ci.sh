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
#   ./ci.sh verify      # accuracy gate, run on pools of 1 and 4 workers —
#                       # the two reports must be byte-identical
#   ./ci.sh figures     # regenerate every paper artifact under results/;
#                       # fails on any drift
#   ./ci.sh bench       # benchmark package: its unit tests + a smoke run
#                       # of all five workloads with every output checked
#   ./ci.sh fast        # lint + tier1 only
#   ./ci.sh hashes [REV]
#                       # solve_hashes of this tree and of REV (default
#                       # HEAD): fails on any line that moved; not in `all`
#                       # (CI runs it on pull requests against the base)
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
                target/kernels_perf.json \
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
        workspace) ;; # tests and runs that check themselves: no artifact
        verify)
            printf '%s\n' ACCURACY_report.json
            ;;
        figures)
            printf '%s\n' results/all_figures.txt
            ;;
        bench)
            printf '%s\n' benchmark/out/result.json
            ;;
        hashes)
            printf '%s\n' target/hashes/here.txt target/hashes/there.txt
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
    # and a QR-based step is one emitter at every `terms`: X factored in
    # place, each term's QR over its R (no stacked QR of X itself)
    strays=$(grep -rlE '\bemit_term\b|QrStructure::Stacked\b' crates/*/src || true)
    test -z "$strays" || fail "a second QR-based step (emit_term / QrStructure::Stacked): $strays"

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

    step "one step definition: the batch engine plays the skeleton's Steps"
    # polar-batch reads every coefficient of a step off skeleton::Step
    # (Term::applied); a Halley step type of its own, or the old update's
    # theta / beta, is a second copy of the step. The type is gone from the
    # sources and the design documents (CHANGES.md is history)
    strays=$(grep -rlwE 'HalleyStep|halley_update|theta|beta' crates/batch/src || true)
    test -z "$strays" || fail "the batch engine writes its own Halley step: $strays"
    strays=$(grep -rlw HalleyStep --include='*.rs' crates src tests examples benchmark/src || true)
    strays+=$(grep -lw HalleyStep README.md DESIGN.md EXPERIMENTS.md ROADMAP.md || true)
    test -z "$strays" || fail "a second step type is back: $strays"

    step "one options type: Zolo-PD is qdwh with QdwhOptions::terms > 1"
    # one entry point, one options type, one job kind: a Zolo-PD options
    # type, outcome wrapper, entry point or job kind beside them is a second
    # API. Only the compat module of core's zolo.rs names these, for
    # benchmark/ (exempt until its workload moves to qdwh)
    local zolo_api='\b(ZoloOptions|ZoloOutcome|zolo_pd|with_zolo_r)\b|\bJobKind::Zolo\b'
    strays=$( {
        grep -rnE "$zolo_api" --include='*.rs' crates/*/src crates/*/tests src examples tests \
            | grep -v '^crates/core/src/zolo\.rs:' || true
        awk '/^pub mod compat \{/,/^\}/ { next } { print FILENAME ":" FNR ":" $0 }' \
            crates/core/src/zolo.rs | grep -E "$zolo_api" || true
    } | cut -d: -f1 | sort -u)
    test -z "$strays" || fail "Zolo-PD named outside QdwhOptions::terms: $strays"

    step "env knobs: every POLAR_* name in the sources is on the list"
    # each knob is one more configuration to test and to benchmark; adding
    # one means adding a line here, where a reviewer sees it
    # (POLAR_TEST_UNSET_VAR_XYZ is a unit test's never-set name)
    local knobs='POLAR_GEMM_KC POLAR_GEMM_MC POLAR_GEMM_MR POLAR_GEMM_NC
        POLAR_GEMM_NR POLAR_LOG POLAR_METRICS POLAR_NUM_THREADS
        POLAR_PAR_THRESHOLD_FLOPS POLAR_TEST_UNSET_VAR_XYZ POLAR_TRACE'
    strays=$(grep -rhoE '"POLAR_[A-Z0-9_]+"' crates/*/src crates/shims/*/src src \
        | tr -d '"' | sort -u | grep -vxFf <(printf '%s\n' $knobs) || true)
    test -z "$strays" || fail "env knob read but not on ci.sh's list: $strays"

    step "no replay mode: a solve's bits depend on its shape, a schedule is a one-worker pool"
    # the tile size is a function of the shape (auto_tile_nb), so no env
    # pin, seeded pool or ordered join is left to make a run reproducible.
    # (The bracketed underscores keep this guard from matching itself;
    # CHANGES.md and ROADMAP.md are history and not searched)
    strays=$(grep -rlE 'deterministic[_]mode|with[_]seed|POLAR_(DETERMINISTIC|SEED)\b' \
        crates src tests examples ci.sh .github README.md DESIGN.md EXPERIMENTS.md \
        .claude/skills/verify/SKILL.md || true)
    test -z "$strays" || fail "deterministic replay is named again: $strays"

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

    step "one perf harness: no timing artifact at the repository root"
    # benchmark/ regenerates every performance number at the revision it
    # runs on; the harnesses write under target/, so the one JSON file
    # tracked at the root is the benchmark's declaration
    strays=$(git ls-files -- '*.json' | grep -v / | grep -vx BENCHMARK.json || true)
    test -z "$strays" || fail "JSON tracked at the repository root: $strays"

    step "one figures harness: the paper artifacts come from figures.rs alone"
    # every results/ file but the accuracy baseline is written by one run of
    # `figures` (./ci.sh figures holds them to it); a figure binary or a
    # writer under results/ beside it is a copy ./ci.sh figures never runs
    strays=$(ls crates/bench/src/bin \
        | grep -vxE '(figures|kernels_perf|solver_profile|schedule_trace)\.rs' || true)
    test -z "$strays" || fail "a binary beside figures in crates/bench/src/bin: $strays"
    strays=$(grep -rnE '"results(/|")' --include='*.rs' crates src tests examples benchmark/src \
        | grep -vE '^[^:]+:[0-9]+:\s*//' | grep -v '"results/ACCURACY_baseline\.json"' \
        | cut -d: -f1 | sort -u | grep -vx crates/bench/src/bin/figures.rs || true)
    test -z "$strays" || fail "results/ written outside figures.rs: $strays"

    step "unsafe: the word appears in code only in the files on the list"
    # raw-pointer code lives in a few audited files (DESIGN section 10);
    # everything else that could hold it is #![forbid(unsafe_code)] or
    # caught here. A new site means a new line below, where a reviewer
    # sees it
    # (tests/heap_budget.rs: the counting global allocator it measures with)
    local unsafe_ok='matrix/src/view|blas/src/packed|lapack/src/tiled|shims/rayon/src/[a-z_]+'
    strays=$(grep -rnw unsafe --include='*.rs' crates/*/src crates/*/tests crates/shims/*/src \
            src tests examples \
        | grep -vE '^[^:]+:[0-9]+:\s*//' | cut -d: -f1 | sort -u \
        | grep -vE "^crates/($unsafe_ok)\.rs$" | grep -vx tests/heap_budget.rs || true)
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
        crates/lapack/src/tile_qr.rs crates/lapack/src/householder.rs || true)
    test -z "$strays" || fail "Box<dyn Iterator> under a tile task: $strays"

    step "docs point at existing files"
    # a backticked *.rs path in a design document names a file a reader
    # will open: repository-relative, or relative to crates/
    # (core/src/graph.rs). Bare file names are not checked
    local doc path
    strays=$(for doc in DESIGN.md README.md EXPERIMENTS.md .claude/skills/verify/SKILL.md; do
        grep -oE '`[A-Za-z0-9_.-]+(/[A-Za-z0-9_.-]+)+\.rs`' "$doc" | tr -d '`' | sort -u \
            | while read -r path; do
                test -e "$path" || test -e "crates/$path" || echo "$doc: $path"
            done
    done)
    test -z "$strays" || fail "docs name .rs files that do not exist: $strays"

    step "docs cite open ROADMAP items"
    # a "ROADMAP item N" in code, this script or a design document names a
    # numbered item under ROADMAP.md's "Open items": a closed item's number
    # is retired, not reused (CHANGES.md and ROADMAP.md are history). A
    # citation may wrap: a line break and a comment marker read as a space
    local open
    open=$(awk '/^## Open items/ { on = 1; next } /^\*\*Parked\*\*|^## / { on = 0 } on' ROADMAP.md \
        | grep -oE '^[0-9]+\. \*\*' | grep -oE '^[0-9]+')
    strays=$(for doc in $(grep -rlw ROADMAP --include='*.rs' crates src tests examples) ci.sh \
            DESIGN.md README.md EXPERIMENTS.md .claude/skills/verify/SKILL.md; do
        perl -0777 -ne 's{\s*\n\s*(?://[/!]?|#)?\s*}{ }g;
            print "$ARGV $1\n" while /ROADMAP (?:[Oo]pen )?items? (\d+)/g' "$doc"
    done | while read -r doc n; do grep -qx "$n" <<< "$open" || echo "$doc: item $n"; done)
    test -z "$strays" || fail "docs cite ROADMAP items that are not open: $strays"

    step "emit-site census: DESIGN.md's add_on count is the code's"
    # every task over tile storage is added with TaskDag::add_on, in the two
    # emit modules; DESIGN.md's "All N emit sites go through `add_on`" is
    # counted here (code lines only), not by hand
    local sites claimed
    sites=$(grep -hE '\badd_on\(' crates/lapack/src/tiled.rs crates/core/src/solve_dag.rs \
        | grep -cvE '^\s*//' || true)
    claimed=$(grep -oE 'All [0-9]+ emit sites go through `add_on`' DESIGN.md \
        | grep -oE '[0-9]+' || true)
    test "$claimed" = "$sites" \
        || fail "DESIGN.md counts '${claimed}' add_on emit sites; tiled.rs and solve_dag.rs have $sites"
}

stage_tier1() {
    step "tier-1: release build"
    cargo build --offline --release

    step "tier-1: root package tests"
    cargo test --offline -q

    step "heap budget: each case's peak, buffers, allowance and slack in tiles"
    # tests/heap_budget.rs again, with its one line per case shown: the
    # slack a change quotes is this log's
    cargo test --offline -q --test heap_budget -- --nocapture

    artifacts_for tier1 | xargs rm -f

    step "kernels_perf: single-lane tile-kernel rates, all types"
    # the one kernel-level row benchmark/ does not measure; the kernels'
    # correctness is polar-blas' and polar-lapack's tests
    cargo run --offline --release -p polar-bench --bin kernels_perf -- \
        --out target/kernels_perf.json >/dev/null

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
    step "zolo: plan, QR accounting, accuracy + bitwise determinism"
    # the r-way graph must run the scalar plan with its QR accounting and
    # meet the accuracy bars for every scalar type, and be bitwise
    # deterministic via its fixed-order reduction
    cargo test --offline --release -q -p polar-qdwh zolo

    artifacts_for zolo | xargs rm -f

    step "zolo: r=4 solve, post-mortem branch-concurrency gate"
    # --zolo-cp-gate asserts the measured critical path of the fused r=4
    # dag sits strictly below the serial sum of its QR-class task
    # durations — i.e. the analyzer saw >= 2 concurrently-runnable QR
    # branches. The CP is computed from the dependency graph, so the
    # gate holds even on single-core runners. It also asserts the dag
    # holds task_potrf tasks and that the stacked QRs, r per QR-based
    # iteration (terms * info.qr_iterations), number fewer than
    # r * iterations: a silent fall-back to QR-only iterations fails here.
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

    step "the l0 audit at full size (its debug run is one seed, one shape)"
    cargo test --offline --release -q -p polar-qdwh --test l0_audit

    step "serving tier in the build it ships in"
    # the service's timing tests calibrate themselves, and the batch
    # engine's bitwise claims are about optimized kernels
    cargo test --offline --release -q -p polar-svc -p polar-batch

    step "facade builds standalone"
    cargo build --offline --release -p polar
}

stage_verify() {
    step "accuracy gate (pools of 1 and 4 workers, byte compare)"
    rm -f target/verify_w1.json target/verify_w4.json ACCURACY_report.json
    POLAR_NUM_THREADS=1 \
    cargo run --offline --release -q -p polar-verify -- \
        --gate --out target/verify_w1.json
    POLAR_NUM_THREADS=4 \
    cargo run --offline --release -q -p polar-verify -- \
        --gate --out target/verify_w4.json >/dev/null
    cmp target/verify_w1.json target/verify_w4.json \
        || fail "the report depends on the pool width: the 1- and 4-worker reports differ"
    cp target/verify_w1.json ACCURACY_report.json
    check_artifacts verify
    echo "the report does not depend on the pool width: 1- and 4-worker reports byte-identical"
}

stage_figures() {
    step "figures: every paper artifact regenerated, byte for byte"
    # the real-arithmetic rows depend on the microkernel alone (a solve's
    # tile size is a function of its shape, not of the pool width); the
    # model rows depend on nothing. The tracked artifacts are deleted
    # first, so one the run does not rewrite shows as deleted, and nothing
    # under results/ is git-ignored, so a new one shows as untracked
    git ls-files results | grep -vx results/ACCURACY_baseline.json | xargs rm -f
    cargo run --offline --release -q -p polar-bench --bin figures >/dev/null
    check_artifacts figures
    local drift
    drift=$(git status --porcelain results/)
    if test -n "$drift"; then
        git --no-pager diff --no-color results/ | head -40 >&2 || true
        fail "results/ drifted from the checked-in artifacts (git checkout results/ restores them):
$drift"
    fi
    echo "figures OK: results/ byte-identical to the checked-in artifacts"
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

stage_hashes() {
    # Bit identity against another commit: export REV's tree under the
    # git-ignored target/ (git archive: nothing to unregister after an
    # interrupted run), build it there, and run this tree's
    # examples/solve_hashes.rs — one FNV line per pinned solve — on both.
    # One directory per commit, with its own target directory, kept: a
    # second run against the same commit only rebuilds the example. (Two
    # trees sharing one target directory were seen to link one tree's
    # crates into the other's binary.) A full second build, so not part
    # of `all`.
    local rev="${1:-HEAD}" sha tree
    sha=$(git rev-parse --verify --quiet "${rev}^{commit}") || fail "hashes: unknown revision '$rev'"
    tree=target/hashes/$sha
    step "hashes: solve_hashes of the working tree and of $rev (${sha:0:12})"
    if ! test -f "$tree/Cargo.toml"; then
        rm -rf "$tree"
        mkdir -p "$tree"
        git archive "$sha" | tar -x -C "$tree"
    fi
    cp examples/solve_hashes.rs "$tree/examples/solve_hashes.rs"
    cargo run --offline --release -q --example solve_hashes > target/hashes/here.txt
    (cd "$tree" && CARGO_TARGET_DIR=target cargo run --offline --release -q --example solve_hashes) \
        > target/hashes/there.txt
    if ! diff target/hashes/there.txt target/hashes/here.txt; then
        fail "hashes: the lines above moved against $rev ('<' there, '>' here)"
    fi
    echo "hashes OK: $(wc -l < target/hashes/here.txt) lines bit-identical to $rev"
}

case "${1:-all}" in
    lint)      stage_lint ;;
    tier1)     stage_tier1 ;;
    zolo)      stage_zolo ;;
    workspace) stage_workspace ;;
    verify)    stage_verify ;;
    figures)   stage_figures ;;
    bench)     stage_bench ;;
    fast)      stage_lint; stage_tier1 ;;
    hashes)    stage_hashes "${2:-HEAD}" ;;
    all)       stage_lint; stage_tier1; stage_workspace; stage_verify; stage_figures; stage_bench ;;
    artifacts) artifacts_for "${2:?usage: ./ci.sh artifacts <stage>}"; exit 0 ;;
    *)         fail "unknown stage '${1}' (expected lint|tier1|zolo|workspace|verify|figures|bench|fast|hashes|all|artifacts)" ;;
esac

step "OK"
