#!/usr/bin/env bash
# Offline tier-1 gate for the SampleAttention reproduction.
#
# Runs the hermetic build + test cycle exactly as CI would, then smokes
# one figure binary and one example end to end. Everything runs with
# --offline: the workspace has no external crate dependencies (see
# DESIGN.md, "Hermetic build policy"), so a network-less build must
# succeed from a cold checkout.
#
# Usage: scripts/verify.sh

set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> tier 1: cargo build --workspace --release --offline"
cargo build --workspace --release --offline

echo "==> codegen guard: the dispatched inner loops (FMA in every product loop and none in the others, ymm in the AVX2 builds, zmm in the AVX-512 builds, 16 zmm FMAs in the AVX-512 GEMM, 96 in the AVX-512 tile fold, no out-of-line helper calls, no libm expf or fmaf)"
# The score panel, the row fold, the tile fold, the row softmax, the
# packed-weight GEMM and the non-finite count are each one body compiled
# for the baseline ISA, for
# AVX2 + FMA and for AVX-512 (DESIGN.md 5g). Their results are the same
# bits because every product they accumulate is one fused multiply-add,
# a single rounding IEEE 754 defines exactly: the wide builds must issue
# `vfmadd` for it (a product loop without one has fallen back to a
# multiply and an add, which rounds twice), the row softmax has no
# product and must issue none (one there is a contraction), and a wide
# build is only worth dispatching to while it really is 8 or 16 lanes
# wide. The AVX-512 GEMM must hold at least 16 zmm FMAs, its four rows by
# a whole 64-lane panel: a tile that fell back to fewer accumulator chains
# (the 8-row x 16-lane tile held 9) or to scalar code fails here, and no
# test would notice, since the bits are the same. Likewise the AVX-512
# tile fold must hold at least 96 zmm FMAs: step 5 keeps a value row
# narrower than its 64-column chunk (the model's 32-column values) in
# 32-, 16- and 8-column register chunks, and with them the fold held 154;
# without them such a row went key by key through memory and the fold
# held 56. The score panel is
# generic over its row count and the row fold
# over the caller's closure, so each is compiled where it is called:
# sa-kernels holds the engine's instantiations of both (the panel for
# one, two and four query rows), sa-core stage 1's panel for one, two
# and four sampled rows; sa-tensor holds the tile fold (its four-row,
# pair and single-row step 5 are inlined into one body per build), the
# row softmax, the GEMM and the health sentinels' non-finite count (an
# integer scan with no product: like the softmax, it must issue no FMA)
# and the panel dots behind `matmul_transb` and the attention scores,
# whose every product is rounded before it is added, as the scalar dot
# it must equal: no FMA either.
# A wide build must also call no closure, `call_mut`, `try_map` or
# `from_fn` body: the compiler builds such a helper out of line for the
# baseline ISA, so every call leaves the wide code (the fold once called
# SSE `maxps` through `array::from_fn` four times a quad, with a
# `vzeroupper` before each), with the same bits, so no test notices.
# Helpers inside a wrapper are plain loops, indexing and
# `#[inline(always)]` functions.
# And the bits are libm-independent only while every f32
# exponential on the pipeline path is `sa_tensor::exp` and every fused
# product off the wide builds is `sa_tensor::fma`: a reference to `expf`
# or `fmaf` in a pipeline crate's objects is a call that slipped past
# them (`f32::mul_add` outside an `fma` build is a libm call).
if [ "$(uname -m)" != "x86_64" ]; then
    echo "skipped: not an x86_64 host, only the baseline build exists"
elif ! command -v objdump >/dev/null; then
    echo "skipped: objdump not installed"
else
    # objdump exits non-zero on the archive's metadata member; the awk
    # verdict is the status that counts.
    for lib in sa_kernels sa_core sa_tensor; do
        objdump -d -r --no-show-raw-insn -C "target/release/lib$lib.rlib" 2>/dev/null || true
    done | awk '
        function loop(s) {
            return s ~ /score_panel_/ ? "score_panel" : s ~ /gemm_rows_/ ? "gemm_rows" : \
                s ~ /fold_tile_/ ? "fold_tile" : s ~ /softmax_rows_/ ? "softmax_rows" : \
                s ~ /count_nonfinite_/ ? "count_nonfinite" : s ~ /dot_panel_/ ? "dot_panel" : "fold"
        }
        # One entry per function body: generic instantiations share a name.
        /^[0-9a-f]+ <.*>:$/ {
            sym = $2 " (function " ++bodies ")"
            if (sym ~ /(score_panel|fold|fold_tile|softmax_rows|gemm_rows|count_nonfinite|dot_panel)_avx(2|512)>/) {
                wide[sym] = 0
                fused[sym] = 0
            }
            next
        }
        # A relocation names the target of a call in the listing before it.
        /R_X86_64_/ {
            if (sym in wide && $0 ~ /closure|call_mut|try_map|from_fn|accumulate/) {
                sub(/^[ \t]*[0-9a-f]+:[ \t]*R_X86_64_[A-Z0-9_]+[ \t]*/, "")
                print sym " calls the out-of-line helper " $0
                bad = 1
            }
            next
        }
        /vfn?m(add|sub)/ { if (sym in fused) fused[sym]++ }
        /vfn?m(add|sub).*%zmm/ { if (sym in fused) zfused[sym]++ }
        /%ymm/ { if (sym in wide && sym ~ /_avx2>/) wide[sym]++ }
        /%zmm/ { if (sym in wide && sym ~ /_avx512>/) wide[sym]++ }
        END {
            for (s in wide) {
                build = s ~ /_avx512>/ ? "avx512" : "avx2"
                count[loop(s) "_" build]++
                if (wide[s] == 0) {
                    print "no " (build == "avx512" ? "zmm" : "ymm") " operand in " s
                    bad = 1
                }
                unfused = loop(s) == "softmax_rows" || loop(s) == "count_nonfinite" || loop(s) == "dot_panel"
                if (unfused && fused[s] > 0) {
                    print "FMA instruction in " s ", which has no product to fuse"
                    bad = 1
                }
                if (!unfused && fused[s] == 0) {
                    print "no FMA instruction in " s
                    bad = 1
                }
                if (loop(s) == "gemm_rows" && build == "avx512" && zfused[s] < 16) {
                    print zfused[s] + 0 " zmm FMA instructions in " s ", fewer than the 4-row x 4-register tile holds"
                    bad = 1
                }
                if (loop(s) == "fold_tile" && build == "avx512" && zfused[s] < 96) {
                    print zfused[s] + 0 " zmm FMA instructions in " s ": step 5 lost its narrow register chunks"
                    bad = 1
                }
            }
            split("score_panel fold fold_tile softmax_rows gemm_rows count_nonfinite dot_panel", loops, " ")
            for (i = 1; i <= 7; i++) {
                for (b = 1; b <= 2; b++) {
                    name = loops[i] "_" (b == 1 ? "avx2" : "avx512")
                    if (!count[name]) { print "no " name " instantiation found"; bad = 1 }
                }
                printf "%s: %d AVX2, %d AVX-512 instantiations checked\n", loops[i], \
                    count[loops[i] "_avx2"], count[loops[i] "_avx512"]
            }
            exit bad
        }' || {
        echo "codegen guard: a dispatched loop would not give the same bits, lost a wide build, or calls a helper out of line" >&2
        exit 1
    }
    for lib in sa_tensor sa_kernels sa_core sa_model; do
        # Read the whole listing first: `objdump | grep -q` under pipefail
        # fails exactly when grep finds a match and closes the pipe early.
        relocs="$(objdump -r "target/release/lib$lib.rlib" 2>/dev/null || true)"
        for call in expf fmaf; do
            if grep -qw "$call" <<<"$relocs"; then
                echo "codegen guard: lib$lib.rlib references libm's $call — use sa_tensor::${call%f}" >&2
                exit 1
            fi
        done
    done
    echo "no expf or fmaf reference in libsa_{tensor,kernels,core,model}.rlib"
fi

echo "==> rustdoc: cargo doc --workspace --no-deps with warnings as errors"
# An intra-doc link to a deleted, renamed or private item is a rustdoc
# warning, which the build and the tests never print: deny them here so
# a removed name cannot leave a dangling link behind.
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --offline

echo "==> clippy: every workspace target with warnings as errors"
# A lint exception is a scoped #[allow(..)] with its reason beside it,
# never a crate-wide one.
cargo clippy --workspace --all-targets --offline -- -D warnings

echo "==> merge gate link surface: cargo test on the benchmark package"
# benchmark/ is a package of its own that compiles against the crates'
# public names; neither tier 1 nor the workspace passes below build it, so
# a renamed or removed signature would first show as the pipeline's
# benchmark run failing to build. Its tests also run a 256-token miniature
# of every workload. --locked: a new dependency edge between crates must
# fail here, not rewrite benchmark/Cargo.lock.
cargo test -q --offline --locked --manifest-path benchmark/Cargo.toml

echo "==> tier 1: cargo test --workspace -q --offline (SA_THREADS=1)"
SA_THREADS=1 cargo test --workspace -q --offline

echo "==> tier 1: cargo test --workspace -q --offline (default threads)"
cargo test --workspace -q --offline

echo "==> fault injection: SA_FAULT=smoke (SA_THREADS=1, then default)"
SA_FAULT=smoke SA_THREADS=1 cargo test -q --offline --test fault_injection
SA_FAULT=smoke cargo test -q --offline --test fault_injection

echo "==> differential kernel suite: blocked engine vs row-wise reference (SA_THREADS=1, 3, then default)"
# The blocked sparse-flash engine must be bitwise-identical to the
# row-wise reference at every thread count; run the property suite
# pinned serial, at an odd count (chunks and threads never divide
# evenly, which is where a grain bug shows), and at the session default
# explicitly (in addition to the workspace passes above) so a regression
# names this suite directly.
SA_THREADS=1 cargo test -q --offline --test kernel_equivalence
SA_THREADS=3 cargo test -q --offline --test kernel_equivalence
cargo test -q --offline --test kernel_equivalence

echo "==> differential ISA leg at release codegen: baseline vs AVX2 vs AVX-512 builds vs oracles"
# The builds of an inner loop only differ once the optimiser vectorises
# them, which a test-profile binary (opt-level 1) never does: run the legs that hold every
# build the CPU has to the others, to the row-wise reference, to the
# scalar statement of the fold, to the scalar exp and to the CPU's FMA
# instruction against the code that ships. `softmax::tests` holds the
# tile fold's four-row, pair and single-row step 5 to that statement
# (quad, staggered and causal ranges, one to three rows past the last
# whole four, and `tile_fold_quads_fall_back_around_a_hole_in_one_row`);
# `panels::tests` holds the four-row score panel to pairs, single rows
# and the scalar dot.
cargo test -q --offline --release --test kernel_equivalence engine_bitwise_identical_on_every_isa
# The panel dots of `matmul_transb` and the attention scores on every
# build, held to the scalar dot (widths 1–7, 13, 63–65; causal calls with
# more keys than queries).
cargo test -q --offline --release --test kernel_equivalence attention_scores_equal_the_scalar_dot_on_every_isa
# Values narrower than the keys (the model caches `content_dim` value
# columns): every build, the reference, the dense job and decode blocks
# at widths around each register chunk, each equal to the leading
# columns of a zero-padded 64-wide run; and the model's digests pinned
# from when it carried `head_dim` value columns (value_width_pins), at
# the optimised codegen and every thread count.
# Beside them, cache-keeping runs (begin_decode, prefill_chunked, a
# resumed checkpoint, decode) pinned from when a run's last layer
# computed every row and kept only what it reads (cache_keeping_pins).
narrow_value_suite() {
    cargo test -q --offline --release --test kernel_equivalence \
        narrow_values_are_the_leading_columns_of_a_wide_run_on_every_isa
    cargo test -q --offline --release --test value_width_pins
    cargo test -q --offline --release --test cache_keeping_pins
}
SA_THREADS=1 narrow_value_suite
SA_THREADS=3 narrow_value_suite
narrow_value_suite
cargo test -q --offline --release --test exp_contract
cargo test -q --offline --release --test fma_contract
cargo test -q --offline --release -p sa-tensor --lib -- softmax::tests exp::tests fma::tests packed::tests aligned::tests finite::tests matmul::tests
cargo test -q --offline --release -p sa-kernels --lib panels::tests

echo "==> differential key-panel suite: resident panels vs per-call oracles (SA_THREADS=1, 3, then default)"
# One key layout, three readers, each held bitwise to the path it
# replaced: stage 1 on panels vs the scalar row loop
# (parallel_determinism), decode on resident panels vs the per-head
# re-embedding decoder, cache panels vs an uninterrupted run's after
# growth, eviction and restore, checkpoint checksums pinned from when
# caches held K as rows, and a count that a cache key is transposed
# exactly once (checkpoint_roundtrip). The panels are the only copy of
# K, so every reader of key rows reads them back out of the panels: the
# row view, panel-gathered extras and the non-finite count over the
# panel buffer (sa-kernels `panels::tests`), and the H2O scores and
# `retain_head` (sa-model `*_on_panels_match*`), each against the rows
# themselves.
key_panel_suite() {
    for suite in parallel_determinism checkpoint_roundtrip; do
        cargo test -q --offline --test "$suite"
    done
    cargo test -q --offline -p sa-kernels --lib panels::tests
    cargo test -q --offline -p sa-model --lib on_panels_match
}
SA_THREADS=1 key_panel_suite
SA_THREADS=3 key_panel_suite
key_panel_suite

echo "==> session memory: a session's heap and begin_decode's peak (SA_THREADS=1, 3, then default)"
# crates/model/tests/session_memory.rs: a decode session holds its KV
# cache, its readout rows and a small slack, and building it peaks at most
# `PEAK_PER_TOKEN` bytes per prompt token above that (one layer call's
# working set: row-blocked MLP, heads handing their rows over). The peak
# depends on how many heads the pool plans at once, so it runs at each
# count, in release as the benchmark builds the model.
session_memory_suite() {
    cargo test -q --offline --release -p sa-model --test session_memory
}
SA_THREADS=1 session_memory_suite
SA_THREADS=3 session_memory_suite
session_memory_suite

echo "==> pool contract: parked workers at SA_THREADS=1, 2, 3, 5, three times each, under timeout"
# The pool keeps its workers parked between calls, so the failure it can
# have that spawn-per-call could not is a lost wake-up or a caller
# waiting on a ticket nobody started: a hang, and a rare one. Each run is
# under `timeout` (and each new test under its own watchdog) so that it
# reads as a failure, and runs three times at each thread count, odd and
# above the core count included. Release: the races are between
# optimised loops.
cargo test -q --offline --release --test pool_contract --no-run
cargo test -q --offline --release -p sa-tensor --lib --no-run
for threads in 1 2 3 5; do
    for attempt in 1 2 3; do
        SA_THREADS="$threads" timeout 300 \
            cargo test -q --offline --release --test pool_contract || {
            echo "pool_contract failed or hung (SA_THREADS=$threads, attempt $attempt)" >&2
            exit 1
        }
        SA_THREADS="$threads" timeout 300 \
            cargo test -q --offline --release -p sa-tensor --lib pool::tests || {
            echo "pool::tests failed or hung (SA_THREADS=$threads, attempt $attempt)" >&2
            exit 1
        }
    done
done

echo "==> repetition: the sa-core, sa-model, sa-tensor and sa-serve lib suites, 10 runs each at SA_THREADS=1, 2, 3"
# These four suites hold the near-lossless contract and the serving
# ledgers, and each mixes tests that install fault plans or trace with
# tests that must see neither. Ambient state belongs to a thread and
# rides the pool's fan-out (DESIGN.md 5b), so what a test sees cannot
# depend on what runs beside it; a failure in one run of thirty is that
# rule broken, not noise. Run from the binary, at the harness's default
# thread count, under `timeout`. (While the fault slot and the trace
# switch were process-wide, these release binaries failed 6, 21, 1 and 0
# runs of 60.)
for crate in core model tensor serve; do
    suite="$(cargo test --offline --release -p "sa-$crate" --lib --no-run 2>&1 |
        sed -n 's/^ *Executable unittests src\/lib.rs (\(.*\))$/\1/p')"
    test -x "$suite" || {
        echo "no lib-test binary found for sa-$crate" >&2
        exit 1
    }
    suite="$PWD/$suite"
    log="$PWD/target/repetition.log"
    for threads in 1 2 3; do
        for attempt in $(seq 10); do
            (cd "crates/$crate" && SA_THREADS="$threads" RUST_BACKTRACE=0 \
                timeout 300 "$suite" -q >"$log" 2>&1) || {
                cat "$log" >&2
                echo "sa-$crate lib suite failed or hung (SA_THREADS=$threads, run $attempt of 10)" >&2
                exit 1
            }
        done
    done
done

echo "==> lint: pool.rs holds one unsafe block under a SAFETY comment, no thread::scope, one Builder::spawn"
# The pool's soundness case (DESIGN.md 5b) is an invariant about one
# dereference; it stays reviewable only while there is one. Comment lines
# are exempt everywhere; the structure checks stop at the test module,
# whose tests do start threads of their own.
pool_src=crates/tensor/src/pool.rs
pool_code="$(grep -vE '^[[:space:]]*//' "$pool_src")"
pool_prod="$(awk '/^[[:space:]]*#\[cfg\(test\)\]/ { exit } { print }' "$pool_src" | grep -vE '^[[:space:]]*//')"
unsafe_count="$(printf '%s\n' "$pool_code" | grep -cw 'unsafe' || true)"
unsafe_blocks="$(printf '%s\n' "$pool_code" | grep -cE '\bunsafe[[:space:]]*\{' || true)"
if [ "$unsafe_count" -ne 1 ] || [ "$unsafe_blocks" -ne 1 ]; then
    echo "lint: $pool_src must hold exactly one \`unsafe\`, and that a block (found $unsafe_count, $unsafe_blocks blocks)" >&2
    exit 1
fi
# The line above the block is the last line of a `// SAFETY:` paragraph.
awk '
    /^[[:space:]]*\/\// { if ($0 ~ /\/\/ SAFETY:/) in_safety = 1; comment = 1; next }
    /(^|[^A-Za-z0-9_])unsafe[[:space:]]*\{/ { if (!(comment && in_safety)) bad = 1 }
    { comment = 0; in_safety = 0 }
    END { exit bad }
' "$pool_src" || {
    echo "lint: the unsafe block in $pool_src is not directly preceded by a // SAFETY: comment" >&2
    exit 1
}
if printf '%s\n' "$pool_prod" | grep -q 'thread::scope'; then
    echo "lint: thread::scope in $pool_src — calls borrow parked workers, they do not spawn" >&2
    exit 1
fi
spawn_sites="$(printf '%s\n' "$pool_prod" | grep -cE '\.spawn\(|thread::spawn' || true)"
builder_sites="$(printf '%s\n' "$pool_prod" | grep -c 'thread::Builder::new()' || true)"
if [ "$spawn_sites" -ne 1 ] || [ "$builder_sites" -ne 1 ]; then
    echo "lint: $pool_src must create threads at exactly one Builder::spawn site (found $spawn_sites spawn calls, $builder_sites builders)" >&2
    exit 1
fi

echo "==> lint: no unwrap()/panic-family macros in non-test pipeline sources"
# The panic-free contract (DESIGN.md 5d) bans unwrap() and the panic
# macro family (panic!/unreachable!/todo!/unimplemented!) from the
# production sources of the pipeline crates. Doc comments, doctest
# lines, and everything at/after a #[cfg(test)] module are exempt; awk
# strips those before grepping.
lint_fail=0
for f in crates/tensor/src/*.rs crates/kernels/src/*.rs crates/core/src/*.rs crates/trace/src/*.rs crates/serve/src/*.rs crates/workloads/src/arrivals.rs crates/model/src/*.rs crates/baselines/src/*.rs; do
    hits="$(awk '
        /^[[:space:]]*#\[cfg\(test\)\]/ { exit }
        /^[[:space:]]*\/\// { next }
        /\.unwrap\(\)|panic!\(|unreachable!\(|todo!\(|unimplemented!\(/ { print FILENAME ":" FNR ": " $0 }
    ' "$f")"
    if [ -n "$hits" ]; then
        echo "$hits"
        lint_fail=1
    fi
done
if [ "$lint_fail" -ne 0 ]; then
    echo "lint: unwrap()/panic! found in non-test pipeline code" >&2
    exit 1
fi

echo "==> lint: metric names registered in docs/METRICS.md"
# Every production metric name (counter/gauge/histogram registration or
# the counter_add!/histogram_record! macros with a literal name) must be
# listed in docs/METRICS.md so new metrics land with a documented
# meaning. Doc comments and #[cfg(test)] tails are exempt, same as the
# unwrap lint above.
registry_fail=0
while IFS= read -r f; do
    names="$(awk '
        /^[[:space:]]*#\[cfg\(test\)\]/ { exit }
        /^[[:space:]]*\/\// { next }
        { print }
    ' "$f" | { grep -oE '\b(counter|gauge|histogram)\("[^"]+"\)|\b(counter_add|histogram_record)!\("[^"]+"' \
        || true; } | sed -E 's/^[a-z_]+!?\("([^"]+)".*/\1/' | sort -u)"
    for n in $names; do
        if ! grep -q "\`$n\`" docs/METRICS.md; then
            echo "$f: metric \"$n\" not listed in docs/METRICS.md"
            registry_fail=1
        fi
    done
done < <(find crates -path '*/src/*.rs')
if [ "$registry_fail" -ne 0 ]; then
    echo "lint: unregistered metric name — add it to docs/METRICS.md" >&2
    exit 1
fi

echo "==> lint: every metric name argument is a string literal"
# The registration lint above only sees literal names: a name passed any
# other way registers a metric nobody documents (sa-serve once built
# seven `serve.<outcome>` counters that way). The one exception is the
# name `FallbackReason::counter_name()` returns, bound as `counter_name`
# at its one call in crates/core/src/attention.rs (the same binding in
# any other file still fails): a match of literals whose every name an
# sa-core test holds to docs/METRICS.md. The registry's own
# definitions and macro bodies (`$name`, checked at each macro call)
# are not calls.
nonliteral="$(find crates -path '*/src/*.rs' | sort | while IFS= read -r f; do
    awk '
        /^[[:space:]]*#\[cfg\(test\)\]/ { exit }
        /^[[:space:]]*\/\// { next }
        { print FILENAME ":" FNR ": " $0 }
    ' "$f"
done | grep -E '\b(counter|gauge|histogram)\(|\b(counter_add|histogram_record)!\(' |
    grep -vE '\b(counter|gauge|histogram)\("|\b(counter_add|histogram_record)!\("' |
    grep -vE '\bfn (counter|gauge|histogram)\(|\(\$name\)|^crates/core/src/attention\.rs:[0-9]+: .*\bcounter\(counter_name\)' || true)"
if [ -n "$nonliteral" ]; then
    echo "$nonliteral"
    echo "lint: a metric name that is not a string literal escapes docs/METRICS.md" >&2
    exit 1
fi

echo "==> lint: sa-serve keeps no metrics: the ledger, the event log and the guard are its records"
# Every serving fact has one record: a request's outcome, timing,
# retries and execution tallies are its ledger columns, the governor's
# actions are event kinds, quarantine trips are QualityGuard
# transitions (docs/METRICS.md maps each former counter to its record).
# A registry copy of them would count only while tracing is on.
serve_metrics="$(for f in crates/serve/src/*.rs; do
    awk '
        /^[[:space:]]*#\[cfg\(test\)\]/ { exit }
        /^[[:space:]]*\/\// { next }
        /metrics::|counter_add!|histogram_record!/ { print FILENAME ":" FNR ": " $0 }
    ' "$f"
done)"
if [ -n "$serve_metrics" ]; then
    echo "$serve_metrics"
    echo "lint: sa-serve non-test code records into the metrics registry" >&2
    exit 1
fi

echo "==> lint: every metric docs/METRICS.md lists is emitted"
# The reverse direction: a dotted name in the first column of a
# docs/METRICS.md table must appear as a string literal in the non-test
# code of crates/*/src (same exemptions as above), so a metric that is
# no longer recorded leaves the registry with it. The templated
# `tenant<t>.*` timeline series are built from a format string and are
# exempt.
emitted="$(find crates -path '*/src/*.rs' | sort | while IFS= read -r f; do
    awk '
        /^[[:space:]]*#\[cfg\(test\)\]/ { exit }
        /^[[:space:]]*\/\// { next }
        { print }
    ' "$f"
done)"
listed="$(grep -oE '^\| `[A-Za-z0-9_<>]+(\.[A-Za-z0-9_<>]+)+`' docs/METRICS.md |
    sed -E 's/^\| `([^`]+)`/\1/' | sort -u)"
stale_fail=0
for n in $listed; do
    case "$n" in 'tenant<t>.'*) continue ;; esac
    if ! grep -qF "\"$n\"" <<<"$emitted"; then
        echo "docs/METRICS.md: metric \"$n\" is not emitted under crates/*/src"
        stale_fail=1
    fi
done
if [ "$stale_fail" -ne 0 ]; then
    echo "lint: docs/METRICS.md lists a metric nothing records — remove it or emit it" >&2
    exit 1
fi

echo "==> lint: single timing authority (no Instant::now outside sa-trace/sa-bench)"
# All pipeline wall-clock reads go through sa_trace::clock::now_ns
# (DESIGN.md 5e); sa-serve plans on the virtual clock and must never
# read real time; sa-bench's tile_kernel A/B times whole closures itself.
instant_hits="$(grep -rn 'Instant::now' \
    crates/tensor/src crates/kernels/src crates/core/src \
    crates/baselines/src crates/model/src crates/workloads/src \
    crates/perf/src crates/serve/src src/ 2>/dev/null || true)"
if [ -n "$instant_hits" ]; then
    echo "$instant_hits"
    echo "lint: Instant::now in a pipeline crate — use sa_trace::clock::now_ns" >&2
    exit 1
fi

echo "==> smoke: fig1_overview --quick (figure binary)"
smoke_out="$(mktemp -d)"
trap 'rm -rf "$smoke_out"' EXIT
cargo run -q --release --offline -p sa-bench --bin fig1_overview -- \
    --quick --out "$smoke_out"
test -s "$smoke_out/fig1_overview.json" || {
    echo "fig1_overview did not emit JSON" >&2
    exit 1
}

echo "==> smoke: trace_report --quick with SA_TRACE export"
# The binary schema-checks both artifacts itself (trace_summary.json and
# the Chrome trace) and asserts the Table-4 stage ordering; a non-empty
# trace file is all that is left to verify here.
SA_TRACE="$smoke_out/trace_chrome.json" \
    cargo run -q --release --offline -p sa-bench --bin trace_report -- \
    --quick --out "$smoke_out"
test -s "$smoke_out/trace_chrome.json" || {
    echo "trace_report did not emit a Chrome trace" >&2
    exit 1
}
test -s "$smoke_out/trace_summary.json" || {
    echo "trace_report did not emit trace_summary.json" >&2
    exit 1
}

echo "==> smoke: chaos_soak --quick (SA_THREADS=1, then default)"
# The soak binary itself asserts zero lost requests, a thread-invariant
# ledger, and the no-silent-degradation invariant; it exits non-zero on
# any violation. Run it pinned serial and at the session default.
SA_THREADS=1 cargo run -q --release --offline -p sa-bench --bin chaos_soak -- \
    --quick --out "$smoke_out"
cargo run -q --release --offline -p sa-bench --bin chaos_soak -- \
    --quick --out "$smoke_out"
test -s "$smoke_out/chaos_soak.json" || {
    echo "chaos_soak did not emit JSON" >&2
    exit 1
}

echo "==> smoke: recovery_bench --quick (SA_THREADS=1, then default)"
# The bench asserts the crash-recovery bar itself — checkpoint resume
# strictly reduces recomputed tokens with no worse goodput on every
# storm point, and the executed recovered ledger is thread-invariant;
# it exits non-zero on any violation.
SA_THREADS=1 cargo run -q --release --offline -p sa-bench --bin recovery_bench -- \
    --quick --out "$smoke_out"
cargo run -q --release --offline -p sa-bench --bin recovery_bench -- \
    --quick --out "$smoke_out"
test -s "$smoke_out/recovery.json" || {
    echo "recovery_bench did not emit JSON" >&2
    exit 1
}

echo "==> smoke: quality_guard --quick (SA_THREADS=1, then default)"
# The bench asserts the quality-guardrail bar itself — clean traffic
# whose canaries probe sparse heads trips zero quarantines, the floored tenant never exceeds its
# uncertified budget, canary rate never changes scheduling outcomes,
# the fault storm quarantines every poisoned head and probation
# re-admits all of them, and ledgers plus quarantine transitions are
# thread-invariant; it exits non-zero on any violation.
SA_THREADS=1 cargo run -q --release --offline -p sa-bench --bin quality_guard -- \
    --quick --out "$smoke_out"
cargo run -q --release --offline -p sa-bench --bin quality_guard -- \
    --quick --out "$smoke_out"
test -s "$smoke_out/quality_guard.json" || {
    echo "quality_guard did not emit JSON" >&2
    exit 1
}

echo "==> smoke: slo_sweep --quick (continuous-planner SLO sweep)"
# The sweep plans every (shape x rate) point on the continuous planner,
# folds each point's event log into its SLO summary and writes
# slo_report.json; the results oracle further down pins its bits.
cargo run -q --release --offline -p sa-bench --bin slo_sweep -- \
    --quick --out "$smoke_out"
test -s "$smoke_out/slo_report.json" || {
    echo "slo_sweep did not emit JSON" >&2
    exit 1
}

echo "==> smoke: serve_timeline --quick (SA_THREADS=1, then default)"
# The binary replays the slo_sweep grid and asserts that every event log
# conserves memory (and events<->ledger conservation holds on the storm
# leg), that the storm-leg event log is byte-identical across thread
# counts, and that a forced governor shed leaves a flight-recorder
# postmortem; it exits non-zero on any violation. It reads nothing
# slo_sweep writes, so it runs in a directory of its own.
timeline_out="$smoke_out/timeline"
mkdir -p "$timeline_out"
SA_THREADS=1 cargo run -q --release --offline -p sa-bench --bin serve_timeline -- \
    --quick --out "$timeline_out"
cargo run -q --release --offline -p sa-bench --bin serve_timeline -- \
    --quick --out "$timeline_out"
test -s "$timeline_out/serve_timeline.json" || {
    echo "serve_timeline did not emit JSON" >&2
    exit 1
}
test -s "$timeline_out/serve_timeline.txt" || {
    echo "serve_timeline did not emit its text digest" >&2
    exit 1
}
test ! -e "$timeline_out/slo_report.json" || {
    echo "serve_timeline's smoke directory holds a slo_report.json" >&2
    exit 1
}

echo "==> results oracle: generators' full output vs results/ (SA_THREADS=1, default, then 5 for the serving determinism legs)"
# These generators print no wall-clock value, so the committed files are
# the oracle for their bits: a byte that moves is a changed bit, on any
# host, at any thread count. A change that is meant to move bits
# regenerates the files in the same commit, and the diff says by how
# much.
full_out="$smoke_out/full"
mkdir -p "$full_out"
for threads in 1 default 5; do
    bins="slo_sweep chaos_soak recovery_bench quality_guard serve_timeline fig6_scaling"
    artifacts="slo_report.json chaos_soak.json recovery.json quality_guard.json
        serve_timeline.json serve_timeline.txt fig6_scaling.json fig6_scaling.txt"
    if [ "$threads" = 5 ]; then
        # The three determinism legs replay at fixed thread counts and
        # record them: at an odd count above any they name, and above
        # this host's cores, their files must still not move.
        bins="chaos_soak recovery_bench quality_guard"
        artifacts="chaos_soak.json recovery.json quality_guard.json"
    fi
    for bin in $bins; do
        # The storms' injected worker panics report on stderr: keep it for
        # a failure, out of the log otherwise.
        (
            if [ "$threads" != default ]; then export SA_THREADS="$threads"; fi
            cargo run -q --release --offline -p sa-bench --bin "$bin" -- \
                --out "$full_out" >"$full_out/$bin.stdout" 2>"$full_out/$bin.stderr"
        ) || {
            cat "$full_out/$bin.stderr" >&2
            echo "$bin failed (SA_THREADS=$threads)" >&2
            exit 1
        }
    done
    if [ -e "$full_out/fig6_scaling.stdout" ]; then
        mv "$full_out/fig6_scaling.stdout" "$full_out/fig6_scaling.txt"
    fi
    for artifact in $artifacts; do
        cmp "$full_out/$artifact" "results/$artifact" || {
            echo "results/$artifact is not what its generator prints (SA_THREADS=$threads)" >&2
            exit 1
        }
    done
done

echo "==> smoke: tile_kernel --quick (engine vs row-wise reference A/B)"
# The binary re-asserts bitwise identity on every case before timing it
# and exits non-zero on divergence; here we only check the report lands.
cargo run -q --release --offline -p sa-bench --bin tile_kernel -- \
    --quick --out "$smoke_out"
test -s "$smoke_out/tile_kernel.json" || {
    echo "tile_kernel did not emit JSON" >&2
    exit 1
}

echo "==> smoke: quickstart example"
cargo run -q --release --offline --example quickstart

echo "==> smoke: chunked_serving example (dense chunked prefill is the whole prompt's bits)"
# Under dense attention every chunk size gives the one-chunk prefill's
# bits, so each `max |Δhidden|` line must read exactly zero.
chunked=$(cargo run -q --release --offline --example chunked_serving)
echo "$chunked"
echo "$chunked" | awk '
    /max \|Δhidden\|/ { lines++; if ($NF != "0.00e0") { print "nonzero drift: " $0; bad = 1 } }
    END { if (lines != 3) { print "expected 3 dense chunk lines, got " lines + 0; bad = 1 } exit bad }
'

echo "verify: OK"
