#!/usr/bin/env bash
# Tier-1 verification gate: release build, full test suite, formatting,
# and lint-clean clippy. Run from anywhere; operates on the repo root.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> cargo build --release"
cargo build --release --workspace

echo "==> cargo test -q"
cargo test --workspace -q

echo "==> cargo fmt --check"
cargo fmt --all --check

echo "==> cargo clippy -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> rustdoc -D warnings (trace schema docs reach rustdoc through the event table)"
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps -p em-obs -p em-prof -p em-serve

echo "==> perfbench checks (fingerprint, traced == untraced, served parity at tiny budgets)"
cargo test --release -q --offline --manifest-path perfbench/Cargo.toml

echo "==> em-lint (repo invariants, 12 rules incl. concurrency family)"
cargo run --release -q -p em-check --bin em-lint

echo "==> lexer + lint engine suite (fixtures, proptests, tree-clean pin)"
cargo test --release -q -p em-check --test lex_prop --test lint_fixture

echo "==> em-sched model check (scheduler self-tests + op-stats table + pool, 64 seeds)"
cargo test --release -q -p em-check --test sched_selftest
PROMPTEM_SCHED_SEEDS=64 cargo test --release -q -p em-nn --test sched_opstats
PROMPTEM_SCHED_SEEDS=64 cargo test --release -q -p promptem --test sched_pool

echo "==> sanitizer smoke (PROMPTEM_SANITIZE=1 tiny pipeline)"
smoke_dir="$(mktemp -d)"
trap 'rm -rf "$smoke_dir"' EXIT
cargo run --release -q -p promptem-cli --bin promptem -- \
    export --benchmark REL-HETER --dir "$smoke_dir" --seed 7 >/dev/null
PROMPTEM_SANITIZE=1 cargo run --release -q -p promptem-cli --bin promptem -- \
    match --left "$smoke_dir/left.csv" --right "$smoke_dir/right.csv" \
    --labels "$smoke_dir/train.csv" --seed 7 --trace warn \
    --pretrain-steps 20 --epochs 1 >/dev/null

echo "==> smoke profile (op-profiled traced runs + perf-regression gate)"
for run in base new; do
    cargo run --release -q -p promptem-cli --bin promptem -- \
        match --left "$smoke_dir/left.csv" --right "$smoke_dir/right.csv" \
        --labels "$smoke_dir/train.csv" --seed 7 --trace warn \
        --pretrain-steps 20 --epochs 1 --op-profile \
        --metrics-out "$smoke_dir/$run.jsonl" >/dev/null
done
cargo run --release -q -p promptem-cli --bin promptem -- \
    report "$smoke_dir/new.jsonl" --bench-out BENCH_report.json \
    | tee "$smoke_dir/report.txt"
cargo run --release -q -p promptem-cli --bin promptem -- \
    report --diff "$smoke_dir/base.jsonl" "$smoke_dir/new.jsonl"

echo "==> op profile (non-empty op attribution + clean self-diff)"
grep -q "ops — " "$smoke_dir/report.txt" || {
    echo "op-profile: report printed no per-phase op tables" >&2
    exit 1
}
grep -q '"op": "matmul"' BENCH_report.json || {
    echo "op-profile: BENCH_report.json carries no op rows" >&2
    exit 1
}
cargo run --release -q -p promptem-cli --bin promptem -- \
    report --diff "$smoke_dir/new.jsonl" "$smoke_dir/new.jsonl" >/dev/null

echo "==> parallel scoring (tape-free smoke + 1-vs-2-thread canonical gate)"
for t in 1 2; do
    cargo run --release -q -p promptem-cli --bin promptem -- \
        match --left "$smoke_dir/left.csv" --right "$smoke_dir/right.csv" \
        --labels "$smoke_dir/train.csv" --seed 7 --trace warn \
        --pretrain-steps 20 --epochs 1 --threads "$t" --progress-every 1 \
        --metrics-out "$smoke_dir/threads$t.jsonl" >/dev/null
done
cargo run --release -q -p promptem-cli --bin promptem -- \
    report --diff "$smoke_dir/threads1.jsonl" "$smoke_dir/threads2.jsonl" \
    --canonical
# Tape-free smoke: scoring must record zero autodiff nodes, so the
# cumulative tape-node counter is flat across every consecutive run of
# MC-dropout heartbeats (training between scoring rounds may grow it).
awk '
    /"type":"progress"/ {
        if ($0 ~ /"phase":"mc_dropout"/) {
            match($0, /"tape_nodes":[0-9]+/)
            v = substr($0, RSTART + 13, RLENGTH - 13)
            if (scoring && v != prev) {
                print "tape-free smoke: tape nodes grew mid-scoring: " prev " -> " v
                exit 1
            }
            prev = v; scoring = 1; seen = 1
        } else {
            scoring = 0
        }
    }
    END { if (!seen) { print "tape-free smoke: no mc_dropout heartbeats in trace"; exit 1 } }
' "$smoke_dir/threads2.jsonl"

echo "==> live telemetry (heartbeats, run_meta, top, trend-gated history)"
cargo run --release -q -p promptem-cli --bin promptem -- \
    match --left "$smoke_dir/left.csv" --right "$smoke_dir/right.csv" \
    --labels "$smoke_dir/train.csv" --seed 7 --trace warn \
    --pretrain-steps 20 --epochs 1 --progress-every 5 \
    --metrics-out "$smoke_dir/live.jsonl" >/dev/null
head -n1 "$smoke_dir/live.jsonl" | grep -q '"type":"run_meta"' || {
    echo "telemetry: run_meta is not the first trace line" >&2
    exit 1
}
grep -q '"type":"progress"' "$smoke_dir/live.jsonl" || {
    echo "telemetry: traced run with --progress-every emitted no heartbeats" >&2
    exit 1
}
cargo run --release -q -p promptem-cli --bin promptem -- \
    top "$smoke_dir/live.jsonl" --once >/dev/null
for run in base new live; do
    cargo run --release -q -p promptem-cli --bin promptem -- \
        history "$smoke_dir/BENCH_history.jsonl" \
        --append "$smoke_dir/$run.jsonl" >/dev/null
done
cargo run --release -q -p promptem-cli --bin promptem -- \
    history "$smoke_dir/BENCH_history.jsonl" --gate
# An injected +200% wall entry against that baseline must trip the gate.
tail -n1 "$smoke_dir/BENCH_history.jsonl" | awk '{
    match($0, /"total_wall_us":[0-9]+/)
    v = substr($0, RSTART + 16, RLENGTH - 16)
    sub(/"total_wall_us":[0-9]+/, sprintf("\"total_wall_us\":%.0f", v * 3))
    print
}' >>"$smoke_dir/BENCH_history.jsonl"
if cargo run --release -q -p promptem-cli --bin promptem -- \
    history "$smoke_dir/BENCH_history.jsonl" --gate >/dev/null 2>&1; then
    echo "history gate: missed an injected +200% wall regression" >&2
    exit 1
fi

echo "==> chaos (failpoint kill mid-run, resume, diff against uninterrupted base)"
if PROMPTEM_FAILPOINTS=batch:panic@28 \
    cargo run --release -q -p promptem-cli --bin promptem -- \
    match --left "$smoke_dir/left.csv" --right "$smoke_dir/right.csv" \
    --labels "$smoke_dir/train.csv" --seed 7 --trace warn \
    --pretrain-steps 20 --epochs 1 \
    --checkpoint-dir "$smoke_dir/ckpt" --checkpoint-every 5 >/dev/null 2>&1; then
    echo "chaos: run survived an injected crash-at-batch failpoint" >&2
    exit 1
fi
cargo run --release -q -p promptem-cli --bin promptem -- \
    ckpt inspect "$smoke_dir/ckpt/pretrain"
cargo run --release -q -p promptem-cli --bin promptem -- \
    match --left "$smoke_dir/left.csv" --right "$smoke_dir/right.csv" \
    --labels "$smoke_dir/train.csv" --seed 7 --trace warn \
    --pretrain-steps 20 --epochs 1 \
    --checkpoint-dir "$smoke_dir/ckpt" --checkpoint-every 5 --resume \
    --metrics-out "$smoke_dir/resumed.jsonl" >/dev/null
cargo run --release -q -p promptem-cli --bin promptem -- \
    report --diff "$smoke_dir/base.jsonl" "$smoke_dir/resumed.jsonl"

echo "==> serve (chaos service: worker kill + injected sheds, byte parity vs offline)"
cargo run --release -q -p promptem-cli --bin promptem -- \
    match --left "$smoke_dir/left.csv" --right "$smoke_dir/right.csv" \
    --labels "$smoke_dir/train.csv" --seed 7 --trace warn \
    --pretrain-steps 20 --epochs 1 --output "$smoke_dir/pred.csv" >/dev/null
PROMPTEM_RETRY_BACKOFF_MS=0 \
PROMPTEM_FAILPOINTS=worker_forward:panic@2,mailbox_enqueue:io_err@3 \
    cargo run --release -q -p promptem-cli --bin promptem -- \
    serve --left "$smoke_dir/left.csv" --right "$smoke_dir/right.csv" \
    --labels "$smoke_dir/train.csv" --seed 7 --trace warn \
    --pretrain-steps 20 --epochs 1 --port 0 --port-file "$smoke_dir/addr" \
    --workers 2 --queue-cap 8 --inflight-cap 16 \
    --metrics-out "$smoke_dir/serve.jsonl" >/dev/null 2>"$smoke_dir/serve.err" &
serve_pid=$!
for _ in $(seq 1 600); do
    [ -s "$smoke_dir/addr" ] && break
    kill -0 "$serve_pid" 2>/dev/null || break
    sleep 0.1
done
[ -s "$smoke_dir/addr" ] || {
    echo "serve: server never published its address" >&2
    cat "$smoke_dir/serve.err" >&2
    exit 1
}
cargo run --release -q -p promptem-cli --bin promptem -- \
    drive --port-file "$smoke_dir/addr" --pairs "$smoke_dir/pred.csv" \
    --connections 4 --out "$smoke_dir/served.csv" --shutdown
wait "$serve_pid" || {
    echo "serve: graceful drain exited nonzero" >&2
    cat "$smoke_dir/serve.err" >&2
    exit 1
}
cmp "$smoke_dir/pred.csv" "$smoke_dir/served.csv" || {
    echo "serve: served decisions differ from offline match output" >&2
    exit 1
}
for ev in request reject worker_restart drain; do
    grep -q "\"type\":\"$ev\"" "$smoke_dir/serve.jsonl" || {
        echo "serve: trace carries no $ev event" >&2
        exit 1
    }
done

echo "ci: all checks passed"
