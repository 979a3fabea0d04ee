#!/usr/bin/env bash
# Full CI gate: formatting, lints, build, tests, and the cross-layer
# artifact linter. Everything runs offline — the workspace has no
# external dependencies.
set -euo pipefail
cd "$(dirname "$0")"

echo "==> cargo fmt --check"
cargo fmt --all -- --check

echo "==> cargo clippy (all targets, warnings are errors)"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> rustdoc (all workspace crates, warnings are errors)"
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps

echo "==> tier-1: release build"
cargo build --release --workspace

echo "==> tier-1: test suite (SCIDUCTION_THREADS=1, sequential fallback)"
SCIDUCTION_THREADS=1 cargo test --workspace --release -q

echo "==> tier-1: test suite (SCIDUCTION_THREADS=4)"
SCIDUCTION_THREADS=4 cargo test --workspace --release -q

echo "==> repository benchmark self-tests (incl. BENCHMARK.json agreement)"
cargo test -q --manifest-path scibench/Cargo.toml

# In-process race stages run under `timeout` too: a race that never
# settles fails the stage fast instead of hanging CI. Each bound sits far
# above the stage's measured time (par_vs_seq ~16 s, one fault-matrix
# cell ~4 s, the soak ~3 s, one recovery sweep ~1 s on 2 cores, release).
echo "==> differential suite: parallel vs sequential equivalence"
timeout 300 cargo test --release -p sciduction-suite --test par_vs_seq -q

echo "==> budget properties (refuse-at-limit, ample ≡ unlimited)"
cargo test --release -p sciduction-suite --test budget_props -q

# Exits 1 when the Eq. (3) guards fail a-posteriori validation or a
# dwell guard escapes its Eq. (3) guard (~0.1 s of synthesis, release).
echo "==> eq3_eq4: transmission guards validate and nest (paper Eq. (3)/(4))"
timeout 120 cargo run --release -p sciduction-bench --bin eq3_eq4

echo "==> fault matrix: seeded injection sweep vs clean reference"
for fault_seed in 1 2 3 4; do
  for threads in 1 4; do
    echo "    SCIDUCTION_FAULT_SEED=$fault_seed SCIDUCTION_THREADS=$threads"
    SCIDUCTION_FAULT_SEED=$fault_seed SCIDUCTION_THREADS=$threads \
      timeout 120 cargo test --release -p sciduction-suite --test faults_vs_clean -q
  done
done

echo "==> portfolio soak (10k races via SCIDUCTION_SOAK, release only)"
SCIDUCTION_SOAK=10000 timeout 120 cargo test --release -p sciduction-sat --test portfolio_stress -q

echo "==> recovery sweep: supervised faults + kill-and-resume bit identity"
for retries in 1 3 5; do
  echo "    SCIDUCTION_RETRIES=$retries"
  SCIDUCTION_RETRIES=$retries \
    timeout 120 cargo test --release -p sciduction-suite --test recovery_vs_clean -q
done

echo "==> scilint (cross-layer artifact validation, incl. recovery+proof suites)"
for threads in 1 4; do
  echo "    SCIDUCTION_THREADS=$threads"
  SCIDUCTION_THREADS=$threads \
    cargo run --release -p sciduction-analysis --bin scilint
done

echo "==> proof certification: tier-1 workload proofs replayed by scicheck"
# The checker's mutation and watched-vs-naive differential fuzzers, in the
# release profile the served checker runs in.
cargo test --release -p sciduction-proof -q
for threads in 1 4; do
  echo "    SCIDUCTION_THREADS=$threads"
  SCIDUCTION_THREADS=$threads \
    cargo test --release -p sciduction-suite --test proof_certification -q
done
SCIDUCTION_THREADS=4 cargo run --release -p sciduction-bench --bin solver_bench
for cnf in target/proofs/*.cnf; do
  cargo run --release -q -p sciduction-proof --bin scicheck -- \
    "$cnf" "${cnf%.cnf}.drat"
done
for cert in target/proofs/*.scicert; do
  cargo run --release -q -p sciduction-proof --bin scicheck -- --cert "$cert"
done

# Both server suites start and restart in-process servers; the bounds sit
# far above their measured times (~0.6 s and ~1 s on 2 cores, release).
echo "==> server conformance: served verdicts vs direct library calls"
timeout 120 cargo test --release -p sciduction-suite --test server_vs_lib -q

echo "==> server protocol fuzz: >1000 malformed frames, zero panics"
cargo test --release -p sciduction-server -q

echo "==> server smoke: loadgen at two concurrency levels + cert replay"
# Subprocess-spawning stages run under `timeout`: a wedged child fails
# the stage fast instead of hanging CI until an external reaper notices.
rm -rf target/scid-server/proofs
timeout 600 cargo run --release -p sciduction-bench --bin loadgen -- --conns 4,16 --requests 32
test -s BENCH_server.json || { echo "BENCH_server.json missing or empty" >&2; exit 1; }
served_certs=0
for cert in target/scid-server/proofs/*.scicert; do
  [ -e "$cert" ] || continue
  cargo run --release -q -p sciduction-proof --bin scicheck -- --cert "$cert"
  served_certs=$((served_certs + 1))
done
for cnf in target/scid-server/proofs/*.cnf; do
  [ -e "$cnf" ] || continue
  cargo run --release -q -p sciduction-proof --bin scicheck -- \
    "$cnf" "${cnf%.cnf}.drat"
  served_certs=$((served_certs + 1))
done
if [ "$served_certs" -eq 0 ]; then
  echo "server smoke produced no certificates to replay" >&2
  exit 1
fi
echo "    replayed $served_certs served certificate(s) through scicheck"

echo "==> crash recovery: kill-anywhere matrix + SIGKILL smoke + cert replay"
timeout 120 cargo test --release -p sciduction-suite --test crash_recovery -q
rm -rf target/scid-server/crash-state target/scid-server/crash-proofs
timeout 600 cargo run --release -p sciduction-bench --bin crash_smoke
crash_certs=0
for cert in target/scid-server/crash-proofs/*.scicert; do
  [ -e "$cert" ] || continue
  cargo run --release -q -p sciduction-proof --bin scicheck -- --cert "$cert"
  crash_certs=$((crash_certs + 1))
done
if [ "$crash_certs" -eq 0 ]; then
  echo "crash smoke produced no certificates to replay" >&2
  exit 1
fi
echo "    replayed $crash_certs certificate(s) served across a SIGKILL restart"

echo "==> shard isolation: differential suite (both modes) + chaos smoke + overhead"
timeout 900 cargo test --release -p sciduction-suite --test shard_vs_inproc -q
rm -rf target/scid-server/shard-proofs
timeout 600 cargo run --release -p sciduction-bench --bin shard_chaos
shard_certs=0
for cert in target/scid-server/shard-proofs/*.scicert; do
  [ -e "$cert" ] || continue
  cargo run --release -q -p sciduction-proof --bin scicheck -- --cert "$cert"
  shard_certs=$((shard_certs + 1))
done
if [ "$shard_certs" -eq 0 ]; then
  echo "shard chaos produced no certificates to replay" >&2
  exit 1
fi
grep -q '"shard_overhead"' BENCH_server.json || {
  echo "BENCH_server.json is missing the shard_overhead section" >&2
  exit 1
}
echo "    replayed $shard_certs certificate(s) served under shard chaos"

echo "CI OK"
