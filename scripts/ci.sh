#!/usr/bin/env bash
# CI entry point: tier-1 verification plus sanitizer passes over the
# concurrency surface (the shared execution engine and the online
# scoring service) — ThreadSanitizer for races, AddressSanitizer for
# lifetime bugs in the batcher / cache / registry hot paths, and
# UndefinedBehaviorSanitizer over the SIMD kernel layer (misaligned or
# out-of-bounds vector loads would surface here first).
#
#   scripts/ci.sh               # full run
#   SKIP_CHAOS=1 scripts/ci.sh  # skip the fault-injection tier
#   SKIP_TSAN=1 scripts/ci.sh   # skip the TSan tier
#   SKIP_ASAN=1 scripts/ci.sh   # skip the ASan tier
#   SKIP_UBSAN=1 scripts/ci.sh  # skip the UBSan tier
#
# All build trees are kept (build/, build-tsan/, build-asan/,
# build-ubsan/) so incremental reruns are cheap.

set -euo pipefail
cd "$(dirname "$0")/.."

JOBS="${JOBS:-$(nproc)}"

echo "== tier 1: build + full test suite =="
cmake -B build -S . -DCMAKE_BUILD_TYPE=RelWithDebInfo
cmake --build build -j "$JOBS"
ctest --test-dir build --output-on-failure -j "$JOBS"
# The same suite again as a flake catcher: every test is its own process,
# so eight at once in a shuffled order, each repeated up to three times,
# exposes tests that share fixed-name temp files or depend on run order.
echo "== tier 1k: full test suite at -j8, random order, until-fail:3 =="
ctest --test-dir build --output-on-failure -j 8 --schedule-random \
  --repeat until-fail:3
# The kernel parity suite again with dispatch forced to the scalar path:
# together with the default run above, both tables are proven
# bit-identical on this machine (the suite itself compares the other
# path when present).
echo "== tier 1b: kernel parity with LEAPME_KERNEL=scalar =="
LEAPME_KERNEL=scalar ctest --test-dir build --output-on-failure \
  -j "$JOBS" -L kernels

# The blocking suite again at pinned thread counts: candidate generation
# promises identical (sorted, deduplicated) pair lists at any pool
# width, so run the label single-threaded and wide and let the
# determinism assertions compare against the spec.
echo "== tier 1e: blocking determinism at 1 and 4 threads =="
LEAPME_THREADS=1 ctest --test-dir build --output-on-failure \
  -j "$JOBS" -L blocking
LEAPME_THREADS=4 ctest --test-dir build --output-on-failure \
  -j "$JOBS" -L blocking

# Open-loop smoke soak: a short fixed-RPS Zipf run against the serve
# stack in catalog-index mode (LEAPME_SCALE=test keeps it to ~2s). The
# check asserts the report parses and the outcome mix is healthy — an
# unloaded test-scale server must answer nearly everything it is
# offered, and transport errors mean a protocol regression, not load.
echo "== tier 1f: open-loop smoke soak via soak_bench =="
SMOKE_DIR="$(mktemp -d)"
LEAPME_SCALE=test LEAPME_BENCH_DIR="$SMOKE_DIR" build/bench/soak_bench \
  > "$SMOKE_DIR/soak.stdout"
python3 - "$SMOKE_DIR/BENCH_soak.json" <<'PYEOF'
import json, sys
report = json.load(open(sys.argv[1]))
metrics = report["metrics"]
sent = metrics["sent"]
answered = metrics["ok"] + metrics["degraded"]
assert sent > 0, "soak sent nothing"
assert metrics["errors"] <= max(2, sent // 50), f"errors: {metrics['errors']}/{sent}"
assert metrics["shed"] + metrics["deadline"] <= sent // 5, \
    f"shed+deadline: {metrics['shed']}+{metrics['deadline']}/{sent}"
assert answered >= (4 * sent) // 5, f"answered only {answered}/{sent}"
assert metrics["intended"]["p99_us"] >= metrics["service"]["p99_us"], \
    "intended clock below service clock"
print(f"soak ok: {answered}/{sent} answered, "
      f"intended p99 {metrics['intended']['p99_us']:.0f}us")
PYEOF
rm -rf "$SMOKE_DIR"

# The full run above covered the epoll reactor at its default single
# loop; re-run the serve + chaos labels with the reactor pinned at a
# multi-loop width so the loop-count plumbing itself is exercised.
echo "== tier 1g: serve + chaos labels on a multi-loop reactor =="
LEAPME_EVENT_LOOP_THREADS=2 \
  ctest --test-dir build --output-on-failure -j "$JOBS" -L 'serve|chaos'

# The sharded cache suite at pinned widths: single-threaded it must be a
# drop-in LRU-alike (the equivalence tests compare against a reference),
# and at 8 stress threads the per-shard locking and CLOCK eviction carry
# the concurrency. A third run forces the scalar tag-probe kernel so the
# SIMD bucket probe is proven bit-identical through the cache itself,
# not just the kernel parity suite.
echo "== tier 1i: cache suite at 1 and 8 threads + scalar tag probe =="
LEAPME_CACHE_THREADS=1 ctest --test-dir build --output-on-failure \
  -j "$JOBS" -L cache
LEAPME_CACHE_THREADS=8 ctest --test-dir build --output-on-failure \
  -j "$JOBS" -L cache
LEAPME_KERNEL=scalar ctest --test-dir build --output-on-failure \
  -j "$JOBS" -L cache

# serve_bench's idle-fleet phase end to end (LEAPME_SCALE=test keeps the
# fleet small and the open-loop runs short): the report must carry the
# reactor gauges and the idle-fleet intended-clock latency, or dashboards
# tracking them silently go blank.
echo "== tier 1h: serve_bench idle-fleet phase + reactor gauge fields =="
SERVE_DIR="$(mktemp -d)"
LEAPME_SCALE=test LEAPME_BENCH_DIR="$SERVE_DIR" build/bench/serve_bench \
  > "$SERVE_DIR/serve.stdout"
python3 - "$SERVE_DIR/BENCH_serve.json" <<'PYEOF'
import json, sys
metrics = json.load(open(sys.argv[1]))["metrics"]
for field in ("io_backend", "event_loop_threads", "epoll_wakeups",
              "writable_backlog_bytes", "connections_active",
              "idle_fleet_connections", "idle_fleet_target",
              "idle_fleet_service", "idle_fleet_intended",
              "embedding_cache_hits", "embedding_cache_misses",
              "embedding_cache_evictions", "embedding_cache_max_probe",
              "property_cache_hits", "property_cache_misses",
              "property_cache_evictions", "property_cache_max_probe",
              "cache_shards"):
    assert field in metrics, f"BENCH_serve.json missing {field}"
assert metrics["io_backend"] == "epoll", metrics["io_backend"]
assert metrics["event_loop_threads"] >= 1, metrics["event_loop_threads"]
assert metrics["cache_shards"] >= 1, metrics["cache_shards"]
assert metrics["property_cache_hits"] + metrics["property_cache_misses"] > 0, \
    "serve bench never touched the property cache"
assert metrics["idle_fleet_connections"] > 0, "idle fleet never connected"
assert metrics["idle_fleet_intended"]["latency_p99_us"] > 0, \
    "no intended-clock latency recorded under the idle fleet"
print(f"serve bench ok: {metrics['idle_fleet_connections']} idle conns, "
      f"idle-fleet intended p99 "
      f"{metrics['idle_fleet_intended']['latency_p99_us']:.0f}us")
PYEOF
rm -rf "$SERVE_DIR"

if [[ "${SKIP_CHAOS:-0}" != "1" ]]; then
  # Latency-only faults keep every serve assertion deterministic (scores
  # and framing are unchanged, just slower) while still jittering the
  # poll/deadline/batching timing paths. Error-kind faults live in the
  # chaos-labeled tests (which arm programmatically) and in the soak
  # below, where the client is allowed to retry.
  echo "== tier 1c: serve suite under an injected latency mix =="
  LEAPME_FAULTS="seed=7;serve.read:delay:p=0.05:ms=2;\
serve.write:delay:p=0.05:ms=2;embedding.lookup:delay:p=0.05:ms=1" \
    ctest --test-dir build --output-on-failure -j "$JOBS" -L serve

  # Fault-storm soak: a real `leapme serve` process armed with a
  # low-probability latency + error + short-I/O mix, driven by the
  # retrying serve_client. Passes iff every request resolves to a scored,
  # degraded, or typed-error reply — no hangs, drops, or mismatches.
  echo "== tier 1d: fault-storm soak via serve_client =="
  SOAK_DIR="$(mktemp -d)"
  SOAK_LOG="$SOAK_DIR/serve.log"
  build/src/cli/leapme generate --domain tvs --sources 4 --entities 8 \
    --seed 7 --out "$SOAK_DIR/soak.tsv"
  build/src/cli/leapme evaluate --data "$SOAK_DIR/soak.tsv" --domain tvs \
    --emb-dim 32 --seed 7 --model-out "$SOAK_DIR/soak.model" >/dev/null
  LEAPME_FAULTS="seed=42;serve.read:delay:p=0.05:ms=5;\
serve.write:delay:p=0.05:ms=5;serve.read:short:p=0.1:bytes=64;\
serve.write:short:p=0.1:bytes=128;serve.read:error:p=0.005;\
embedding.lookup:error:p=0.05;alloc:error:p=0.02" \
    build/src/cli/leapme serve --model "$SOAK_DIR/soak.model" --port 0 \
    --domain tvs --emb-dim 32 --seed 7 --deadline-ms 2000 \
    --max-queue 512 2>"$SOAK_LOG" &
  SOAK_PID=$!
  trap 'kill "$SOAK_PID" 2>/dev/null || true' EXIT
  SOAK_PORT=""
  for _ in $(seq 1 100); do
    SOAK_PORT="$(sed -n 's/.*listening on [0-9.]*:\([0-9]*\).*/\1/p' \
      "$SOAK_LOG" | head -n 1)"
    [[ -n "$SOAK_PORT" ]] && break
    sleep 0.1
  done
  [[ -n "$SOAK_PORT" ]] || { echo "soak server never came up"; cat "$SOAK_LOG"; exit 1; }
  build/bench/serve_client --port "$SOAK_PORT" --clients 8 --requests 40 \
    --pairs 8 --domain tvs --emb-dim 32 --seed 7 \
    --model "$SOAK_DIR/soak.model" --data "$SOAK_DIR/soak.tsv" \
    --retry-budget 8
  kill "$SOAK_PID" 2>/dev/null || true
  wait "$SOAK_PID" 2>/dev/null || true
  trap - EXIT
  rm -rf "$SOAK_DIR"

  # Hot-reload chaos: a live server under a model.load/model.save fault
  # storm while serve_client fires `reload` ops every 50ms and drives
  # full scoring traffic checked bit-exact against the offline model
  # (every admitted reload serves the same file, so scores must never
  # move). Passes iff the client exits clean — zero malformed replies,
  # zero mismatches, zero unresolved requests — and the server counted
  # both rejected and successful reloads: faulted candidates never
  # touched serving, and the reload path still worked between faults.
  echo "== tier 1j: hot-reload chaos via serve_client --reload-interval-ms =="
  RELOAD_DIR="$(mktemp -d)"
  RELOAD_LOG="$RELOAD_DIR/serve.log"
  build/src/cli/leapme generate --domain tvs --sources 4 --entities 8 \
    --seed 7 --out "$RELOAD_DIR/reload.tsv"
  build/src/cli/leapme evaluate --data "$RELOAD_DIR/reload.tsv" --domain tvs \
    --emb-dim 32 --seed 7 --model-out "$RELOAD_DIR/reload.model" >/dev/null
  # The model.load fault also fires on the server's own startup load
  # (the injection point sits inside LoadModel itself), and the fault
  # RNG is deterministic per seed — so advance the seed per attempt and
  # retry until a seed whose first draw spares the startup comes up
  # (seed 2 does; seed 1 does not).
  RELOAD_PID=""
  for FAULT_SEED in $(seq 1 10); do
    : > "$RELOAD_LOG"
    LEAPME_FAULTS="seed=$FAULT_SEED;model.load:error:p=0.5;model.save:error:p=0.5" \
      build/src/cli/leapme serve --model "$RELOAD_DIR/reload.model" \
      --port 0 --domain tvs --emb-dim 32 --seed 7 --deadline-ms 2000 \
      2>"$RELOAD_LOG" &
    RELOAD_PID=$!
    trap 'kill "$RELOAD_PID" 2>/dev/null || true' EXIT
    RELOAD_PORT=""
    for _ in $(seq 1 50); do
      kill -0 "$RELOAD_PID" 2>/dev/null || break
      RELOAD_PORT="$(sed -n 's/.*listening on [0-9.]*:\([0-9]*\).*/\1/p' \
        "$RELOAD_LOG" | head -n 1)"
      [[ -n "$RELOAD_PORT" ]] && break
      sleep 0.1
    done
    [[ -n "$RELOAD_PORT" ]] && break
    wait "$RELOAD_PID" 2>/dev/null || true
    RELOAD_PID=""
  done
  [[ -n "${RELOAD_PORT:-}" ]] || {
    echo "reload-chaos server never came up"; cat "$RELOAD_LOG"; exit 1; }
  # 8x600 requests keep checked traffic flowing for a couple of
  # seconds, long enough for the 10ms reload cadence to land dozens of
  # attempts — the p=0.5 storm then guarantees both outcomes appear.
  build/bench/serve_client --port "$RELOAD_PORT" --clients 8 --requests 600 \
    --pairs 8 --domain tvs --emb-dim 32 --seed 7 \
    --model "$RELOAD_DIR/reload.model" --data "$RELOAD_DIR/reload.tsv" \
    --retry-budget 8 --reload-interval-ms 10 \
    | tee "$RELOAD_DIR/client.stdout"
  grep -Eq '"reloads_rejected":[1-9]' "$RELOAD_DIR/client.stdout" || {
    echo "no reload was rejected under the fault storm"; exit 1; }
  grep -Eq '"reloads_ok":[1-9]' "$RELOAD_DIR/client.stdout" || {
    echo "no reload succeeded under the fault storm"; exit 1; }
  kill "$RELOAD_PID" 2>/dev/null || true
  wait "$RELOAD_PID" 2>/dev/null || true
  trap - EXIT
  rm -rf "$RELOAD_DIR"
fi

if [[ "${SKIP_TSAN:-0}" != "1" ]]; then
  echo "== tier 2: ThreadSanitizer on the parallel + serve + chaos + blocking + workload + cache labels =="
  cmake -B build-tsan -S . -DLEAPME_SANITIZE=thread
  cmake --build build-tsan -j "$JOBS"
  ctest --test-dir build-tsan --output-on-failure -j "$JOBS" \
    -L 'parallel|serve|chaos|blocking|workload|cache'
  # Idle-fleet smoke under TSan: the 10k keep-alive test already ran as
  # part of the serve label above; re-run it by name so a label
  # reshuffle cannot silently drop it from the sanitizer tier.
  ctest --test-dir build-tsan --output-on-failure \
    -R 'TenThousandIdleConnectionsStayResponsive'
  # Same insurance for the sharded-cache stress test: many threads
  # hammering overlapping keys across shards is exactly the shape TSan
  # exists for, so pin it by name too.
  ctest --test-dir build-tsan --output-on-failure \
    -R 'ManyThreadsHammerOverlappingKeys'
  # And the hot-reload stress: scorer threads racing generation swaps is
  # the exact shape the registry's RCU hand-out must survive, so pin it
  # by name alongside the label run.
  ctest --test-dir build-tsan --output-on-failure \
    -R 'ReloadStressUnderConcurrentScoring'
  # The loop times requests the batcher still holds, and stops reading a
  # peer that never reads its replies: both cross the loop/batcher
  # handoff, so pin them by name too.
  ctest --test-dir build-tsan --output-on-failure \
    -R 'InFlightRequestHitsDeadlineWithTypedReply|PipelinedFloodWithoutReadingBlocksThenDrains'
fi

if [[ "${SKIP_ASAN:-0}" != "1" ]]; then
  echo "== tier 3: AddressSanitizer on the parallel + serve + chaos + blocking labels =="
  cmake -B build-asan -S . -DLEAPME_SANITIZE=address
  cmake --build build-asan -j "$JOBS"
  ctest --test-dir build-asan --output-on-failure -j "$JOBS" \
    -L 'parallel|serve|chaos|blocking'
fi

if [[ "${SKIP_UBSAN:-0}" != "1" ]]; then
  echo "== tier 4: UndefinedBehaviorSanitizer on the kernels label =="
  cmake -B build-ubsan -S . -DLEAPME_SANITIZE=undefined
  cmake --build build-ubsan -j "$JOBS"
  ctest --test-dir build-ubsan --output-on-failure -j "$JOBS" -L kernels
  LEAPME_KERNEL=scalar ctest --test-dir build-ubsan --output-on-failure \
    -j "$JOBS" -L kernels
fi

echo "ci.sh: all checks passed"
