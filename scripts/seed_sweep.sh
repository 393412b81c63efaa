#!/usr/bin/env bash
# Multi-seed sweeps of the seeded test suites.  Seed i of a sweep runs with
# SNIPE_CHAOS_SEED = base + i * 1000003, so a sweep is N independent
# adversarial runs, and a failing seed reproduces bit-for-bit from the
# "reproduce with:" line printed with it.  Four modes:
#
#   chaos  every chaos_test scenario across N seeds (default 10): the quick
#          pre-merge pass.  On a failure the suite's gtest listener prints
#          the flight-recorder dump (the fault and protocol events leading up
#          to the trip).
#   soak   the long run for nightly use (default 50 seeds).  Phase 1 is the
#          chaos pass with per-seed digest logging: every replay-checked
#          scenario appends "<seed> <scenario> <digest-fnv1a>" to the digest
#          log, so two soaks of the same seed range can be diffed to catch
#          cross-build determinism drift.  Every seed runs; failures are
#          counted.  Phase 2 is the alert soak (below) across
#          SNIPE_WATCH_SEEDS seeds; it fails unless it covered at least an
#          hour of virtual time, since less means scenarios went missing.
#   topo   the routing-zone unit tests (topo_test) as a preflight, then the
#          zoned-topology scenario ChaosTopo.* across N seeds (default 10).
#          Each seed drives the 4-site gateway-ring world through link_down
#          reroutes, routed partitions and a host crash, and requires the
#          digest to come out bit-identical for 1, 2 and 4 shards.
#   watch  the watchtower unit tests (watch_test minus WatchSoak.*) as a
#          preflight, then the alert soak across N seeds (default 10).
#
# The alert soak (WatchSoak.*) drives clean, partition, crashed-exporter,
# RTO-storm, incast, route-flap and repair-churn worlds at
# SNIPE_SOAK_SCALE x virtual time.  Each must fire its expected alert AND
# resolve it after heal (the clean world fires nothing), and prints one
# "[soak] scenario=... seed=... virtual_s=..." line; the sweep sums them.
#
# Usage: scripts/seed_sweep.sh <chaos|soak|topo|watch> [N] [build-dir]
#        (build-dir defaults to build)
# Env:   SNIPE_CHAOS_BASE_SEED    first seed (default 20260807)
#        SNIPE_CHAOS_DIGEST_LOG   soak digest log
#                                 (default <build-dir>/chaos_soak_digests.log)
#        SNIPE_WATCH_SEEDS        soak: alert-soak seed count (default 20)
#        SNIPE_WATCH_SOAK_LOG     soak: alert-soak accounting log
#                                 (default <build-dir>/watch_soak.log)
#        SNIPE_SOAK_SCALE         alert-soak virtual-time multiplier (default 1)
# Exit:  0 clean, 1 an invariant tripped, 2 bad usage or a binary not built.
#
# Configuring CMake with -DSNIPE_SEED_SWEEPS=ON registers the four modes as
# the ctest tests chaos_sweep, chaos_soak, topo_sweep and watch_sweep
# (labels sweep, soak, topo, watch).  They are off by default so the tier-1
# suite's runtime stays flat.
set -euo pipefail

cd "$(dirname "$0")/.."
case "${1:-}" in
  chaos) NAME=chaos_sweep N="${2:-10}" ;;
  soak) NAME=chaos_soak N="${2:-50}" ;;
  topo) NAME=topo_sweep N="${2:-10}" ;;
  watch) NAME=watch_sweep N="${2:-10}" ;;
  *)
    echo "usage: scripts/seed_sweep.sh <chaos|soak|topo|watch> [N] [build-dir]" >&2
    exit 2
    ;;
esac
MODE=$1
LABEL="${NAME/_/ }"
BUILD_DIR="${3:-build}"
CHAOS_BIN="$BUILD_DIR/tests/chaos_test"
TOPO_BIN="$BUILD_DIR/tests/topo_test"
WATCH_BIN="$BUILD_DIR/tests/watch_test"
BASE="${SNIPE_CHAOS_BASE_SEED:-20260807}"
SCALE="${SNIPE_SOAK_SCALE:-1}"

need() {
  for bin in "$@"; do
    if [ ! -x "$bin" ]; then
      echo "$NAME: $bin not built (cmake --build $BUILD_DIR)" >&2
      exit 2
    fi
  done
}

seed() { echo $((BASE + $1 * 1000003)); }

# preflight <label> <what> <binary> [gtest args...]: the fixed-seed unit
# tests must hold before sweeping.
preflight() {
  local label=$1 what=$2
  shift 2
  echo "==== $LABEL: preflight ($label) ===="
  if ! "$@" --gtest_brief=1; then
    echo "$NAME: $what unit tests failed; reproduce with: $1" >&2
    exit 1
  fi
}

# chaos_pass <gtest-filter> <keep-going>: chaos_test across N seeds.  Stops
# at the first tripped seed unless <keep-going> is 1, which counts them in
# $failures instead.
failures=0
chaos_pass() {
  local filter=$1 keep_going=$2 s repro
  for i in $(seq 0 $((N - 1))); do
    s=$(seed "$i")
    echo "==== $LABEL: seed $s ($((i + 1))/$N) ===="
    if ! SNIPE_CHAOS_SEED=$s "$CHAOS_BIN" --gtest_brief=1 --gtest_filter="$filter"; then
      echo "$NAME: invariant tripped at seed $s (flight-recorder dump above)" >&2
      repro="SNIPE_CHAOS_SEED=$s $CHAOS_BIN"
      [ "$filter" = '*' ] || repro="$repro --gtest_filter='$filter'"
      echo "reproduce with: $repro" >&2
      [ "$keep_going" = 1 ] || exit 1
      failures=$((failures + 1))
    fi
  done
}

# alert_soak <seeds> <log>: WatchSoak.* across <seeds> seeds, appending the
# accounting lines to <log>; sets $virtual_s and $soaked from their sum.
alert_soak() {
  local s
  for i in $(seq 0 $(($1 - 1))); do
    s=$(seed "$i")
    echo "==== watch soak: seed $s ($((i + 1))/$1, scale $SCALE) ===="
    if ! SNIPE_CHAOS_SEED=$s SNIPE_SOAK_SCALE=$SCALE "$WATCH_BIN" \
        --gtest_brief=1 --gtest_filter='WatchSoak.*' | tee -a "$2"; then
      echo "$NAME: watchtower alert invariant tripped at seed $s" >&2
      echo "reproduce with: SNIPE_CHAOS_SEED=$s SNIPE_SOAK_SCALE=$SCALE $WATCH_BIN --gtest_filter='WatchSoak.*'" >&2
      exit 1
    fi
  done
  virtual_s=$(awk -F'virtual_s=' '/^\[soak\] /{sum += $2} END {printf "%d", sum}' "$2")
  local scenarios
  scenarios=$(grep -c '^\[soak\] ' "$2" || true)
  soaked="$scenarios scenarios, ${virtual_s}s ≈ $((virtual_s / 3600))h $(((virtual_s % 3600) / 60))m virtual"
}

case "$MODE" in
  chaos)
    need "$CHAOS_BIN"
    chaos_pass '*' 0
    echo "$NAME: $N seeds clean"
    ;;
  soak)
    need "$CHAOS_BIN" "$WATCH_BIN"
    export SNIPE_CHAOS_DIGEST_LOG="${SNIPE_CHAOS_DIGEST_LOG:-$BUILD_DIR/chaos_soak_digests.log}"
    : > "$SNIPE_CHAOS_DIGEST_LOG"
    echo "$NAME: $N seeds from $BASE, digests -> $SNIPE_CHAOS_DIGEST_LOG"
    chaos_pass '*' 1
    lines=$(wc -l < "$SNIPE_CHAOS_DIGEST_LOG" | tr -d ' ')
    if [ "$failures" -gt 0 ]; then
      echo "$NAME: $failures/$N seeds FAILED ($lines digest lines in $SNIPE_CHAOS_DIGEST_LOG)" >&2
      exit 1
    fi
    echo "$NAME: $N seeds clean ($lines digest lines in $SNIPE_CHAOS_DIGEST_LOG)"

    WATCH_SEEDS="${SNIPE_WATCH_SEEDS:-20}"
    SOAK_LOG="${SNIPE_WATCH_SOAK_LOG:-$BUILD_DIR/watch_soak.log}"
    : > "$SOAK_LOG"
    echo "$NAME: watchtower phase — $WATCH_SEEDS seeds at scale $SCALE, accounting -> $SOAK_LOG"
    alert_soak "$WATCH_SEEDS" "$SOAK_LOG"
    # An hour of soaked virtual time is the floor for a run to count: at
    # the defaults (20 seeds x 7 scenarios x 60-120 virtual seconds) a clean
    # pass covers ~3.5 virtual hours.
    if [ "$virtual_s" -lt 3600 ]; then
      echo "$NAME: watchtower phase covered only ${virtual_s}s of virtual time (< 1h floor)" >&2
      exit 1
    fi
    echo "$NAME: watchtower phase clean — $WATCH_SEEDS seeds, $soaked"
    ;;
  topo)
    need "$CHAOS_BIN" "$TOPO_BIN"
    preflight topo_test routing-zone "$TOPO_BIN"
    chaos_pass 'ChaosTopo.*' 0
    echo "$NAME: $N seeds clean"
    ;;
  watch)
    need "$WATCH_BIN"
    preflight "watch_test sans soak" watchtower "$WATCH_BIN" --gtest_filter='-WatchSoak.*'
    SOAK_LOG="$(mktemp "${TMPDIR:-/tmp}/watch_sweep.XXXXXX")"
    trap 'rm -f "$SOAK_LOG"' EXIT
    alert_soak "$N" "$SOAK_LOG"
    echo "$NAME: $N seeds clean ($soaked)"
    ;;
esac
