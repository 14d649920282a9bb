#!/usr/bin/env bash
# Randomized soak of hilpd: concurrent submit / budgeted-submit /
# mid-stream-kill / reconnect churn for DURATION seconds, then a final
# health check. Nightly CI runs this non-gating and uploads the
# artifacts (daemon journal + log, per-operation trace) either way.
#
# Usage: scripts/soak.sh [DURATION_SECONDS] [ADDR]
#
# Expects target/release/{hilpd,hilp} to exist
# (cargo build --release -p hilp-server --bins).
set -euo pipefail

DURATION="${1:-60}"
ADDR="${2:-127.0.0.1:7171}"
BIN=target/release
ART=soak-artifacts
SEED="${RANDOM_SEED:-$$}"
RANDOM=$((SEED))

mkdir -p "$ART"
: > "$ART/ops.log"
echo "soak: seed $SEED, ${DURATION}s against $ADDR" | tee -a "$ART/ops.log"

"$BIN/hilpd" --listen "$ADDR" --journal "$ART/hilpd-journal.jsonl" \
  > "$ART/hilpd.log" 2>&1 &
HILPD_PID=$!
cleanup() {
  kill "$HILPD_PID" 2>/dev/null || true
}
trap cleanup EXIT

for _ in $(seq 1 50); do
  grep -q 'listening on' "$ART/hilpd.log" 2>/dev/null && break
  sleep 0.2
done
grep -q 'listening on' "$ART/hilpd.log" || {
  echo "soak: FAIL: hilpd never came up" >&2
  cat "$ART/hilpd.log" >&2
  exit 1
}

# Pre-soak warm-up: its points land in the daemon's result store, so
# mid-soak repeats (and any job of any tenant asking for one of its
# SoCs) replay them.
"$BIN/hilp" submit "$ADDR" --tenant soak-warm --step 93 --quiet \
  >> "$ART/ops.log" 2>&1

END=$((SECONDS + DURATION))
OPS=0
declare -a PIDS=()
while [ "$SECONDS" -lt "$END" ]; do
  OPS=$((OPS + 1))
  TENANT="soak-$((RANDOM % 4))"
  STEP=$((47 + RANDOM % 140))
  case $((RANDOM % 4)) in
    0)  # Plain submit, streamed to the op log.
        "$BIN/hilp" submit "$ADDR" --tenant "$TENANT" --step "$STEP" --quiet \
          >> "$ART/ops.log" 2>&1 || true
        ;;
    1)  # Warm repeat: the warm-up's points, replayed from the store.
        "$BIN/hilp" submit "$ADDR" --tenant soak-warm --step 93 --quiet \
          >> "$ART/ops.log" 2>&1 || true
        ;;
    2)  # Budgeted submit in the background (concurrency pressure).
        "$BIN/hilp" submit "$ADDR" --tenant "$TENANT" --step "$STEP" \
          --per-point-budget $((1 + RANDOM % 64)) --quiet \
          >> "$ART/ops.log" 2>&1 &
        PIDS+=("$!")
        ;;
    3)  # Mid-stream kill: the client vanishes, cancel-on-disconnect
        # must reap the job server-side.
        timeout -s KILL 0.2 \
          "$BIN/hilp" watch "$ADDR" --tenant "$TENANT" --step "$STEP" \
          >> "$ART/ops.log" 2>&1 || true
        ;;
  esac
  # Bound the background-client herd.
  if [ "${#PIDS[@]}" -ge 8 ]; then
    wait "${PIDS[0]}" 2>/dev/null || true
    PIDS=("${PIDS[@]:1}")
  fi
done
for pid in "${PIDS[@]:-}"; do
  [ -n "$pid" ] && wait "$pid" 2>/dev/null || true
done

# Final health check, gating inside the soak: the daemon must still
# answer a job — another tenant's copy of the warm-up, whose points the
# store replays — and shutdown must be clean.
echo "soak: $OPS operations issued; final health check" | tee -a "$ART/ops.log"
FINAL=$("$BIN/hilp" submit "$ADDR" --tenant soak-final --step 93 --quiet | tail -1)
echo "$FINAL" | tee -a "$ART/ops.log"
case "$FINAL" in
  *" finished: "*) ;;
  *) echo "soak: FAIL: final job did not finish: $FINAL" >&2; exit 1 ;;
esac
"$BIN/hilp" shutdown "$ADDR" --quiet
if ! timeout 30 tail --pid="$HILPD_PID" -f /dev/null; then
  echo "soak: FAIL: hilpd did not exit after shutdown" >&2
  exit 1
fi
trap - EXIT
echo "soak: PASS ($OPS operations over ${DURATION}s)" | tee -a "$ART/ops.log"
