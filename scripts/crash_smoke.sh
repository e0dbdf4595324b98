#!/usr/bin/env bash
# Crash-recovery smoke: start mbpmarket with a durable store, drive
# purchases (one with an Idempotency-Key), kill -9 the process
# mid-traffic, restart it on the same store directory, and assert
#   1. every pre-crash sale is still in the ledger (same count, same
#      sequence numbers, contiguous from 1),
#   2. retrying the captured idempotency key replays the original sale
#      (Idempotency-Replayed: true, same seq, same price, same per-seller
#      shares and broker share) instead of charging again,
#   3. the ledger and per-seller attribution survive recovery exactly:
#      the whole /ledger document (every row's seq, price, stamps and
#      shares, with one row sold live just before) and the /sellers
#      document (revenue per seller, broker share, zero conservation
#      violations) are byte-for-byte identical across a quiescent
#      kill -9 / restart cycle.
# Stdlib tools only — JSON is picked apart with grep -o, no jq.
set -euo pipefail

ADDR=127.0.0.1:8777
BASE="http://$ADDR"
DIR=$(mktemp -d)
LOG=$(mktemp)
BIN=$(mktemp -d)/mbpmarket
trap 'kill $PID 2>/dev/null || true; rm -rf "$DIR" "$LOG" "$(dirname "$BIN")"' EXIT

go build -o "$BIN" ./cmd/mbpmarket

start() {
  "$BIN" -dataset CASP -addr "$ADDR" -store-dir "$DIR" -fsync always >>"$LOG" 2>&1 &
  PID=$!
  for _ in $(seq 1 100); do
    curl -fsS "$BASE/healthz" >/dev/null 2>&1 && return 0
    kill -0 "$PID" 2>/dev/null || { echo "mbpmarket died on startup"; tail "$LOG"; exit 1; }
    sleep 0.2
  done
  echo "mbpmarket never became healthy"; tail "$LOG"; exit 1
}

buy() { # buy [curl-args...]
  curl -fsS -X POST "$@" -d '{"model":"linear-regression","priceBudget":40}' "$BASE/buy"
}

ledger_seqs() {
  # /ledger rows marshal market.Transaction verbatim: "Seq" capitalized.
  curl -fsS "$BASE/ledger" | grep -o '"Seq":[0-9]*' | grep -o '[0-9]*' | sort -n
}

echo "== first run: trains, journals sales =="
start

for i in 1 2 3; do buy >/dev/null; done
KEYED=$(buy -H 'Idempotency-Key: smoke-key-1')
KEYED_SEQ=$(echo "$KEYED" | grep -o '"seq":[0-9]*' | grep -o '[0-9]*')
KEYED_PRICE=$(echo "$KEYED" | grep -o '"price":[0-9.eE+-]*' | head -1)
# The shares objects hold no arrays, so the first ']' closes the table.
KEYED_SHARES=$(echo "$KEYED" | grep -o '"shares":\[[^]]*\]' || true)
KEYED_BROKER=$(echo "$KEYED" | grep -o '"brokerShare":[0-9.eE+-]*' || true)
[ -n "$KEYED_SHARES" ] && [ -n "$KEYED_BROKER" ] || {
  echo "keyed sale carried no attribution: $KEYED"; exit 1; }
buy >/dev/null
BEFORE=$(ledger_seqs)
COUNT=$(echo "$BEFORE" | wc -l)
[ "$COUNT" -eq 5 ] || { echo "expected 5 sales before crash, got $COUNT"; exit 1; }

echo "== kill -9 mid-traffic =="
( for _ in $(seq 1 20); do buy >/dev/null 2>&1 || true; done ) &
TRAFFIC=$!
sleep 0.3
kill -9 "$PID"
wait "$TRAFFIC" 2>/dev/null || true
wait "$PID" 2>/dev/null || true

echo "== restart on the same store: warm-start + WAL replay =="
start
grep -q 'ledger recovered' "$LOG" || { echo "no recovery log line"; tail "$LOG"; exit 1; }

AFTER=$(ledger_seqs)
# Every pre-crash sale must survive (recovery may legitimately hold
# more rows from the kill-window traffic, never fewer).
for seq in $BEFORE; do
  echo "$AFTER" | grep -qx "$seq" || { echo "sale seq=$seq lost in the crash"; exit 1; }
done
# Sequence numbers stay unique after recovery.
DUPES=$(echo "$AFTER" | uniq -d)
[ -z "$DUPES" ] || { echo "duplicate seqs after recovery: $DUPES"; exit 1; }

echo "== idempotent replay across the crash =="
REPLAY_HDRS=$(mktemp)
REPLAY=$(curl -fsS -D "$REPLAY_HDRS" -X POST -H 'Idempotency-Key: smoke-key-1' \
  -d '{"model":"linear-regression","priceBudget":40}' "$BASE/buy")
grep -qi '^Idempotency-Replayed: true' "$REPLAY_HDRS" || {
  echo "retry was not replayed"; cat "$REPLAY_HDRS"; rm -f "$REPLAY_HDRS"; exit 1; }
rm -f "$REPLAY_HDRS"
REPLAY_SEQ=$(echo "$REPLAY" | grep -o '"seq":[0-9]*' | grep -o '[0-9]*')
[ "$REPLAY_SEQ" = "$KEYED_SEQ" ] || { echo "replayed seq $REPLAY_SEQ != original $KEYED_SEQ"; exit 1; }
# The replay must return the originally charged price, byte for byte —
# a retrained model or recomputed menu would betray a fresh charge.
REPLAY_PRICE=$(echo "$REPLAY" | grep -o '"price":[0-9.eE+-]*' | head -1)
[ "$REPLAY_PRICE" = "$KEYED_PRICE" ] || { echo "replayed $REPLAY_PRICE != original $KEYED_PRICE"; exit 1; }
# So must the sale's attribution: the replay is rebuilt from the
# journal, which holds the table the buyer was charged under.
REPLAY_SHARES=$(echo "$REPLAY" | grep -o '"shares":\[[^]]*\]' || true)
REPLAY_BROKER=$(echo "$REPLAY" | grep -o '"brokerShare":[0-9.eE+-]*' || true)
[ "$REPLAY_SHARES" = "$KEYED_SHARES" ] || {
  echo "replayed ${REPLAY_SHARES:-no shares} != original $KEYED_SHARES"; exit 1; }
[ "$REPLAY_BROKER" = "$KEYED_BROKER" ] || {
  echo "replayed ${REPLAY_BROKER:-no brokerShare} != original $KEYED_BROKER"; exit 1; }
FINAL=$(ledger_seqs | wc -l)
AFTER_N=$(echo "$AFTER" | wc -l)
[ "$FINAL" -eq "$AFTER_N" ] || { echo "replay appended a ledger row ($AFTER_N -> $FINAL)"; exit 1; }

echo "== ledger and attribution survive a quiescent crash byte-for-byte =="
# One sale served from memory, so the comparison covers a row as it was
# sold, not only rows already read back from the journal.
buy >/dev/null
LEDGER_A=$(curl -fsS "$BASE/ledger")
SELLERS_A=$(curl -fsS "$BASE/sellers")
echo "$SELLERS_A" | grep -q '"exactViolations":0' || {
  echo "conservation violations before crash: $SELLERS_A"; exit 1; }
echo "$SELLERS_A" | grep -q '"resumMismatches":0' || {
  echo "re-sum mismatches before crash: $SELLERS_A"; exit 1; }
echo "$SELLERS_A" | grep -q '"revenue":{' || {
  echo "no per-seller revenue in /sellers: $SELLERS_A"; exit 1; }
kill -9 "$PID"
wait "$PID" 2>/dev/null || true

start
# No traffic ran between the capture and the kill, so recovery must
# reproduce the ledger and the attribution state EXACTLY — every float
# is journaled as raw bits, every wall time as its instant and UTC
# offset, and Go's JSON sorts map keys, so both documents compare byte
# for byte.
LEDGER_B=$(curl -fsS "$BASE/ledger")
[ "$LEDGER_A" = "$LEDGER_B" ] || {
  echo "recovered ledger differs from pre-crash:"
  echo "before: $LEDGER_A"
  echo "after:  $LEDGER_B"
  exit 1
}
SELLERS_B=$(curl -fsS "$BASE/sellers")
[ "$SELLERS_A" = "$SELLERS_B" ] || {
  echo "recovered attribution differs from pre-crash:"
  echo "before: $SELLERS_A"
  echo "after:  $SELLERS_B"
  exit 1
}

kill "$PID"
wait "$PID" 2>/dev/null || true
echo "crash-recovery smoke OK: $AFTER_N sales survived, key replayed as seq $REPLAY_SEQ, ledger and attribution exact across recovery"
