#!/usr/bin/env bash
# Drives the remote-mode contract end to end: a live kcc-serve daemon
# on a Unix socket must make `kcc --remote=unix:PATH ...` byte-identical
# to a local run on stdout and identical on exit codes — single-file UB
# (exit 139), single-file clean (the program's own exit code),
# multi-file --batch-stats, and --json with volatile timing/counter
# fields masked. Finally SIGTERM must drain the daemon to exit 0.
#
# Run via ctest (test name: kcc_remote_cli):
#   check_serve_cli.sh <kcc> <kcc-serve> <workdir>
set -u

KCC="$1"
KCC_SERVE="$2"
WORKDIR="$3"
mkdir -p "$WORKDIR"

# Socket paths are capped at ~107 bytes, so the socket lives under /tmp
# rather than the (arbitrarily deep) build tree.
SOCK="/tmp/cundef-remote-cli-$$.sock"
LOG="$WORKDIR/serve.log"
rm -f "$SOCK"

fail() { echo "kcc_remote_cli: $*" >&2; exit 1; }

"$KCC_SERVE" --socket="$SOCK" 2>"$LOG" &
DAEMON=$!
cleanup() { kill "$DAEMON" 2>/dev/null; wait "$DAEMON" 2>/dev/null; rm -f "$SOCK"; }
trap cleanup EXIT

# The daemon prints its ready line only once it is accepting.
for _ in $(seq 1 200); do
  grep -q "kcc-serve: ready" "$LOG" 2>/dev/null && break
  kill -0 "$DAEMON" 2>/dev/null || { cat "$LOG" >&2; fail "daemon died before becoming ready"; }
  sleep 0.05
done
grep -q "kcc-serve: ready" "$LOG" || fail "daemon never became ready"

cat > "$WORKDIR/ub.c" <<'EOF'
int main(void) {
  int i = 0;
  int j = i++ + i++;
  return j;
}
EOF
cat > "$WORKDIR/clean.c" <<'EOF'
#include <stdio.h>
int main(void) {
  printf("hello from clean\n");
  return 7;
}
EOF
cat > "$WORKDIR/clean2.c" <<'EOF'
int main(void) { return 0; }
EOF

# Runs the same kcc invocation locally and through the daemon; stdout
# must match byte for byte and the exit codes must agree (the
# 139/1/exit-code contract is part of the CLI surface).
run_pair() {
  local LABEL="$1"; shift
  local LRC=0 RRC=0
  "$KCC" "$@" >"$WORKDIR/local.out" 2>"$WORKDIR/local.err" || LRC=$?
  "$KCC" --remote=unix:"$SOCK" "$@" >"$WORKDIR/remote.out" 2>"$WORKDIR/remote.err" || RRC=$?
  [ "$LRC" = "$RRC" ] || fail "$LABEL: exit codes differ (local $LRC, remote $RRC)"
  cmp -s "$WORKDIR/local.out" "$WORKDIR/remote.out" || {
    diff "$WORKDIR/local.out" "$WORKDIR/remote.out" >&2 || true
    fail "$LABEL: stdout differs between local and remote"
  }
}

run_pair "single-file UB"    --search=16 "$WORKDIR/ub.c"
run_pair "single-file clean" --search=8 "$WORKDIR/clean.c"
run_pair "multi-file batch"  --search=8 --batch-stats \
  "$WORKDIR/clean.c" "$WORKDIR/clean2.c" "$WORKDIR/ub.c"

# --json embeds wall-clock timings and scheduler counters that are
# legitimately nondeterministic (and, remotely, engine-lifetime
# monotonic); mask exactly those fields, then demand byte equality on
# everything else — findings, outcomes, program output, exit codes.
MASK='s/"(wall_ms|wall_micros|frontend_micros|search_micros|steals|peak_frontier|runs_executed|speculative_waste|commit_lag_peak|snapshot_captures|snapshot_takes|snapshot_hits|snapshot_evictions|workers|lookups|hits|misses|inflight_joins|evictions|abandoned|cache_hit|result_cache_hit|runs_committed)": [^,}]+/"\1": X/g'
LRC=0; RRC=0
"$KCC" --json --search=16 "$WORKDIR/ub.c" "$WORKDIR/clean.c" \
  >"$WORKDIR/local.json" 2>/dev/null || LRC=$?
"$KCC" --json --search=16 --remote=unix:"$SOCK" "$WORKDIR/ub.c" "$WORKDIR/clean.c" \
  >"$WORKDIR/remote.json" 2>/dev/null || RRC=$?
[ "$LRC" = "$RRC" ] || fail "--json: exit codes differ (local $LRC, remote $RRC)"
sed -E "$MASK" "$WORKDIR/local.json" >"$WORKDIR/local.masked"
sed -E "$MASK" "$WORKDIR/remote.json" >"$WORKDIR/remote.masked"
cmp -s "$WORKDIR/local.masked" "$WORKDIR/remote.masked" || {
  diff "$WORKDIR/local.masked" "$WORKDIR/remote.masked" >&2 || true
  fail "--json: masked output differs between local and remote"
}

# A connection refused after shutdown proves the drain actually closed
# the listeners; exit 0 proves in-flight work finished and flushed.
kill -TERM "$DAEMON"
DRC=0
wait "$DAEMON" || DRC=$?
trap - EXIT
rm -f "$SOCK"
[ "$DRC" = 0 ] || fail "daemon exited $DRC after SIGTERM (expected a clean drain to 0)"

echo "kcc --remote matches local byte-for-byte; daemon drained cleanly"
