#!/usr/bin/env bash
# Federation end-to-end gate: a real multi-process federation (dice_cli
# --serve processes + an exploring dice_cli) must produce verdicts and batch
# byte counts bit-identical to the in-process federation path, over TCP and
# Unix-domain sockets mixed in one federation — and a server SIGKILLed
# mid-run that warm-restarts from its --state_dir must not change the final
# digests.
#
# Usage: federation_e2e.sh <dice_cli binary> <testdata dir> <scratch dir>
#
# Exit 0 when every transport reproduces the reference digests; nonzero (with
# a diagnostic) on any divergence, startup failure, or timeout.

set -u

CLI="$1"
TESTDATA="$2"
SCRATCH="$3"

rm -rf "$SCRATCH"
mkdir -p "$SCRATCH"

# The same misconfigured provider + injected victim space the crash-recovery
# job uses: findings are guaranteed (exit 3), so the digests are non-trivial.
EXPLORE_ARGS=(--config="$TESTDATA/provider_fatfinger.conf"
              --inject=208.65.152.0/22:36561 --seed-prefix=208.65.153.0/24
              --runs=64 --prefixes=500 --seed=1)
# Remote domains must be built from the same generator inputs on both sides
# of the wire, or the comparison is meaningless.
REMOTE_ARGS=(--config="$TESTDATA/neighbor.conf" --serve_peer_as=3
             --prefixes=500 --seed=1)

PIDS=()
cleanup() {
  for pid in "${PIDS[@]:-}"; do
    kill -9 "$pid" >/dev/null 2>&1 || true
  done
}
trap cleanup EXIT

fail() {
  echo "FAIL: $*" >&2
  echo "--- logs ---" >&2
  tail -n 20 "$SCRATCH"/*.log >&2 || true
  exit 1
}

start_server() { # <name> <extra args...>
  local name="$1"; shift
  "$CLI" "${REMOTE_ARGS[@]}" "$@" >"$SCRATCH/$name.log" 2>&1 &
  PIDS+=($!)
  echo $! >"$SCRATCH/$name.pid"
  disown $!  # keep bash's job control from reporting the staged SIGKILL
}

wait_serving() { # <name> -> echoes the resolved address of the first endpoint
  local log="$SCRATCH/$1.log"
  for _ in $(seq 1 100); do
    if grep -q '^serving ' "$log" 2>/dev/null; then
      sed -n 's/^serving .* on //p' "$log" | head -n 1
      return 0
    fi
    sleep 0.1
  done
  return 1
}

run_explorer() { # <name> <remote_config value> -> digests in $SCRATCH/<name>.digest
  local name="$1" remotes="$2"
  "$CLI" "${EXPLORE_ARGS[@]}" --remote_config="$remotes" >"$SCRATCH/$name.log" 2>&1
  local rc=$?
  # 3 = findings present, which this fixture guarantees.
  [ "$rc" -eq 3 ] || fail "explorer '$name' exited $rc (want 3); see $name.log"
  grep -E '^(detections_digest|system_wide_digest)=' "$SCRATCH/$name.log" \
    >"$SCRATCH/$name.digest"
  [ -s "$SCRATCH/$name.digest" ] || fail "explorer '$name' printed no digests"
  # The serialized batch bytes of the federation line: batch frames have
  # fixed-width fields, so every transport must move exactly the bytes the
  # in-process path serializes.
  sed -n 's/^federation: .*wire bytes \([0-9]*\) out \/ \([0-9]*\) in;.*/wire_bytes=\1 out \/ \2 in/p' \
    "$SCRATCH/$name.log" >>"$SCRATCH/$name.digest"
  grep -q '^wire_bytes=' "$SCRATCH/$name.digest" ||
    fail "explorer '$name' printed no federation wire bytes"
}

check_same() { # <reference name> <candidate name>
  if ! cmp -s "$SCRATCH/$1.digest" "$SCRATCH/$2.digest"; then
    echo "--- $1 ---" >&2; cat "$SCRATCH/$1.digest" >&2
    echo "--- $2 ---" >&2; cat "$SCRATCH/$2.digest" >&2
    fail "divergence between '$1' and '$2' — a transport changed a verdict or its bytes"
  fi
}

# --- Reference: the same two domains, federated entirely in process ----------
run_explorer ref "$TESTDATA/neighbor.conf,$TESTDATA/neighbor.conf"
echo "reference digests:"
cat "$SCRATCH/ref.digest"

# --- TCP + Unix-domain sockets: two server processes -------------------------
start_server srv_tcp --serve=tcp:127.0.0.1:0
start_server srv_uds --serve="unix:$SCRATCH/uds.sock"
TCP_ADDR=$(wait_serving srv_tcp) || fail "tcp server never came up"
wait_serving srv_uds >/dev/null || fail "unix server never came up"
run_explorer sockets "$TCP_ADDR,unix:$SCRATCH/uds.sock"
check_same ref sockets
echo "tcp+unix federation matches the in-process reference"

# --- SIGKILL + warm restart --------------------------------------------------
# One server over a Unix socket (the path is rebindable by the replacement),
# persisting its table to --state_dir. Run once uninterrupted for the
# single-domain reference, then SIGKILL the server, warm-restart a replacement
# from its snapshot, and run again: the verdict digests must not move, and the
# replacement must actually have restored the table (no silent re-learn).
# Exploration runs finish in milliseconds, so the crash is staged between
# explorer runs here; the in-flight reconnect + epoch re-validation path is
# pinned deterministically by transport_rpc_test and transport_fault_test.
KILL_SOCK="unix:$SCRATCH/kill.sock"
start_server srv_kill --serve="$KILL_SOCK" --state_dir="$SCRATCH/kill_state"
wait_serving srv_kill >/dev/null || fail "kill-test server never came up"
run_explorer kill_ref "$KILL_SOCK"

kill -9 "$(cat "$SCRATCH/srv_kill.pid")" >/dev/null 2>&1
start_server srv_kill2 --serve="$KILL_SOCK" --state_dir="$SCRATCH/kill_state"
wait_serving srv_kill2 >/dev/null || fail "replacement server never came up"
grep -q '^warm restart' "$SCRATCH/srv_kill2.log" ||
  fail "replacement server did not warm-restart from $SCRATCH/kill_state"
run_explorer kill_run "$KILL_SOCK"
check_same kill_ref kill_run
echo "SIGKILL + warm restart preserved the digests"

echo "federation e2e: all transports bit-identical to the in-process path"
exit 0
