#!/usr/bin/env bash
# CI gauntlet: Release build + full test suite, sanitizer build + hostile
# -input suite, a kill-and-resume smoke test that crash-injects the CLI
# mid-run (simulated kill -9) and proves the journal resumes to a verified
# result, and an isolation fault-injection matrix that crashes/OOMs/hangs/
# garbles one worker subprocess per run and proves the supervisor contains
# it, and a verify-oracle stage that certifies the example suite under
# paranoid audits, injects a miscompiled patch and proves the oracle
# catches it (repro bundle, quarantine, exit 4) with verdict records
# bit-identical across jobs/isolate/resume, and a distributed-loopback
# stage that runs the suite over two --serve-worker TCP agents, kills one
# mid-run, and proves the fleet finishes with verdicts bit-identical to
# --jobs 2 (plus graceful in-process degradation when every agent is gone),
# and a daemon-soak stage that SIGKILLs a resident --serve daemon mid-queue
# and proves the restarted daemon recovers its WAL and drains every job to
# verdicts bit-identical to undisturbed one-shot runs.
# Run from anywhere; builds land in build-ci/ and build-ci-asan/.
set -euo pipefail

ROOT="$(cd "$(dirname "$0")/.." && pwd)"
JOBS="$(nproc 2>/dev/null || echo 4)"

# Stage harness: every stage prints exactly one machine-greppable
#   STAGE <name> OK|FAIL
# line. The script is linear (no stage functions) because `set -e` is
# silently disabled inside a function called from a condition - the
# classic bash footgun that turns a failing stage into a green run.
CURRENT_STAGE="setup"
begin_stage() { CURRENT_STAGE="$1"; }
end_stage() { echo "STAGE $CURRENT_STAGE OK"; CURRENT_STAGE="setup"; }
on_exit() {
  status=$?
  [ -n "${SMOKE:-}" ] && rm -rf "$SMOKE"
  [ "$status" -ne 0 ] && echo "STAGE $CURRENT_STAGE FAIL"
  exit "$status"
}
trap on_exit EXIT

begin_stage release-tests
echo "=== Release build (warnings are errors) + tier-1 tests ==="
# -Wrestrict stays a warning: GCC 12 misfires on `"literal" + std::string`
# once -O3 inlines libstdc++'s operator+ (GCC bug 105329).
cmake -B "$ROOT/build-ci" -S "$ROOT" -DCMAKE_BUILD_TYPE=Release \
    -DCMAKE_CXX_FLAGS="-Werror -Wno-error=restrict"
cmake --build "$ROOT/build-ci" -j "$JOBS"
# CTest names value-parameterized tests after gtest's listing of the value.
# A parameter type without a PrintTo is listed as a byte dump, which can
# carry addresses that change with every run, and the test then renames
# itself. Two listings of each suite must agree.
for bin in "$ROOT"/build-ci/tests/syseco_*tests; do
  if ! diff <("$bin" --gtest_list_tests) <("$bin" --gtest_list_tests); then
    echo "$(basename "$bin"): --gtest_list_tests differs between two runs;"\
         "give the parameter type a PrintTo"
    exit 1
  fi
done
ctest --test-dir "$ROOT/build-ci" --output-on-failure -j "$JOBS"

end_stage
begin_stage asan
echo "=== Sanitizer build (ASan+UBSan) + robustness suite ==="
cmake -B "$ROOT/build-ci-asan" -S "$ROOT" -DSYSECO_SANITIZE=address
cmake --build "$ROOT/build-ci-asan" -j "$JOBS"
ctest --test-dir "$ROOT/build-ci-asan" --output-on-failure -j "$JOBS" -L sanitize

end_stage
begin_stage tsan
echo "=== ThreadSanitizer build + parallel suite ==="
cmake -B "$ROOT/build-ci-tsan" -S "$ROOT" -DSYSECO_SANITIZE=thread
cmake --build "$ROOT/build-ci-tsan" -j "$JOBS"
ctest --test-dir "$ROOT/build-ci-tsan" --output-on-failure -j "$JOBS" -L sanitize

end_stage
begin_stage bench-smoke
echo "=== Bench smoke (scripts/bench.sh --quick) + schema validation ==="
BENCH_JSON="$(mktemp)"
"$ROOT/scripts/bench.sh" --quick --out "$BENCH_JSON"
python3 - "$BENCH_JSON" <<'PYEOF'
import json, sys
with open(sys.argv[1]) as f:
    doc = json.load(f)
assert doc["bench"] == "e2e" and doc["schema_version"] == 2
assert isinstance(doc["hardware_threads"], int)
assert doc["cases"], "no cases recorded"
for case in doc["cases"]:
    assert case["name"] and isinstance(case["failing_outputs"], int)
    assert all(k in case["patch"] for k in ("inputs", "outputs", "gates", "nets"))
    jobs_seen = [run["jobs"] for run in case["runs"]]
    assert jobs_seen == [1, 2, 4], jobs_seen
    for run in case["runs"]:
        assert run["verified"] is True, "unverified bench run"
        assert run["identical_to_jobs1"] is True, "jobs-N result diverged"
        assert run["wall_seconds"] >= 0 and run["speedup_vs_jobs1"] > 0
        # phases are aggregate worker CPU, recorded separately from wall
        assert run["cpu_seconds"] >= 0
        assert all(k in run["phases_cpu"] for k in
                   ("sampling", "symbolic", "screening", "validation",
                    "fallback", "sweep", "verify"))
s = doc["summary"]
assert s["all_verified"] is True and s["all_jobs_identical"] is True
assert s["geomean_speedup_jobs2"] > 0 and s["geomean_speedup_jobs4"] > 0
print("BENCH_e2e.json schema OK")
PYEOF

end_stage
begin_stage perf-smoke
echo "=== Perf smoke: quick bench vs committed BENCH_e2e.json ==="
# Patch shape must match the committed baseline exactly (verdict identity is
# always gated); wall time is gated at +25% per case, skipped on single-
# threaded boxes where --jobs parallelism cannot be exercised meaningfully.
python3 - "$BENCH_JSON" "$ROOT/BENCH_e2e.json" <<'PYEOF'
import json, sys
cur = json.load(open(sys.argv[1]))
base = json.load(open(sys.argv[2]))
assert base["schema_version"] == 2, "regenerate BENCH_e2e.json (schema v2)"
base_cases = {c["name"]: c for c in base["cases"]}
gate_wall = cur["hardware_threads"] > 1
if not gate_wall:
    # Never skip silently: the log must say what was skipped, why, and what
    # is still being gated (patch-shape identity always runs below).
    print(f"PERF-SMOKE SKIPPED (wall-time gate): only "
          f"{cur['hardware_threads']} hardware thread, --jobs parallelism "
          f"cannot be exercised; patch-shape identity check still runs")
for case in cur["cases"]:
    b = base_cases.get(case["name"])
    assert b is not None, f"case {case['name']} missing from baseline"
    assert case["failing_outputs"] == b["failing_outputs"], case["name"]
    assert case["patch"] == b["patch"], (
        f"{case['name']}: patch shape diverged from baseline "
        f"{b['patch']} -> {case['patch']}")
    if not gate_wall:
        continue
    for run in case["runs"]:
        br = [r for r in b["runs"] if r["jobs"] == run["jobs"]][0]
        limit = br["wall_seconds"] * 1.25 + 0.05  # floor absorbs tiny cases
        assert run["wall_seconds"] <= limit, (
            f"{case['name']} jobs={run['jobs']}: wall regression "
            f"{br['wall_seconds']:.3f}s -> {run['wall_seconds']:.3f}s "
            f"(>25% over baseline)")
print("perf smoke OK vs committed baseline "
      + ("(wall time + patch shape)" if gate_wall else "(patch shape only)"))
PYEOF
rm -f "$BENCH_JSON"

end_stage
begin_stage kill-resume
echo "=== Kill-and-resume smoke test ==="
CLI="$ROOT/build-ci/src/tools/syseco_cli"
SMOKE="$(mktemp -d)"  # removed by the on_exit trap
IMPL="$ROOT/data/alu_impl.blif"
SPEC="$ROOT/data/alu_spec.blif"

"$CLI" --impl "$IMPL" --spec "$SPEC" --report "$SMOKE/ref.json" \
    > "$SMOKE/ref.log"

# Crash (std::_Exit(137), the honest kill -9) right after the first
# checkpoint commits, then resume until the run completes; each resume may
# crash again after one more output, so loop with a hard bound.
set +e
SYSECO_FAULT_INJECT="journal.checkpoint=crash" \
    "$CLI" --impl "$IMPL" --spec "$SPEC" --journal "$SMOKE/j" \
    > "$SMOKE/crash.log" 2>&1
rc=$?
set -e
[ "$rc" -eq 137 ] || { echo "expected crash exit 137, got $rc"; exit 1; }

for round in 1 2 3 4 5 6 7 8; do
  set +e
  SYSECO_FAULT_INJECT="journal.checkpoint=crash@1" \
      "$CLI" --impl "$IMPL" --spec "$SPEC" --resume "$SMOKE/j" \
      --report "$SMOKE/resumed.json" > "$SMOKE/resume$round.log" 2>&1
  rc=$?
  set -e
  [ "$rc" -eq 137 ] && continue
  [ "$rc" -eq 0 ] || { echo "resume failed with $rc"; cat "$SMOKE/resume$round.log"; exit 1; }
  break
done
[ "$rc" -eq 0 ] || { echo "resume chain never finished"; exit 1; }

# The resumed report must equal the uninterrupted one, timing and the
# scheduling-dependent speculation counters aside.
normalize() { grep -v -e '"phase_cpu_seconds"' -e '"speculation"' "$1" | sed -E 's/"(cpu_)?seconds": [0-9.e+-]*/"\1seconds": T/g'; }
if ! diff <(normalize "$SMOKE/ref.json") <(normalize "$SMOKE/resumed.json"); then
  echo "resumed report diverged from the uninterrupted run"
  exit 1
fi

end_stage
begin_stage isolation-matrix
echo "=== Isolation fault-injection matrix ==="
# Reference: a clean isolated run must be bit-identical to the in-process
# run (the report smoke above) in everything but wall-clock timing.
"$CLI" --impl "$IMPL" --spec "$SPEC" --jobs 4 --isolate \
    --report "$SMOKE/iso_ref.json" --out "$SMOKE/iso_ref.blif" \
    > "$SMOKE/iso_ref.log"
"$CLI" --impl "$IMPL" --spec "$SPEC" --jobs 4 \
    --report "$SMOKE/inproc_ref.json" --out "$SMOKE/inproc_ref.blif" \
    > "$SMOKE/inproc_ref.log"
cmp "$SMOKE/iso_ref.blif" "$SMOKE/inproc_ref.blif" \
    || { echo "--isolate netlist diverged from the in-process run"; exit 1; }
if ! diff <(normalize "$SMOKE/inproc_ref.json") <(normalize "$SMOKE/iso_ref.json"); then
  echo "--isolate report diverged from the in-process run"
  exit 1
fi

# The replay-cycle pair drives the dirty-commit redo path (replaying the
# patches of outputs 3 and 4 closes a combinational loop; the report's
# speculation.cyclic_replay_redos counts the redos, and a pair that no
# longer reaches the loop is no regression case): forked workers must
# land the identical netlist as the in-process --jobs 2 run.
RC_IMPL="$ROOT/data/eco02_replay_cycle_impl.blif"
RC_SPEC="$ROOT/data/eco02_replay_cycle_spec.blif"
"$CLI" --impl "$RC_IMPL" --spec "$RC_SPEC" --jobs 2 \
    --out "$SMOKE/rc_ref.blif" --report "$SMOKE/rc_ref.json" \
    > "$SMOKE/rc_ref.log"
grep -q '"cyclic_replay_redos": [1-9]' "$SMOKE/rc_ref.json" \
    || { echo "replay-cycle pair no longer closes a loop"; exit 1; }
"$CLI" --impl "$RC_IMPL" --spec "$RC_SPEC" --jobs 2 --isolate \
    --out "$SMOKE/rc_iso.blif" > "$SMOKE/rc_iso.log"
cmp "$SMOKE/rc_iso.blif" "$SMOKE/rc_ref.blif" \
    || { echo "--isolate replay-cycle netlist diverged from --jobs 2"; exit 1; }

# In-process --jobs 1 never launches the task of an output that earlier
# commits already fixed (it commits a no-op at the commit frontier), while
# --jobs 4 may have it running speculatively: the netlist and the journaled
# verdict record must still match byte for byte, on the alu case and on the
# replay-cycle pair.
# The last "verdicts" record of a run journal, as written.
extract_verdicts() {
  python3 - "$1" <<'PYEOF'
import re, sys
data = open(sys.argv[1] + "/journal.jsonl", "rb").read()
recs = re.findall(rb'\{"type":"verdicts".*?"disagreements":\d+\}', data)
assert recs, "no verdicts record in " + sys.argv[1]
sys.stdout.write(recs[-1].decode())
PYEOF
}
for PAIR in "alu:$IMPL:$SPEC" "rc:$RC_IMPL:$RC_SPEC"; do
  IFS=: read -r TAG P_IMPL P_SPEC <<< "$PAIR"
  for J in 1 4; do
    "$CLI" --impl "$P_IMPL" --spec "$P_SPEC" --jobs "$J" \
        --journal "$SMOKE/${TAG}_j$J" --out "$SMOKE/${TAG}_j$J.blif" \
        > "$SMOKE/${TAG}_j$J.log"
    extract_verdicts "$SMOKE/${TAG}_j$J" > "$SMOKE/${TAG}_v$J.txt"
  done
  cmp "$SMOKE/${TAG}_j1.blif" "$SMOKE/${TAG}_j4.blif" \
      || { echo "$TAG: --jobs 4 netlist diverged from --jobs 1"; exit 1; }
  cmp "$SMOKE/${TAG}_v1.txt" "$SMOKE/${TAG}_v4.txt" \
      || { echo "$TAG: --jobs 4 verdict record diverged from --jobs 1"; exit 1; }
done

# A run governed only by a conflict budget takes the same plan-order
# supervisor: every planned output searches under a slice fixed from the
# plan and the root ledger is charged in plan order, so the degraded run
# is identical at --jobs 1, --jobs 4 and under --isolate.
for MODE in "j1:--jobs 1" "j4:--jobs 4" "iso:--isolate --jobs 2"; do
  TAG="${MODE%%:*}"
  set +e
  # shellcheck disable=SC2086  # the mode's flags split on purpose
  "$CLI" --impl "$IMPL" --spec "$SPEC" --total-conflict-budget 200 \
      ${MODE#*:} --out "$SMOKE/gov_$TAG.blif" --report "$SMOKE/gov_$TAG.json" \
      > "$SMOKE/gov_$TAG.log" 2>&1
  rc=$?
  set -e
  if [ "$rc" -ne 0 ] && [ "$rc" -ne 4 ]; then
    echo "governed $TAG run failed (exit $rc)"
    cat "$SMOKE/gov_$TAG.log"
    exit 1
  fi
done
for TAG in j4 iso; do
  cmp "$SMOKE/gov_j1.blif" "$SMOKE/gov_$TAG.blif" \
      || { echo "governed $TAG netlist diverged from --jobs 1"; exit 1; }
  if ! diff <(normalize "$SMOKE/gov_j1.json") <(normalize "$SMOKE/gov_$TAG.json"); then
    echo "governed $TAG report diverged from --jobs 1"
    exit 1
  fi
done

# Inject each fault kind into the worker of the last planned output: the
# run must complete degraded (exit 4), quarantine exactly that output to the
# cone-clone fallback with the matching exit cause and attempt count, and
# leave every other output bit-identical to the uninjected run.
VICTIM="$(python3 -c "
import json
print(json.load(open('$SMOKE/iso_ref.json'))['outputs'][-1]['output'])")"
for KIND in crash oom hang garbage-ipc; do
  case "$KIND" in
    hang) WANT_CAUSE="wall-timeout"; WANT_LIMIT="deadline-exceeded" ;;
    oom)  WANT_CAUSE="oom";          WANT_LIMIT="budget-exhausted" ;;
    *)    WANT_CAUSE="$KIND";        WANT_LIMIT="internal" ;;
  esac
  set +e
  SYSECO_FAULT_INJECT="isolate.worker.o${VICTIM}=${KIND}" \
      "$CLI" --impl "$IMPL" --spec "$SPEC" --jobs 4 --isolate \
      --isolate-wall-ms 2000 --isolate-backoff-ms 1 --isolate-max-attempts 2 \
      --report "$SMOKE/iso_$KIND.json" > "$SMOKE/iso_$KIND.log" 2>&1
  rc=$?
  set -e
  [ "$rc" -eq 4 ] || {
    echo "fault $KIND: expected degraded exit 4, got $rc"
    cat "$SMOKE/iso_$KIND.log"; exit 1; }
  python3 - "$SMOKE/iso_ref.json" "$SMOKE/iso_$KIND.json" "$VICTIM" \
      "$KIND" "$WANT_CAUSE" "$WANT_LIMIT" <<'PYEOF'
import json, sys
ref, got = json.load(open(sys.argv[1])), json.load(open(sys.argv[2]))
victim, kind, want_cause, want_limit = int(sys.argv[3]), *sys.argv[4:7]
inj = [o for o in got["outputs"] if o["output"] == victim][0]
assert inj["status"] == "fallback", (kind, inj)
assert inj["exit_cause"] == want_cause, (kind, inj)
assert inj["limit"] == want_limit, (kind, inj)
assert inj["attempts"] == 2, (kind, inj)
assert got["degraded"] is True and got["success"] is True
def norm(o):
    return {k: (0 if k == "seconds" else v) for k, v in o.items()}
refmap = {o["output"]: norm(o) for o in ref["outputs"]}
for o in got["outputs"]:
    if o["output"] == victim:
        continue
    assert norm(o) == refmap[o["output"]], (kind, o)
print(f"fault {kind}: contained (fallback, {want_cause}, 2 attempts)")
PYEOF
done

end_stage
begin_stage verify-oracle
echo "=== Certification oracle (verify-oracle) ==="
# Example suite under paranoid auditing: every output pair must certify
# through the three independent routes with zero audit findings, and the
# report must carry build provenance.
"$CLI" --impl "$IMPL" --spec "$SPEC" --audit=paranoid --jobs 4 \
    --report "$SMOKE/oracle_clean.json" > "$SMOKE/oracle_clean.log"
python3 - "$SMOKE/oracle_clean.json" <<'PYEOF'
import json, sys
doc = json.load(open(sys.argv[1]))
assert doc["oracle"]["enabled"] is True
assert doc["oracle"]["disagreements"] == 0
certs = doc["oracle"]["outputs"]
assert certs, "no certificates recorded"
for c in certs:
    assert c["certified"] is True, c
    assert c["sat"] == "equivalent", c
    assert c["bdd"] in ("equivalent", "skipped(budget)"), c
    assert c["sim"] in ("passed-bounded", "equivalent"), c
audit = doc["audit"]
assert audit["level"] == "paranoid", audit
assert audit["boundaries"] > 0 and audit["findings"] == [], audit
assert doc["build"]["git_hash"], doc.get("build")
print(f"verify-oracle: {len(certs)} output pair(s) certified "
      f"across {audit['boundaries']} paranoid audit boundaries")
PYEOF

# Miscompiled-patch injection: the oracle must catch the wrong patch,
# quarantine it to the cone-clone fallback (exit 4) and package a repro
# bundle with the minimized counterexample.
set +e
SYSECO_FAULT_INJECT="oracle.wrong-patch=wrong-patch" \
    "$CLI" --impl "$IMPL" --spec "$SPEC" --audit=paranoid \
    --repro-dir "$SMOKE/repro" --journal "$SMOKE/j_wrong" \
    --report "$SMOKE/oracle_wrong.json" > "$SMOKE/oracle_wrong.log" 2>&1
rc=$?
set -e
[ "$rc" -eq 4 ] || {
  echo "wrong-patch: expected quarantined exit 4, got $rc"
  cat "$SMOKE/oracle_wrong.log"; exit 1; }
BUNDLE="$(ls -d "$SMOKE"/repro/disagreement-o* 2>/dev/null | head -1)"
[ -n "$BUNDLE" ] || { echo "wrong-patch: no repro bundle produced"; exit 1; }
for f in impl_patched.raw spec.raw patch.txt cex.txt meta.json MANIFEST; do
  [ -s "$BUNDLE/$f" ] || { echo "repro bundle missing $f"; exit 1; }
done
python3 - "$SMOKE/oracle_wrong.json" <<'PYEOF'
import json, sys
doc = json.load(open(sys.argv[1]))
assert doc["oracle"]["disagreements"] == 1, doc["oracle"]
assert doc["success"] is True and doc["degraded"] is True
fallbacks = [o for o in doc["outputs"] if o["status"] == "fallback"]
assert len(fallbacks) == 1 and fallbacks[0]["limit"] == "internal", fallbacks
for c in doc["oracle"]["outputs"]:
    assert c["certified"] is True, c  # post-quarantine re-certification
print("verify-oracle: wrong patch caught, quarantined, bundle verified")
PYEOF

# The journaled verdict records must be bit-identical however the run was
# executed: in-process --jobs 1 and --jobs 4 (the oracle certifies output
# pairs on --jobs threads), --isolate subprocess workers, and a
# crash-then---resume chain of the same injected run.
set +e
SYSECO_FAULT_INJECT="oracle.wrong-patch=wrong-patch" \
    "$CLI" --impl "$IMPL" --spec "$SPEC" --jobs 4 \
    --journal "$SMOKE/j_wrong_j4" > "$SMOKE/oracle_j4.log" 2>&1
[ $? -eq 4 ] || { echo "jobs-4 wrong-patch: expected exit 4"; exit 1; }
SYSECO_FAULT_INJECT="oracle.wrong-patch=wrong-patch" \
    "$CLI" --impl "$IMPL" --spec "$SPEC" --jobs 4 --isolate \
    --journal "$SMOKE/j_wrong_iso" > "$SMOKE/oracle_iso.log" 2>&1
[ $? -eq 4 ] || { echo "isolate wrong-patch: expected exit 4"; exit 1; }
SYSECO_FAULT_INJECT="journal.checkpoint=crash" \
    "$CLI" --impl "$IMPL" --spec "$SPEC" \
    --journal "$SMOKE/j_wrong_res" > /dev/null 2>&1
[ $? -eq 137 ] || { echo "crash seed run: expected exit 137"; exit 1; }
SYSECO_FAULT_INJECT="oracle.wrong-patch=wrong-patch" \
    "$CLI" --impl "$IMPL" --spec "$SPEC" \
    --resume "$SMOKE/j_wrong_res" > "$SMOKE/oracle_res.log" 2>&1
[ $? -eq 4 ] || { echo "resume wrong-patch: expected exit 4"; exit 1; }
set -e
extract_verdicts "$SMOKE/j_wrong" > "$SMOKE/v_jobs.txt"
extract_verdicts "$SMOKE/j_wrong_j4" > "$SMOKE/v_j4.txt"
extract_verdicts "$SMOKE/j_wrong_iso" > "$SMOKE/v_iso.txt"
extract_verdicts "$SMOKE/j_wrong_res" > "$SMOKE/v_res.txt"
cmp "$SMOKE/v_jobs.txt" "$SMOKE/v_j4.txt" \
    || { echo "--jobs 4 verdict record diverged"; exit 1; }
cmp "$SMOKE/v_jobs.txt" "$SMOKE/v_iso.txt" \
    || { echo "--isolate verdict record diverged"; exit 1; }
cmp "$SMOKE/v_jobs.txt" "$SMOKE/v_res.txt" \
    || { echo "--resume verdict record diverged"; exit 1; }
echo "verify-oracle: verdict records identical across jobs/isolate/resume"

end_stage
begin_stage fleet-loopback
echo "=== Distributed worker fleet (loopback) ==="
# Two --serve-worker agents on loopback ephemeral ports; one is killed
# mid-run. The supervisor must reclaim the dead agent's lease, finish on
# the survivor, exit 0, and journal verdict records bit-identical to the
# in-process --jobs 2 run.
FLEET="$SMOKE/fleet"
mkdir -p "$FLEET"
"$CLI" --serve-worker 0 --port-file "$FLEET/p1" > "$FLEET/a1.log" 2>&1 &
AGENT1=$!
"$CLI" --serve-worker 0 --port-file "$FLEET/p2" > "$FLEET/a2.log" 2>&1 &
AGENT2=$!
for _ in $(seq 1 100); do
  [ -s "$FLEET/p1" ] && [ -s "$FLEET/p2" ] && break
  sleep 0.1
done
P1="$(cat "$FLEET/p1")"
P2="$(cat "$FLEET/p2")"

"$CLI" --impl "$IMPL" --spec "$SPEC" --jobs 2 --journal "$FLEET/j_ref" \
    --out "$FLEET/ref.blif" > "$FLEET/ref.log"

# The replay-cycle pair over both healthy agents first: the dirty-commit
# redo path must land the identical netlist as the --jobs 2 run.
"$CLI" --impl "$RC_IMPL" --spec "$RC_SPEC" \
    --workers "127.0.0.1:$P1,127.0.0.1:$P2" \
    --out "$FLEET/rc_fleet.blif" > "$FLEET/rc_fleet.log" 2>&1 \
    || { echo "fleet replay-cycle run failed"; cat "$FLEET/rc_fleet.log"; exit 1; }
cmp "$FLEET/rc_fleet.blif" "$SMOKE/rc_ref.blif" \
    || { echo "fleet replay-cycle netlist diverged from --jobs 2"; exit 1; }

( sleep 0.2; kill -9 "$AGENT1" 2>/dev/null ) &
KILLER=$!
set +e
"$CLI" --impl "$IMPL" --spec "$SPEC" \
    --workers "127.0.0.1:$P1,127.0.0.1:$P2" \
    --journal "$FLEET/j_fleet" --out "$FLEET/fleet.blif" \
    > "$FLEET/fleet.log" 2>&1
rc=$?
set -e
wait "$KILLER" 2>/dev/null || true
kill -9 "$AGENT1" "$AGENT2" 2>/dev/null || true
[ "$rc" -eq 0 ] || {
  echo "fleet run failed with $rc"; cat "$FLEET/fleet.log"; exit 1; }
cmp "$FLEET/fleet.blif" "$FLEET/ref.blif" \
    || { echo "fleet netlist diverged from --jobs 2"; exit 1; }
extract_verdicts "$FLEET/j_fleet" > "$FLEET/v_fleet.txt"
extract_verdicts "$FLEET/j_ref" > "$FLEET/v_ref.txt"
cmp "$FLEET/v_fleet.txt" "$FLEET/v_ref.txt" \
    || { echo "fleet verdict record diverged from --jobs 2"; exit 1; }
echo "fleet: run survived a mid-run agent kill, verdicts identical"

# Total fleet loss: every endpoint refuses the connect. The run must
# degrade to in-process execution instead of aborting, record the
# degradation as a structured fleet event, and still land the identical
# result and verdicts.
"$CLI" --impl "$IMPL" --spec "$SPEC" --workers 127.0.0.1:1,127.0.0.1:2 \
    --fleet-connect-timeout-ms 200 --journal "$FLEET/j_dead" \
    --out "$FLEET/dead.blif" > "$FLEET/dead.log" 2>&1 \
    || { echo "dead-fleet run failed"; cat "$FLEET/dead.log"; exit 1; }
grep -aq '"kind":"fleet-degraded"' "$FLEET/j_dead/journal.jsonl" \
    || { echo "dead fleet never recorded degradation"; exit 1; }
cmp "$FLEET/dead.blif" "$FLEET/ref.blif" \
    || { echo "degraded fleet netlist diverged"; exit 1; }
extract_verdicts "$FLEET/j_dead" > "$FLEET/v_dead.txt"
cmp "$FLEET/v_dead.txt" "$FLEET/v_ref.txt" \
    || { echo "degraded fleet verdict record diverged"; exit 1; }
echo "fleet: dead fleet degraded to in-process, verdicts identical"

end_stage
begin_stage daemon-soak
echo "=== Daemon soak: SIGKILL mid-queue, recover, drain ==="
# A resident --serve daemon takes three jobs whose workers self-crash at
# every checkpoint commit (one output of progress per attempt), is killed
# with SIGKILL while the queue is mid-heal, and is restarted on the same
# state directory. The recovered daemon must drain every job to done and
# every job's verdict record and rectified netlist must be bit-identical
# to an undisturbed one-shot run of the same case and seed.
SERVE="$SMOKE/serve"
mkdir -p "$SERVE"
for SEED in 1 2 3; do
  "$CLI" --impl "$IMPL" --spec "$SPEC" --seed "$SEED" \
      --journal "$SERVE/ref$SEED" --out "$SERVE/ref$SEED.blif" \
      > "$SERVE/ref$SEED.log"
done

"$CLI" --serve 0 --serve-state "$SERVE/state" --port-file "$SERVE/port" \
    --serve-pool 1 --serve-attempts 40 > "$SERVE/d1.log" 2>&1 &
DAEMON=$!
for _ in $(seq 1 100); do [ -s "$SERVE/port" ] && break; sleep 0.1; done
PORT="$(cat "$SERVE/port")"
for SEED in 1 2 3; do
  "$CLI" --connect "127.0.0.1:$PORT" --impl "$IMPL" --spec "$SPEC" \
      --seed "$SEED" --detach \
      --submit-fault "journal.checkpoint=crash@0" \
      > "$SERVE/submit$SEED.log" 2>&1 \
      || { echo "submit $SEED rejected"; cat "$SERVE/submit$SEED.log"; exit 1; }
done
sleep 1
kill -9 "$DAEMON" 2>/dev/null
wait "$DAEMON" 2>/dev/null || true
grep -aq '"event":"running"' "$SERVE/state/queue/journal.jsonl" \
    || { echo "daemon died before dispatching anything"; exit 1; }
grep -aq '"event":"done"' "$SERVE/state/queue/journal.jsonl" \
    && { echo "daemon drained before the kill; soak window too late"; exit 1; }

rm -f "$SERVE/port"
"$CLI" --serve 0 --serve-state "$SERVE/state" --port-file "$SERVE/port" \
    --serve-pool 1 --serve-attempts 40 > "$SERVE/d2.log" 2>&1 &
DAEMON=$!
for _ in $(seq 1 100); do [ -s "$SERVE/port" ] && break; sleep 0.1; done
PORT="$(cat "$SERVE/port")"
# A job killed mid-attempt logs "re-queued with resume"; one killed during
# crash-backoff was already queued-with-resume and logs "restored as
# queued-with-resume" instead. Either proves the WAL recovery ran.
grep -aqE 're-queued with resume|restored as queued-with-resume' \
    "$SERVE/d2.log" "$SERVE/state/queue/journal.jsonl" \
    || { echo "restart never recovered the mid-run job"; exit 1; }
for SEED in 1 2 3; do
  "$CLI" --connect "127.0.0.1:$PORT" --wait "j00000$SEED" \
      > "$SERVE/wait$SEED.log" 2>&1 \
      || { echo "job j00000$SEED never drained"; cat "$SERVE/wait$SEED.log"; exit 1; }
  extract_verdicts "$SERVE/state/jobs/j00000$SEED/journal" \
      > "$SERVE/v_job$SEED.txt"
  extract_verdicts "$SERVE/ref$SEED" > "$SERVE/v_ref$SEED.txt"
  cmp "$SERVE/v_job$SEED.txt" "$SERVE/v_ref$SEED.txt" \
      || { echo "job j00000$SEED verdicts diverged after recovery"; exit 1; }
  cmp "$SERVE/state/jobs/j00000$SEED/out.blif" "$SERVE/ref$SEED.blif" \
      || { echo "job j00000$SEED netlist diverged after recovery"; exit 1; }
done
kill "$DAEMON" 2>/dev/null
wait "$DAEMON" 2>/dev/null || true
echo "daemon soak: SIGKILL mid-queue recovered, 3 jobs drained bit-identical"

end_stage
begin_stage batch-fanout
echo "=== Batch fan-out (loopback): kill an agent mid-case and the driver mid-batch ==="
# A 4-case --batch sweep over two loopback agents. The driver is SIGKILLed
# mid-batch, restarted with --resume, and then one agent is SIGKILLed while
# it holds a case. The drained sweep's verdict records and patched netlists
# must be bit-identical to running every case locally with --jobs 2.
BATCH="$SMOKE/batch"
mkdir -p "$BATCH"
for SEED in 1 2 3 4; do
  "$CLI" --impl "$IMPL" --spec "$SPEC" --seed "$SEED" --jobs 2 \
      --journal "$BATCH/bref$SEED" --out "$BATCH/bref$SEED.blif" \
      > "$BATCH/bref$SEED.log"
  extract_verdicts "$BATCH/bref$SEED" > "$BATCH/bref$SEED.verdicts"
  printf '\n' >> "$BATCH/bref$SEED.verdicts"
done
{
  echo '{"cases": ['
  for SEED in 1 2 3 4; do
    COMMA=","; [ "$SEED" -eq 4 ] && COMMA=""
    echo "  {\"name\": \"alu-s$SEED\", \"impl\": \"$IMPL\"," \
         "\"spec\": \"$SPEC\", \"seed\": $SEED}$COMMA"
  done
  echo ']}'
} > "$BATCH/manifest.json"

"$CLI" --serve-worker 0 --port-file "$BATCH/p1" > "$BATCH/ba1.log" 2>&1 &
BAGENT1=$!
"$CLI" --serve-worker 0 --port-file "$BATCH/p2" > "$BATCH/ba2.log" 2>&1 &
BAGENT2=$!
for _ in $(seq 1 100); do
  [ -s "$BATCH/p1" ] && [ -s "$BATCH/p2" ] && break
  sleep 0.1
done
BP1="$(cat "$BATCH/p1")"
BP2="$(cat "$BATCH/p2")"

# Phase 1: SIGKILL the driver as soon as the queue WAL proves a case is in
# flight. The fsync-per-record queue means the kill can lose nothing.
"$CLI" --batch "$BATCH/manifest.json" --batch-state "$BATCH/state" \
    --workers "127.0.0.1:$BP1,127.0.0.1:$BP2" --jobs 2 --verbose \
    > "$BATCH/drive1.log" 2>&1 &
BDRIVER=$!
for _ in $(seq 1 200); do
  grep -aq '"event":"running"' "$BATCH/state/queue/journal.jsonl" \
      2>/dev/null && break
  sleep 0.05
done
kill -9 "$BDRIVER" 2>/dev/null
wait "$BDRIVER" 2>/dev/null || true
grep -aq '"event":"running"' "$BATCH/state/queue/journal.jsonl" \
    || { echo "driver died before dispatching anything"; exit 1; }
DONE_AT_KILL="$(grep -ac '"event":"done"' "$BATCH/state/queue/journal.jsonl" || true)"
[ "$DONE_AT_KILL" -lt 4 ] \
    || { echo "sweep drained before the kill; soak window too late"; exit 1; }

# Phase 2: restart on the same state directory with --resume; SIGKILL agent
# 1 the moment it holds a case again, so the scheduler must reclaim the
# assignment and redispatch it to the survivor.
( for _ in $(seq 1 400); do
    if grep -aq -- "-> 127.0.0.1:$BP1 " "$BATCH/drive2.log" 2>/dev/null; then
      kill -9 "$BAGENT1" 2>/dev/null
      break
    fi
    sleep 0.02
  done ) &
BKILLER=$!
set +e
"$CLI" --batch "$BATCH/manifest.json" --resume "$BATCH/state" \
    --workers "127.0.0.1:$BP1,127.0.0.1:$BP2" --jobs 2 --verbose \
    > "$BATCH/drive2.log" 2>&1
rc=$?
set -e
wait "$BKILLER" 2>/dev/null || true
kill -9 "$BAGENT1" "$BAGENT2" 2>/dev/null || true
[ "$rc" -eq 0 ] || {
  echo "resumed batch failed with $rc"; cat "$BATCH/drive2.log"; exit 1; }

# The interrupted attempt must be visible in the WAL as recovery, and the
# drained sweep must report every case done.
grep -aqE 'recovery:|"event":"recovered"' \
    "$BATCH/state/queue/journal.jsonl" "$BATCH/drive2.log" \
    || { echo "resume never recovered the interrupted dispatch"; exit 1; }
python3 - "$BATCH/state/batch_report.json" <<'PYEOF'
import json, sys
doc = json.load(open(sys.argv[1]))
assert len(doc["cases"]) == 4, doc
for case in doc["cases"]:
    assert case["state"] == "done" and case["exit_code"] == 0, case
assert doc["interrupted"] is False, doc
print("batch report: 4/4 cases done")
PYEOF

# 3-way identity: every case's netlist and verdict record must match the
# serial local --jobs 2 reference byte for byte.
for SEED in 1 2 3 4; do
  CASE="$BATCH/state/jobs/alu-s$SEED"
  cmp "$CASE/out.blif" "$BATCH/bref$SEED.blif" \
      || { echo "batch case alu-s$SEED netlist diverged"; exit 1; }
  cmp "$CASE/verdicts.txt" "$BATCH/bref$SEED.verdicts" \
      || { echo "batch case alu-s$SEED verdicts diverged"; exit 1; }
done
echo "batch fan-out: driver and agent SIGKILLs recovered, 4 cases bit-identical"

# Case-path transport fault: a fresh 2-case sweep over one healthy agent
# and one whose every case result arrives as half a frame. Each truncated
# answer costs its case one attempt and strikes the agent; the second
# strike marks it dead, so --serve-attempts 3 always leaves a healthy
# attempt, and both cases drain bit-identical to the --jobs 2 references.
head -n 3 "$BATCH/manifest.json" | sed '$ s/,$//' > "$BATCH/manifest2.json"
echo ']}' >> "$BATCH/manifest2.json"
"$CLI" --serve-worker 0 --port-file "$BATCH/p3" > "$BATCH/ba3.log" 2>&1 &
BAGENT3=$!
SYSECO_FAULT_INJECT="fleet.agent.case=net-truncate" \
    "$CLI" --serve-worker 0 --port-file "$BATCH/p4" > "$BATCH/ba4.log" 2>&1 &
BAGENT4=$!
for _ in $(seq 1 100); do
  [ -s "$BATCH/p3" ] && [ -s "$BATCH/p4" ] && break
  sleep 0.1
done
BP3="$(cat "$BATCH/p3")"
BP4="$(cat "$BATCH/p4")"
set +e
"$CLI" --batch "$BATCH/manifest2.json" --batch-state "$BATCH/state2" \
    --workers "127.0.0.1:$BP4,127.0.0.1:$BP3" --jobs 2 --serve-attempts 3 \
    --verbose > "$BATCH/drive3.log" 2>&1
rc=$?
set -e
kill "$BAGENT3" "$BAGENT4" 2>/dev/null || true
wait "$BAGENT3" "$BAGENT4" 2>/dev/null || true
[ "$rc" -eq 0 ] || {
  echo "faulted-agent batch failed with $rc"; cat "$BATCH/drive3.log"; exit 1; }
for SEED in 1 2; do
  CASE="$BATCH/state2/jobs/alu-s$SEED"
  cmp "$CASE/out.blif" "$BATCH/bref$SEED.blif" \
      || { echo "faulted-agent case alu-s$SEED netlist diverged"; exit 1; }
  cmp "$CASE/verdicts.txt" "$BATCH/bref$SEED.verdicts" \
      || { echo "faulted-agent case alu-s$SEED verdicts diverged"; exit 1; }
done
python3 - "$BATCH/state2/batch_report.json" <<'PYEOF'
import json, sys
doc = json.load(open(sys.argv[1]))
assert len(doc["cases"]) == 2, doc
for case in doc["cases"]:
    assert case["state"] == "done", case
PYEOF
grep -aq 'frame-truncated' "$BATCH/state2/queue/journal.jsonl" \
    || { echo "truncated case result never journaled as frame-truncated"; exit 1; }
grep -aq "worker 127.0.0.1:$BP4 marked dead" "$BATCH/state2/queue/journal.jsonl" \
    || { echo "faulty agent was never marked dead"; exit 1; }
echo "batch fan-out: truncating agent struck dead, 2 cases bit-identical"

end_stage
begin_stage chaos-soak
echo "=== Chaos soak: seeded storage-fault schedules (ASan) ==="
# Seeded fault schedules swept across every execution mode under the ASan
# build: each faulted run must end in a structured exit (no signal death,
# hang, or silent corruption), a fault-free heal must converge on verdicts
# and netlists bit-identical to the reference, and the state trees must
# hold no leaked staging files - chaos_soak exits nonzero on any of those.
# Quick set always; SYSECO_SOAK=1 triples the sweep for nightly runs.
# Repro bundles for violated schedules live outside $SMOKE so they survive
# the exit trap.
SCHEDULES=20
[ "${SYSECO_SOAK:-0}" = "1" ] && SCHEDULES=60
CHAOS="$(mktemp -d -t syseco-chaos-XXXXXX)"
"$ROOT/build-ci-asan/bench/chaos_soak" \
    --cli "$ROOT/build-ci-asan/src/tools/syseco_cli" \
    --impl "$IMPL" --spec "$SPEC" \
    --out-dir "$CHAOS" --schedules "$SCHEDULES" --seed-base 1 \
    || { echo "chaos soak failed; repro bundles kept in $CHAOS"; exit 1; }
rm -rf "$CHAOS"
end_stage

echo "=== CI passed ==="
