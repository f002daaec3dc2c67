#!/bin/sh
# Perf-regression smoke check: build everything, run the tier-1 test
# suite, then run the hotpath microbenchmark at a small scale so that a
# hot-path slowdown or an instrumented-counter drift fails loudly (the
# counter traces are printed by the bench; compare against the
# committed BENCH_hotpath.json).
#
# Usage: tools/bench_check.sh [scale]   (default scale 0.05 = 50k keys)

set -e
cd "$(dirname "$0")/.."

SCALE="${1:-0.05}"

echo "== build =="
dune build

echo "== tier-1 tests =="
dune runtest

echo "== lint (SCM-access discipline) =="
dune build @lint

echo "== hotpath microbench (scale $SCALE) =="
HOTPATH_LABEL="bench_check" HOTPATH_OUT="/tmp/bench_check_hotpath.json" \
  dune exec bench/main.exe -- --scale "$SCALE" hotpath

echo "== scaling (2-domain conc_find must not be slower than 1-domain) =="
# The hotpath bench above already ran the 1/2/4-domain matrix and wrote
# flat speedup keys (effective thread-CPU seconds, so the gate holds on
# single-core CI hosts too).  A 2-domain speedup below 1.0x means the
# per-node validation protocol costs more than it buys: fail.
HP_JSON=/tmp/bench_check_hotpath.json
speedup=$(sed -n 's/.*"conc_find_speedup_2x": \([0-9.]*\).*/\1/p' "$HP_JSON")
if [ -z "$speedup" ]; then
  echo "FAIL: conc_find_speedup_2x missing from $HP_JSON"; exit 1
fi
if ! awk "BEGIN{exit !($speedup >= 1.0)}"; then
  echo "FAIL: 2-domain conc_find speedup $speedup < 1.0x"; exit 1
fi
mixed=$(sed -n 's/.*"conc_mixed_speedup_2x": \([0-9.]*\).*/\1/p' "$HP_JSON")
echo "   conc_find 2-domain speedup: ${speedup}x (conc_mixed: ${mixed}x)"

echo "== trace-overhead (flight recorder must stay cheap and honest) =="
# With the gate on, single-domain find throughput may cost at most 10%
# (DESIGN.md overhead pin: ratio = on/off throughput >= 0.9).
ratio=$(sed -n 's/.*"trace_overhead_find_ratio": \([0-9.]*\).*/\1/p' "$HP_JSON")
if [ -z "$ratio" ]; then
  echo "FAIL: trace_overhead_find_ratio missing from $HP_JSON"; exit 1
fi
if ! awk "BEGIN{exit !($ratio >= 0.9)}"; then
  echo "FAIL: tracing-on find ratio $ratio < 0.9 (flight recorder costs >10%)"
  exit 1
fi
echo "   tracing-on/off find throughput ratio: $ratio"

# With the gate off, the instrumented counter traces must be
# byte-identical to the committed pins: the recorder ran inside this
# bench process (trace-overhead stage), so any leak of gate-on behavior
# into the gate-off paths shows up here as counter drift.  Compare each
# fixed trace's counters against the LAST pinned occurrence in
# BENCH_hotpath.json (same emitter, same key order, so the flattened
# JSON objects compare as strings).
flat_trace() { # file trace-name -> single-line {"trace":...} block
  tr -d ' \n' < "$1" | grep -o "{\"trace\":\"$2\"[^}]*}" | tail -1
}
for tr_name in core delete_heavy; do
  fresh=$(flat_trace "$HP_JSON" "$tr_name")
  pinned=$(flat_trace BENCH_hotpath.json "$tr_name")
  if [ -z "$fresh" ] || [ -z "$pinned" ]; then
    echo "FAIL: counter trace '$tr_name' missing from $HP_JSON or BENCH_hotpath.json"
    exit 1
  fi
  if [ "$fresh" != "$pinned" ]; then
    echo "FAIL: gate-off counter trace '$tr_name' drifted from the committed pin:"
    echo "   pinned: $pinned"
    echo "   fresh:  $fresh"
    exit 1
  fi
done
echo "   gate-off counter traces byte-identical to committed pins"

echo "== observability smoke (instrumented pass + metrics dump) =="
CLI=_build/default/bin/fptree_cli.exe
IMG=/tmp/bench_check_tree.scm
DUMP=/tmp/bench_check_metrics.json
GDUMP=/tmp/bench_check_metrics_get.json
rm -f "$IMG" "$DUMP" "$GDUMP"
"$CLI" create "$IMG" > /dev/null
"$CLI" fill "$IMG" 20000 --metrics "$DUMP" > /dev/null

# persist accounting must be present and non-zero in the dump
persists=$("$CLI" metrics "$DUMP" | sed -n 's/^scm_persists_total .*total=\([0-9]*\).*/\1/p')
if [ -z "$persists" ]; then
  echo "FAIL: scm_persists_total missing from $DUMP"; exit 1
fi
if [ "$persists" -le 0 ]; then
  echo "FAIL: scm_persists_total is zero in $DUMP"; exit 1
fi
echo "   scm_persists_total = $persists"

# capacity gauges must be present: free bytes non-zero, watermark 0
# (a 16 MiB arena with 20k keys is nowhere near the soft watermark)
free_bytes=$("$CLI" metrics "$DUMP" | sed -n 's/^palloc_bytes_free .*value=\([0-9]*\).*/\1/p')
wm_state=$("$CLI" metrics "$DUMP" | sed -n 's/^palloc_watermark_state .*value=\([0-9]*\).*/\1/p')
if [ -z "$free_bytes" ] || [ "$free_bytes" -le 0 ]; then
  echo "FAIL: palloc_bytes_free gauge missing or zero in $DUMP"; exit 1
fi
if [ "$wm_state" != "0" ]; then
  echo "FAIL: palloc_watermark_state is '$wm_state', expected 0 below the watermark"
  exit 1
fi
echo "   palloc_bytes_free = $free_bytes (watermark state $wm_state)"

# a lookup must record probe-count samples with a sane mean (~1 key
# probe per in-leaf search with fingerprints; <= 2 allows a false
# positive in this short run)
"$CLI" get "$IMG" 12345 --metrics "$GDUMP" > /dev/null
probe_line=$("$CLI" metrics "$GDUMP" | grep '^fptree_probes_per_leaf_search') || {
  echo "FAIL: fptree_probes_per_leaf_search missing from $GDUMP"; exit 1; }
probe_count=$(echo "$probe_line" | sed -n 's/.*count=\([0-9]*\).*/\1/p')
probe_mean=$(echo "$probe_line" | sed -n 's/.*mean=\([0-9.]*\).*/\1/p')
if [ -z "$probe_count" ] || [ "$probe_count" -le 0 ]; then
  echo "FAIL: probe histogram recorded no samples"; exit 1
fi
if ! awk "BEGIN{exit !($probe_mean >= 1.0 && $probe_mean <= 2.0)}"; then
  echo "FAIL: probe mean $probe_mean outside [1, 2]"; exit 1
fi
echo "   fptree_probes_per_leaf_search: count=$probe_count mean=$probe_mean"

# recovery phases must have been traced as spans
grep -q 'fptree.recovery.rebuild' "$GDUMP" || {
  echo "FAIL: no fptree.recovery.rebuild span in $GDUMP"; exit 1; }

# text exposition path
"$CLI" stats "$IMG" --metrics - --metrics-format text \
  | grep -q '# TYPE scm_persists_total counter' || {
  echo "FAIL: text exposition missing scm_persists_total"; exit 1; }

echo "== flight smoke (--flight-dump + trace summarizer) =="
FDUMP=/tmp/bench_check_flight.json
rm -f "$FDUMP"
"$CLI" fill "$IMG" 5000 --flight-dump "$FDUMP" > /dev/null 2>&1
"$CLI" trace "$FDUMP" | grep -q 'insert' || {
  echo "FAIL: flight trace summary lacks the insert latency row"; exit 1; }
"$CLI" trace "$FDUMP" | head -3 | sed 's/^/   /'

echo "== pmcheck smoke (traced run + analyzer) =="
TRACE=/tmp/bench_check_trace.json
rm -f "$TRACE"
"$CLI" fill "$IMG" 500 --trace "$TRACE" > /dev/null 2>&1
# the analyzer must parse the trace, see a non-trivial event count, and
# report no error-severity findings on a clean run (exit 2 = errors)
pmout=$("$CLI" pmcheck "$TRACE" --summary) || {
  echo "FAIL: pmcheck found errors in a clean trace:"; echo "$pmout"; exit 1; }
echo "$pmout" | head -1
events=$(echo "$pmout" | sed -n 's/^\([0-9]*\) events.*/\1/p')
if [ -z "$events" ] || [ "$events" -le 1000 ]; then
  echo "FAIL: implausibly small trace ($events events)"; exit 1
fi
if echo "$pmout" | grep -q 'missing-persist'; then
  echo "FAIL: missing-persist findings on a clean run"; exit 1
fi

echo "== chaos smoke (fixed-seed crash-recover-verify loop) =="
# exit 2 = divergence from the in-DRAM oracle; set -e aborts the check
"$CLI" chaos --seed 42 --iterations 60 --ops 30
"$CLI" chaos --seed 42 --iterations 40 --ops 30 --checksums

echo "== mcheck (DPOR schedule exploration of the concurrency protocol) =="
# The whole catalog must explore to completion with zero
# counterexamples (exit 2 = counterexample found, trace printed) ...
"$CLI" mcheck
# ... and the checker must still have teeth: with the PR 5 root-ver
# hole re-opened, the find-vs-root-split scenario must FAIL (exit 2).
if "$CLI" mcheck --scenario find-vs-root-split --regression > /dev/null 2>&1; then
  echo "FAIL: mcheck missed the re-introduced root-ver validation hole"; exit 1
fi
echo "   regression root-ver hole caught (exit 2, as required)"
# The lint gate above already enforces the shim discipline the checker
# relies on (no direct Atomic in lib/fptree, no stray Domain.DLS).

echo "== fsck smoke (corrupt -> detect -> repair -> clean) =="
FSCK_IMG=/tmp/bench_check_fsck.scm
rm -f "$FSCK_IMG"
"$CLI" create "$FSCK_IMG" --checksums > /dev/null
"$CLI" fill "$FSCK_IMG" 2000 > /dev/null
"$CLI" fsck "$FSCK_IMG" --summary
"$CLI" corrupt "$FSCK_IMG" link > /dev/null
if "$CLI" fsck "$FSCK_IMG" --summary > /dev/null 2>&1; then
  echo "FAIL: fsck missed an injected dangling link"; exit 1
fi
"$CLI" fsck "$FSCK_IMG" --repair --summary
"$CLI" fsck "$FSCK_IMG" --summary > /dev/null || {
  echo "FAIL: region not clean after fsck --repair"; exit 1; }
# the repaired region must still open and answer queries
"$CLI" stats "$FSCK_IMG" > /dev/null

echo "== capacity (watermark refusal -> degraded serving -> clean image) =="
CAP_IMG=/tmp/bench_check_capacity.scm
rm -f "$CAP_IMG"
"$CLI" create "$CAP_IMG" --size-mb 1 > /dev/null
# Overfill a 1 MiB arena: the fill must stop with exit 1 and a one-line
# out-of-space error (never a backtrace), leaving the at-watermark
# image saved and serviceable.
if capout=$("$CLI" fill "$CAP_IMG" 200000 2>&1); then
  echo "FAIL: overfilling a 1 MiB arena did not refuse"; exit 1
fi
echo "$capout" | grep -q 'out of space after .* image saved' || {
  echo "FAIL: refusal was not the one-line out-of-space error:"
  echo "$capout"; exit 1; }
echo "   $capout"
admitted=$(echo "$capout" | sed -n 's/.*out of space after \([0-9]*\) of.*/\1/p')
# the saved image still serves reads and can report its watermark state
val=$("$CLI" get "$CAP_IMG" 1) && [ -n "$val" ] || {
  echo "FAIL: at-watermark image does not serve reads"; exit 1; }
"$CLI" stats "$CAP_IMG" | grep -q 'watermark state degraded' || {
  echo "FAIL: stats does not report the degraded watermark state"; exit 1; }
"$CLI" stats "$CAP_IMG" | grep 'arena free' | sed 's/^/   /'
# offline audit: every admitted insert is intact, nothing leaked
fsck_out=$("$CLI" fsck "$CAP_IMG" --summary) || {
  echo "FAIL: at-watermark image is not fsck-clean"; exit 1; }
keys=$(echo "$fsck_out" | sed -n 's/.*keys=\([0-9]*\).*/\1/p')
if [ "$keys" != "$admitted" ]; then
  echo "FAIL: fsck counts $keys keys, fill admitted $admitted"; exit 1
fi
echo "   fsck clean at the watermark: every admitted key intact ($keys)"
# the full scenario: fill -> refuse -> degraded serving -> crash at the
# watermark -> recover -> fsck (exit 2 = divergence)
"$CLI" chaos --exhaustion --seed 7
"$CLI" chaos --exhaustion --seed 8

echo "== wear (attribution exactness + micro-log persist pricing) =="
WEAR_IMG=/tmp/bench_check_wear.scm
WEAR_HEAT=/tmp/bench_check_wear_heatmap.json
rm -f "$WEAR_IMG" "$WEAR_HEAT"
"$CLI" create "$WEAR_IMG" --size-mb 8 > /dev/null
"$CLI" fill "$WEAR_IMG" 1000 > /dev/null
# The wear command itself exits 2 when any (component x op) matrix sum
# disagrees with the global scm_*_total counters.
wearout=$("$CLI" wear "$WEAR_IMG" --ops 2000 --heatmap "$WEAR_HEAT") || {
  echo "FAIL: attribution cross-check mismatch"; echo "$wearout"; exit 1; }
echo "$wearout" | grep -q 'MISMATCH' && {
  echo "FAIL: cross-check row mismatch"; echo "$wearout"; exit 1; }
echo "$wearout" | sed -n '/^attribution cross-check/,$p' | sed 's/^/   /'
# Micro-log pricing: arming a split log is two committed pointer
# publishes (2 persists each), so micro-log persists must be at least
# 4x the splits the workload drove; retirement, group-allocation logs
# and delete logs add a bounded tail on top (< 8x + slack).
splits=$(echo "$wearout" | sed -n 's/.*splits=\([0-9]*\).*/\1/p')
ldel=$(echo "$wearout" | sed -n 's/.*leaf_deletes=\([0-9]*\).*/\1/p')
mlog=$(echo "$wearout" | sed -n 's/.*microlog_persists=\([0-9]*\).*/\1/p')
[ -n "$splits" ] && [ -n "$mlog" ] || {
  echo "FAIL: wear output missing workload counters"; exit 1; }
if [ "$splits" -eq 0 ]; then
  echo "FAIL: wear workload drove no splits (not exercising the micro-log)"
  exit 1
fi
lo=$((4 * splits))
hi=$((8 * (splits + ldel) + 64))
if [ "$mlog" -lt "$lo" ] || [ "$mlog" -gt "$hi" ]; then
  echo "FAIL: micro-log persists $mlog outside [$lo, $hi] for $splits splits"
  exit 1
fi
echo "   micro-log persists $mlog within [$lo, $hi] for $splits splits, $ldel leaf deletes"
# the heatmap dump is valid JSON that the library round-trips
[ -s "$WEAR_HEAT" ] || { echo "FAIL: heatmap dump missing"; exit 1; }
grep -q '"sample_shift"' "$WEAR_HEAT" || {
  echo "FAIL: heatmap dump malformed"; exit 1; }
echo "   heatmap dump -> $WEAR_HEAT"

echo "== perfbench selfcheck (BENCHMARK.json workloads at scale 0.01) =="
# Every workload twice at a tiny scale through the benchmark driver:
# each declared metric printed with its unit, zero failed operations,
# and the counted/byte metrics of the single-client workloads repeated
# exactly (non-zero exit otherwise).
python3 perfbench/run.py --selfcheck

echo "== done: /tmp/bench_check_hotpath.json, $DUMP, $TRACE =="
