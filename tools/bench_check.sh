#!/bin/sh
# Perf-regression smoke check: build everything, run the tier-1 test
# suite (which pins the instrumented counter traces exactly, in
# test/test_hotpath.ml), then run the hotpath microbenchmark at a small
# scale so that a scaling or tracing-overhead regression fails loudly.
#
# Usage: tools/bench_check.sh [scale]   (default scale 0.05 = 50k keys)

set -e
cd "$(dirname "$0")/.."

SCALE="${1:-0.05}"

# Every image, dump and trace lives in one private directory, removed on
# exit, so concurrent runs cannot collide.
WORK=$(mktemp -d "${TMPDIR:-/tmp}/bench_check.XXXXXX")
trap 'rm -rf "$WORK"' EXIT
trap 'exit 1' INT TERM

echo "== build =="
dune build

echo "== tier-1 tests =="
dune runtest

echo "== lint (SCM-access discipline) =="
dune build @lint

echo "== tree handles (build, fill and recover every bench/trees.ml row) =="
# fig8 fills each fixed- and variable-key handle; fig7rec/fig7recvar
# fill and restart each one through its recovery path.
dune exec bench/main.exe -- --scale 0.01 fig8 fig7rec fig7recvar > /dev/null

echo "== table1 (leaf sweep + concurrent inner-width sweep, scale 0.01) =="
# Every cell of the four concurrent tables (FPTreeC and FPTreeCVar x
# read-mostly and Insert mixes, six widths each) must be printed, with
# ten finite columns per row (the inner height an integer).
T1="$WORK/table1.txt"
dune exec bench/main.exe -- --scale 0.01 table1 > "$T1"
num='[0-9]+\.[0-9]+'
rows=$(grep -cE "^(64|128|256|512|1024|2048) +($num +){7}[0-9]+ +$num +$num\$" "$T1" || true)
if [ "$rows" -ne 24 ]; then
  echo "FAIL: table1 printed $rows of 24 concurrent-sweep rows"; cat "$T1"; exit 1
fi

echo "== hotpath microbench + perf gates (scale $SCALE) =="
# Hotpath.run checks its own gates and exits 1 with a "FAIL:" line
# below either bound: the 2-domain conc_find speedup >= 1.0 (effective
# thread-CPU seconds, so it holds on single-core hosts too; below it the
# per-node validation protocol costs more than it buys) and the flight
# recorder's gate-on/gate-off find throughput ratio >= 0.9 (DESIGN.md
# §12: tracing may cost at most 10%).  The gates time the machine code
# that ships: a release build (cross-module inlining, no -opaque), made
# as perfbench/run.py makes its own, in a build directory of its own so
# the later stages keep the dev build.
HOT_BUILD=.hotpath_build
dune build --root . --build-dir "$HOT_BUILD" --profile release ./bench/main.exe
"$HOT_BUILD/default/bench/main.exe" --scale "$SCALE" hotpath

echo "== observability smoke (instrumented pass + metrics dump) =="
CLI=_build/default/bin/fptree_cli.exe
IMG="$WORK/tree.scm"
DUMP="$WORK/metrics.json"
GDUMP="$WORK/metrics_get.json"
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

# the recovery phases must have been timed
rebuild_count=$("$CLI" metrics "$GDUMP" \
  | sed -n 's/^fptree_recovery_rebuild_us .*count=\([0-9]*\).*/\1/p')
if [ -z "$rebuild_count" ] || [ "$rebuild_count" -lt 1 ]; then
  echo "FAIL: fptree_recovery_rebuild_us has no sample in $GDUMP"; exit 1
fi

# text exposition path
"$CLI" stats "$IMG" --metrics - --metrics-format text \
  | grep -q '# TYPE scm_persists_total counter' || {
  echo "FAIL: text exposition missing scm_persists_total"; exit 1; }

# range over the reloaded image after deletes and puts in non-ascending
# key order: exactly the keys stats counts, strictly ascending, each put
# value in place and 10*k (fill's value) for every other key
RANGE_OUT="$WORK/range.txt"
"$CLI" del "$IMG" 17777 > /dev/null
"$CLI" put "$IMG" 9001 5 > /dev/null
"$CLI" del "$IMG" 42 > /dev/null
"$CLI" put "$IMG" 3 33 > /dev/null
"$CLI" put "$IMG" 17777 1 > /dev/null
"$CLI" range "$IMG" 1 20000 > "$RANGE_OUT"
nkeys=$("$CLI" stats "$IMG" | sed -n 's/^keys: *\([0-9]*\)$/\1/p')
nrange=$(wc -l < "$RANGE_OUT")
if [ -z "$nkeys" ] || [ "$nrange" -ne "$nkeys" ]; then
  echo "FAIL: range printed $nrange pairs, stats counts '$nkeys' keys"; exit 1
fi
sort -c -n -u "$RANGE_OUT" || {
  echo "FAIL: range output is not strictly ascending"; exit 1; }
awk '$1 == 9001 { ok += ($2 == 5); next }
     $1 == 3 { ok += ($2 == 33); next }
     $1 == 17777 { ok += ($2 == 1); next }
     $1 == 42 || $2 != 10 * $1 { bad = 1 }
     END { exit !(ok == 3 && !bad) }' "$RANGE_OUT" || {
  echo "FAIL: range values differ from the puts and fill's 10*k"; exit 1; }
echo "   range 1..20000: $nrange pairs, ascending, values match"

# a window ending mid-chain takes the end-leaf stop instead of running
# to the null next pointer: every key 8950..9050 once, in order, with
# fill's 10*k except the put at 9001
"$CLI" range "$IMG" 8950 9050 > "$RANGE_OUT"
nmid=$(wc -l < "$RANGE_OUT")
if [ "$nmid" -ne 101 ]; then
  echo "FAIL: range 8950..9050 printed $nmid pairs, not 101"; exit 1
fi
awk 'NR == 1 { prev = $1 - 1 }
     $1 != prev + 1 { bad = 1 }
     { prev = $1 }
     $1 == 9001 { ok += ($2 == 5); next }
     $2 != 10 * $1 { bad = 1 }
     END { exit !(ok == 1 && !bad && prev == 9050) }' "$RANGE_OUT" || {
  echo "FAIL: range 8950..9050 is not 8950..9050 ascending with the expected values"
  exit 1; }
echo "   range 8950..9050 (mid-chain): $nmid pairs, ascending, values match"

echo "== flight smoke (--flight-dump + trace summarizer) =="
FDUMP="$WORK/flight.json"
"$CLI" fill "$IMG" 5000 --flight-dump "$FDUMP" > /dev/null 2>&1
"$CLI" trace "$FDUMP" | grep -q 'insert' || {
  echo "FAIL: flight trace summary lacks the insert latency row"; exit 1; }
"$CLI" trace "$FDUMP" | head -3 | sed 's/^/   /'

echo "== pmcheck smoke (traced run + analyzer) =="
TRACE="$WORK/trace.json"
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
# the trace is a flight dump: the summarizer reads the same file
"$CLI" trace "$TRACE" | grep -q 'insert' || {
  echo "FAIL: trace summary of the pmcheck trace lacks the insert row"; exit 1; }

echo "== chaos smoke (fixed-seed crash-recover-verify loop) =="
# exit 2 = divergence from the in-DRAM oracle; set -e aborts the check.
# A fixed seed decides every op and fault, so the report line is pinned
# text: a move means the fault injectors or the harness changed what
# they count.
chaos_expect() {
  want=$1; shift
  got=$("$CLI" chaos "$@")
  if [ "$got" != "$want" ]; then
    echo "FAIL: chaos $* reported"; echo "   $got"
    echo "   instead of"; echo "   $want"; exit 1
  fi
  echo "$got"
}
chaos_expect "chaos: 60 iterations ok (ops=1602 clean=46 crashes=5 torn=9 alloc_failures=0 keys=701)" \
  --seed 42 --iterations 60 --ops 30
chaos_expect "chaos: 40 iterations ok (ops=1063 clean=32 crashes=1 torn=7 alloc_failures=0 keys=500)" \
  --seed 42 --iterations 40 --ops 30 --checksums

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
FSCK_IMG="$WORK/fsck.scm"
"$CLI" create "$FSCK_IMG" --checksums > /dev/null
"$CLI" fill "$FSCK_IMG" 2000 > /dev/null
"$CLI" fsck "$FSCK_IMG" --summary
"$CLI" corrupt "$FSCK_IMG" link > /dev/null
# with checksums, recovery cuts the dangling link and opens the image
# (stats saves nothing: the link is still there for fsck below)
"$CLI" stats "$FSCK_IMG" > /dev/null || {
  echo "FAIL: checksummed recovery did not cut a dangling link"; exit 1; }
if "$CLI" fsck "$FSCK_IMG" --summary > /dev/null 2>&1; then
  echo "FAIL: fsck missed an injected dangling link"; exit 1
fi
"$CLI" fsck "$FSCK_IMG" --repair --summary
"$CLI" fsck "$FSCK_IMG" --summary > /dev/null || {
  echo "FAIL: region not clean after fsck --repair"; exit 1; }
# the repaired region must still open and answer queries
"$CLI" stats "$FSCK_IMG" > /dev/null
# recovery refuses damage it cannot salvage: exit 1 and one
# "Tree.recover:" line
expect_refused() {  # IMAGE DAMAGE
  status=0
  out=$("$CLI" stats "$1" 2>&1) || status=$?
  if [ "$status" != 1 ] || [ "$(printf '%s\n' "$out" | wc -l)" != 1 ] \
     || ! printf '%s\n' "$out" | grep -q 'Tree.recover:'; then
    echo "FAIL: $2 not refused by recovery (exit $status): $out"
    exit 1
  fi
}
# without checksums, recovery refuses the same damage (fsck --repair is
# the path that cuts it)
PLAIN_IMG="$WORK/fsck_plain.scm"
"$CLI" create "$PLAIN_IMG" > /dev/null
"$CLI" fill "$PLAIN_IMG" 2000 > /dev/null
"$CLI" corrupt "$PLAIN_IMG" link > /dev/null
expect_refused "$PLAIN_IMG" "dangling leaf link"
echo "   dangling leaf link refused without checksums (exit 1, one line)"
# a dangling head leaves no leaf to keep, so even a checksummed image
# is refused rather than cut
"$CLI" corrupt "$FSCK_IMG" head > /dev/null
expect_refused "$FSCK_IMG" "dangling head link"
echo "   dangling head link refused with checksums (exit 1, one line)"

echo "== capacity (watermark refusal -> degraded serving -> clean image) =="
CAP_IMG="$WORK/capacity.scm"
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
chaos_expect "chaos: exhaustion scenario ok (admitted=3837 refusals=79 boundary_ops=1628 recovered_keys=3785)" \
  --exhaustion --seed 7
chaos_expect "chaos: exhaustion scenario ok (admitted=3837 refusals=14 boundary_ops=1540 recovered_keys=3826)" \
  --exhaustion --seed 8

echo "== wear (attribution exactness + micro-log persist pricing) =="
WEAR_IMG="$WORK/wear.scm"
WEAR_HEAT="$WORK/wear_heatmap.json"
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
echo "   heatmap dump ok"

echo "== perfbench selfcheck (BENCHMARK.json workloads at scale 0.01) =="
# Every workload twice at a tiny scale through the benchmark driver:
# each declared metric printed with its unit, zero failed operations,
# and the counted/byte metrics of the single-client workloads repeated
# exactly (non-zero exit otherwise).
python3 perfbench/run.py --selfcheck

echo "== done =="
