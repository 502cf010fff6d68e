#!/bin/sh
# Drive two fixed submission streams through a fresh `trustseq serve`
# each and leave every stream's JSONL trace sink and final metrics
# snapshot in OUTDIR, and the exit status of every submit (one
# "spec status" line each) in <stream>.status:
#
#   sample1.jsonl / sample1.prom  --trace-sample 1.0
#       example1, fig7, tl013, example1
#   defect.jsonl  / defect.prom   --trace-sample 0.0 --defect-every 2 --drop-rate 0.15
#       example1, fig7, example2, two_bundles, example1, fig7, trustweb,
#       example1, tl013 (tail-promotes retry, violation and lint keeps)
#
# The trustweb slot is a parse refusal on purpose: specs/trustweb.exg
# is a trust web, not an exchange spec, so elaboration refuses it
# ("bank is a trusted agent, expected a principal") and its submit
# exits 2. It pins how a refused spec travels over the wire, in the
# answer, the trace and the metrics, not a session.
#
# All three are deterministic, so CI compares them byte for byte
# against test/golden/daemon_*; a submit that fails outright shows up
# as its own status line, not only as a trace diff. Run from the repository root:
#
#   sh test/daemon_streams.sh _build/default/bin/trustseq.exe OUTDIR
set -eu
bin=$1
out=$2
mkdir -p "$out"

stream() {
  name=$1
  shift
  flags=$1
  shift
  sock="$out/$name.sock"
  rm -f "$out/$name.jsonl" "$out/$name.prom" "$out/$name.status"
  # shellcheck disable=SC2086
  "$bin" serve --socket "$sock" $flags \
    --trace "$out/$name.jsonl" --metrics-out "$out/$name.prom" 2> "$out/$name.err" &
  pid=$!
  for _ in $(seq 100); do [ -S "$sock" ] && break; sleep 0.1; done
  [ -S "$sock" ] || { echo "daemon socket never appeared"; kill "$pid"; exit 1; }
  for spec in "$@"; do
    # expired, aborted and refused answers exit non-zero by design, so
    # each status is recorded (and compared) rather than failing here
    status=0
    "$bin" submit "$spec" --connect "$sock" > /dev/null 2>&1 || status=$?
    echo "$spec $status" >> "$out/$name.status"
  done
  kill -TERM "$pid"
  wait "$pid"
}

s=specs
tl013=specs/lint/tl013_double_spend.exg

stream sample1 "--trace-sample 1.0" \
  $s/example1.exg $s/fig7.exg $tl013 $s/example1.exg

stream defect "--trace-sample 0.0 --defect-every 2 --drop-rate 0.15" \
  $s/example1.exg $s/fig7.exg $s/example2.exg $s/two_bundles.exg \
  $s/example1.exg $s/fig7.exg $s/trustweb.exg $s/example1.exg $tl013
