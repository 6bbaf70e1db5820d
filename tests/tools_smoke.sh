#!/bin/sh
# Two-process smoke test of the deployable tools: mcsd_daemon serves a
# folder, mcsd_invoke offloads word count and select against it.
set -eu

BIN_DIR="$1"
WORK=$(mktemp -d)
trap 'kill $DPID 2>/dev/null || true; rm -rf "$WORK"' EXIT

printf 'hello world hello mcsd world hello\n' > "$WORK/corpus.txt"
printf 'a,1\nb,2\nc,3\n' > "$WORK/t.csv"

# Daemon options come from a config file (--dir stays a flag override);
# hold the daemon's stdin open with a fifo so it keeps serving.
printf 'drain_interval_ms=2\ndispatch_threads=2\nchannel_shards=4\n' > "$WORK/daemon.conf"
mkfifo "$WORK/ctl"
"$BIN_DIR/mcsd_daemon" --dir "$WORK" --config "$WORK/daemon.conf" \
    --trace-out "$WORK/daemon-trace.json" < "$WORK/ctl" &
DPID=$!
exec 3>"$WORK/ctl"  # keep the write end open

# Wait for the module log files to appear (daemon ready).
for _ in $(seq 1 100); do
  [ -f "$WORK/wordcount.log" ] && break
  sleep 0.05
done
[ -f "$WORK/wordcount.log" ] || { echo "daemon never came up"; exit 1; }

OUT=$("$BIN_DIR/mcsd_invoke" --dir "$WORK" --module wordcount \
      "input=$WORK/corpus.txt" top=1)
echo "$OUT" | grep -q 'top0=hello' || { echo "bad wc: $OUT"; exit 1; }
echo "$OUT" | grep -q 'total=6' || { echo "bad total: $OUT"; exit 1; }

OUT=$("$BIN_DIR/mcsd_invoke" --dir "$WORK" --module select \
      "input=$WORK/t.csv" column=1 op=gt value=1 "out=$WORK/r.csv")
echo "$OUT" | grep -q 'rows_out=2' || { echo "bad select: $OUT"; exit 1; }
grep -q '^b,2$' "$WORK/r.csv" || { echo "bad select output"; exit 1; }

# Unknown module fails cleanly.
if "$BIN_DIR/mcsd_invoke" --dir "$WORK" --module ghost 2>/dev/null; then
  echo "ghost module unexpectedly succeeded"; exit 1
fi

# A bad config key fails loudly (typos must not run defaults).
printf 'drian_interval_ms=2\n' > "$WORK/bad.conf"
if "$BIN_DIR/mcsd_daemon" --dir "$WORK" --config "$WORK/bad.conf" \
    < /dev/null 2>/dev/null; then
  echo "bad config unexpectedly accepted"; exit 1
fi

# Clean daemon shutdown writes the trace requested via --trace-out.
printf 'q' >&3 || true
exec 3>&-
wait $DPID 2>/dev/null || true
[ -f "$WORK/daemon-trace.json" ] || { echo "daemon wrote no trace"; exit 1; }
grep -q 'traceEvents' "$WORK/daemon-trace.json" || {
  echo "daemon trace malformed"; exit 1;
}

echo "tools smoke test passed"
