#!/usr/bin/env bash
# Byte-identity probe: does the working tree print exactly what <rev> prints?
#
#   tools/same_output.sh <rev>
#
# Builds <rev> from `git archive` under build/same-output/<sha> and the
# working tree in build/, then runs every bench and example on both trees
# except bench_micro (wall-clock timings) and bench_multistream_scale, and
# compares each program's stdout byte for byte.  example_stitch_gallery
# writes into a temporary directory whose path is replaced by <out>.
# bench_multistream_scale runs as `--jobs 1 --max-streams 4096 --json`, and
# its JSON is compared without the wall-clock fields (wall_ms,
# events_per_sec, patches_per_wall_sec, peak_rss_kb) and without
# dispatch_path's allocation counts.
#
# Prints one line per program and exits 1 on any difference; a usage or
# build error exits 2, an unknown <rev> with git's status.  The outputs stay
# under build/same-output/<sha>/out for a closer look with diff.
set -euo pipefail

if [ $# -ne 1 ]; then
  echo "usage: $0 <rev>" >&2
  exit 2
fi
cd "$(git -C "$(dirname "$0")" rev-parse --show-toplevel)"
sha=$(git rev-parse --verify "$1^{commit}")
base="build/same-output/${sha:0:12}"
out="$base/out"
jobs=$(nproc)

programs=$(ls bench/*.cpp examples/*.cpp |
             sed -e 's|^bench/||' -e 's|^examples/|example_|' -e 's|\.cpp$||' |
             grep -v -x -e bench_micro -e bench_multistream_scale)

# --- build both trees ---------------------------------------------------------
if [ ! -f "$base/src/CMakeLists.txt" ]; then
  rm -rf "$base/src"
  mkdir -p "$base/src"
  git archive "$sha" | tar -x -C "$base/src"
fi
[ -f "$base/build/CMakeCache.txt" ] ||
  cmake -S "$base/src" -B "$base/build" -DTANGRAM_BUILD_TESTS=OFF \
    > "$base/configure.log"
[ -f build/CMakeCache.txt ] || cmake -S . -B build > /dev/null
for tree in "$base/build" build; do
  # shellcheck disable=SC2086  # one target per word
  if ! cmake --build "$tree" -j "$jobs" \
         --target $programs bench_multistream_scale > "$tree/same-output.log" 2>&1
  then
    tail -n 30 "$tree/same-output.log"
    echo "build failed in $tree" >&2
    exit 2
  fi
done

# --- run every program on both trees -----------------------------------------
rm -rf "$out"
mkdir -p "$out/rev" "$out/tree"

run() {  # run <binary dir> <side> <program>
  local bin=$1 side=$2 prog=$3 dir="" status=0
  local args=()
  if [ "$prog" = example_stitch_gallery ]; then
    dir=$(mktemp -d)
    args=("$dir")
  fi
  "$bin/$prog" "${args[@]}" > "$OUT/$side/$prog.txt" 2> /dev/null || status=$?
  echo "$status" > "$OUT/$side/$prog.status"
  if [ -n "$dir" ]; then
    sed -i "s|$dir|<out>|g" "$OUT/$side/$prog.txt"
    rm -rf "$dir"
  fi
}
export -f run
export OUT="$out"
for prog in $programs; do
  printf '%s rev %s\n%s tree %s\n' "$base/build" "$prog" build "$prog"
done | xargs -P "$jobs" -n 3 bash -c 'run "$@"' _

differ=0
for prog in $programs; do
  rev_status=$(cat "$out/rev/$prog.status")
  tree_status=$(cat "$out/tree/$prog.status")
  if [ "$rev_status" != 0 ] || [ "$tree_status" != 0 ]; then
    echo "FAIL  $prog (exit $rev_status at $1, $tree_status in the tree)"
    differ=1
  elif cmp -s "$out/rev/$prog.txt" "$out/tree/$prog.txt"; then
    echo "same  $prog"
  else
    echo "DIFF  $prog"
    differ=1
  fi
done

# --- bench_multistream_scale: simulation fields only -------------------------
strip_timing() {  # strip_timing <json in> <json out>
  python3 - "$1" "$2" <<'EOF'
import json
import sys

TIMING = {"wall_ms", "events_per_sec", "patches_per_wall_sec", "peak_rss_kb"}


def strip(node):
    if isinstance(node, dict):
        return {k: strip(v) for k, v in node.items() if k not in TIMING}
    if isinstance(node, list):
        return [strip(v) for v in node]
    return node


doc = strip(json.load(open(sys.argv[1])))
for key in ("allocs", "allocs_per_patch"):
    doc.get("dispatch_path", {}).pop(key, None)
with open(sys.argv[2], "w") as f:
    json.dump(doc, f, indent=1, sort_keys=True)
    f.write("\n")
EOF
}
scale_ok=1
for side in rev tree; do
  bin=build
  [ "$side" = rev ] && bin="$base/build"
  if "$bin/bench_multistream_scale" --jobs 1 --max-streams 4096 \
       --json "$out/$side/scale.json" > /dev/null 2>&1; then
    strip_timing "$out/$side/scale.json" "$out/$side/scale.sim.json"
  else
    scale_ok=0
  fi
done
if [ "$scale_ok" = 0 ]; then
  echo "FAIL  bench_multistream_scale --json"
  differ=1
elif cmp -s "$out/rev/scale.sim.json" "$out/tree/scale.sim.json"; then
  echo "same  bench_multistream_scale --json (simulation fields)"
else
  echo "DIFF  bench_multistream_scale --json (simulation fields)"
  differ=1
fi

if [ "$scale_ok" = 1 ]; then
  python3 - "$out/rev/scale.json" "$out/tree/scale.json" <<'EOF'
import json
import sys

rev, tree = (json.load(open(p))["dispatch_path"]["allocs_per_patch"]
             for p in sys.argv[1:])
print(f"note  dispatch_path allocs_per_patch: {rev} at rev, {tree} in the tree")
EOF
fi
[ "$differ" = 0 ] || echo "outputs differ; see $out/{rev,tree}"
exit "$differ"
