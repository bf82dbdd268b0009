#!/usr/bin/env bash
# Byte-identity probe: does the working tree print exactly what <rev> prints?
#
#   tools/same_output.sh <rev>
#
# Builds <rev> from `git archive` under build/same-output/<sha> and the
# working tree in build/, then runs every bench and example on both trees
# except bench_micro (wall-clock timings), with default arguments, and
# compares each program's stdout byte for byte.  example_stitch_gallery
# writes into a temporary directory; bench_multistream_scale also gets
# `--json` into its side's output directory, and that JSON is compared
# byte for byte too.  Both output paths are replaced by <out> in stdout.
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
             grep -v -x -e bench_micro)

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
         --target $programs > "$tree/same-output.log" 2>&1
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
  elif [ "$prog" = bench_multistream_scale ]; then
    dir="$OUT/$side"
    args=(--json "$dir/$prog.json")
  fi
  "$bin/$prog" "${args[@]}" > "$OUT/$side/$prog.txt" 2> /dev/null || status=$?
  echo "$status" > "$OUT/$side/$prog.status"
  if [ -n "$dir" ]; then
    sed -i "s|$dir|<out>|g" "$OUT/$side/$prog.txt"
  fi
  [ "$prog" != example_stitch_gallery ] || rm -rf "$dir"
}
export -f run
export OUT="$out"
for prog in $programs; do
  printf '%s rev %s\n%s tree %s\n' "$base/build" "$prog" build "$prog"
done | xargs -P "$jobs" -n 3 bash -c 'run "$@"' _

same() {  # same <program>: its stdout, and its JSON if either side wrote one
  cmp -s "$out/rev/$1.txt" "$out/tree/$1.txt" || return 1
  [ -e "$out/rev/$1.json" ] || [ -e "$out/tree/$1.json" ] || return 0
  cmp -s "$out/rev/$1.json" "$out/tree/$1.json"
}

differ=0
for prog in $programs; do
  rev_status=$(cat "$out/rev/$prog.status")
  tree_status=$(cat "$out/tree/$prog.status")
  if [ "$rev_status" != 0 ] || [ "$tree_status" != 0 ]; then
    echo "FAIL  $prog (exit $rev_status at $1, $tree_status in the tree)"
    differ=1
  elif same "$prog"; then
    echo "same  $prog"
  else
    echo "DIFF  $prog"
    differ=1
  fi
done

[ "$differ" = 0 ] || echo "outputs differ; see $out/{rev,tree}"
exit "$differ"
