#!/usr/bin/env bash
# List library functions that no program calls.
#
# Usage: tools/check_unreferenced.sh [BUILD_DIR]    (default: build-unref)
#
# Builds libtgs and every program -- tgs_bench, tgs_serve, tgs_client, the
# examples and e2ebench's tgs_e2e -- at -O0 -fno-inline -ffunction-sections
# and links with --gc-sections, so a program keeps only the functions it can
# reach. A global function (nm T or W) of libtgs.a in namespace tgs that no
# program keeps is unreferenced. Each unreferenced name, demangled and
# without its signature, must be listed in tools/unreferenced_keep.txt with
# the reason it stays (a test oracle or fixture). The script fails on an
# unreferenced name that is not listed, and on a listed name that some
# program now reaches (the list must not hide a future dead function).
#
# e2ebench/ is only read: its tree is configured into BUILD_DIR/e2ebench.
set -euo pipefail

ROOT="$(cd "$(dirname "$0")/.." && pwd)"
OUT="${1:-build-unref}"
KEEP="$ROOT/tools/unreferenced_keep.txt"

FLAGS=(
  -DCMAKE_BUILD_TYPE=None
  "-DCMAKE_CXX_FLAGS=-O0 -fno-inline -ffunction-sections"
  "-DCMAKE_EXE_LINKER_FLAGS=-Wl,--gc-sections"
)

cmake -S "$ROOT" -B "$OUT" -DTGS_BUILD_TESTS=OFF "${FLAGS[@]}" > /dev/null
cmake --build "$OUT" -j "$(nproc)" > /dev/null
cmake -S "$ROOT/e2ebench" -B "$OUT/e2ebench" "${FLAGS[@]}" > /dev/null
cmake --build "$OUT/e2ebench" -j "$(nproc)" --target tgs_e2e > /dev/null

PROGRAMS=("$OUT/tgs_bench" "$OUT/tgs_serve" "$OUT/tgs_client"
          "$OUT/e2ebench/tgs_e2e")
for src in "$ROOT"/examples/*.cpp; do
  PROGRAMS+=("$OUT/$(basename "$src" .cpp)")
done

tmp="$(mktemp -d)"
trap 'rm -rf "$tmp"' EXIT

nm --defined-only "$OUT/libtgs.a" 2>/dev/null |
  awk '($2 == "T" || $2 == "W") && $3 ~ /^_ZN(K)?3tgs/ { print $3 }' |
  sort -u > "$tmp/library"
for prog in "${PROGRAMS[@]}"; do
  nm --defined-only "$prog" | awk '{ print $3 }'
done | sort -u > "$tmp/reached"

# Demangled names without parameters or ABI tags; constructor and
# destructor variants (C1/C2, D0/D1/D2) collapse into one name.
comm -23 "$tmp/library" "$tmp/reached" | c++filt --no-params |
  sed 's/\[abi:[^]]*\]//g' | sort -u > "$tmp/unreferenced"
awk '!/^[[:space:]]*(#|$)/ { print $1 }' "$KEEP" | sort -u > "$tmp/keep"

status=0
unlisted="$(comm -23 "$tmp/unreferenced" "$tmp/keep")"
if [ -n "$unlisted" ]; then
  echo "Functions no program calls (delete them, or list them with a" \
       "reason in tools/unreferenced_keep.txt):"
  echo "$unlisted" | sed 's/^/  /'
  status=1
fi
stale="$(comm -13 "$tmp/unreferenced" "$tmp/keep")"
if [ -n "$stale" ]; then
  echo "Listed in tools/unreferenced_keep.txt but reached by a program" \
       "(remove the line):"
  echo "$stale" | sed 's/^/  /'
  status=1
fi
if [ "$status" -eq 0 ]; then
  echo "unreferenced: $(wc -l < "$tmp/unreferenced") functions, all listed" \
       "in tools/unreferenced_keep.txt"
fi
exit "$status"
