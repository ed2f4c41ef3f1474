#!/usr/bin/env bash
# Knob lint: check the VIRTSIM_* environment surface against the knob
# table in README.md ("| `VIRTSIM_X` | default | bound | `file` |").
#
#  - every knob src/ reads (a "VIRTSIM_*" string literal) has a row;
#  - every row names a knob src/ still reads;
#  - each knob's literal appears in src/ only in the one file its row
#    names (the 14 sink knobs: src/sim/env.cc, the config parser).
#
# Usage: scripts/check_knobs.sh   (exit 1 on any violation)
set -euo pipefail
cd "$(dirname "$0")/.."

table=$(awk -F'|' '/^\| `VIRTSIM_[A-Z0-9_]+` \|/ {
            gsub(/[ `]/, "", $2); gsub(/[ `]/, "", $(NF - 1));
            print $2, $(NF - 1) }' README.md)
knobs=$(grep -rhoE '"VIRTSIM_[A-Z0-9_]+"' src | tr -d '"' | sort -u)

fail=0
for k in $knobs; do
    file=$(awk -v k="$k" '$1 == k { print $2 }' <<<"$table")
    if [ -z "$file" ]; then
        echo "check_knobs: $k is read in src/ but missing from" \
             "README's knob table"
        fail=1
        continue
    fi
    others=$(grep -rlF "\"$k\"" src | grep -vxF "$file" || true)
    if [ -n "$others" ]; then
        echo "check_knobs: $k belongs to $file but also appears in:" \
             $others
        fail=1
    fi
done
for k in $(awk '{ print $1 }' <<<"$table"); do
    if ! grep -qxF "$k" <<<"$knobs"; then
        echo "check_knobs: README's knob table lists $k, which src/" \
             "no longer reads"
        fail=1
    fi
done
if [ "$fail" -eq 0 ]; then
    echo "check_knobs: $(wc -w <<<"$knobs") knobs, each documented" \
         "and parsed in one place"
fi
exit "$fail"
