#!/usr/bin/env bash
# The benchmark ledger: turns alternating parent/change runs of the repo's
# benchmark into one record, and prints a record's moves against the
# bounds in BENCHMARK.json.
#
#   scripts/bench_record.sh PAIRS_DIR > BENCH_<n>.json
#   scripts/bench_record.sh --diff RECORD [LATER_RECORD]
#
# PAIRS_DIR holds one directory per pair of runs. Each has a `parent/` and
# a `change/` directory holding that side's copy of
# `benchmark/out/run-<workload>.json` for every workload the pair ran
# (`rpbench --out PAIRS_DIR/<pair>/<side> ...`). Only pairs with both sides
# count. For each workload and end-to-end metric the record holds each
# side's median and quartiles over the pairs, the pair count, and how many
# pairs the change led in the metric's better direction. It also names the
# commits and hosts the runs recorded, and counts the lines under crates/
# that contain `unsafe` in the checkout this script runs from.
#
# `--diff RECORD` prints, per workload and metric, the move from the
# parent's median to the change's, relative, against the metric's bound;
# `--diff A B` the move from A's change medians to B's.
set -euo pipefail

root=$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)
spec=$root/BENCHMARK.json
usage="usage: bench_record.sh PAIRS_DIR | --diff RECORD [LATER_RECORD]"

if [[ ${1-} == --diff ]]; then
    first=${2:?$usage}
    later=${3:-$first}
    jq -rn --slurpfile spec "$spec" --slurpfile a "$first" --slurpfile b "$later" \
        --argjson across "$([[ $# -ge 3 ]] && echo true || echo false)" '
        def left($n): tostring | . + " " * ([$n - length, 1] | max);
        def right($n): tostring | " " * ([$n - length, 1] | max) + .;
        def rounded: . * 1000 | round / 1000;
        ($spec[0].end_to_end | map({key: .name, value: .}) | from_entries) as $bounds
        | "\("workload" | left(15))\("metric" | left(14))\("before" | right(11))\("after" | right(11))\("move" | right(9))\("bound" | right(7))  led",
          ($b[0].workloads | to_entries[] | .key as $w | .value.metrics | to_entries[]
           | .key as $m | .value as $now
           | (if $across then $a[0].workloads[$w].metrics[$m].change else $now.parent end) as $before
           | select($before != null and $now.change != null)
           | (if $before == 0 then 0 else ($now.change - $before) / $before end) as $move
           | (if $bounds[$m].better == "lower" then $move else -$move end) as $worse
           | "\($w | left(15))\($m | left(14))\($before | rounded | right(11))\($now.change | rounded | right(11))"
             + "\(($move * 1000 | round) / 10 | tostring + "%" | right(9))\($bounds[$m].bound * 100 | tostring + "%" | right(7))"
             + "  \(if $across then "-" else "\($now.led)/\($now.pairs)" end)"
             + (if $worse > $bounds[$m].bound then "  WORSE BEYOND BOUND" else "" end))'
    exit
fi

pairs=${1:?$usage}
unsafe_lines=$(grep -r unsafe "$root/crates" --include='*.rs' | wc -l)
mapfile -t runs < <(find "$pairs" -mindepth 3 -maxdepth 3 \
    \( -path '*/parent/run-*.json' -o -path '*/change/run-*.json' \) | sort)
((${#runs[@]})) || { echo "no parent/ or change/ run records under $pairs" >&2; exit 1; }
jq -n --slurpfile spec "$spec" --argjson unsafe "$unsafe_lines" '
    def median: sort | length as $n
        | if $n == 0 then null
          elif $n % 2 == 1 then .[($n - 1) / 2]
          else (.[$n / 2 - 1] + .[$n / 2]) / 2 end;
    def quantile($p): sort | length as $n | (($n - 1) * $p) as $x | ($x | floor) as $i
        | if $n == 0 then null
          else .[$i] + (.[[$i + 1, $n - 1] | min] - .[$i]) * ($x - $i) end;
    [inputs | (input_filename | split("/")) as $path
        | {pair: $path[-3], side: $path[-2], workload, commit, host, seed,
           metrics: (.result.metrics | map_values(.value))}] as $runs
    | {
        commit: ($runs | map(select(.side == "change").commit) | unique),
        parent: ($runs | map(select(.side == "parent").commit) | unique),
        hosts: ($runs | map(.host | del(.load_1min)) | unique),
        unsafe_lines: $unsafe,
        workloads: ($runs | group_by(.workload) | map({
            key: .[0].workload,
            value: (group_by(.pair)
                | map(select(map(.side) | sort == ["change", "parent"])
                      | {seed: .[0].seed,
                         parent: (map(select(.side == "parent"))[0].metrics),
                         change: (map(select(.side == "change"))[0].metrics)}) as $done
                | {pairs: ($done | length),
                   seeds: ($done | map(.seed)),
                   metrics: ($spec[0].end_to_end | map(. as $m
                       | [$done[] | {p: .parent[$m.name], c: .change[$m.name]}
                          | select(.p != null and .c != null)] as $v
                       | select($v | length > 0)
                       | {key: $m.name, value: {
                           unit: $m.unit,
                           better: $m.better,
                           parent: ($v | map(.p) | median),
                           change: ($v | map(.c) | median),
                           parent_quartiles: ($v | map(.p) | [quantile(0.25), quantile(0.75)]),
                           change_quartiles: ($v | map(.c) | [quantile(0.25), quantile(0.75)]),
                           pairs: ($v | length),
                           led: ($v | map(select(if $m.better == "lower" then .c < .p else .c > .p end)) | length)}})
                       | from_entries)})
        }) | from_entries)
      }' "${runs[@]}"
