#!/usr/bin/env bash
# Paired A/B of the repository benchmark (perfbench): the checked-out
# tree against <base-rev>, on one machine.
#
#	scripts/perf-ab.sh <base-rev> [pairs]     # pairs defaults to 10
#
# Extracts <base-rev> with `git archive` into .bench_build/ (nothing is
# written under .git), then for each workload in BENCHMARK.json runs
# `pairs` pairs of each side's own perfbench/run.sh (--seed 1 --trace 0,
# BENCHMARK.json's run_seconds), swapping which side runs first every
# pair. Prints a JSON array with
# one object per workload x end-to-end metric: both medians, the base's
# IQR, the change's wins and a verdict:
#
#	worse       the change's median is worse than the base's by more
#	            than the metric's bound; for success_frac, any change
#	            run below the base's lowest
#	unresolved  the base's IQR/median is wider than the bound, and not
#	            every change run beats every base run
#	better      >= 10 pairs, >= 9/10 wins and a median gap wider than
#	            the base's IQR (fewer pairs never read better)
#	unchanged   otherwise
#
# Exits 1 if any verdict is worse or any change run fails its answer
# check. Run logs and raw result lines stay in .bench_build/perf-ab/.
set -euo pipefail

if [[ $# -lt 1 || $# -gt 2 || ! ${2:-10} =~ ^[1-9][0-9]*$ ]]; then
	echo "usage: scripts/perf-ab.sh <base-rev> [pairs]" >&2
	exit 2
fi
pairs=${2:-10}
cd "$(dirname "$0")/.."
base_sha=$(git rev-parse --verify "$1^{commit}")

out=.bench_build/perf-ab
base_dir=.bench_build/perf-ab-base
rm -rf "$out"
mkdir -p "$out"
rm -rf "$base_dir"
mkdir -p "$base_dir"
git archive "$base_sha" | tar -x -C "$base_dir"
trap 'rm -rf "$base_dir"' EXIT

seconds=$(jq -r .run_seconds BENCHMARK.json)
mapfile -t workloads < <(jq -r '.workloads[].name' BENCHMARK.json)

# run <side> <workload>: one run of that side's own run.sh; appends its
# result line to $out/<workload>.<side>.jsonl.
run() {
	local dir=.
	[[ $1 == base ]] && dir=$base_dir
	echo "perf-ab: $2 $1" >&2
	(cd "$dir" && bash perfbench/run.sh --workload "$2" --seed 1 --seconds "$seconds" --trace 0) \
		2>>"$out/$2.$1.log" | tail -n 1 >>"$out/$2.$1.jsonl" ||
		{ echo "perf-ab: $2 $1 run failed (see $out/$2.$1.log)" >&2; exit 1; }
}

for w in "${workloads[@]}"; do
	for ((p = 0; p < pairs; p++)); do
		if ((p % 2 == 0)); then
			run base "$w"
			run change "$w"
		else
			run change "$w"
			run base "$w"
		fi
	done
done

for w in "${workloads[@]}"; do
	jq -n --arg w "$w" --slurpfile spec BENCHMARK.json \
		--slurpfile base "$out/$w.base.jsonl" --slurpfile change "$out/$w.change.jsonl" '
		def median: sort | length as $n
			| if $n % 2 == 1 then .[($n - 1) / 2] else (.[$n / 2 - 1] + .[$n / 2]) / 2 end;
		def quantile($q): sort | ((length - 1) * $q) as $x | ($x | floor) as $i
			| .[$i] + (.[$x | ceil] - .[$i]) * ($x - $i);
		def rel($d; $m): if $m == 0 then (if $d == 0 then 0 else infinite end) else $d / ($m | fabs) end;
		$spec[0].end_to_end[] as $e
		| [$base[].metrics[$e.name].value | numbers] as $b
		| [$change[].metrics[$e.name].value | numbers] as $c
		| select($b | length > 0)
		| (if $e.better == "lower" then 1 else -1 end) as $s
		| ($b | median) as $bm
		| (if $c | length > 0 then $c | median else null end) as $cm
		| (($b | quantile(0.75)) - ($b | quantile(0.25))) as $iqr
		| ([range([$b, $c] | map(length) | min) | select(($c[.] - $b[.]) * $s < 0)] | length) as $wins
		| (if $cm == null then infinite else rel(($cm - $bm) * $s; $bm) end) as $worse
		| ($c | length > 0 and ([$c[] * $s] | max) < ([$b[] * $s] | min)) as $all_better
		| {workload: $w, metric: $e.name, base_median: $bm, change_median: $cm,
		   base_iqr: $iqr, wins: $wins, pairs: ($b | length), bound: $e.bound,
		   verdict: (
			if $worse > $e.bound or ($e.name == "success_frac" and ($c | min) < ($b | min)) then "worse"
			elif rel($iqr; $bm) > $e.bound and ($all_better | not) then "unresolved"
			elif ($b | length) >= 10 and $wins >= 0.9 * ($b | length) and $worse < 0
				and ($cm - $bm | fabs) > $iqr then "better"
			else "unchanged" end)}'
done | jq -s . | tee "$out/verdicts.json"

status=0
if jq -e 'any(.verdict == "worse")' "$out/verdicts.json" >/dev/null; then
	jq -r '.[] | select(.verdict == "worse") | "perf-ab: worse: \(.workload) \(.metric) \(.base_median) -> \(.change_median)"' \
		"$out/verdicts.json" >&2
	status=1
fi
for w in "${workloads[@]}"; do
	if ! jq -se 'all(.correct)' "$out/$w.change.jsonl" >/dev/null; then
		echo "perf-ab: $w: a change run failed its answer check (see $out/$w.change.log)" >&2
		status=1
	fi
done
exit $status
