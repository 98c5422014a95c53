#!/usr/bin/env bash
# Paired runs of the repository's benchmark on a git ref and on the working
# tree: both built once, from source, with benchmark/run.sh's environment,
# then run PAIRS times (default ten) alternating which side goes first, with
# the same flags and so the same --seed. Prints, per workload and metric,
# each side's quartiles and median and in how many pairs the working tree
# read lower or higher — the comparison benchmark/README.md "Naming a claim"
# asks for.
# Usage, from the repository root:
#   bash scripts/benchpair.sh <ref> [benchmark flags, e.g. --workload bank_mem --trace 0 --seed 1]
set -euo pipefail
ref="${1:?usage: scripts/benchpair.sh <ref> [benchmark flags]}"
shift
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build="$root/.bench_build"
pairs="${PAIRS:-10}"

rm -rf "$build/ref" "$build/pair"
mkdir -p "$build/ref" "$build/pair"
git -C "$root" archive "$ref" | tar -x -C "$build/ref"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomodcache" GOPATH="$build/gopath"
export GOFLAGS= GOPROXY=off GOTOOLCHAIN=local
go -C "$build/ref/benchmark" build -o "$build/pair/ref" .
go -C "$root/benchmark" build -o "$build/pair/change" .

# one <side> <pair> [flags]: a run from the side's own checkout (its logs land
# under that checkout's .bench_build), keeping the "workload metric value
# unit" lines.
one() {
	local side="$1" pair="$2" dir="$root"
	shift 2
	[ "$side" = ref ] && dir="$build/ref"
	(cd "$dir" && "$build/pair/$side" "$@") |
		awk -v side="$side" -v pair="$pair" \
			'NF >= 4 && $3 ~ /^-?[0-9][0-9.]*(e[-+]?[0-9]+)?$/ { print $1, $2, $4, side, pair, $3 }' \
			>>"$build/pair/samples"
}

for ((i = 1; i <= pairs; i++)); do
	echo "pair $i of $pairs" >&2
	if ((i % 2)); then
		one ref "$i" "$@"
		one change "$i" "$@"
	else
		one change "$i" "$@"
		one ref "$i" "$@"
	fi
done

# Samples sorted by workload, metric, side, value: each side's values of one
# metric arrive in ascending order.
sort -s -k1,1 -k2,2 -k4,4 -k6,6g "$build/pair/samples" | awk '
function quantile(side, p,    pos, lo) {
	pos = (n[side] - 1) * p; lo = int(pos)
	if (lo + 1 >= n[side]) return v[side, n[side] - 1]
	return v[side, lo] + (pos - lo) * (v[side, lo + 1] - v[side, lo])
}
function flush(    lower, higher, i) {
	if (key == "") return
	for (i in byPair) {
		split(i, sp, SUBSEP)
		if (sp[1] != "change" || !(("ref", sp[2]) in byPair)) continue
		if (byPair[i] < byPair["ref", sp[2]]) lower++
		else if (byPair[i] > byPair["ref", sp[2]]) higher++
	}
	printf "%-16s %-28s %-5s ref %.5g / %.5g / %.5g   change %.5g / %.5g / %.5g   change lower in %d, higher in %d of %d\n",
		w, m, u, quantile("ref", .25), quantile("ref", .5), quantile("ref", .75),
		quantile("change", .25), quantile("change", .5), quantile("change", .75), lower, higher, n["ref"]
	delete n; delete v; delete byPair
}
BEGIN { print "workload metric unit: ref q1 / median / q3, change q1 / median / q3, pairs" }
{
	if ($1 SUBSEP $2 != key) { flush(); key = $1 SUBSEP $2; w = $1; m = $2; u = $3 }
	v[$4, n[$4]++] = $6
	byPair[$4, $5] = $6
}
END { flush() }'
