#!/usr/bin/env bash
# Alternating-pairs A/B of the repo benchmark: PARENT_REV against the work
# tree, on one workload and seed.
#
#   scripts/ab_pairs.sh PARENT_REV WORKLOAD SEED [PAIRS=10]
#
# Exports PARENT_REV with `git archive` into a temporary directory, builds
# `benchmark/` there and in the work tree into two separate target
# directories (a shared one would let the second build reuse the first's
# artifacts), then runs PAIRS pairs of 15 s runs, the parent first in odd
# pairs and second in even ones. Prints every pair's `calib_ops_per_s`,
# each side's median, quartiles and pairs won, and whether `sim_digest`,
# every `sim_*` value, `attempted` and `failed` are identical within each
# side and across the two. The raw outputs stay in the printed directory.
#
# A gain claim needs the change to win at least 9 of 10 pairs and the
# medians to differ by more than the parent's interquartile range. Run
# nothing else meanwhile: a 15 s pair takes about 45 s with set-up.
set -euo pipefail

if [[ $# -lt 3 || $# -gt 4 ]]; then
    echo "usage: $0 PARENT_REV WORKLOAD SEED [PAIRS=10]" >&2
    exit 2
fi
rev="$1" workload="$2" seed="$3" pairs="${4:-10}"
tree="$(git -C "$(dirname "$0")" rev-parse --show-toplevel)"
dir="$(mktemp -d "${TMPDIR:-/tmp}/ab_pairs.XXXXXX")"
mkdir -p "$dir/parent" "$dir/runs"
git -C "$tree" archive "$rev" | tar -x -C "$dir/parent"

build() { # SOURCE_TREE SIDE
    CARGO_TARGET_DIR="$dir/target-$2" cargo build --release --offline --quiet \
        --manifest-path "$1/benchmark/Cargo.toml"
    cp "$dir/target-$2/release/pmnet-benchmark" "$dir/bench-$2"
}
build "$dir/parent" parent
build "$tree" change

run() { # SIDE PAIR
    "$dir/bench-$1" --workload "$workload" --seed "$seed" --seconds 15 \
        > "$dir/runs/$1.$2.txt"
}
for ((i = 1; i <= pairs; i++)); do
    if ((i % 2)); then
        run parent "$i"
        run change "$i"
    else
        run change "$i"
        run parent "$i"
    fi
    echo "pair $i done" >&2
done

python3 - "$dir/runs" "$pairs" <<'EOF'
import json, sys

runs, pairs = sys.argv[1], int(sys.argv[2])

def read(side, i):
    lines = open(f"{runs}/{side}.{i}.txt").read().splitlines()
    result = json.loads(lines[-1])
    digest = next(l.split()[1:] for l in lines if l.split()[:1] == ["sim_digest"])
    sim = {k: v["value"] for k, v in result["metrics"].items() if k.startswith("sim_")}
    fate = (tuple(digest), tuple(sorted(sim.items())), result["attempted"], result["failed"])
    return result["metrics"]["calib_ops_per_s"]["value"], fate

def quartiles(xs):
    xs = sorted(xs)
    def at(q):
        pos = q * (len(xs) - 1)
        lo = int(pos)
        hi = min(lo + 1, len(xs) - 1)
        return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)
    return at(0.25), at(0.5), at(0.75)

got = {side: [read(side, i) for i in range(1, pairs + 1)] for side in ("parent", "change")}
print(f"{'pair':>4} {'first':>6} {'parent':>12} {'change':>12} {'ratio':>7}")
for i in range(pairs):
    p, c = got["parent"][i][0], got["change"][i][0]
    first = "parent" if i % 2 == 0 else "change"
    print(f"{i + 1:>4} {first:>6} {p:>12.1f} {c:>12.1f} {c / p:>7.3f}")
wins = {
    "parent": sum(p[0] > c[0] for p, c in zip(got["parent"], got["change"])),
    "change": sum(c[0] > p[0] for p, c in zip(got["parent"], got["change"])),
}
stats = {}
for side in ("parent", "change"):
    q1, med, q3 = quartiles([r[0] for r in got[side]])
    stats[side] = (q1, med, q3)
    print(f"{side}: median {med:.1f} [q1 {q1:.1f}, q3 {q3:.1f}], pairs won {wins[side]}/{pairs}")
(pq1, pmed, pq3), (_, cmed, _) = stats["parent"], stats["change"]
print(f"median ratio {cmed / pmed:.3f}, gap {cmed - pmed:.1f} against parent IQR {pq3 - pq1:.1f}")
fates = {side: {r[1] for r in got[side]} for side in got}
for side in ("parent", "change"):
    print(f"{side}: sim_digest, sim_*, attempted, failed identical across its runs: {len(fates[side]) == 1}")
same = len(fates["parent"] | fates["change"]) == 1
print(f"identical across sides: {same}")
if not same:
    for side in ("parent", "change"):
        digest, sim, attempted, failed = sorted(fates[side])[0]
        print(f"  {side}: sim_digest {' '.join(digest)} attempted {attempted} failed {failed}")
        for k, v in sim:
            print(f"    {k} {v}")
EOF
echo "raw outputs: $dir/runs" >&2
