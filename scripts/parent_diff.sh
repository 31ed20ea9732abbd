#!/usr/bin/env bash
# Behaviour diff of the work tree against PARENT_REV: what a change that
# claims to move no simulated behaviour must leave byte-identical.
#
#   scripts/parent_diff.sh PARENT_REV
#
# Exports PARENT_REV with `git archive` into a temporary directory (set
# TMPDIR to choose where), builds the examples and `benchmark/` there and
# in the work tree into separate target directories, then
#   - runs the six campaign examples (`chaos_search`, `lossy_recovery`,
#     `fabric_failover`, `model_check`, `concurrent_apply`,
#     `overload_sweep -- --smoke`), the `failover_recovery` power-cut
#     demo, `replication_modes` (the alternative replication designs) and
#     `in_network_cache` (a read cache smaller than its key set, so its
#     evictions and fills) on both sides and diffs their stdout;
#   - runs the benchmark with `--seconds 0` on all five workloads for
#     seeds 1 and 29 and compares `sim_digest`, every `sim_*` value,
#     `attempted` and `failed`. A line whose only difference is the digest
#     says `(sim_digest only: ...)`: the outcome's text moved (a counter
#     name came or went) while every simulated value held.
# Prints one line per comparison and exits non-zero on any difference; the
# outputs stay in the printed directory. First it prints the size line,
# `size PARENT -> CHANGE (DELTA) lines`: tracked `.rs` and `Cargo.toml`
# lines outside `benchmark/` on each tree, counted as ROADMAP.md counts
# them; then one `size CRATE ...` line per crate under `crates/` and one
# for `root` (`src`, `tests` and `examples`). Last come the `alloc` lines,
# `allocs_per_op` and `alloc_bytes_per_op` of each workload and seed from
# the same `--seconds 0` runs, parent -> change. The size and alloc lines
# are informational and never change the exit status. `--trace` is never passed: it writes into
# the source tree the benchmark was built in.
set -euo pipefail

if [[ $# -ne 1 ]]; then
    echo "usage: $0 PARENT_REV" >&2
    exit 2
fi
rev="$1"
tree="$(git -C "$(dirname "$0")" rev-parse --show-toplevel)"
dir="$(mktemp -d "${TMPDIR:-/tmp}/parent_diff.XXXXXX")"
mkdir -p "$dir/parent" "$dir/out"
git -C "$tree" archive "$rev" | tar -x -C "$dir/parent"

examples=(chaos_search lossy_recovery fabric_failover model_check concurrent_apply overload_sweep
    failover_recovery replication_modes in_network_cache)
workloads=(closed_small kv_mixed open_overload fabric_saturated apply_contended)
seeds=(1 29)

build() { # SOURCE_TREE SIDE
    local target="$dir/target-$2"
    (cd "$1" && CARGO_TARGET_DIR="$target" cargo build --release --offline --quiet --examples)
    CARGO_TARGET_DIR="$target" cargo build --release --offline --quiet \
        --manifest-path "$1/benchmark/Cargo.toml"
}
build "$dir/parent" parent
build "$tree" change

run() { # SOURCE_TREE SIDE
    local bin="$dir/target-$2/release"
    for ex in "${examples[@]}"; do
        local args=()
        [[ $ex == overload_sweep ]] && args=(--smoke)
        (cd "$1" && "$bin/examples/$ex" "${args[@]}") > "$dir/out/$2.$ex.txt" 2> /dev/null
    done
    for seed in "${seeds[@]}"; do
        for w in "${workloads[@]}"; do
            "$bin/pmnet-benchmark" --workload "$w" --seed "$seed" --seconds 0 \
                > "$dir/out/$2.bench.$w.$seed.txt"
        done
    done
}
run "$dir/parent" parent
run "$tree" change

sizes() { # SOURCE_TREE FILE_LISTING...  ->  one "LINES PATH" row per counted file
    local root="$1"
    shift
    "$@" | grep -E '(\.rs|Cargo\.toml)$' | grep -v '^benchmark/' | (cd "$root" && xargs wc -l) |
        grep -v ' total$'
}
sizes "$dir/parent" git -C "$tree" ls-tree -r --name-only "$rev" > "$dir/out/parent.size.txt"
sizes "$tree" git -C "$tree" ls-files > "$dir/out/change.size.txt"
python3 - "$dir/out" <<'EOF' || true
import collections, sys

def sizes(side):
    n = collections.Counter()
    for row in open(f"{sys.argv[1]}/{side}.size.txt"):
        lines, path = row.split()
        top, _, rest = path.partition("/")
        n["total"] += int(lines)
        if top == "crates":
            n[rest.partition("/")[0]] += int(lines)
        elif top in ("src", "tests", "examples"):
            n["root"] += int(lines)
    return n

p, c = sizes("parent"), sizes("change")
for g in ["total"] + sorted((p.keys() | c.keys()) - {"total"}):
    label = "" if g == "total" else g + " "
    print(f"size {label}{p[g]} -> {c[g]} ({c[g] - p[g]:+d}) lines")
EOF

status=0
for ex in "${examples[@]}"; do
    if cmp -s "$dir/out/parent.$ex.txt" "$dir/out/change.$ex.txt"; then
        echo "same    example $ex ($(wc -l < "$dir/out/change.$ex.txt") lines)"
    else
        echo "DIFFERS example $ex"
        diff "$dir/out/parent.$ex.txt" "$dir/out/change.$ex.txt" | head -20 || true
        status=1
    fi
done

python3 - "$dir/out" "${seeds[*]}" "${workloads[*]}" <<'EOF' || status=1
import json, sys

out, seeds, workloads = sys.argv[1], sys.argv[2].split(), sys.argv[3].split()

def fate(side, w, seed):
    lines = open(f"{out}/{side}.bench.{w}.{seed}.txt").read().splitlines()
    result = json.loads(lines[-1])
    digest = next(l.split()[1:] for l in lines if l.split()[:1] == ["sim_digest"])
    sim = {k: v["value"] for k, v in result["metrics"].items() if k.startswith("sim_")}
    return {"sim_digest": " ".join(digest), **sim,
            "attempted": result["attempted"], "failed": result["failed"]}

differs = False
for seed in seeds:
    for w in workloads:
        p, c = fate("parent", w, seed), fate("change", w, seed)
        if p == c:
            print(f"same    bench {w} seed {seed}: sim_digest {c['sim_digest']}")
            continue
        differs = True
        moved = [k for k in sorted(set(p) | set(c)) if p.get(k) != c.get(k)]
        only = " (sim_digest only: every sim_*, attempted and failed equal)"
        print(f"DIFFERS bench {w} seed {seed}" + (only if moved == ["sim_digest"] else ""))
        for k in moved:
            print(f"  {k}: {p.get(k)} -> {c.get(k)}")
sys.exit(1 if differs else 0)
EOF

python3 - "$dir/out" "${seeds[*]}" "${workloads[*]}" <<'EOF' || true
import json, sys

out, seeds, workloads = sys.argv[1], sys.argv[2].split(), sys.argv[3].split()
names = ("allocs_per_op", "alloc_bytes_per_op")

def allocs(side, w, seed):
    last = open(f"{out}/{side}.bench.{w}.{seed}.txt").read().splitlines()[-1]
    metrics = json.loads(last)["metrics"]
    return [metrics[n]["value"] for n in names]

for seed in seeds:
    for w in workloads:
        p, c = allocs("parent", w, seed), allocs("change", w, seed)
        cells = ", ".join(f"{n} {a:g} -> {b:g}" for n, a, b in zip(names, p, c))
        print(f"alloc   bench {w} seed {seed}: {cells}")
EOF

echo "outputs: $dir/out" >&2
exit "$status"
