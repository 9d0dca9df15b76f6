#!/usr/bin/env bash
# Runs every workload traced on two seeds and checks that its shape repeats:
# update and epoch counts within 1%, the same batch sizes, the same hit
# ratio and no failed operation. Shows that the workloads are not tuned to one seed.
#   bash perfbench/holdout.sh [SEED_A] [SEED_B] [SECONDS]
set -euo pipefail
cd "$(dirname "$0")/.."
a="${1:-42}" b="${2:-7}" secs="${3:-5}"
for w in tree-learn stream-serve; do
  for s in "$a" "$b"; do
    bash perfbench/run.sh --workload "$w" --seed "$s" --seconds "$secs" --trace 1 \
      > "_build_perfbench/holdout-$w-$s.out"
  done
  python3 - "$w" "_build_perfbench/holdout-$w-$a.out" "_build_perfbench/holdout-$w-$b.out" <<'PY'
import json, sys
w, fa, fb = sys.argv[1:]
def load(f):
    lines = open(f).read().splitlines()
    result = json.loads(lines[-1])
    values = {k: m["value"] for k, m in result["metrics"].items()}
    for line in lines:
        if line.startswith("# shape "):
            for kv in line.split()[2:]:
                k, v = kv.split("=")
                values[k] = float(v)
    return result, values
(ra, va), (rb, vb) = load(fa), load(fb)
problems = []
for v in (va, vb):
    v["updates"] = v["insert_updates"] + v["churn_updates"]
for k in ("updates", "epochs"):
    if abs(va[k] - vb[k]) > 0.01 * max(va[k], vb[k]):
        problems.append(f"{k}: {va[k]:.0f} vs {vb[k]:.0f}")
for k in ("aggregates.batch_aggs", "ml.node_batches"):
    if va[k] != vb[k]:
        problems.append(f"{k}: {va[k]:.0f} vs {vb[k]:.0f}")
if abs(va["serve.hit_ratio"] - vb["serve.hit_ratio"]) > 1e-4:
    problems.append(f"serve.hit_ratio: {va['serve.hit_ratio']} vs {vb['serve.hit_ratio']}")
for r in (ra, rb):
    if r["failed"] != 0 or not r["correct"]:
        problems.append(f"failed operations: {r['failed']} of {r['attempted']}")
shape = ", ".join(f"{k}={va[k]:g}/{vb[k]:g}" for k in
                  ("updates", "insert_updates", "epochs",
                   "aggregates.batch_aggs", "ml.node_batches", "serve.hit_ratio"))
print(f"{w}: {'ok' if not problems else 'MISMATCH'} ({shape})")
for p in problems:
    print("  " + p)
sys.exit(1 if problems else 0)
PY
done
