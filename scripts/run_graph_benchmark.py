#!/usr/bin/env python3
"""Full-scale recovery benchmark over simulated network structures.

Simulates replicated datasets from band, cluster, hub and random graphs,
fits the model with and without global shrinkage at several sample sizes,
and reports partial ROC area plus selection error rates per cell.

At the default settings (p=100, 50 replicates, four structures, three
sample sizes) this is a long run on a single core; trim --reps or --kinds
for a quick look.

Example:
    python3 scripts/run_graph_benchmark.py --out-dir results/benchmark \
        --kinds band,random --reps 10
"""

import argparse
import csv
import json
import os
import sys
import time
from pathlib import Path

from shrinknet.benchmark import METRICS_FIELDS, SimConfig, run_model_sim


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--kinds", default="band,cluster,hub,random",
                    help="comma-separated structure kinds")
    ap.add_argument("--p", type=int, default=100, help="number of genes")
    ap.add_argument("--n", default="25,50,100",
                    help="comma-separated sample sizes")
    ap.add_argument("--reps", type=int, default=50,
                    help="replicates per (kind, n) cell")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--alpha", type=float, default=0.1,
                    help="posterior null-probability cutoff")
    ap.add_argument("--dof", type=float, default=4.0,
                    help="precision sampling degrees of freedom")
    ap.add_argument("--threads", type=int,
                    default=int(os.environ.get("SHRINKNET_THREADS", "1")))
    ap.add_argument("--out-dir", default="results/benchmark")
    args = ap.parse_args()

    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    cfg = SimConfig(
        kinds=tuple(k.strip() for k in args.kinds.split(",") if k.strip()),
        p=args.p,
        n_list=tuple(int(x) for x in args.n.split(",")),
        reps=args.reps,
        seed=args.seed,
        alpha=args.alpha,
        dof=args.dof,
        threads=args.threads,
    )
    t0 = time.monotonic()
    result = run_model_sim(cfg)
    elapsed = time.monotonic() - t0

    with open(out / "metrics.csv", "w", newline="") as fh:
        w = csv.DictWriter(fh, fieldnames=METRICS_FIELDS, restval="")
        w.writeheader()
        w.writerows(result.rows)
    with open(out / "summary.json", "w") as fh:
        json.dump({"config": vars(args), "elapsed_seconds": elapsed,
                   "n_failed": result.n_failed,
                   "summary": result.summary}, fh, indent=2)

    print(f"{len(result.rows)} rows ({result.n_failed} failed) "
          f"in {elapsed:.1f}s -> {out}")
    for entry in result.summary:
        print(f"  {entry['kind']:>8} n={entry['n']:<4} "
              f"{entry['method']:<10} "
              f"pAUC {entry['pauc_mean']:.3f}±{entry['pauc_sd']:.3f}  "
              f"TPR {entry['tpr_mean']:.3f}  FPR {entry['fpr_mean']:.4f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
