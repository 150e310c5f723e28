#!/usr/bin/env python3
"""Concentration audit for the top eigenvalue and the spectral measure.

Writes JSON-lines records plus a CSV summary per functional; reruns with
the same seed are byte-identical.
"""

import argparse
from pathlib import Path

from heavylab import experiments as ex


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--out-dir", default="results", type=Path)
    ap.add_argument("--alpha", type=float, default=1.0)
    ap.add_argument("--n", type=int, default=200)
    ap.add_argument("--replicas", type=int, default=2000)
    ap.add_argument("--seed", type=int, default=1001)
    args = ap.parse_args()
    args.out_dir.mkdir(parents=True, exist_ok=True)

    grids = {
        "largest_eig": (0.1, 0.25, 0.5, 1.0),
        "esm_distance": (0.005, 0.02, 0.08, 0.3),
    }
    for functional, t_grid in grids.items():
        replicas = args.replicas if functional == "largest_eig" else max(args.replicas // 10, 100)
        config = ex.ExperimentConfig(
            functional=functional,
            alpha=args.alpha,
            n_list=(args.n,),
            replicas=replicas,
            seed=args.seed,
            t_grid=t_grid,
        )
        records, summary = ex.audit_outputs(config)
        (args.out_dir / f"audit_{functional}.jsonl").write_text(records)
        (args.out_dir / f"audit_{functional}.csv").write_text(summary)
        print(records, end="")


if __name__ == "__main__":
    main()
