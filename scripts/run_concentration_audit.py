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
        rows, c_hat = ex.concentration_audit(config)
        records = [{"t": t, "exceedance": e, "bound": b, "c_hat": c_hat} for t, e, b in rows]
        (args.out_dir / f"audit_{functional}.jsonl").write_text(ex.emit_jsonl(config, records))
        (args.out_dir / f"audit_{functional}.csv").write_text(
            ex.emit_csv(config, ("t", "exceedance", "bound"), rows)
        )
        print(f"{functional}: fitted c_hat = {c_hat:.4g}")
        for t, e, b in rows:
            print(f"  t={t:<6g} exceedance={e:<8g} bound={b:.4g}")


if __name__ == "__main__":
    main()
