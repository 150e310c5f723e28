#!/usr/bin/env python3
"""Deterministic-equivalent error curves across matrix and lattice sizes.

Covers the four deformation families: spectral measure vs semicircle free
convolution, top eigenvalue vs the rank-one deformation map, normalized
polynomial traces vs their limit, and the last-passage time vs its shape
DP.  Emits one CSV per family.
"""

import argparse
from pathlib import Path

from heavylab import experiments as ex
from heavylab import lpp


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--out-dir", default="results", type=Path)
    ap.add_argument("--replicas", type=int, default=100)
    ap.add_argument("--seed", type=int, default=1002)
    args = ap.parse_args()
    args.out_dir.mkdir(parents=True, exist_ok=True)

    shape = lpp.CachedShape(0.5, n_mc=40, replicas=300, seed=args.seed + 7, grid_points=5)
    runs = [
        ("esm", dict(functional="esm_distance", alpha=1.0, n_list=(50, 100, 200, 400)), dict(spike=0.0)),
        ("eig", dict(functional="largest_eig", alpha=1.0, n_list=(100, 300, 1000)), dict(spike=2.0)),
        ("poly", dict(functional="trace_poly", alpha=1.0, n_list=(50, 150, 500), d=3), dict(spike=1.0)),
        ("lpp", dict(functional="lpp_time", alpha=0.5, n_list=(10, 20, 40)),
         dict(spike=3.0, g_eval=shape)),
    ]
    for kind, cfg_kw, extra in runs:
        config = ex.ExperimentConfig(replicas=args.replicas, seed=args.seed, **cfg_kw)
        rows = ex.equivalent_error_curve(kind, config, **extra)
        (args.out_dir / f"curve_{kind}.csv").write_text(ex.emit_csv(config, ex.CURVE_FIELDS, rows))
        print(f"{kind}: " + "  ".join(f"n={n}: {m:.4g}+-{s:.2g}" for n, m, s in rows))


if __name__ == "__main__":
    main()
