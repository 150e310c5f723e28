"""Command-line front end.

Subcommands: sample, spectrum, freeconv, rate, lpp, audit, net.  Config
files are flat UTF-8 key=value lines; command-line flags override file
values.  Every output file begins with a header line carrying the package
version and a hash of the resolved configuration, and identical
(argv, seed) pairs produce byte-identical outputs.

Exit codes: 0 success, 1 domain/config error, 2 numerical non-convergence.
"""

from __future__ import annotations

import argparse
import math
import sys

import numpy as np

from . import experiments as ex
from . import lpp as lpp_mod
from . import matrixlab as ml
from . import measures
from . import ratefuncs as rf
from . import specmeasures as sm
from .errors import ConfigError, ConvergenceError, DomainError, HeavylabError

VERSION = ex.VERSION

SUBCOMMANDS = ("sample", "spectrum", "freeconv", "rate", "lpp", "audit", "net")


class _Parser(argparse.ArgumentParser):
    """argparse that reports usage problems through exit code 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        raise ConfigError(message)


def _resolved_config(args: argparse.Namespace) -> dict:
    skip = {"config", "out", "func"}
    conf = {k: v for k, v in sorted(vars(args).items()) if k not in skip and v is not None}
    return conf


def _floats(text: str, flag: str) -> tuple[float, ...]:
    """The numbers of a comma-separated flag value; empty items are skipped."""
    try:
        return tuple(float(tok) for tok in text.split(",") if tok)
    except ValueError:
        raise ConfigError(f"--{flag} needs comma-separated numbers, got {text!r}") from None


def _write(out: str | None, text: str) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)


def _apply_config_file(argv: list[str]) -> list[str]:
    """Prepend key=value pairs from --config as defaults (flags win)."""
    if "--config" not in argv:
        return argv
    idx = argv.index("--config")
    try:
        path = argv[idx + 1]
    except IndexError as exc:
        raise ConfigError("--config needs a path") from exc
    extra: list[str] = []
    try:
        with open(path, encoding="utf-8") as fh:
            for line in fh:
                line = line.strip()
                if not line or line.startswith("#"):
                    continue
                if "=" not in line:
                    raise ConfigError(f"bad config line {line!r}")
                key, _, val = line.partition("=")
                extra.extend([f"--{key.strip()}", val.strip()])
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    rest = argv[:idx] + argv[idx + 2 :]
    # file-provided flags go right after the subcommand so explicit flags win
    for pos, tok in enumerate(rest):
        if tok in SUBCOMMANDS:
            return rest[: pos + 1] + extra + rest[pos + 1 :]
    raise ConfigError("--config needs a subcommand")


def build_parser() -> _Parser:
    parser = _Parser(prog="heavylab", description=__doc__)
    parser.add_argument("--config", help="flat key=value config file")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--alpha", type=float, default=1.0)
        p.add_argument("--beta", type=int, default=1)
        p.add_argument("--b", type=float, default=None)
        p.add_argument("--a1", type=float, default=None)
        p.add_argument("--a2", type=float, default=None)
        p.add_argument("--n", type=int, default=100)
        p.add_argument("--replicas", type=int, default=100)
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--out", default=None)

    p_sample = sub.add_parser("sample", help="draw from the one-dimensional laws")
    common(p_sample)
    p_sample.add_argument("--law", choices=("nu", "mu"), default="nu")
    p_sample.add_argument("--count", type=int, default=1000)
    p_sample.set_defaults(func=cmd_sample)

    p_spec = sub.add_parser("spectrum", help="sample a matrix and print its spectrum")
    common(p_spec)
    p_spec.add_argument("--scale", choices=("none", "sqrtn"), default="sqrtn")
    p_spec.set_defaults(func=cmd_spectrum)

    p_free = sub.add_parser("freeconv", help="semicircle free convolution of a measure")
    common(p_free)
    p_free.add_argument("--measure", help="CSV path (atom,weight); default is a two-point measure")
    p_free.add_argument("--theta", type=float, default=2.0)
    p_free.add_argument("--eta", type=float, default=0.01)
    p_free.add_argument("--grid-lo", type=float, default=None)
    p_free.add_argument("--grid-hi", type=float, default=None)
    p_free.add_argument("--grid-count", type=int, default=401)
    p_free.set_defaults(func=cmd_freeconv)

    p_rate = sub.add_parser("rate", help="evaluate a rate function, CSV (x, rate)")
    common(p_rate)
    p_rate.add_argument("--kind", choices=("J", "K", "L"), required=True)
    p_rate.add_argument("--x", type=str, required=True, help="comma-separated evaluation points")
    p_rate.add_argument("--c", type=float, default=None)
    p_rate.add_argument("--c1", type=float, default=None)
    p_rate.add_argument("--cm1", type=float, default=None)
    p_rate.add_argument("--taup", type=float, default=None)
    p_rate.add_argument("--g11", type=float, default=None)
    p_rate.add_argument("--d", type=int, default=None)
    p_rate.set_defaults(func=cmd_rate)

    p_lpp = sub.add_parser("lpp", help="last-passage Monte Carlo, JSON-lines records")
    common(p_lpp)
    p_lpp.add_argument("--dim", type=int, default=2)
    p_lpp.add_argument("--spike", type=float, default=0.0)
    p_lpp.set_defaults(func=cmd_lpp)

    p_audit = sub.add_parser("audit", help="concentration audit, JSON-lines + CSV summary")
    common(p_audit)
    p_audit.add_argument("--functional", choices=("largest_eig", "esm_distance"), default="largest_eig")
    p_audit.add_argument("--t-grid", type=str, default="0.1,0.25,0.5,1.0")
    p_audit.add_argument("--summary-out", default=None)
    p_audit.set_defaults(func=cmd_audit)

    p_net = sub.add_parser("net", help="greedy covering-net sizes, CSV (eps, size)")
    common(p_net)
    p_net.add_argument("--p", type=float, default=0.5)
    p_net.add_argument("--q", type=float, default=2.0)
    p_net.add_argument("--eps", type=str, default="0.3,0.5,0.7,0.9")
    p_net.add_argument("--m", type=int, default=16)
    p_net.add_argument("--trials", type=int, default=120)
    p_net.set_defaults(func=cmd_net)

    return parser


def _ensemble(args) -> ml.WignerEnsemble:
    if args.b is None and args.a1 is None and args.a2 is None:
        return ml.unit_variance_ensemble(args.alpha, beta=args.beta)
    return ml.WignerEnsemble(
        args.alpha,
        b=args.b if args.b is not None else 1.0,
        a1=args.a1 if args.a1 is not None else 1.0,
        a2=args.a2 if args.a2 is not None else 1.0,
        beta=args.beta,
    )


def cmd_sample(args) -> int:
    law = measures.nu(args.alpha) if args.law == "nu" else measures.mu(args.alpha)
    draws = measures.sample(law, args.count, args.seed)
    _write(args.out, ex.csv_text(_resolved_config(args), ("draw",), ((v,) for v in draws)))
    return 0


def cmd_spectrum(args) -> int:
    ens = _ensemble(args)
    x = ml.sample_wigner(ens, args.n, args.seed)
    if args.scale == "sqrtn":
        x = x.scale(1.0 / math.sqrt(args.n))
    rows = ((v,) for v in x.spectrum())
    _write(args.out, ex.csv_text(_resolved_config(args), ("eigenvalue",), rows))
    return 0


def cmd_freeconv(args) -> int:
    if args.measure:
        with open(args.measure, encoding="utf-8") as fh:
            nu = sm.Measure1D.from_csv(fh.read())
    else:
        t = args.theta
        nu = sm.Measure1D(np.array([-t, t]), np.array([0.5, 0.5]))
    lo = args.grid_lo if args.grid_lo is not None else float(nu.atoms.min() - 3.5)
    hi = args.grid_hi if args.grid_hi is not None else float(nu.atoms.max() + 3.5)
    grid = np.linspace(lo, hi, args.grid_count)
    g, dens = sm.free_conv_semicircle(nu, args.eta, grid)
    rows = zip(grid, g.real, g.imag, dens)
    _write(args.out, ex.csv_text(_resolved_config(args), ("x", "re_g", "im_g", "density"), rows))
    return 0


def cmd_rate(args) -> int:
    xs = _floats(args.x, "x")
    if args.kind == "J":
        params = rf.RateParams(alpha=args.alpha, constant_c=args.c)
        fn = lambda x: rf.rate_J(x, params)
    elif args.kind == "K":
        params = rf.RateParams(
            alpha=args.alpha, c1=args.c1, c_minus1=args.cm1, tauP=args.taup, d=args.d
        )
        fn = lambda x: rf.rate_K(x, params)
    else:
        params = rf.RateParams(alpha=args.alpha, g11=args.g11)
        fn = lambda x: rf.rate_L(x, params)
    conf = _resolved_config(args)
    if args.out is None and len(xs) == 1:
        # single evaluation: header plus the bare value
        _write(None, ex.csv_header(conf) + "\n" + repr(float(fn(xs[0]))) + "\n")
        return 0
    _write(args.out, ex.csv_text(conf, ("x", "rate"), ((x, float(fn(x))) for x in xs)))
    return 0


def cmd_lpp(args) -> int:
    if args.dim != 2:
        raise ConfigError("the CLI Monte Carlo path covers d = 2")
    if not 0.0 < args.alpha < 1.0:
        raise ConfigError("lpp needs alpha in (0, 1)")
    if args.n < 1 or args.replicas < 1:
        raise ConfigError("lpp needs --n >= 1 and --replicas >= 1")
    n = args.n
    times = lpp_mod.passage_times(args.alpha, (n + 1, n + 1), args.replicas, args.seed) / n
    g11_hat = float(times.mean())
    t_det = None
    if args.spike > 0.0:
        hvals = np.zeros((n + 1, n + 1))
        hvals[n, n] = args.spike
        h = lpp_mod.WeightField(2, n, hvals)
        t_det = lpp_mod.deterministic_equivalent_T(h, lpp_mod.additive_g)
    records = [
        {"n": n, "alpha": args.alpha, "seed": args.seed, "stream": rep, "T": float(t),
         "T_det": t_det, "g11_hat": g11_hat}
        for rep, t in enumerate(times)
    ]
    _write(args.out, ex.jsonl_text(_resolved_config(args), records))
    return 0


def cmd_audit(args) -> int:
    t_grid = _floats(args.t_grid, "t-grid")
    config = ex.ExperimentConfig(
        functional=args.functional,
        alpha=args.alpha,
        n_list=(args.n,),
        replicas=args.replicas,
        seed=args.seed,
        t_grid=t_grid,
        beta=args.beta,
    )
    rows, c_hat = ex.concentration_audit(config)
    records = [{"t": t, "exceedance": e, "bound": b, "c_hat": c_hat} for t, e, b in rows]
    _write(args.out, ex.emit_jsonl(config, records))
    if args.summary_out:
        _write(args.summary_out, ex.emit_csv(config, ("t", "exceedance", "bound"), rows))
    return 0


def cmd_net(args) -> int:
    eps_list = _floats(args.eps, "eps")
    profile = ex.greedy_net_profile(args.p, args.q, eps_list, args.m, args.trials, args.seed)
    _write(args.out, ex.csv_text(_resolved_config(args), ("eps", "size"), profile))
    return 0


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    try:
        argv = _apply_config_file(argv)
        parser = build_parser()
        args = parser.parse_args(argv)
        return args.func(args)
    except ConfigError as exc:
        print(f"heavylab: config error: {exc}", file=sys.stderr)
        return 1
    except (DomainError, OSError) as exc:
        print(f"heavylab: error: {exc}", file=sys.stderr)
        return 1
    except ConvergenceError as exc:
        print(f"heavylab: numerical non-convergence: {exc}", file=sys.stderr)
        return 2
    except HeavylabError as exc:
        print(f"heavylab: error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
