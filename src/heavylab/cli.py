"""Command-line front end.

Subcommands: sample, spectrum, freeconv, rate, lpp, audit, net, preset.
`preset NAME` writes a shipped preset's output (`experiments.run_preset`),
whose header carries the preset's configuration.  Each command
takes only the flags it reads, plus --out: of the shared flags (`_SHARED`:
--alpha --beta --n --replicas --seed) it names its own, and any other flag,
on the command line or as a config-file line, is a usage error.  Config
files are flat UTF-8 key=value lines; command-line flags override file
values.  Every output file begins with a header line carrying the package
version and the resolved configuration, the values the command read, with
its hash, and identical (argv, seed) pairs produce byte-identical outputs.

Exit codes: 0 success, 1 domain/config error, 2 numerical non-convergence.

Each command imports the modules it runs when it runs, so `sample` loads
`measures` and `rng` and none of the others.  Unless its caller has set
the BLAS thread count (OPENBLAS_NUM_THREADS, GOTO_NUM_THREADS or
OMP_NUM_THREADS), a CLI process runs numpy's BLAS on one thread: an idle
second thread only spins, and the replica pool, the CLI's source of
parallel work, pins the BLAS to one thread anyway.
"""

from __future__ import annotations

import argparse
import math
import os
import sys

from .emit import csv_header, csv_text, jsonl_text
from .errors import ConfigError, ConvergenceError, DomainError, HeavylabError

# read by OpenBLAS when numpy loads it, so only before numpy is imported
_BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")
if "numpy" not in sys.modules and not any(v in os.environ for v in _BLAS_THREAD_VARS):
    os.environ["OPENBLAS_NUM_THREADS"] = "1"

SUBCOMMANDS = ("sample", "spectrum", "freeconv", "rate", "lpp", "audit", "net", "preset")


class _Parser(argparse.ArgumentParser):
    """argparse that reports usage problems through exit code 1.

    Flags must be spelled out: an abbreviation would let ``audit --b``
    pass as ``--beta``.
    """

    def __init__(self, *args, **kwargs):
        super().__init__(*args, allow_abbrev=False, **kwargs)

    def error(self, message):
        self.print_usage(sys.stderr)
        raise ConfigError(message)


def _resolved_config(args: argparse.Namespace) -> dict:
    skip = {"config", "out", "func"}
    conf = {k: v for k, v in sorted(vars(args).items()) if k not in skip and v is not None}
    return conf


def _floats(text: str, flag: str) -> tuple[float, ...]:
    """The numbers of a comma-separated flag value, at least one; empty items are skipped."""
    try:
        values = tuple(float(tok) for tok in text.split(",") if tok)
    except ValueError:
        values = ()
    if not values:
        raise ConfigError(f"--{flag} needs comma-separated numbers, got {text!r}")
    return values


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


# the flags several commands read, each with its type and default
_SHARED = {"alpha": (float, 1.0), "beta": (int, 1), "n": (int, 100), "replicas": (int, 100),
           "seed": (int, 0)}


def build_parser() -> _Parser:
    parser = _Parser(prog="heavylab", description=__doc__)
    parser.add_argument("--config", help="flat key=value config file")
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, func, shared, summary):
        """A subcommand taking the named shared flags and --out."""
        p = sub.add_parser(name, help=summary)
        for flag in shared.split():
            kind, default = _SHARED[flag]
            p.add_argument(f"--{flag}", type=kind, default=default)
        p.add_argument("--out", default=None)
        p.set_defaults(func=func)
        return p

    p_sample = command("sample", cmd_sample, "alpha seed", "draw from the one-dimensional laws")
    p_sample.add_argument("--law", choices=("nu", "mu"), default="nu")
    p_sample.add_argument("--count", type=int, default=1000)

    p_spec = command("spectrum", cmd_spectrum, "alpha beta n seed",
                     "sample a matrix and print its spectrum")
    p_spec.add_argument("--b", type=float, default=None)
    p_spec.add_argument("--a1", type=float, default=None)
    p_spec.add_argument("--a2", type=float, default=None)
    p_spec.add_argument("--scale", choices=("none", "sqrtn"), default="sqrtn")

    p_free = command("freeconv", cmd_freeconv, "", "semicircle free convolution of a measure")
    p_free.add_argument("--measure", help="CSV path (atom,weight); default is a two-point measure")
    p_free.add_argument("--theta", type=float, default=2.0)
    p_free.add_argument("--eta", type=float, default=0.01)
    p_free.add_argument("--grid-lo", type=float, default=None)
    p_free.add_argument("--grid-hi", type=float, default=None)
    p_free.add_argument("--grid-count", type=int, default=401)

    p_rate = command("rate", cmd_rate, "alpha", "evaluate a rate function, CSV (x, rate)")
    p_rate.add_argument("--kind", choices=("J", "K", "L"), required=True)
    p_rate.add_argument("--x", type=str, required=True, help="comma-separated evaluation points")
    p_rate.add_argument("--c", type=float, default=None)
    p_rate.add_argument("--c1", type=float, default=None)
    p_rate.add_argument("--cm1", type=float, default=None)
    p_rate.add_argument("--taup", type=float, default=None)
    p_rate.add_argument("--g11", type=float, default=None)
    p_rate.add_argument("--d", type=int, default=None)

    command("lpp", cmd_lpp, "alpha n replicas seed", "last-passage Monte Carlo, JSON-lines records")

    p_audit = command("audit", cmd_audit, "alpha beta n replicas seed",
                      "concentration audit, JSON-lines + CSV summary")
    p_audit.add_argument("--functional", choices=("largest_eig", "esm_distance"), default="largest_eig")
    p_audit.add_argument("--t-grid", type=str, default="0.1,0.25,0.5,1.0")
    p_audit.add_argument("--summary-out", default=None)

    p_net = command("net", cmd_net, "seed", "greedy covering-net sizes, CSV (eps, size)")
    p_net.add_argument("--p", type=float, default=0.5)
    p_net.add_argument("--q", type=float, default=2.0)
    p_net.add_argument("--eps", type=str, default="0.3,0.5,0.7,0.9")
    p_net.add_argument("--m", type=int, default=16)
    p_net.add_argument("--trials", type=int, default=120)

    p_preset = command("preset", cmd_preset, "", "run a shipped preset, JSON-lines records")
    p_preset.add_argument("name", help="preset name, e.g. lpp-tail-trend")

    return parser


def cmd_sample(args) -> int:
    from . import measures

    law = measures.nu(args.alpha) if args.law == "nu" else measures.mu(args.alpha)
    draws = measures.sample(law, args.count, args.seed)
    _write(args.out, csv_text(_resolved_config(args), ("draw",), ((v,) for v in draws)))
    return 0


def cmd_spectrum(args) -> int:
    from . import matrixlab as ml

    if args.a2 is not None and args.beta == ml.BETA_SYMMETRIC:
        raise ConfigError("spectrum --beta 1 does not read --a2")
    if args.b is None and args.a1 is None and args.a2 is None:
        ens = ml.unit_variance_ensemble(args.alpha, beta=args.beta)
    else:
        ens = ml.WignerEnsemble(
            args.alpha,
            b=args.b if args.b is not None else 1.0,
            a1=args.a1 if args.a1 is not None else 1.0,
            a2=args.a2 if args.a2 is not None else 1.0,
            beta=args.beta,
        )
    x = ml.sample_wigner(ens, args.n, args.seed)
    if args.scale == "sqrtn":
        x = x.scale(1.0 / math.sqrt(args.n))
    rows = ((v,) for v in x.spectrum())
    _write(args.out, csv_text(_resolved_config(args), ("eigenvalue",), rows))
    return 0


def cmd_freeconv(args) -> int:
    import numpy as np

    from . import specmeasures as sm

    if args.measure:
        with open(args.measure, encoding="utf-8") as fh:
            nu = sm.Measure1D.from_csv(fh.read())
    else:
        t = args.theta
        nu = sm.Measure1D(np.array([-t, t]), np.array([0.5, 0.5]))
    lo = args.grid_lo if args.grid_lo is not None else float(nu.atoms.min() - 3.5)
    hi = args.grid_hi if args.grid_hi is not None else float(nu.atoms.max() + 3.5)
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise ConfigError("freeconv needs finite --grid-lo and --grid-hi")
    if args.grid_count < 2:
        raise ConfigError("freeconv needs --grid-count >= 2")
    grid = np.linspace(lo, hi, args.grid_count)
    g, dens = sm.free_conv_semicircle(nu, args.eta, grid)
    rows = zip(grid, g.real, g.imag, dens)
    _write(args.out, csv_text(_resolved_config(args), ("x", "re_g", "im_g", "density"), rows))
    return 0


def cmd_rate(args) -> int:
    from . import ratefuncs as rf

    # per --kind: the rate function and the keyword each of its flags sets
    rates = {
        "J": (rf.rate_J, {"c": "c"}),
        "K": (rf.rate_K, {"c1": "c1", "cm1": "c_minus1", "taup": "tau_p", "d": "d"}),
        "L": (rf.rate_L, {"g11": "g11"}),
    }
    xs = _floats(args.x, "x")
    rate, keywords = rates[args.kind]
    others = (k for _, flags in rates.values() for k in flags if k not in keywords)
    stray = [f"--{k}" for k in others if getattr(args, k) is not None]
    if stray:
        raise ConfigError(f"rate --kind {args.kind} does not read {' '.join(stray)}")
    missing = [f"--{k}" for k in keywords if getattr(args, k) is None]
    if missing:
        raise ConfigError(f"rate --kind {args.kind} needs {' '.join(missing)}")
    constants = {kw: getattr(args, k) for k, kw in keywords.items()}
    values = [float(rate(x, args.alpha, **constants)) for x in xs]
    conf = _resolved_config(args)
    if args.out is None and len(xs) == 1:
        # single evaluation: header plus the bare value
        _write(None, csv_header(conf) + "\n" + repr(values[0]) + "\n")
        return 0
    _write(args.out, csv_text(conf, ("x", "rate"), zip(xs, values)))
    return 0


def cmd_lpp(args) -> int:
    from . import lpp

    if not 0.0 < args.alpha < 1.0:
        raise ConfigError("lpp needs alpha in (0, 1)")
    if args.n < 1 or args.replicas < 1:
        raise ConfigError("lpp needs --n >= 1 and --replicas >= 1")
    n = args.n
    times = lpp.passage_times(args.alpha, [(n + 1, n + 1)], args.replicas, args.seed)[0] / n
    g11_hat = float(times.mean())
    records = [
        {"n": n, "alpha": args.alpha, "seed": args.seed, "stream": rep, "T": float(t),
         "g11_hat": g11_hat}
        for rep, t in enumerate(times)
    ]
    _write(args.out, jsonl_text(_resolved_config(args), records))
    return 0


def cmd_audit(args) -> int:
    from . import experiments as ex

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
    records, summary = ex.audit_outputs(config)
    _write(args.out, records)
    if args.summary_out:
        _write(args.summary_out, summary)
    return 0


def cmd_net(args) -> int:
    from . import nets

    eps_list = _floats(args.eps, "eps")
    profile = nets.greedy_net_profile(args.p, args.q, eps_list, args.m, args.trials, args.seed)
    _write(args.out, csv_text(_resolved_config(args), ("eps", "size"), profile))
    return 0


def cmd_preset(args) -> int:
    from . import experiments as ex

    _write(args.out, ex.run_preset(args.name))
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
