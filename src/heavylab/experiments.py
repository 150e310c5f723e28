"""Monte Carlo audits: concentration, deterministic equivalents, tail rates.

Every audit is a pure function of (config, seed): replicas draw from
per-replica Philox streams and are reduced in replica order, so results are
bit-identical across reruns.  Across machines that holds for the draws and
the last-passage audits, not for spectral audits: their BLAS eigensolvers
can differ in the last digits with the BLAS thread count.

Spectral audits and curves share one replica loop, `_wigner_replicas`: each
replica's Wigner matrix is built once, divided by sqrt(n) in place, shifted
in place at its [0, 0] corner (the rank-one spike of the curves) and handed
to the functional.  Its chunks of streams run on the replica pool that
`lpp.passage_times` uses as well (`pool.run`).  When the pool runs more
than one thread, eigensolves run on one BLAS thread each and release the
interpreter lock (`openblas`).  Matrices too large for two in the pool's
memory budget (n >= 916 for beta = 1, n >= 648 for beta = 2) run serially on
the default BLAS.

Every output goes through one of two emitters, and both open with a header
carrying the package version, the resolved config and its hash.
`jsonl_text` writes a JSON header line, then one JSON record per line;
`csv_text` writes ``# heavylab <version> config_hash=<hash> k=v ...``, the
column line, then one line per row.  `emit_jsonl` and `emit_csv` apply
them to an `ExperimentConfig`.
"""

from __future__ import annotations

import hashlib
import json
import math
import shlex
from dataclasses import asdict, dataclass

import numpy as np

from . import lpp, measures, pool, rng
from . import matrixlab as ml
from . import specmeasures as sm
from .errors import DomainError
from .freeprob import NCPolynomial, eval_trace, tau_semicircular, homogeneous_part

VERSION = "0.1.0"

FUNCTIONALS = ("esm_distance", "largest_eig", "trace_poly", "lpp_time")


def speed(functional: str, alpha: float, n: int, d: int | None = None) -> float:
    """Large-deviation speed v(n) for each functional family."""
    if functional == "esm_distance":
        return n ** (1.0 + alpha / 2.0)
    if functional == "largest_eig":
        return n ** (alpha / 2.0)
    if functional == "trace_poly":
        if d is None:
            raise DomainError("trace_poly speed needs the polynomial degree d")
        return n ** (alpha * (0.5 + 1.0 / d))
    if functional == "lpp_time":
        return n**alpha
    raise DomainError(f"unknown functional {functional!r}")


@dataclass(frozen=True)
class ExperimentConfig:
    """Declarative description of one Monte Carlo audit."""

    functional: str
    alpha: float
    n_list: tuple
    replicas: int
    seed: int
    t_grid: tuple = ()
    beta: int = 1
    d: int | None = None
    lattice_dim: int = 2
    assertable: bool = False

    def __post_init__(self):
        if self.functional not in FUNCTIONALS:
            raise DomainError(f"unknown functional {self.functional!r}")
        if self.assertable and self.replicas < 100:
            raise DomainError("asserted criteria need at least 100 replicas")
        if self.t_grid and (np.any(np.diff(self.t_grid) <= 0) or min(self.t_grid) <= 0):
            raise DomainError("t_grid must be positive and increasing")
        object.__setattr__(self, "n_list", tuple(int(n) for n in self.n_list))
        object.__setattr__(self, "t_grid", tuple(float(t) for t in self.t_grid))

    def config_hash(self) -> str:
        return config_hash(asdict(self))


def _json_line(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"), default=str)


def config_hash(conf: dict) -> str:
    """First 12 hex digits of the SHA-256 of the compact, key-sorted JSON of conf."""
    return hashlib.sha256(_json_line(conf).encode()).hexdigest()[:12]


def k_alpha_shape(functional: str, alpha: float, n: int, t) -> np.ndarray:
    """Concentration bound exponent shape (kappa = 1 normalization)."""
    t = np.asarray(t, dtype=float)
    logn = math.log(n)
    if functional == "esm_distance":
        if alpha >= 1.0:
            return np.minimum(n**2 * t**2, n ** (1 + alpha / 2) * t**alpha)
        corr = logn ** (2.0 * (1.0 / alpha - 1.0))
        return np.minimum(n**2 * t**2 / corr, n ** (1 + alpha / 2) * t)
    if functional == "largest_eig":
        if alpha >= 1.0:
            return np.minimum(t**2 * n, t**alpha * n ** (alpha / 2.0))
        corr = logn ** (1.0 / alpha - 1.0)
        return np.minimum.reduce(
            [t**2 * n / corr**2, t * math.sqrt(n) / corr, t**alpha * n ** (alpha / 2.0)]
        )
    raise DomainError("concentration audits cover esm_distance and largest_eig")


def _wigner_replicas(config: ExperimentConfig, n: int, fn, corner: float = 0.0) -> np.ndarray:
    """``fn(X / sqrt(n) + corner e1 e1^T)`` for every replica stream, in stream order.

    X is the unit-variance Wigner matrix of the config's alpha and beta drawn
    from stream s of ``config.seed``, for s < ``config.replicas``.  Each
    replica's matrix is built once: the draw is divided by sqrt(n) in place,
    the corner shift is added to its [0, 0] entry in place, and the result is
    wrapped for ``fn`` as it is.  Chunks of streams run on the replica pool
    (`pool.run`); ``fn`` must be safe to call from several threads at once.
    """
    ens = ml.unit_variance_ensemble(config.alpha, beta=config.beta)
    measures.rearrangement_map(ens.alpha)  # tabulated here, not by two workers at once
    root = math.sqrt(n)
    values = [None] * config.replicas

    def run_chunk(streams: range) -> None:
        for s in streams:
            mat = ml._wigner_array(ens, n, config.seed, s)
            np.divide(mat, root, out=mat)
            mat[0, 0] += corner
            values[s] = fn(ml.HermitianMatrix._wrap(mat))

    pool.run(run_chunk, config.replicas, ml._replica_cells(n, config.beta))
    return np.array(values)


def concentration_audit(config: ExperimentConfig):
    """Exceedance table for P(|f - median| > t) at the config's largest n.

    Returns (rows, c_hat): rows of (t, exceedance, exp(-c_hat k(t))) and the
    fitted constant c_hat = min over observed t of -log(exceedance)/k(t).
    The paper-side constants are existential, so only the fitted shape is
    reported.
    """
    n = config.n_list[-1]
    if config.functional == "largest_eig":
        vals = _wigner_replicas(config, n, ml.HermitianMatrix.largest_eig)
        center = float(np.median(vals))
        devs = np.abs(vals - center)
    elif config.functional == "esm_distance":
        nodes = sm.default_contour().nodes
        rows = _wigner_replicas(config, n, lambda x: sm.stieltjes(x.esm(), nodes))
        center = np.median(rows.real, axis=0) + 1j * np.median(rows.imag, axis=0)
        devs = np.max(np.abs(rows - center[None, :]), axis=1)
    else:
        raise DomainError("concentration audits cover esm_distance and largest_eig")
    t_grid = np.asarray(config.t_grid if config.t_grid else np.geomspace(0.05, 1.0, 8))
    exceed = np.array([float(np.mean(devs > t)) for t in t_grid])
    shapes = k_alpha_shape(config.functional, config.alpha, n, t_grid)
    usable = (exceed > 0) & (exceed < 1)
    c_hat = float(np.min(-np.log(exceed[usable]) / shapes[usable])) if usable.any() else math.inf
    bound = np.exp(-c_hat * shapes) if math.isfinite(c_hat) else np.zeros_like(shapes)
    rows = [(float(t), float(e), float(b)) for t, e, b in zip(t_grid, exceed, bound)]
    return rows, c_hat


def equivalent_error_curve(kind: str, config: ExperimentConfig, spike: float = 2.0, g_eval=None):
    """Mean deterministic-equivalent error per n with standard errors.

    kind selects the functional: "esm" compares the deformed spectral
    measure with the semicircle free convolution, "eig" the top eigenvalue
    with rho(lambda), "poly" the normalized trace of x^3 with its limit,
    "lpp" the normalized passage time with the shape DP.  Deformations are rank-one
    (or corner) spikes of height ``spike``.
    """
    out = []
    for n in config.n_list:
        if kind == "esm":
            errs = _esm_errors(config, n, spike)
        elif kind == "eig":
            errs = _eig_errors(config, n, spike)
        elif kind == "poly":
            errs = _poly_errors(config, n, spike)
        elif kind == "lpp":
            errs = _lpp_errors(config, n, spike, g_eval)
        else:
            raise DomainError(f"unknown curve kind {kind!r}")
        out.append((n, float(np.mean(errs)), float(np.std(errs, ddof=1) / math.sqrt(len(errs)))))
    return out


def _esm_errors(config, n, spike):
    nodes = sm.default_contour().nodes
    if spike == 0.0:
        target = sm.g_semicircle(nodes)
    else:
        target = sm.freeconv_transform(sm.Measure1D.from_atoms(np.array([spike] + [0.0] * (n - 1))), nodes)

    def err(x):
        return float(np.max(np.abs(sm.stieltjes(x.esm(), nodes) - target)))

    return _wigner_replicas(config, n, err, spike)


def _eig_errors(config, n, spike):
    target = ml.rho(spike)
    return _wigner_replicas(config, n, lambda x: abs(x.largest_eig() - target), spike)


def _poly_errors(config, n, spike):
    poly = NCPolynomial.word_power(1, 3)
    d = poly.total_degree
    h = ml.spike_matrix(n, spike)
    limit = tau_semicircular(poly) + eval_trace(homogeneous_part(poly, d), (h,))

    def err(y):
        return abs(eval_trace(poly, (y,), normalize=True) - limit)

    return _wigner_replicas(config, n, err, n ** (1.0 / d) * spike)


def _lpp_errors(config, n, spike, g_eval):
    if g_eval is None:
        raise DomainError("lpp curves need a shape estimate g_eval")
    hvals = np.zeros((n + 1,) * config.lattice_dim)
    hvals[(n,) * config.lattice_dim] = spike
    h = lpp.WeightField(config.lattice_dim, n, hvals)
    t_det = lpp.deterministic_equivalent_T(h, g_eval)
    times = lpp.passage_times(
        config.alpha, hvals.shape, config.replicas, config.seed, shift=n * hvals
    )
    return np.abs(times / n - t_det)


def _power_fit(n: np.ndarray, means: np.ndarray):
    """Least-squares fit of ``means = g - c * n**(-gamma)``; returns (g, c, gamma, at_grid_end).

    For fixed gamma the fit is linear in (g, c), so only gamma is searched: a
    grid locates the smallest projected residual and bisection of its
    derivative's sign change, down to adjacent doubles, refines it.  The
    result is the least-squares optimum to rounding, not an iterative
    optimizer's stopping point, which moves g by ~1e-8 relative.
    On data without an interior optimum gamma stays at the grid's end, and
    ``at_grid_end`` says so.
    """
    logn = np.log(n)

    def project(gamma):
        basis = np.column_stack([np.ones_like(n), -(n ** -gamma)])
        coef = np.linalg.lstsq(basis, means, rcond=None)[0]
        return coef, means - basis @ coef

    def slope(gamma):
        # d/dgamma of the squared residual, up to the factor 2 (envelope theorem)
        (_, c), r = project(gamma)
        return -c * np.dot(r, n ** -gamma * logn)

    grid = np.geomspace(1e-4, 4.0, 97)
    k = int(np.argmin([np.sum(project(gamma)[1] ** 2) for gamma in grid]))
    lo, hi = grid[max(k - 1, 0)], grid[min(k + 1, grid.size - 1)]
    gamma = grid[k]
    if slope(lo) < 0.0 < slope(hi):
        while lo < (gamma := 0.5 * (lo + hi)) < hi:
            lo, hi = (gamma, hi) if slope(gamma) < 0.0 else (lo, gamma)
    (g, c), _ = project(gamma)
    return float(g), float(c), float(gamma), bool(gamma in (grid[0], grid[-1]))


def estimate_g_limit(alpha: float, n_list, replicas: int, seed: int):
    """Limit-shape estimate by superadditive extrapolation.

    Finite-n means increase toward g(1,1); fitting m_n = g - c n^(-gamma)
    on the provided sizes removes the leading bias.  Returns (g_hat, fit
    diagnostics dict); ``gamma_at_grid_end`` in the dict flags data without
    an interior least-squares optimum.
    """
    n_arr = np.array(sorted(n_list), dtype=float)
    if n_arr.size < 3:
        raise DomainError("extrapolation needs at least three lattice sizes")
    means = np.empty(n_arr.size)
    for k, n in enumerate(n_arr.astype(int)):
        means[k] = (lpp.passage_times(alpha, (n + 1, n + 1), replicas, seed) / n).mean()
    g_hat, c_fit, gamma, at_end = _power_fit(n_arr, means)
    diag = {"means": means.tolist(), "c": c_fit, "gamma": gamma, "gamma_at_grid_end": at_end}
    return g_hat, diag


def tail_rate(config: ExperimentConfig, x: float):
    """Speed-normalized log tail probabilities -log P(f_n > x) / v(n).

    Returns rows (n, p_hat, estimate, lo, hi, hits); rows with zero hits
    report a one-sided lower bound via the rule of three.  Binomial CIs use
    the Wilson interval.
    """
    if config.functional != "lpp_time":
        raise DomainError("tail_rate currently audits the last-passage functional")
    rows = []
    for n in config.n_list:
        times = lpp.passage_times(config.alpha, (n + 1, n + 1), config.replicas, config.seed) / n
        hits = int(np.sum(times > x))
        v = speed("lpp_time", config.alpha, n)
        p_hat = hits / config.replicas
        if hits == 0:
            # rule of three: one-sided lower bound only
            p_up = 3.0 / config.replicas
            rows.append((n, 0.0, math.inf, -math.log(p_up) / v, math.inf, 0))
            continue
        lo_p, hi_p = _wilson(p_hat, config.replicas)
        est = -math.log(p_hat) / v
        rows.append((n, p_hat, est, -math.log(hi_p) / v, -math.log(lo_p) / v, hits))
    return rows


def _wilson(p: float, n: int):
    z = 1.96  # two-sided 95 %
    denom = 1.0 + z**2 / n
    center = (p + z**2 / (2 * n)) / denom
    half = z * math.sqrt(p * (1 - p) / n + z**2 / (4 * n**2)) / denom
    return max(center - half, 1e-300), min(center + half, 1.0)


# ------------------------------------------------------------- covering nets


def sample_lp_ball(p: float, m: int, count: int, seed: int, stream: int = 0) -> np.ndarray:
    """Uniform-like points of the unit l^p ball of R^m.

    Coordinates drawn from the symmetric exponential-power law with
    exponent p, normalized by (sum |g|^p + E)^(1/p) with E exponential;
    valid for every p >= `measures._ALPHA_MAP_MIN` (about 0.00775), below
    which the sampler's transport map raises `DomainError`.
    """
    g = measures.sample(measures.nu(p), count * m, seed, stream).reshape(count, m)
    e = rng.exponentials(seed, stream + 2**33, count)
    return g / _lp_radius(g, e, p)[:, None]


def _lp_radius(v: np.ndarray, e, p: float):
    """(sum_i |v_i|^p + e)^(1/p) over the last axis; DomainError where it is not finite.

    For small p the power overflows (at p = 0.01 for sums above about 1200,
    which 16 coordinates reach); dividing by it would collapse the points to
    the origin.
    """
    with np.errstate(over="ignore"):
        radius = (np.sum(np.abs(v) ** p, axis=-1) + e) ** (1.0 / p)
    if not np.isfinite(radius).all():
        raise DomainError(f"the l^p radius at p={p} is not finite")
    return radius


def _net_probe(p: float, m: int, gen) -> np.ndarray:
    """One probe of the l^p ball: uniform volume or sparse boundary.

    Uniform-volume probes concentrate near the origin for p < 1 and never
    visit the ball's spiky extremes, so half the probes put Dirichlet-split
    l^p mass on a random sparse support at a random radius.
    """
    tmap = measures.rearrangement_map(p)
    if gen.random() < 0.5:
        mags = np.asarray(tmap(-np.log1p(-gen.random(m))))
        signs = np.where(gen.random(m) < 0.5, -1.0, 1.0)
        vec = signs * mags
        return vec / _lp_radius(vec, -math.log1p(-gen.random()), p)
    k = int(gen.integers(1, m + 1))
    support = gen.choice(m, size=k, replace=False)
    split = gen.dirichlet(np.ones(k))
    # half the sparse probes sit on the boundary: extreme points and faces
    # are exactly what a net of a spiky ball must cover
    r = 1.0 if gen.random() < 0.5 else gen.random() ** (1.0 / p)
    out = np.zeros(m)
    out[support] = np.where(gen.random(k) < 0.5, -1.0, 1.0) * split ** (1.0 / p) * r
    return out


def greedy_net_centers(p: float, q: float, eps: float, m: int, trials: int, seed: int, centers=None):
    """Greedy epsilon-net of the l^p ball under the l^q metric.

    Random probes not covered by an existing center are promoted to
    centers; the construction stops after ``trials`` consecutive covered
    probes.  Passing previous centers enforces nesting across decreasing
    eps.  Returns the center list.
    """
    if not 0.0 < p < q:
        raise DomainError("need 0 < p < q")
    if eps <= 0:
        raise DomainError("eps must be positive")
    if not 0.0 < p <= 2.0:
        raise DomainError("probe sampling covers p in (0, 2]")
    centers = [] if centers is None else [np.asarray(c) for c in centers]
    covered_run = 0
    gen = rng.philox(seed, 2**34)
    while covered_run < trials:
        probe = _net_probe(p, m, gen)
        if not np.isfinite(probe).all():
            # a NaN distance compares as covered and would end the net early
            raise DomainError(f"a probe of the l^p ball at p={p} is not finite")
        dist = (
            min(float(np.sum(np.abs(probe - c) ** q) ** (1.0 / q)) for c in centers)
            if centers
            else math.inf
        )
        if dist > eps:
            centers.append(probe)
            covered_run = 0
        else:
            covered_run += 1
    return centers


def greedy_net_profile(p: float, q: float, eps_list, m: int, trials: int, seed: int):
    """Net sizes over a decreasing eps ladder, centers reused for nesting."""
    eps_sorted = sorted(eps_list, reverse=True)
    centers = None
    sizes = {}
    for eps in eps_sorted:
        centers = greedy_net_centers(p, q, eps, m, trials, seed, centers=centers)
        sizes[eps] = len(centers)
    return [(eps, sizes[eps]) for eps in eps_list]


# ------------------------------------------------------------------ emission


def jsonl_text(conf: dict, records) -> str:
    """JSON-lines text: a header line, then one record per line.

    The header carries the package version, conf and its hash.
    """
    head = {"header": True, "version": VERSION, "config": conf, "config_hash": config_hash(conf)}
    return "\n".join([_json_line(head), *map(_json_line, records)]) + "\n"


def emit_jsonl(config: ExperimentConfig, records) -> str:
    """`jsonl_text` for a config; every record carries its seed and config hash."""
    stamp = {"seed": config.seed, "config_hash": config.config_hash()}
    return jsonl_text(asdict(config), ({**stamp, **rec} for rec in records))


def _header_value(v) -> str:
    """A header value that `shlex.split` returns whole.

    Tuples are written without spaces, ``(0.2,0.5,1.0)``; strings holding
    whitespace, quotes or backslashes are shlex-quoted; anything else is
    ``str(v)``.
    """
    if isinstance(v, tuple):
        inner = ",".join(map(_header_value, v))
        return f"({inner},)" if len(v) == 1 else f"({inner})"
    text = str(v)
    if isinstance(v, str) and any(c.isspace() or c in "'\"\\" for c in text):
        return shlex.quote(text)
    return text


def csv_header(conf: dict) -> str:
    """Header line: package version, the hash of conf, then its key=value pairs.

    The line splits back into its ``k=v`` pairs with `shlex.split`.
    """
    pairs = " ".join(f"{k}={_header_value(v)}" for k, v in conf.items())
    return f"# heavylab {VERSION} config_hash={config_hash(conf)} {pairs}"


def csv_text(conf: dict, cols, rows) -> str:
    """CSV text: the header line for conf, the column line, then one line per row.

    Floats, numpy's included, are written as ``repr(float(v))``; other cells as ``str(v)``.
    """
    lines = [csv_header(conf), ",".join(cols)]
    for row in rows:
        lines.append(",".join(repr(float(v)) if isinstance(v, float) else str(v) for v in row))
    return "\n".join(lines) + "\n"


def emit_csv(config: ExperimentConfig, cols, rows) -> str:
    """`csv_text` for a config."""
    return csv_text(asdict(config), cols, rows)


# shipped presets; every preset is deterministic from its embedded seed
PRESETS: dict[str, ExperimentConfig] = {
    "eig-concentration-small": ExperimentConfig(
        functional="largest_eig",
        alpha=1.0,
        n_list=(50,),
        replicas=400,
        seed=1001,
        t_grid=(0.1, 0.2, 0.4, 0.8),
    ),
    "esm-error-curve": ExperimentConfig(
        functional="esm_distance",
        alpha=1.0,
        n_list=(50, 100, 200),
        replicas=100,
        seed=1002,
    ),
    "lpp-tail-trend": ExperimentConfig(
        functional="lpp_time",
        alpha=0.5,
        n_list=(10, 20, 40),
        replicas=12000,
        seed=1003,
    ),
}


def run_preset(name: str) -> str:
    """Run a shipped preset and return its JSON-lines output."""
    if name not in PRESETS:
        raise DomainError(f"unknown preset {name!r}; known: {sorted(PRESETS)}")
    config = PRESETS[name]
    if name == "eig-concentration-small":
        rows, c_hat = concentration_audit(config)
        records = [
            {"t": t, "exceedance": e, "bound": b, "c_hat": c_hat} for t, e, b in rows
        ]
    elif name == "esm-error-curve":
        rows = equivalent_error_curve("esm", config, spike=0.0)
        records = [{"n": n, "mean_error": m, "stderr": s} for n, m, s in rows]
    else:
        # limit reference from a stable extrapolation: two extra doublings
        # beyond the largest tail size (the shorter fit has ~2 units of
        # seed-to-seed spread, enough to flip the diagnostic)
        sizes = config.n_list + (2 * max(config.n_list), 4 * max(config.n_list))
        g_hat, diag = estimate_g_limit(config.alpha, sizes, 3000, config.seed + 1)
        rows = tail_rate(config, g_hat + 1.0)
        records = [
            {
                "n": n,
                "p_hat": p,
                "estimate": est if math.isfinite(est) else "inf",
                "ci_lo": lo,
                "ci_hi": hi if math.isfinite(hi) else "inf",
                "hits": hits,
                "g11_hat": g_hat,
            }
            for n, p, est, lo, hi, hits in rows
        ]
    return emit_jsonl(config, records)
