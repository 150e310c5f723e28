"""Monte Carlo audits: concentration, deterministic equivalents, tail rates.

Every audit is a pure function of (config, seed): replicas draw from
per-replica Philox streams and are reduced in replica order, so results are
bit-identical across reruns.  Across machines that holds for the draws and
the last-passage audits, not for spectral audits: their BLAS eigensolvers
can differ in the last digits with the BLAS thread count.

Spectral audits and curves share one replica loop, `_wigner_replicas`: each
replica's Wigner matrix is built once, divided by sqrt(n) in place, shifted
in place at its [0, 0] corner (the rank-one spike of the curves) and handed
to the functional.  The ``largest_eig`` audit and the "eig" curve solve
for the top eigenvalue alone (`HermitianMatrix.largest_eig`); the
``esm_distance`` audit and the "esm" curve take whole spectra.  The loop's
chunks of streams run on the replica pool that `lpp.passage_times` uses as
well (`pool.run`).  When the pool runs more than one thread, eigensolves
run on one BLAS thread each and release the interpreter lock (`openblas`).
Matrices too large for two in the pool's memory budget (n >= 916 for
beta = 1, n >= 648 for beta = 2) run serially on the process's BLAS
threads: one in a preset (`run_preset`) and, unless its caller set the
count, in a CLI process (`cli`); numpy's default in other library callers.

Every output goes through `emit`'s `jsonl_text` (records, by
`emit_jsonl(config, fields, rows)`) or `csv_text` (the audit's summary),
with each experiment's fields named once (`AUDIT_FIELDS`, `CURVE_FIELDS`,
`TAIL_FIELDS`).  A preset is one `PRESETS` and one `_PRESET_OUTPUTS` entry,
and `heavylab preset NAME` writes its `run_preset` output.  The presets are
the small eig audit, the four families' error curves (esm, eig, poly, lpp)
and the lpp tail trend of acceptance criterion 12.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

import numpy as np

from . import lpp, measures, openblas, pool
from . import matrixlab as ml
from . import specmeasures as sm
from .emit import config_hash, csv_text, jsonl_text
from .errors import DomainError
from .freeprob import NCPolynomial, deterministic_equivalent_poly, eval_trace

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

    def __post_init__(self):
        if self.functional not in FUNCTIONALS:
            raise DomainError(f"unknown functional {self.functional!r}")
        if not self.n_list:
            raise DomainError("n_list must name at least one size")
        if self.replicas < 1:
            raise DomainError(f"replicas must be at least 1, got {self.replicas}")
        if self.t_grid and not (
            np.all(np.isfinite(self.t_grid))
            and np.all(np.diff(self.t_grid) > 0)
            and min(self.t_grid) > 0
        ):
            raise DomainError("t_grid must be finite, positive and increasing")
        object.__setattr__(self, "n_list", tuple(int(n) for n in self.n_list))
        object.__setattr__(self, "t_grid", tuple(float(t) for t in self.t_grid))

    def config_hash(self) -> str:
        return config_hash(asdict(self))


def k_alpha_shape(functional: str, alpha: float, n: int, t) -> np.ndarray:
    """Concentration bound exponent shape (kappa = 1 normalization)."""
    if n < 2:
        raise DomainError(f"concentration audits need n >= 2, where log n > 0; got n = {n}")
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
    """Exceedance table for P(|f - median| > t) at the config's one size n.

    Returns (rows, c_hat): rows of (t, exceedance, exp(-c_hat k(t))) and the
    fitted constant c_hat = min over observed t of -log(exceedance)/k(t).
    The paper-side constants are existential, so only the fitted shape is
    reported.
    """
    if len(config.n_list) > 1 or not config.t_grid:
        raise DomainError("a concentration audit reads one size and a non-empty t_grid, got "
                          f"n_list={config.n_list}, t_grid={config.t_grid}")
    (n,) = config.n_list
    t_grid = np.asarray(config.t_grid)
    # outside the audits' domain this raises before any replica is drawn
    shapes = k_alpha_shape(config.functional, config.alpha, n, t_grid)
    if config.functional == "largest_eig":
        vals = _wigner_replicas(config, n, ml.HermitianMatrix.largest_eig)
        center = float(np.median(vals))
        devs = np.abs(vals - center)
    else:
        nodes = sm.default_contour().nodes
        rows = _wigner_replicas(config, n, lambda x: sm.stieltjes(x.esm(), nodes))
        center = np.median(rows.real, axis=0) + 1j * np.median(rows.imag, axis=0)
        devs = np.max(np.abs(rows - center[None, :]), axis=1)
    exceed = np.array([float(np.mean(devs > t)) for t in t_grid])
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
    (or corner) spikes of height ``spike`` (esm takes 0 alone).  The lpp kind
    alone reads the shape estimate ``g_eval``, and needs it.
    """
    if kind not in _CURVE_ERRORS:
        raise DomainError(f"unknown curve kind {kind!r}")
    shape = ()
    if kind == "lpp":
        if g_eval is None:
            raise DomainError("lpp curves need a shape estimate g_eval")
        shape = (g_eval,)
    elif g_eval is not None:
        raise DomainError(f"{kind} curves read no g_eval")
    out = []
    for n in config.n_list:
        errs = _CURVE_ERRORS[kind](config, n, spike, *shape)
        out.append((n, float(np.mean(errs)), float(np.std(errs, ddof=1) / math.sqrt(len(errs)))))
    return out


def _esm_errors(config, n, spike):
    if spike != 0.0:
        raise DomainError("esm curves compare with the semicircle, so they take spike 0 only")
    nodes = sm.default_contour().nodes
    target = sm.g_semicircle(nodes)

    def err(x):
        return float(np.max(np.abs(sm.stieltjes(x.esm(), nodes) - target)))

    return _wigner_replicas(config, n, err)


def _eig_errors(config, n, spike):
    target = ml.rho(spike)
    return _wigner_replicas(config, n, lambda x: abs(x.largest_eig() - target), spike)


def _poly_errors(config, n, spike):
    poly = NCPolynomial.word_power(1, 3)
    d = poly.total_degree
    limit = deterministic_equivalent_poly(poly, (ml.spike_matrix(n, spike),), n)

    def err(y):
        return abs(eval_trace(poly, (y,), normalize=True) - limit)

    return _wigner_replicas(config, n, err, n ** (1.0 / d) * spike)


def _lpp_errors(config, n, spike, g_eval):
    hvals = np.zeros((n + 1, n + 1))
    hvals[n, n] = spike
    h = lpp.WeightField(n, hvals)
    t_det = lpp.deterministic_equivalent_T(h, g_eval)
    times = lpp.passage_times(
        config.alpha, [hvals.shape], config.replicas, config.seed, shift=n * hvals
    )[0]
    return np.abs(times / n - t_det)


_CURVE_ERRORS = {"esm": _esm_errors, "eig": _eig_errors, "poly": _poly_errors, "lpp": _lpp_errors}


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
    boxes = [(n + 1, n + 1) for n in n_arr.astype(int)]
    means = (lpp.passage_times(alpha, boxes, replicas, seed) / n_arr[:, None]).mean(axis=1)
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
    boxes = [(n + 1, n + 1) for n in config.n_list]
    times = lpp.passage_times(config.alpha, boxes, config.replicas, config.seed)
    rows = []
    for n, row in zip(config.n_list, times):
        hits = int(np.sum(row / n > x))
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


# ------------------------------------------------------------------ emission

# a row zipped with its fields is a record; the audit's and the tail's last
# field is a per-run scalar (c_hat, g11_hat) repeated on every row
AUDIT_FIELDS = ("t", "exceedance", "bound", "c_hat")
CURVE_FIELDS = ("n", "mean_error", "stderr")
TAIL_FIELDS = ("n", "p_hat", "estimate", "ci_lo", "ci_hi", "hits", "g11_hat")


def emit_jsonl(config: ExperimentConfig, fields, rows) -> str:
    """`jsonl_text` of one record per row; every record carries its seed and config hash."""
    stamp = {"seed": config.seed, "config_hash": config.config_hash()}
    records = ({**stamp, **dict(zip(fields, row, strict=True))} for row in rows)
    return jsonl_text(asdict(config), records)


def _audit_rows(config: ExperimentConfig):
    rows, c_hat = concentration_audit(config)
    return [(*row, c_hat) for row in rows]


def audit_outputs(config: ExperimentConfig) -> tuple[str, str]:
    """The audit's JSON-lines records and its CSV summary, which leaves out c_hat."""
    rows = _audit_rows(config)
    summary = csv_text(asdict(config), AUDIT_FIELDS[:-1], [row[:-1] for row in rows])
    return emit_jsonl(config, AUDIT_FIELDS, rows), summary


def _tail_trend_rows(config: ExperimentConfig):
    # limit reference from a stable extrapolation: two extra doublings
    # beyond the largest tail size (the shorter fit has ~2 units of
    # seed-to-seed spread, enough to flip the diagnostic)
    sizes = config.n_list + (2 * max(config.n_list), 4 * max(config.n_list))
    g_hat, _ = estimate_g_limit(config.alpha, sizes, 3000, config.seed + 1)
    return [(*row, g_hat) for row in tail_rate(config, g_hat + 1.0)]


def _lpp_curve_rows(config: ExperimentConfig):
    # the limit shape the curve compares with, estimated when the preset runs
    shape = lpp.CachedShape(
        config.alpha, n_mc=40, replicas=300, seed=config.seed + 7, grid_points=5
    )
    return equivalent_error_curve("lpp", config, spike=3.0, g_eval=shape)


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
    "eig-error-curve": ExperimentConfig(
        functional="largest_eig",
        alpha=1.0,
        n_list=(100, 300, 1000),
        replicas=100,
        seed=1002,
    ),
    "poly-error-curve": ExperimentConfig(
        functional="trace_poly",
        alpha=1.0,
        n_list=(50, 150, 500),
        replicas=100,
        seed=1002,
        d=3,
    ),
    "lpp-error-curve": ExperimentConfig(
        functional="lpp_time",
        alpha=0.5,
        n_list=(10, 20, 40),
        replicas=100,
        seed=1002,
    ),
}

# each preset's record fields and rows builder.  `run_preset` reads the config
# from PRESETS and the builders look this module's functions up when they run,
# so a config swapped into PRESETS or a wrapper set on the module takes effect
_PRESET_OUTPUTS = {
    "eig-concentration-small": (AUDIT_FIELDS, _audit_rows),
    "esm-error-curve": (CURVE_FIELDS, lambda c: equivalent_error_curve("esm", c, spike=0.0)),
    "lpp-tail-trend": (TAIL_FIELDS, _tail_trend_rows),
    "eig-error-curve": (CURVE_FIELDS, lambda c: equivalent_error_curve("eig", c, spike=2.0)),
    "poly-error-curve": (CURVE_FIELDS, lambda c: equivalent_error_curve("poly", c, spike=1.0)),
    "lpp-error-curve": (CURVE_FIELDS, _lpp_curve_rows),
}


def run_preset(name: str) -> str:
    """A shipped preset's JSON-lines output, its rows built on one BLAS thread."""
    if name not in PRESETS:
        raise DomainError(f"unknown preset {name!r}; known: {sorted(PRESETS)}")
    config = PRESETS[name]
    fields, build_rows = _PRESET_OUTPUTS[name]
    with openblas.single_threaded():
        return emit_jsonl(config, fields, build_rows(config))
