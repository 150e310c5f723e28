"""The replica pool, its BLAS pin, and the ctypes eigensolvers the spectral replicas use."""

import glob
import math
import os
import sys
import threading
import time
import tracemalloc

import numpy as np
import pytest

from heavylab import experiments as ex
from heavylab import matrixlab as ml
from heavylab import openblas, pool
from heavylab import specmeasures as sm
from heavylab.errors import DomainError

BUNDLED = glob.glob(
    os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs", "libscipy_openblas64_*.so")
)
needs_library = pytest.mark.skipif(not BUNDLED, reason="numpy without its bundled OpenBLAS")


def blas_threads():
    return openblas._library().scipy_openblas_get_num_threads64_()


def serial_replicas(config, n, fn, corner=0.0):
    """The spectral loop before the pool: one replica after another (oracle)."""
    ens = ml.unit_variance_ensemble(config.alpha, beta=config.beta)
    out = []
    for stream in range(config.replicas):
        mat = ml.sample_wigner(ens, n, config.seed, stream=stream).mat / math.sqrt(n)
        mat[0, 0] += corner
        out.append(fn(ml.HermitianMatrix._wrap(mat)))
    return np.array(out)


def spectral_config(**kw):
    base = dict(functional="largest_eig", alpha=1.0, n_list=(12,), replicas=23, seed=41)
    base.update(kw)
    return ex.ExperimentConfig(**base)


# ---------------------------------------------------------------- eigensolver


def hermitian_pair(n):
    gen = np.random.default_rng(n)
    x = gen.standard_normal((n, n))
    real = x + x.T
    y = gen.standard_normal((n, n))
    return real, real + 1j * (y - y.T)


@needs_library
def test_library_is_numpys_bundled_openblas():
    assert openblas._library() is not None


@pytest.mark.parametrize("n", [1, 2, 7, 50, 200])
def test_eigvalsh_equals_numpy(n):
    ens = ml.unit_variance_ensemble(0.8, beta=2)
    heavy = ml.sample_wigner(ens, n, seed=5).mat
    for a in hermitian_pair(n) + (heavy, heavy.real.copy()):
        assert np.array_equal(openblas.eigvalsh(a), np.linalg.eigvalsh(a))


@pytest.mark.parametrize("beta", [1, 2])
@pytest.mark.parametrize("alpha", [0.3, 0.5, 1.0, 2.0])
def test_largest_eigvalsh_agrees_with_numpy_to_rounding(alpha, beta):
    # the top eigenvalue alone is not numpy's to the bit: within 128 units
    # of rounding of the spectral norm, a bound fixed before measuring
    ens = ml.unit_variance_ensemble(alpha, beta=beta)
    for n in (1, 2, 3, 8, 33, 200, 400):
        for stream in (0, 1):
            a = ml.sample_wigner(ens, n, seed=13, stream=stream).mat
            w = np.linalg.eigvalsh(a)
            bound = 128 * np.finfo(float).eps * max(-w[0], w[-1])
            assert abs(openblas.largest_eigvalsh(a) - w[-1]) <= bound


def test_largest_eigvalsh_exact_cases():
    for dtype in (float, complex):
        assert openblas.largest_eigvalsh(np.array([[-2.75]], dtype)) == -2.75
        for n in (1, 5, 40):
            assert openblas.largest_eigvalsh(np.eye(n, dtype=dtype)) == 1.0
            assert openblas.largest_eigvalsh(np.zeros((n, n), dtype)) == 0.0


@pytest.mark.parametrize("beta", [1, 2])
@pytest.mark.parametrize("n", [1, 2, 3, 17, 200, 1000])
def test_in_place_solves_equal_copying_solves(n, beta):
    # read in Fortran order, a C-order self-adjoint array is its transpose:
    # the matrix itself (beta = 1) or its conjugate (beta = 2), whose
    # eigenvalues the solvers return bit for bit
    ens = ml.unit_variance_ensemble(1.0, beta=beta)
    for stream in range(1 if n == 1000 else 3):
        a = ml._wigner_array(ens, n, 23, stream)
        np.divide(a, math.sqrt(n), out=a)
        a[0, 0] += 2.0  # the spiked replicas of the eig curve
        for solve in (openblas.eigvalsh, openblas.largest_eigvalsh):
            mine = a.copy()
            assert np.array_equal(solve(mine, overwrite_a=True), solve(a))
            if n >= 3:  # a Householder vector overwrote the array
                assert not np.array_equal(mine, a)


def test_overwrite_a_copies_what_it_may_not_overwrite():
    x = ml.sample_wigner(ml.unit_variance_ensemble(1.0, beta=2), 9, seed=4)
    want = np.linalg.eigvalsh(x.mat)
    fortran = np.asfortranarray(x.mat)
    for a in (x.mat, fortran, x.mat[::2, ::2]):
        before = a.copy()
        for solve in (openblas.eigvalsh, openblas.largest_eigvalsh):
            solve(a, overwrite_a=True)
            assert np.array_equal(a, before)
    assert np.array_equal(openblas.eigvalsh(fortran, overwrite_a=True), want)


def test_other_inputs_take_the_numpy_path(monkeypatch):
    eigvalsh, shapes = np.linalg.eigvalsh, []
    monkeypatch.setattr(np.linalg, "eigvalsh", lambda a: shapes.append(a.shape) or eigvalsh(a))
    single = np.diag([1.0, 3.0, 2.0]).astype(np.float32)
    assert np.array_equal(openblas.eigvalsh(single), eigvalsh(single))
    assert openblas.largest_eigvalsh(single) == 3.0
    empty = np.empty((0, 0))
    assert openblas.eigvalsh(empty).shape == (0,)
    with pytest.raises(IndexError):
        openblas.largest_eigvalsh(empty)
    for solve in (openblas.eigvalsh, openblas.largest_eigvalsh):
        with pytest.raises(np.linalg.LinAlgError):
            solve(np.ones((2, 3)))
    assert shapes == [(3, 3)] * 2 + [(0, 0)] * 2 + [(2, 3)] * 2


@pytest.mark.parametrize("beta", [1, 2])
@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_non_finite_entries_raise(bad, beta):
    dtype = float if beta == 1 else complex
    cases = []
    for i, j in ((1, 1), (2, 1)):
        a = np.eye(4, dtype=dtype)
        a[i, j] = a[j, i] = bad
        cases.append(a)
    # dsyevd/zheevd return finite eigenvalues for a NaN on this diagonal,
    # and every solver reads only the real part of a complex diagonal
    cases.append(np.array([[bad, 1.0], [1.0, 2.0]], dtype))
    if beta == 2:
        cases.append(np.diag([complex(1.0, bad), 2.0]))
    for a in cases:
        for solve in (openblas.eigvalsh, openblas.largest_eigvalsh):
            with pytest.raises(np.linalg.LinAlgError):
                solve(a)


def test_missing_library_falls_back_to_numpy(monkeypatch):
    monkeypatch.setattr(openblas, "_library", lambda: None)
    for a in hermitian_pair(30):
        assert np.array_equal(openblas.eigvalsh(a), np.linalg.eigvalsh(a))
        assert openblas.largest_eigvalsh(a) == np.linalg.eigvalsh(a)[-1]
        a[2, 1] = a[1, 2] = math.inf
        nan_diagonal = np.array([[math.nan, 1.0], [1.0, 2.0]], a.dtype)
        for solve in (openblas.eigvalsh, openblas.largest_eigvalsh):
            for bad in (a, nan_diagonal):
                with pytest.raises(np.linalg.LinAlgError):
                    solve(bad)
    monkeypatch.setattr(pool, "_WORKERS", 2)
    cfg = spectral_config()
    got = ex._wigner_replicas(cfg, 12, ex._top_eig)  # pin is a no-op
    assert np.array_equal(got, serial_replicas(cfg, 12, ml.HermitianMatrix.largest_eig))


# ----------------------------------------------------------------- the pool


@pytest.mark.parametrize("workers", [1, 2, 3])
@pytest.mark.parametrize("beta", [1, 2])
def test_spectral_pool_equals_serial_loop(monkeypatch, workers, beta):
    n = 12
    monkeypatch.setattr(pool, "_WORKERS", workers)
    # room for 7 replicas: chunks of at most 7, 3 or 2, which split 23 unevenly
    monkeypatch.setattr(pool, "_CELL_BUDGET", 7 * ml._pooled_cells(n, beta))
    assert pool.plan(ml._pooled_cells(n, beta)) == (workers, 7 // workers)
    cfg = spectral_config(beta=beta)
    nodes = sm.default_contour().nodes
    # the pool's functionals solve each replica's own array; the serial
    # loop's solve copies of read-only matrices
    functionals = (
        (ex._top_eig, ml.HermitianMatrix.largest_eig),
        (lambda mat: sm.stieltjes(ex._esm(mat), nodes), lambda x: sm.stieltjes(x.esm(), nodes)),
    )
    interval = sys.getswitchinterval()
    for fn, serial_fn in functionals:
        for spike in (0.0, 2.0):
            sys.setswitchinterval(1e-6)  # hand the interpreter lock between chunks often
            try:
                got = ex._wigner_replicas(cfg, n, fn, spike)
            finally:
                sys.setswitchinterval(interval)
            assert np.array_equal(got, serial_replicas(cfg, n, serial_fn, spike))


def test_spectral_pool_cancels_chunks_after_a_failure(monkeypatch):
    monkeypatch.setattr(pool, "_WORKERS", 2)
    monkeypatch.setattr(pool, "_CELL_BUDGET", 2 * ml._pooled_cells(5, 1))  # one replica per chunk
    build = ml._wigner_array
    starts = []

    def failing_build(ens, n, seed, stream):
        starts.append(stream)  # list.append is atomic
        if stream == 2:
            raise DomainError("third replica")
        time.sleep(0.01)  # the caller sees the failure before the other worker ends
        return build(ens, n, seed, stream)

    monkeypatch.setattr(ml, "_wigner_array", failing_build)
    with pytest.raises(DomainError, match="third replica"):
        ex._wigner_replicas(spectral_config(replicas=40), 5, ex._top_eig)
    assert 2 in starts
    assert len(starts) < 40


@needs_library
def test_pool_pins_the_blas_and_restores_it(monkeypatch):
    monkeypatch.setattr(pool, "_WORKERS", 2)
    lib = openblas._library()
    old = blas_threads()
    lib.scipy_openblas_set_num_threads64_(2)
    try:
        seen = []
        pool.run(lambda streams: seen.append(blas_threads()), 10, footprint=1)
        assert seen == [1, 1]  # two chunks of five, one per thread
        assert blas_threads() == 2

        def failing(streams):
            seen.append(blas_threads())
            raise RuntimeError("chunk failed")

        with pytest.raises(RuntimeError, match="chunk failed"):
            pool.run(failing, 10, footprint=1)
        assert seen[-1] == 1
        assert blas_threads() == 2
        # one thread: the chunks run on the caller's thread, the BLAS as it was
        monkeypatch.setattr(pool, "_WORKERS", 1)
        pool.run(lambda streams: seen.append((blas_threads(), threading.get_ident())), 10, 1)
        assert seen[-1] == (2, threading.get_ident())
    finally:
        lib.scipy_openblas_set_num_threads64_(old)


def test_chunks_share_a_job_evenly_between_the_threads(monkeypatch):
    monkeypatch.setattr(pool, "_WORKERS", 2)
    seen = []
    pool.run(seen.append, 12000, 2 * 11 * 11)  # an 11 x 11 box: 8665 replicas fit a chunk
    assert sorted((r.start, r.stop) for r in seen) == [(0, 6000), (6000, 12000)]
    seen.clear()
    pool.run(seen.append, 0, 2 * 11 * 11)
    assert seen == []


def test_calls_share_their_threads_and_wait_for_every_chunk(monkeypatch):
    monkeypatch.setattr(pool, "_WORKERS", 2)
    threads, running = [], []

    def chunk(streams):
        threads.append(threading.current_thread())  # list.append is atomic
        running.append(streams)
        time.sleep(0.01)
        if streams.start == 0:
            raise RuntimeError("first chunk")
        running.remove(streams)

    for _ in range(3):
        with pytest.raises(RuntimeError, match="first chunk"):
            pool.run(chunk, 10, footprint=1)  # two chunks of five
        assert running == [range(0, 5)]  # the other chunk ended before run did
        running.clear()
    assert len({id(t) for t in threads}) <= 2
    assert all(t.is_alive() for t in threads)


def test_large_matrices_run_on_one_worker(monkeypatch):
    monkeypatch.setattr(pool, "_WORKERS", 64)
    assert pool.plan(ml._pooled_cells(1000, 1))[0] == 1
    assert pool.plan(ml._pooled_cells(650, 2))[0] == 1
    monkeypatch.setattr(pool, "_WORKERS", 2)
    assert pool.plan(ml._pooled_cells(200, 1)) == (2, 20)


def traced_peak(n, beta):
    """Bytes tracemalloc traces at most while one replica is built and solved in place."""
    ens = ml.unit_variance_ensemble(1.0, beta=beta)

    def one_replica(stream):
        mat = ml._wigner_array(ens, n, 9, stream)
        np.divide(mat, math.sqrt(n), out=mat)
        ex._top_eig(mat)

    one_replica(0)  # the mask and the workspace sizes are cached outside the trace
    tracemalloc.start()
    try:
        one_replica(1)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("beta, n", [(1, 600), (2, 300), (1, 1000), (2, 1000)])
def test_replica_cells_match_a_replicas_measured_peak(beta, n):
    # the peak comes as the matrix is built from the draws; the solve that
    # follows holds the matrix and O(n) workspace.  Below these sizes the
    # O(n) terms (the diagonal's temporaries, the workspace) pass 1 % of
    # the count, where one replica is far below the pool's budget
    assert 0.75 <= traced_peak(n, beta) / (8 * ml._replica_cells(n, beta)) <= 1.01


@pytest.mark.parametrize("beta", [1, 2])
@pytest.mark.parametrize("n", [50, 200, 1000])
def test_pooled_cells_bound_a_replicas_measured_peak(n, beta):
    # the reserve of one matrix covers the solve's workspace at small n;
    # at alpha = 1, where every spectral preset and workload draws (other
    # alphas add up to five 2^16-draw map temporaries)
    assert traced_peak(n, beta) <= 8 * ml._pooled_cells(n, beta)


def test_pool_keeps_the_serial_thresholds_and_the_shipped_plans(monkeypatch):
    monkeypatch.setattr(pool, "_WORKERS", 64)
    for beta, first_serial in ((1, 916), (2, 648)):
        assert pool.plan(ml._pooled_cells(first_serial - 1, beta))[0] == 2
        assert pool.plan(ml._pooled_cells(first_serial, beta))[0] == 1
    # the matrix sizes of every preset, README audit line and workload,
    # all beta = 1, with the plans the pool made when each solve copied
    shipped = {
        2: {50: (2, 334), 100: (2, 83), 150: (2, 37), 200: (2, 20), 300: (2, 9), 500: (2, 3), 1000: (1, 1)},
        4: {50: (4, 167), 100: (4, 41), 150: (4, 18), 200: (4, 10), 300: (4, 4), 500: (4, 1), 1000: (1, 1)},
    }
    for workers, plans in shipped.items():
        monkeypatch.setattr(pool, "_WORKERS", workers)
        assert {n: pool.plan(ml._pooled_cells(n, 1)) for n in plans} == plans
