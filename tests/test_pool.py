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
    got = ex._wigner_replicas(cfg, 12, ml.HermitianMatrix.largest_eig)  # pin is a no-op
    assert np.array_equal(got, serial_replicas(cfg, 12, ml.HermitianMatrix.largest_eig))


# ----------------------------------------------------------------- the pool


@pytest.mark.parametrize("workers", [1, 2, 3])
@pytest.mark.parametrize("beta", [1, 2])
def test_spectral_pool_equals_serial_loop(monkeypatch, workers, beta):
    n = 12
    monkeypatch.setattr(pool, "_WORKERS", workers)
    # room for 7 replicas: chunks of at most 7, 3 or 2, which split 23 unevenly
    monkeypatch.setattr(pool, "_CELL_BUDGET", 7 * ml._replica_cells(n, beta))
    assert pool.plan(ml._replica_cells(n, beta)) == (workers, 7 // workers)
    cfg = spectral_config(beta=beta)
    nodes = sm.default_contour().nodes
    functionals = (ml.HermitianMatrix.largest_eig, lambda x: sm.stieltjes(x.esm(), nodes))
    interval = sys.getswitchinterval()
    for fn in functionals:
        for spike in (0.0, 2.0):
            sys.setswitchinterval(1e-6)  # hand the interpreter lock between chunks often
            try:
                got = ex._wigner_replicas(cfg, n, fn, spike)
            finally:
                sys.setswitchinterval(interval)
            assert np.array_equal(got, serial_replicas(cfg, n, fn, spike))


def test_spectral_pool_cancels_chunks_after_a_failure(monkeypatch):
    monkeypatch.setattr(pool, "_WORKERS", 2)
    monkeypatch.setattr(pool, "_CELL_BUDGET", 2 * ml._replica_cells(5, 1))  # one replica per chunk
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
        ex._wigner_replicas(spectral_config(replicas=40), 5, ml.HermitianMatrix.largest_eig)
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
    assert pool.plan(ml._replica_cells(1000, 1))[0] == 1
    assert pool.plan(ml._replica_cells(650, 2))[0] == 1
    monkeypatch.setattr(pool, "_WORKERS", 2)
    assert pool.plan(ml._replica_cells(200, 1)) == (2, 20)


@pytest.mark.parametrize("beta, n", [(1, 600), (2, 300)])
def test_replica_cells_match_a_replicas_measured_peak(beta, n):
    # from n = 600 (beta = 1) the sampler's 2^16-draw map blocks no longer
    # hold whole draw blocks; below that the budget never binds
    ens = ml.unit_variance_ensemble(1.0, beta=beta)

    def one_replica(stream):
        mat = ml._wigner_array(ens, n, 9, stream)
        np.divide(mat, math.sqrt(n), out=mat)
        ml.HermitianMatrix._wrap(mat).largest_eig()

    one_replica(0)  # the map, the mask and the workspace sizes are cached outside the trace
    tracemalloc.start()
    try:
        one_replica(1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert 0.75 <= peak / (8 * ml._replica_cells(n, beta)) <= 1.01
