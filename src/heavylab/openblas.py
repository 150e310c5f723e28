"""numpy's bundled OpenBLAS, called through ctypes.

numpy wheels link one OpenBLAS build, ``libscipy_openblas64_`` (64-bit
integers, symbols prefixed ``scipy_``), but expose neither its thread count
nor an eigensolve that releases the interpreter lock.  This module finds
that library on first use and offers both:

- `single_threaded` pins the BLAS to one thread for the duration of a block
  and restores the previous count after it.  The setting is process-global:
  any BLAS work of the process runs single-threaded while the block is open.
- `eigvalsh` makes the call `np.linalg.eigvalsh` makes (``dsyevd`` or
  ``zheevd``, eigenvalues only, lower triangle, a Fortran-order copy and the
  queried workspace), so its eigenvalues equal numpy's bit for bit.  ctypes
  releases the interpreter lock for the call, so eigensolves on different
  threads run at the same time.

Where the library or one of its symbols is missing (another numpy build),
`eigvalsh` is numpy's and `single_threaded` does nothing.
"""

from __future__ import annotations

import ctypes
import glob
import os
from contextlib import contextmanager
from functools import cache

import numpy as np

_INT = ctypes.c_int64  # the library's integers
_INT_P = ctypes.POINTER(_INT)
_PTR = ctypes.c_void_p
# Per matrix dtype: the solver and its workspaces' dtypes (work, [rwork,] iwork)
_SOLVERS = {
    np.dtype(float): ("scipy_dsyevd_64_", (np.dtype(float), np.dtype(np.int64))),
    np.dtype(complex): (
        "scipy_zheevd_64_", (np.dtype(complex), np.dtype(float), np.dtype(np.int64))
    ),
}


@cache
def _library():
    """numpy's OpenBLAS with the symbols used here declared, or None."""
    pattern = os.path.join(
        os.path.dirname(np.__file__), os.pardir, "numpy.libs", "libscipy_openblas64_*.so"
    )
    for path in glob.glob(pattern):
        try:
            lib = ctypes.CDLL(path)  # the copy numpy loaded: the loader shares it
            lib.scipy_openblas_get_num_threads64_.argtypes = []
            lib.scipy_openblas_get_num_threads64_.restype = ctypes.c_int
            lib.scipy_openblas_set_num_threads64_.argtypes = [ctypes.c_int]
            lib.scipy_openblas_set_num_threads64_.restype = None
            for name, work in _SOLVERS.values():
                solver = getattr(lib, name)
                # jobz, uplo, n, a, lda, w, each workspace and its length, info,
                # and the hidden lengths of the two character arguments
                solver.argtypes = (
                    [ctypes.c_char_p, ctypes.c_char_p, _INT_P, _PTR, _INT_P, _PTR]
                    + [_PTR, _INT_P] * len(work)
                    + [_INT_P, ctypes.c_size_t, ctypes.c_size_t]
                )
                solver.restype = None
        except (OSError, AttributeError):
            continue
        return lib
    return None


@contextmanager
def single_threaded():
    """Run the block with the BLAS on one thread; restore the old count after it."""
    lib = _library()
    if lib is None:
        yield
        return
    old = lib.scipy_openblas_get_num_threads64_()
    lib.scipy_openblas_set_num_threads64_(1)
    try:
        yield
    finally:
        lib.scipy_openblas_set_num_threads64_(old)


# Per (n, dtype): the workspace lengths the solver's size query reports
_LENGTHS: dict[tuple[int, np.dtype], tuple[int, ...]] = {}


def _solve(lib, a: np.ndarray, lengths) -> tuple[int, np.ndarray, list[np.ndarray]]:
    """One ``?syevd``/``?heevd`` call on a Fortran-order copy of ``a``.

    Returns (info, eigenvalues, workspaces).  Lengths of -1 query the
    workspace sizes into each workspace's first entry.
    """
    fortran = np.array(a, order="F")  # the solver overwrites it
    w = np.empty(a.shape[0])
    work = [np.empty(max(k, 1), dt) for k, dt in zip(lengths, _SOLVERS[a.dtype][1])]
    args = []
    for buf, k in zip(work, lengths):
        args += [buf.ctypes.data, ctypes.byref(_INT(k))]
    dim, info = _INT(a.shape[0]), _INT(0)
    getattr(lib, _SOLVERS[a.dtype][0])(
        b"N", b"L", ctypes.byref(dim), fortran.ctypes.data, ctypes.byref(dim),
        w.ctypes.data, *args, ctypes.byref(info), 1, 1,
    )
    return info.value, w, work


def eigvalsh(a: np.ndarray) -> np.ndarray:
    """Ascending eigenvalues of a self-adjoint matrix from its lower triangle.

    Equal to ``np.linalg.eigvalsh(a)`` bit for bit.  Square float64 and
    complex128 matrices go to the library without the interpreter lock;
    other shapes and dtypes, an empty matrix or a missing library go to numpy.
    """
    lib = _library()
    square = a.ndim == 2 and a.shape[0] == a.shape[1] > 0
    if lib is None or not square or a.dtype not in _SOLVERS:
        return np.linalg.eigvalsh(a)
    key = a.shape[0], a.dtype
    if key not in _LENGTHS:
        _, _, work = _solve(lib, a, (-1,) * len(_SOLVERS[a.dtype][1]))
        _LENGTHS[key] = tuple(int(buf[0].real) for buf in work)
    info, w, _ = _solve(lib, a, _LENGTHS[key])
    if info != 0:
        raise np.linalg.LinAlgError("Eigenvalues did not converge")
    return w
