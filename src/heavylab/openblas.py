"""numpy's bundled OpenBLAS, called through ctypes.

numpy wheels link one OpenBLAS build, ``libscipy_openblas64_`` (64-bit
integers, symbols prefixed ``scipy_``), but expose neither its thread count
nor an eigensolve that releases the interpreter lock.  This module finds
that library on first use and offers:

- `single_threaded` pins the BLAS to one thread for the duration of a block
  and restores the previous count after it.  The setting is process-global:
  any BLAS work of the process runs single-threaded while the block is open.
- `eigvalsh` makes the call `np.linalg.eigvalsh` makes (``dsyevd`` or
  ``zheevd``, eigenvalues only, lower triangle, the queried workspace), so
  its eigenvalues equal numpy's bit for bit.
- `largest_eigvalsh` asks ``dsyevr`` or ``zheevr`` for the top eigenvalue
  alone (index n of n, eigenvalues only, lower triangle, absolute tolerance
  0): the reduction to tridiagonal form, then bisection for one eigenvalue
  instead of the whole spectrum.  It agrees with ``eigvalsh(a)[-1]`` to
  rounding, not bit for bit.

The routines overwrite the Fortran-order array they are given, so each
solve runs on a Fortran-order copy, unless its caller passes
``overwrite_a=True`` for a matrix it no longer needs, as the spectral
replica loop and CLI ``spectrum`` do.  A writable C-order array is then
solved as it lies: read in Fortran order it is the transpose, which for an
exactly self-adjoint matrix is the matrix itself (real) or its conjugate
(complex), whose eigenvalues the solvers return bit for bit (tested up to
n = 1000).

ctypes releases the interpreter lock for each solve, so eigensolves on
different threads run at the same time.  Both solves raise
`np.linalg.LinAlgError` on a NaN or infinite entry, when an eigenvalue
overflows and when the solver fails.

Where the library or one of its symbols is missing (another numpy build),
both solves are numpy's and `single_threaded` does nothing.
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
_DOUBLE_P = ctypes.POINTER(ctypes.c_double)
_PTR = ctypes.c_void_p
_CHAR = ctypes.c_char_p
# Per matrix dtype: the workspace dtypes (work, [rwork,] iwork) of both kinds of solve
_WORK = {
    np.dtype(float): (np.dtype(float), np.dtype(np.int64)),
    np.dtype(complex): (np.dtype(complex), np.dtype(float), np.dtype(np.int64)),
}
# Per kind of solve: its routine per matrix dtype, and the argument types before the workspaces
_ROUTINES = {
    # all eigenvalues: jobz, uplo, n, a, lda, w
    "evd": (
        {np.dtype(float): "scipy_dsyevd_64_", np.dtype(complex): "scipy_zheevd_64_"},
        [_CHAR, _CHAR, _INT_P, _PTR, _INT_P, _PTR],
    ),
    # a range of indices: jobz, range, uplo, n, a, lda, vl, vu, il, iu, abstol, m, w, z, ldz, isuppz
    "evr": (
        {np.dtype(float): "scipy_dsyevr_64_", np.dtype(complex): "scipy_zheevr_64_"},
        [_CHAR, _CHAR, _CHAR, _INT_P, _PTR, _INT_P, _DOUBLE_P, _DOUBLE_P, _INT_P, _INT_P,
         _DOUBLE_P, _INT_P, _PTR, _PTR, _INT_P, _PTR],
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
            for names, lead in _ROUTINES.values():
                for dtype, name in names.items():
                    solver = getattr(lib, name)
                    # the leading arguments, each workspace and its length, info,
                    # and the hidden length of each character argument
                    solver.argtypes = (
                        lead + [_PTR, _INT_P] * len(_WORK[dtype]) + [_INT_P]
                        + [ctypes.c_size_t] * lead.count(_CHAR)
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


def _solve(lib, kind: str, a: np.ndarray, lengths) -> tuple[int, np.ndarray, list[np.ndarray]]:
    """One call of the kind's routine on ``a``, an n x n Fortran-order array
    that it overwrites.

    Returns (info, eigenvalues, workspaces): all n eigenvalues for ``evd``,
    those found of the top one for ``evr``.  Lengths of -1 query the
    workspace sizes into each workspace's first entry, reading no entry of ``a``.
    """
    w = np.empty(a.shape[0])
    work = [np.empty(max(k, 1), dt) for k, dt in zip(lengths, _WORK[a.dtype])]
    dim, info = _INT(a.shape[0]), _INT(0)
    found = _INT(a.shape[0])  # evd finds all n; evr reports its count here
    names, lead = _ROUTINES[kind]
    if kind == "evd":
        args = [
            b"N", b"L", ctypes.byref(dim), a.ctypes.data, ctypes.byref(dim), w.ctypes.data,
        ]
    else:
        # vl, vu and abstol are 0 (the first two unread); il = iu = n; no
        # eigenvectors, so z and isuppz are placeholders and ldz is 1
        zero, one = ctypes.c_double(0.0), _INT(1)
        z, isuppz = np.empty(1, a.dtype), np.empty(2, np.int64)
        args = [
            b"N", b"I", b"L", ctypes.byref(dim), a.ctypes.data, ctypes.byref(dim),
            ctypes.byref(zero), ctypes.byref(zero), ctypes.byref(dim), ctypes.byref(dim),
            ctypes.byref(zero), ctypes.byref(found), w.ctypes.data, z.ctypes.data,
            ctypes.byref(one), isuppz.ctypes.data,
        ]
    for buf, k in zip(work, lengths):
        args += [buf.ctypes.data, ctypes.byref(_INT(k))]
    getattr(lib, names[a.dtype])(*args, ctypes.byref(info), *[1] * lead.count(_CHAR))
    return info.value, w[: found.value], work


@cache
def _lengths(kind: str, n: int, dtype: np.dtype) -> tuple[int, ...]:
    """The workspace lengths the kind's size query reports for n x n
    matrices of ``dtype``.  The query reads no entry, so one zero, broadcast,
    stands in for the matrix."""
    a = np.broadcast_to(np.zeros((), dtype), (n, n))
    _, _, work = _solve(_library(), kind, a, (-1,) * len(_WORK[dtype]))
    return tuple(int(buf[0].real) for buf in work)


def _native(kind: str, a: np.ndarray, overwrite_a: bool) -> np.ndarray | None:
    """The eigenvalues of ``a`` from the library, or None where numpy solves.

    Square float64 and complex128 matrices go to the library without the
    interpreter lock; other shapes and dtypes, an empty matrix or a missing
    library go to numpy.  With ``overwrite_a``, a writable C-order ``a`` is
    solved in place of a copy (see the module docstring).
    """
    lib = _library()
    square = a.ndim == 2 and a.shape[0] == a.shape[1] > 0
    if lib is None or not square or a.dtype not in _WORK:
        return None
    if overwrite_a and a.flags.c_contiguous and a.flags.writeable:
        f = a.T
    else:
        f = np.array(a, order="F")
    info, w, _ = _solve(lib, kind, f, _lengths(kind, a.shape[0], a.dtype))
    if info != 0 or w.size == 0:
        raise np.linalg.LinAlgError("Eigenvalues did not converge")
    return w


def _finite(x: np.ndarray, what: str) -> np.ndarray:
    """``x``, once every entry of it is known to be finite."""
    if not np.isfinite(x).all():
        raise np.linalg.LinAlgError(f"{what} not finite")
    return x


def eigvalsh(a: np.ndarray, overwrite_a: bool = False) -> np.ndarray:
    """Ascending eigenvalues of a self-adjoint matrix from its lower triangle.

    Equal to ``np.linalg.eigvalsh(a)`` bit for bit (``dsyevd``/``zheevd``);
    raises `np.linalg.LinAlgError` where an entry or eigenvalue is not finite.
    ``overwrite_a=True`` lets the solve overwrite ``a``, which must then be
    exactly self-adjoint: a C-order array is read from its upper triangle.
    """
    w = _native("evd", _finite(a, "Matrix entries are"), overwrite_a)
    return _finite(np.linalg.eigvalsh(a) if w is None else w, "Eigenvalues are")


def largest_eigvalsh(a: np.ndarray, overwrite_a: bool = False) -> float:
    """Largest eigenvalue of a self-adjoint matrix from its lower triangle.

    Solved alone (``dsyevr``/``zheevr``, index n of n), so it agrees with
    ``np.linalg.eigvalsh(a)[-1]`` to rounding, not bit for bit; where numpy
    solves, it is that value.  Raises `np.linalg.LinAlgError` where an
    entry or the eigenvalue is not finite.  ``overwrite_a`` is as for
    `eigvalsh`.
    """
    w = _native("evr", _finite(a, "Matrix entries are"), overwrite_a)
    return float(_finite(np.linalg.eigvalsh(a)[-1:] if w is None else w, "Eigenvalues are")[0])
