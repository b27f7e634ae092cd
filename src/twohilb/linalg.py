"""Small dense-matrix helpers used throughout the package.

Everything works on complex128 arrays and uses absolute tolerances; the
default tolerance is 1e-9 as everywhere else in the library.
"""
from __future__ import annotations

import numpy as np

DEFAULT_TOL = 1e-9


def as_complex(a) -> np.ndarray:
    return np.asarray(a, dtype=np.complex128)


def dagger(a: np.ndarray) -> np.ndarray:
    return a.conj().T


def max_abs(a) -> float:
    a = np.asarray(a)
    return 0.0 if a.size == 0 else float(np.max(np.abs(a)))


def max_dev(a, b) -> float:
    """Largest entrywise deviation between two arrays of equal shape."""
    return max_abs(np.asarray(a) - np.asarray(b))


def is_unitary(a: np.ndarray, tol: float = DEFAULT_TOL) -> bool:
    if a.shape[0] != a.shape[1]:
        return False
    eye = np.eye(a.shape[0])
    return max_dev(a @ dagger(a), eye) <= tol and max_dev(dagger(a) @ a, eye) <= tol


def sqrtm_psd(a: np.ndarray) -> np.ndarray:
    """Positive square root of a positive semidefinite Hermitian matrix."""
    w, v = np.linalg.eigh((a + dagger(a)) / 2.0)
    w = np.clip(w, 0.0, None)
    return (v * np.sqrt(w)) @ dagger(v)


def nearest_unitary(a: np.ndarray) -> np.ndarray:
    """Unitary polar factor of a square matrix (via SVD)."""
    u, _, vh = np.linalg.svd(a)
    return u @ vh


def distance_to_unitary(a: np.ndarray) -> float:
    """Entrywise distance from a square matrix to its unitary polar factor."""
    if a.shape[0] != a.shape[1]:
        return float("inf")
    if a.size == 0:
        return 0.0
    return max_dev(a, nearest_unitary(a))


def block_diag(mats) -> np.ndarray:
    """The complex block-diagonal matrix of (possibly rectangular or empty) blocks."""
    out = np.zeros((sum(m.shape[0] for m in mats), sum(m.shape[1] for m in mats)),
                   dtype=np.complex128)
    r = c = 0
    for m in mats:
        out[r:r + m.shape[0], c:c + m.shape[1]] = m
        r += m.shape[0]
        c += m.shape[1]
    return out


def cluster_indices(vals: np.ndarray, gap: float) -> list[list[int]]:
    """Index runs of ascending values, split where neighbours differ by more than ``gap``."""
    clusters = [[0]]
    for idx in range(1, len(vals)):
        if vals[idx] - vals[clusters[-1][-1]] <= gap:
            clusters[-1].append(idx)
        else:
            clusters.append([idx])
    return clusters


def range_complement_basis(a: np.ndarray, tol: float = DEFAULT_TOL):
    """Orthonormal bases (range, complement) of the column space of ``a``.

    Returns a pair of matrices whose columns are orthonormal and together
    span the full target space.
    """
    rows = a.shape[0]
    if a.size == 0:
        return np.zeros((rows, 0), dtype=np.complex128), np.eye(rows, dtype=np.complex128)
    u, s, _ = np.linalg.svd(a, full_matrices=True)
    cutoff = max(tol, tol * (s[0] if s.size else 0.0))
    rank = int(np.sum(s > cutoff))
    return u[:, :rank], u[:, rank:]


def matrix_rank(a: np.ndarray, tol: float = DEFAULT_TOL) -> int:
    if a.size == 0:
        return 0
    s = np.linalg.svd(a, compute_uv=False)
    cutoff = max(tol, tol * s[0])
    return int(np.sum(s > cutoff))


def nullspace_basis(a: np.ndarray, tol: float = DEFAULT_TOL) -> np.ndarray:
    """Orthonormal basis (columns) of the right nullspace of ``a``."""
    cols = a.shape[1]
    if a.size == 0:
        return np.eye(cols, dtype=np.complex128)
    # with at least as many rows as columns, the thin SVD already holds every
    # right singular vector
    _, s, vh = np.linalg.svd(a, full_matrices=a.shape[0] < cols)
    cutoff = max(tol, tol * (s[0] if s.size else 0.0))
    rank = int(np.sum(s > cutoff))
    return dagger(vh[rank:, :])


def random_complex(rng: np.random.Generator, shape) -> np.ndarray:
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def random_unitary(rng: np.random.Generator, n: int) -> np.ndarray:
    q, r = np.linalg.qr(random_complex(rng, (n, n)))
    return q * (np.diag(r) / np.abs(np.diag(r)))


def random_hermitian(rng: np.random.Generator, n: int) -> np.ndarray:
    a = random_complex(rng, (n, n))
    return (a + dagger(a)) / 2.0

