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
    """Largest absolute entry; 0.0 for an empty array."""
    return float(np.abs(a).max(initial=0.0))


def max_dev(a, b) -> float:
    """Largest entrywise deviation between two arrays of equal shape."""
    return max_abs(np.asarray(a) - np.asarray(b))


def read_only(a: np.ndarray) -> np.ndarray:
    """The array itself, made read-only: for values that every caller shares."""
    a.flags.writeable = False
    return a


def kron(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """np.kron of the last two axes, over broadcast leading axes: for two
    matrices the same products as np.kron, without its per-call set-up."""
    out = a[..., :, None, :, None] * b[..., None, :, None, :]
    return out.reshape(out.shape[:-4] + (a.shape[-2] * b.shape[-2],
                                         a.shape[-1] * b.shape[-1]))


def nearest_unitary(a: np.ndarray) -> np.ndarray:
    """Unitary polar factor of a square matrix (via SVD)."""
    u, _, vh = np.linalg.svd(a)
    return u @ vh


def distance_to_unitary(a: np.ndarray) -> float:
    """Entrywise distance from a square matrix to its unitary polar factor."""
    return max_dev(a, nearest_unitary(a))


def swap_matrix(d_left: int, d_right: int) -> np.ndarray:
    """The swap a (x) b -> b (x) a: column (i, j) has its one in row (j, i)."""
    n = d_left * d_right
    cols = np.arange(n)
    mat = np.zeros((n, n), dtype=np.complex128)
    mat[(cols % d_right) * d_left + cols // d_right, cols] = 1.0
    return mat


def block_diag(mats) -> np.ndarray:
    """The complex block-diagonal matrix of (possibly rectangular or empty)
    blocks in the last two axes, over the leading axes they share: a stack of
    blocks gives the stack of block-diagonal matrices."""
    lead = mats[0].shape[:-2] if mats else ()
    out = np.zeros(lead + (sum(m.shape[-2] for m in mats), sum(m.shape[-1] for m in mats)),
                   dtype=np.complex128)
    r = c = 0
    for m in mats:
        out[..., r:r + m.shape[-2], c:c + m.shape[-1]] = m
        r += m.shape[-2]
        c += m.shape[-1]
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


def random_complex(rng: np.random.Generator, shape) -> np.ndarray:
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def random_unitary(rng: np.random.Generator, n: int) -> np.ndarray:
    q, r = np.linalg.qr(random_complex(rng, (n, n)))
    return q * (np.diag(r) / np.abs(np.diag(r)))
