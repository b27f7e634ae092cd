"""Concrete H*-algebras given by structure constants, and their ideal decomposition.

An algebra is presented on an orthonormal basis: a complex 3-tensor of
structure constants, the coordinates of the unit, and the antilinear star
action.  Every such algebra splits into minimal two-sided ideals, each a
full matrix algebra with a rescaled trace inner product.  The decomposition
takes one ``eigh`` of left multiplication by a random self-adjoint element
y: on an ideal M_d, L(y) repeats each eigenvalue of y's block d times, and
the unit's projection onto each eigenspace is a minimal projection.  For a
second random element r, q_a r q_b is nonzero exactly when the minimal
projections q_a and q_b lie in one ideal, which groups them into ideals and
links them into matrix units.

The axioms are checked on a generating set of basis vectors only (Light's
test): the elements c with (cx)y = c(xy) for all x and y are closed under
products, so once the generators satisfy it, every word in them does, and
the words span the algebra.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import ValidationError
from .linalg import (
    DEFAULT_TOL,
    as_complex,
    cluster_indices,
    dagger,
    max_abs,
    max_dev,
    random_complex,
)

# entries of the product table compared at once by validate and recomposition_dev (16 MB)
_BLOCK_ENTRIES = 1 << 20
# random draws tried by ambrose_decompose's split before it gives up
_ATTEMPTS = 40

__all__ = ["HStarAlgebraData", "block_model", "change_basis", "ambrose_decompose",
           "AmbroseIdeal", "AmbroseDecomposition"]


@dataclass(frozen=True)
class HStarAlgebraData:
    """Structure constants of a finite-dimensional H*-algebra on an orthonormal basis.

    ``table[i, j, k]`` is the k-th coordinate of the product of basis vectors
    i and j; ``star_matrix`` acts antilinearly via ``S @ conj(v)``.  The
    table is a read-only copy, so the generating set kept for it stays valid.
    """

    dim: int
    table: np.ndarray
    unit: np.ndarray
    star_matrix: np.ndarray

    def __post_init__(self):
        n = self.dim
        table = np.array(self.table, dtype=np.complex128).reshape(n, n, n)
        table.flags.writeable = False
        object.__setattr__(self, "table", table)
        object.__setattr__(self, "unit", as_complex(self.unit).reshape(n))
        object.__setattr__(self, "star_matrix", as_complex(self.star_matrix).reshape(n, n))

    @cached_property
    def generators(self) -> tuple[int, ...]:
        """Basis vectors whose words g1(g2(...gk)) span the algebra, found greedily.

        The first basis vector outside the span of the words so far joins,
        except that a left identity (e_i x = x for all x), which generates
        only itself, joins only when nothing else is left outside.  The span
        is closed under left multiplication by the generators,
        one word length per step: the new products are orthogonalized against
        the span, and the directions with singular values above DEFAULT_TOL
        join it; products whose Frobenius norm, a bound on every singular
        value, is at most DEFAULT_TOL add nothing and take no SVD.  The next
        products are taken of those directions at their own sizes, so a word
        that is rounding noise stays below the cut.  The span is not seeded
        with the unit, which is checked only after associativity.
        """
        n = self.dim
        t = self.table
        eye = np.eye(n)
        span = np.zeros((0, n), dtype=np.complex128)  # orthonormal rows
        gens = []
        while len(span) < n:
            residual = np.linalg.norm(eye - dagger(span) @ span, axis=1)
            # well outside, so that e_i is sure to pass the closure's cut
            outside = np.flatnonzero(residual > 1e3 * DEFAULT_TOL).tolist()
            i = next((j for j in outside if max_dev(t[j], eye) > DEFAULT_TOL), outside[0])
            gens.append(i)
            left = t[gens]  # new @ left[g] is e_g times each row of new
            new = np.vstack([eye[i], span @ t[i]])
            while len(new) and len(span) < n:
                for _ in range(2):  # orthogonalized twice, to working precision
                    new = new - (new @ dagger(span)) @ span
                if np.linalg.norm(new) <= DEFAULT_TOL:
                    break
                _, s, vh = np.linalg.svd(new, full_matrices=False)
                keep = s > DEFAULT_TOL
                span = np.vstack([span, vh[keep]])
                new = ((s[keep, None] * vh[keep]) @ left).reshape(-1, n)
        return tuple(gens)

    def mult(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        n = self.dim
        return b @ (a @ self.table.reshape(n, n * n)).reshape(n, n)

    def products(self, xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
        """Every product xs[a] ys[b] of two stacks of elements, indexed [a, b, :]."""
        n = self.dim
        return ys @ (xs @ self.table.reshape(n, n * n)).reshape(len(xs), n, n)

    def star(self, a: np.ndarray) -> np.ndarray:
        return self.star_matrix @ np.conj(a)

    def left_mult_matrix(self, a: np.ndarray) -> np.ndarray:
        n = self.dim
        return (a @ self.table.reshape(n, n * n)).reshape(n, n).T

    def inner(self, a: np.ndarray, b: np.ndarray) -> complex:
        return complex(np.vdot(a, b))

    def validate(self, tol: float = 1e-7) -> None:
        """Check associativity, the unit, the star axioms and the two product identities.

        Each identity is checked for e_i over the generating set only (Light's
        test).  The c with (cx)y = c(xy) for all x and y form a subspace closed
        under products, since ((c1 c2)x)y = c1((c2 x)y) = c1(c2(xy)) = (c1 c2)(xy),
        so associativity holds on the whole algebra once it holds on the
        generators.  Given associativity, the a with (ax)* = x* a* for all x,
        and those with L(a)^H = L(a*) or with R(a)^H = R(a*), are subspaces
        closed under products too.  Associativity costs two n x n^2 products
        per generator, O(|gens| n^4) time, compared in blocks of rows holding
        at most _BLOCK_ENTRIES entries, and the star identities O(|gens| n^3);
        no temporary is as large as the table.  A non-finite entry is refused
        first, and a failure reports the largest violation over the generators.
        """
        for name in ("table", "unit", "star_matrix"):
            finite = np.isfinite(getattr(self, name))
            if not finite.all():
                where = tuple(np.argwhere(~finite)[0].tolist())
                raise ValidationError(f"{name} has a non-finite entry at {where}")
        n = self.dim
        t = self.table
        gens = list(self.generators)
        step = max(1, _BLOCK_ENTRIES // (n * n))
        worst = 0.0
        for i in gens:
            for start in range(0, n, step):
                rows = slice(start, start + step)
                # rows j of slice i: (e_i e_j) e_k minus e_i (e_j e_k), indexed [j, k, l]
                assoc = t[i, rows] @ t.reshape(n, n * n)
                assoc -= (t[rows].reshape(-1, n) @ t[i]).reshape(-1, n * n)
                worst = max(worst, max_abs(assoc))
        if worst > tol:
            raise ValidationError(f"associativity fails (max violation {worst:.3e})",
                                  violation=worst)
        lu = np.tensordot(self.unit, t, axes=(0, 0))
        ru = self.unit @ t  # a contraction over t's middle axis, without a transposed copy
        worst = max(max_dev(lu, np.eye(n)), max_dev(ru, np.eye(n)))
        if worst > tol:
            raise ValidationError(f"unit fails (max violation {worst:.3e})", violation=worst)
        s = self.star_matrix
        worst = max_dev(s @ np.conj(s), np.eye(n))
        if worst > tol:
            raise ValidationError(f"star is not an involution (max violation {worst:.3e})",
                                  violation=worst)
        # for generators i: (e_i e_j)* against e_j* e_i*, with e_i* the i-th
        # column of s
        star_right = (s[:, gens].T @ t).transpose(1, 0, 2)  # [i, p, k] = (e_p e_i*)[k]
        worst = max_dev(np.conj(t[gens]) @ s.T, s.T @ star_right)
        if worst > tol:
            raise ValidationError(
                f"star is not an antihomomorphism (max violation {worst:.3e})",
                violation=worst)
        # <ab,c> = <b, a* c> and <ab,c> = <a, c b*> for generators a = e_i: the
        # adjoint of left (right) multiplication by e_i is multiplication by e_i*.
        star_left = np.tensordot(s[:, gens], t, axes=(0, 0))  # [i, q, k] = (e_i* e_q)[k]
        worst = max(max_dev(np.conj(t[gens]), star_left.transpose(0, 2, 1)),
                    max_dev(np.conj(t[:, gens]), star_right.transpose(2, 0, 1)))
        if worst > tol:
            raise ValidationError(
                f"product identities fail (max violation {worst:.3e})", violation=worst)


def block_model(sizes, weights) -> HStarAlgebraData:
    """Direct sum of matrix algebras with trace inner products scaled by the weights.

    The orthonormal basis consists of the rescaled matrix units of each block.
    """
    sizes = [int(d) for d in sizes]
    weights = [float(k) for k in weights]
    if len(sizes) != len(weights) or any(d <= 0 for d in sizes) or any(k <= 0 for k in weights):
        raise ValidationError("need matching positive sizes and weights")
    n = sum(d * d for d in sizes)
    table = np.zeros((n, n, n), dtype=np.complex128)
    unit = np.zeros(n, dtype=np.complex128)
    star = np.zeros((n, n), dtype=np.complex128)
    offset = 0
    for d, k in zip(sizes, weights):
        idx = offset + np.arange(d * d).reshape(d, d)  # idx[a, b] is the basis vector of E_ab
        # (E_ab/sqrt k)(E_bc/sqrt k) = (1/sqrt k)(E_ac/sqrt k), for every [a, b, c]
        table[idx[:, :, None], idx[None, :, :], idx[:, None, :]] = 1.0 / np.sqrt(k)
        star[idx, idx.T] = 1.0
        unit[np.diag(idx)] = np.sqrt(k)
        offset += d * d
    return HStarAlgebraData(n, table, unit, star)


def change_basis(alg: HStarAlgebraData, u: np.ndarray) -> HStarAlgebraData:
    """Re-express an algebra on the orthonormal basis given by the columns of a unitary."""
    u = as_complex(u)
    n = alg.dim
    # table[i, j, k] = sum_{p,q,r} u[p, i] u[q, j] t[p, q, r] conj(u[r, k])
    table = alg.table @ np.conj(u)
    table = (u.T @ table.reshape(n, n * n)).reshape(n, n, n)
    table = u.T @ table
    unit = dagger(u) @ alg.unit
    star = dagger(u) @ alg.star_matrix @ np.conj(u)
    return HStarAlgebraData(n, table, unit, star)


@dataclass
class AmbroseIdeal:
    size: int
    weight: float
    projection: np.ndarray
    matrix_units: np.ndarray  # shape (size, size, dim): coordinates of e_{ab}


@dataclass
class AmbroseDecomposition:
    algebra: HStarAlgebraData
    ideals: list[AmbroseIdeal] = field(default_factory=list)

    @property
    def sizes(self) -> tuple[int, ...]:
        return tuple(i.size for i in self.ideals)

    @property
    def weights(self) -> tuple[float, ...]:
        return tuple(i.weight for i in self.ideals)

    def recomposition_dev(self) -> float:
        """Deviation between the original product and the product rebuilt blockwise.

        On basis vectors, the ideal's coordinates of e_i are c[:, :, i] with
        c = conj(matrix_units) / weight; each ideal contributes
        sum_ac (c[:, :, i] @ c[:, :, j])[a, c] matrix_units[a, c] to the
        product e_i e_j.  The ideals of one size are stacked and contracted
        together, and one matrix product of the pairs of every ideal with the
        stacked matrix units gives the rebuilt rows.
        The table is rebuilt and compared in blocks of rows i holding at most
        _BLOCK_ENTRIES entries, so only the table, one block and its pairs
        are alive.
        """
        table = self.algebra.table
        n = self.algebra.dim
        by_size = [[i for i in self.ideals if i.size == d] for d in sorted(set(self.sizes))]
        coords = [np.array([np.conj(i.matrix_units) / i.weight for i in ideals])
                  for ideals in by_size]
        units = np.concatenate([i.matrix_units.reshape(-1, n)
                                for ideals in by_size for i in ideals])
        step = max(1, _BLOCK_ENTRIES // (n * n))
        worst = 0.0
        for start in range(0, n, step):
            rows = slice(start, min(start + step, n))
            # pairs[(x, a, c), i, j] = (c_x[:, :, i] @ c_x[:, :, j])[a, c] for ideal x,
            # written in place: a concatenation would hold a second block
            pairs = np.empty((len(units), rows.stop - start, n), dtype=np.complex128)
            offset = 0
            for c in coords:
                stack = pairs[offset:offset + c.size // n]
                np.einsum("xabi,xbcj->xacij", c[..., rows], c,
                          out=stack.reshape(c.shape[:3] + stack.shape[1:]))
                offset += len(stack)
            rebuilt = (pairs.reshape(len(units), -1).T @ units).reshape(-1, n, n)
            rebuilt -= table[rows]
            worst = np.maximum(worst, max_abs(rebuilt))  # keeps a NaN
        return float(worst)


def _minimal_projections(alg, rng, tol):
    """Every ideal's minimal projections, one array per ideal, and the element r linking them.

    For a self-adjoint y, L(y) is Hermitian in an H*-algebra, and on an
    ideal M_d it is y's block acting on each column: each eigenvalue of the
    block is an eigenvalue of L(y) of multiplicity d, and the unit's
    projection V V^H 1 onto its eigenspace is a minimal projection q of the
    ideal.  Each q must be idempotent.  For a random r and q_a r q_b =
    c_ab e_ab in one ideal of weight k, <q_a r, r q_b> = <q_a r q_b, r> =
    k |c_ab|^2, and it is zero across ideals: these m x m scalars, read
    through the n x n matrices R(r) and L(r), group the q.  A draw is
    redrawn unless every ideal has d members of cluster size d and the d^2
    add up to the dimension.
    """
    n = alg.dim
    t = alg.table
    for _ in range(_ATTEMPTS):
        raw, r = random_complex(rng, (2, n))
        left = alg.left_mult_matrix((raw + alg.star(raw)) / 2.0)
        vals, vecs = np.linalg.eigh((left + dagger(left)) / 2.0)
        clusters = cluster_indices(vals, 1e-6 * max(vals[-1] - vals[0], 1.0))
        coords = dagger(vecs) @ alg.unit
        qs = np.array([vecs[:, c] @ coords[c] for c in clusters])
        # the squares q q, in blocks of rows holding at most _BLOCK_ENTRIES entries
        step = max(1, _BLOCK_ENTRIES // (n * n))
        worst = max(max_dev(np.matmul(q[:, None], (q @ t.reshape(n, n * n)).reshape(-1, n, n)),
                            q[:, None]) for q in np.split(qs, range(step, len(qs), step)))
        if not worst < 1e3 * tol:
            raise ValidationError(f"spectral projections are not idempotent ({worst:.3e})",
                                  violation=worst)
        # rows q_a r and r q_a, and gram[a, b] = <q_a r, r q_b>
        qr = qs @ (r @ t)
        rq = qs @ (r @ t.reshape(n, n * n)).reshape(n, n)
        gram = np.abs(np.conj(qr) @ rq.T)
        linked = gram > 1e-6 * gram.max()
        sizes = np.array([len(c) for c in clusters])
        free = np.ones(len(qs), dtype=bool)
        groups = []
        for a in range(len(qs)):
            if free[a]:
                free[a] = False
                groups.append(np.concatenate([[a], np.flatnonzero(free & linked[a])]))
                free[groups[-1]] = False
        if (all((sizes[g] == len(g)).all() for g in groups)
                and sum(len(g) ** 2 for g in groups) == n):
            return [qs[g] for g in groups], r
    raise ValidationError("failed to split the algebra into minimal projections; "
                          "algebra data suspect")


def ambrose_decompose(alg: HStarAlgebraData, tol: float = 1e-7,
                      rng: np.random.Generator | None = None) -> AmbroseDecomposition:
    """Minimal two-sided ideal decomposition of a concrete H*-algebra.

    One spectral split gives every ideal's minimal projections q_1..q_d
    (``_minimal_projections``); e_1a = q_1 r q_a, scaled to
    e_1a e_1a* = q_1, links them into matrix units e_ab = e_1a* e_1b, whose
    relations are checked, and the recomposed structure constants are
    checked against the input.
    """
    alg.validate(tol)
    rng = rng if rng is not None else np.random.default_rng(0)
    groups, r = _minimal_projections(alg, rng, tol)
    ideals = []
    for qs in groups:
        d = len(qs)
        p = qs.sum(axis=0)
        weight = float(np.real(alg.inner(p, p)) / d)
        units = qs[None]
        if d > 1:
            # e_1a = q_1 r q_a / |c_1a|, with |c_1a| = |q_1 r q_a| / |q_1|
            links = alg.products(alg.mult(qs[0], r)[None], qs[1:])[0]
            links *= np.linalg.norm(qs[0]) / np.linalg.norm(links, axis=1)[:, None]
            # e_ab = e_a1 e_1b, with e_a1 = (e_1a)* and e_11 the first minimal projection
            units = alg.products(np.vstack([qs[:1], np.conj(links) @ alg.star_matrix.T]),
                                 np.vstack([qs[:1], links]))
            units[0, 0] = qs[0]
        ideal = AmbroseIdeal(size=d, weight=weight, projection=p, matrix_units=units)
        # matrix-unit sanity: e_ab e_cd = delta_bc e_ad within tolerance
        flat = units.reshape(d * d, alg.dim)
        relations = alg.products(flat, flat).reshape(d, d, d, d, alg.dim)
        diag = np.arange(d)
        relations[:, diag, diag] -= units[:, None]
        dev = max_abs(relations)
        if not dev <= tol:  # a NaN fails too
            raise ValidationError(f"matrix unit relations violated ({dev:.3e})", violation=dev)
        ideals.append(ideal)

    ideals.sort(key=lambda i: (i.size, i.weight))
    result = AmbroseDecomposition(alg, ideals)
    dev = result.recomposition_dev()
    if not dev <= tol:
        raise ValidationError(f"recomposition mismatch ({dev:.3e})", violation=dev)
    return result
