"""Categorified Fourier transform, graded convolution algebras, spectrum
points with the evaluation (Gelfand) transform, and Tannaka reconstruction
at finite scale.

For a finite abelian group T the dual group is materialized from the
character table; the Fourier transform sends a representation to its
isotypic grading over the dual and comes with explicit unitary structure
maps that are validated numerically.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import CompositionError, ValidationError
from .groups import FiniteGroup
from .linalg import block_diag, dagger, max_abs, max_dev, random_unitary
from .reps import Intertwiner, RepCategory, RepObject, _swap_matrix

__all__ = ["GradedObject", "GradedMorphism", "unit_graded", "convolution_tensor",
           "conv_layout", "graded_braiding", "dual_group", "FourierMap",
           "SpectrumPoint", "tautological_point", "gelfand_hat", "GelfandHat",
           "tannaka_reconstruct", "TannakaResult"]


# -- graded objects and convolution ------------------------------------------

@dataclass(frozen=True)
class GradedObject:
    """A group-graded finite-dimensional Hilbert space: one fiber dimension per element."""

    group: FiniteGroup
    fibers: tuple[int, ...]

    @staticmethod
    def make(group: FiniteGroup, fibers) -> "GradedObject":
        if isinstance(fibers, dict):
            vec = [0] * group.order
            for g, n in fibers.items():
                vec[int(g)] = int(n)
        else:
            vec = [int(n) for n in fibers]
        if len(vec) != group.order or any(n < 0 for n in vec):
            raise ValidationError("need one nonnegative fiber dimension per element")
        return GradedObject(group, tuple(vec))

    def fiber(self, g: int) -> int:
        return self.fibers[g]

    @property
    def total_dim(self) -> int:
        return sum(self.fibers)

    def to_json(self) -> dict:
        return {"group": self.group.to_json(),
                "fibers": {str(g): n for g, n in enumerate(self.fibers) if n}}

    @staticmethod
    def from_json(data: dict) -> "GradedObject":
        group = FiniteGroup.from_json(data["group"])
        return GradedObject.make(group, {int(k): v for k, v in data["fibers"].items()})


@dataclass
class GradedMorphism:
    """A grading-preserving linear map: one matrix per fiber."""

    src: GradedObject
    dst: GradedObject
    blocks: dict[int, np.ndarray] = field(default_factory=dict)

    def block(self, g: int) -> np.ndarray:
        if g in self.blocks:
            return self.blocks[g]
        return np.zeros((self.dst.fiber(g), self.src.fiber(g)), dtype=np.complex128)

    def then(self, other: "GradedMorphism") -> "GradedMorphism":
        if self.dst.fibers != other.src.fibers:
            raise CompositionError("fiber dimensions do not match")
        return GradedMorphism(self.src, other.dst,
                              {g: other.block(g) @ self.block(g)
                               for g in range(self.src.group.order)})

    def star(self) -> "GradedMorphism":
        return GradedMorphism(self.dst, self.src,
                              {g: dagger(b) for g, b in self.blocks.items()})

    def dev_from(self, other: "GradedMorphism") -> float:
        return max((max_dev(self.block(g), other.block(g))
                    for g in range(self.src.group.order)), default=0.0)


def unit_graded(group: FiniteGroup) -> GradedObject:
    fibers = [0] * group.order
    fibers[group.identity] = 1
    return GradedObject.make(group, fibers)


def conv_layout(x: GradedObject, y: GradedObject, g: int):
    """Pair blocks (g1, g2, offset, nx, ny) of the convolution fiber at g."""
    group = x.group
    layout = []
    offset = 0
    # g2 = g1^-1 g for every g1 at once
    for g1, g2 in enumerate(group.matrix[group.inverses, g].tolist()):
        nx, ny = x.fiber(g1), y.fiber(g2)
        if nx * ny:
            layout.append((g1, g2, offset, nx, ny))
            offset += nx * ny
    return layout


def convolution_tensor(x: GradedObject, y: GradedObject) -> GradedObject:
    """Fiber dimensions convolve: (x y)(g) = sum over g1 g2 = g of x(g1) y(g2)."""
    if x.group.table != y.group.table:
        raise CompositionError("graded objects live over different groups")
    fibers = []
    for g in range(x.group.order):
        fibers.append(sum(nx * ny for _, _, _, nx, ny in conv_layout(x, y, g)))
    return GradedObject.make(x.group, fibers)


def convolution_morphism(f: GradedMorphism, h: GradedMorphism) -> GradedMorphism:
    src = convolution_tensor(f.src, h.src)
    dst = convolution_tensor(f.dst, h.dst)
    blocks = {}
    for g in range(src.group.order):
        src_layout = conv_layout(f.src, h.src, g)
        dst_layout = conv_layout(f.dst, h.dst, g)
        mat = np.zeros((dst.fiber(g), src.fiber(g)), dtype=np.complex128)
        dst_off = {(g1, g2): off for g1, g2, off, _, _ in dst_layout}
        for g1, g2, off, nx, ny in src_layout:
            if (g1, g2) not in dst_off:
                continue
            piece = np.kron(f.block(g1), h.block(g2))
            doff = dst_off[(g1, g2)]
            mat[doff:doff + piece.shape[0], off:off + piece.shape[1]] = piece
        if mat.size:
            blocks[g] = mat
    return GradedMorphism(src, dst, blocks)


def graded_braiding(x: GradedObject, y: GradedObject, parity=None) -> GradedMorphism:
    """The symmetry of the convolution product (abelian grading group).

    ``parity[g]`` is 1 for an odd grading element; the swap of fibers g1 and
    g2 then carries the Koszul sign -1 when both are odd.  Without it every
    element is even and the swap is unsigned.
    """
    if not x.group.is_abelian:
        raise ValidationError("the convolution braiding needs an abelian group")
    src = convolution_tensor(x, y)
    dst = convolution_tensor(y, x)
    blocks = {}
    for g in range(x.group.order):
        src_layout = conv_layout(x, y, g)
        dst_layout = conv_layout(y, x, g)
        mat = np.zeros((dst.fiber(g), src.fiber(g)), dtype=np.complex128)
        dst_off = {(g1, g2): off for g1, g2, off, _, _ in dst_layout}
        for g1, g2, off, nx, ny in src_layout:
            doff = dst_off[(g2, g1)]
            sign = -1.0 if parity is not None and parity[g1] and parity[g2] else 1.0
            mat[doff:doff + nx * ny, off:off + nx * ny] = sign * _swap_matrix(nx, ny)
        if mat.size:
            blocks[g] = mat
    return GradedMorphism(src, dst, blocks)


# -- the dual group -----------------------------------------------------------

def dual_group(cat: RepCategory) -> tuple[FiniteGroup, np.ndarray]:
    """The character group of a finite abelian group, with its value table.

    Returns the dual as an explicit group (elements ordered like the
    irreducible labels) and the matrix of character values chars[k, g].
    """
    group = cat.group
    if not group.is_abelian:
        raise ValidationError("the dual group is only formed for abelian groups")
    irreps = cat.irreps()
    chars = np.array([irr.character for irr in irreps])
    n = len(irreps)
    table = np.zeros((n, n), dtype=int)
    for a in range(n):
        for b in range(n):
            product = chars[a] * chars[b]
            hits = [c for c in range(n) if np.max(np.abs(product - chars[c])) < 1e-6]
            if len(hits) != 1:
                raise ValidationError("character products failed to close")
            table[a, b] = hits[0]
    names = [irr.label for irr in irreps]
    dual = FiniteGroup.make(f"dual({group.name})", table, names)
    return dual, chars


# -- categorified Fourier transform -------------------------------------------

class FourierMap:
    """Isotypic-grading functor from representations of an abelian group.

    Provides the graded image of objects and morphisms, the unitary
    monoidal structure maps, the inverse functor, and the round-trip
    natural isomorphism; all of them are concrete matrices.
    """

    def __init__(self, cat: RepCategory):
        self.cat = cat
        self.dual, self.chars = dual_group(cat)
        self._labels = [irr.label for irr in cat.irreps()]
        # a dual element is odd when its character is -1 at the central
        # involution z; the bosonic symmetry ignores the grading
        self._parity = None if cat.bosonic else [irr.parity for irr in cat.irreps()]

    def object_fibers(self, x: RepObject) -> GradedObject:
        mults = self.cat.multiplicities(x)
        fibers = [mults.get(lab, 0) for lab in self._labels]
        return GradedObject.make(self.dual, fibers)

    def coisometries(self, x: RepObject) -> list[np.ndarray]:
        """Per dual element: the co-isometry onto the isotypic component."""
        pieces = {p.irrep.label: p for p in self.cat.decompose(x)}
        out = []
        for lab in self._labels:
            if lab in pieces:
                out.append(pieces[lab].coisometry)
            else:
                out.append(np.zeros((0, x.dim), dtype=np.complex128))
        return out

    def transform(self, x: RepObject) -> GradedObject:
        return self.object_fibers(x)

    def morphism(self, f: Intertwiner) -> GradedMorphism:
        us = self.coisometries(f.src)
        vs = self.coisometries(f.dst)
        src = self.object_fibers(f.src)
        dst = self.object_fibers(f.dst)
        blocks = {}
        for g in range(self.dual.order):
            mat = vs[g] @ f.matrix @ dagger(us[g])
            if mat.size:
                blocks[g] = mat
        return GradedMorphism(src, dst, blocks)

    def structure_map(self, x: RepObject, y: RepObject) -> GradedMorphism:
        """Unitary from the convolution of the images onto the image of the tensor."""
        xy = self.cat.tensor(x, y)
        ux = self.coisometries(x)
        uy = self.coisometries(y)
        uxy = self.coisometries(xy)
        src = convolution_tensor(self.object_fibers(x), self.object_fibers(y))
        dst = self.object_fibers(xy)
        blocks = {}
        for g in range(self.dual.order):
            layout = conv_layout(self.object_fibers(x), self.object_fibers(y), g)
            if src.fiber(g) == 0:
                continue
            include = np.zeros((x.dim * y.dim, src.fiber(g)), dtype=np.complex128)
            for g1, g2, off, nx, ny in layout:
                piece = np.kron(dagger(ux[g1]), dagger(uy[g2]))
                include[:, off:off + nx * ny] = piece
            blocks[g] = uxy[g] @ include
        return GradedMorphism(src, dst, blocks)

    def monoidal_defect(self, x: RepObject, y: RepObject,
                        f: Intertwiner | None = None,
                        fp: Intertwiner | None = None) -> float:
        """Worst coherence residual of the structure maps at (x, y).

        Checks unitarity, the braiding square against the convolution
        symmetry, star compatibility and (when morphisms are supplied)
        naturality.
        """
        phi = self.structure_map(x, y)
        worst = 0.0
        for g in range(self.dual.order):
            b = phi.block(g)
            n = b.shape[0]
            m = b.shape[1]
            if n != m:
                raise ValidationError("structure map fiber is not square")
            if n:
                worst = max(worst, max_dev(b @ dagger(b), np.eye(n)))
                worst = max(worst, max_dev(dagger(b) @ b, np.eye(n)))
        # braiding square
        phi_yx = self.structure_map(y, x)
        b_rep = self.cat.braiding(x, y)
        lhs = phi.then(self.morphism(b_rep))
        rhs = graded_braiding(self.object_fibers(x), self.object_fibers(y),
                              self._parity).then(phi_yx)
        worst = max(worst, lhs.dev_from(rhs))
        if f is not None and fp is not None:
            lhs = convolution_morphism(self.morphism(f), self.morphism(fp)).then(
                self.structure_map(f.dst, fp.dst))
            rhs = phi.then(self.morphism(self.cat.tensor_map(f, fp)))
            worst = max(worst, lhs.dev_from(rhs))
            worst = max(worst, self.morphism(f.star()).dev_from(self.morphism(f).star()))
        return worst

    def inverse(self, graded: GradedObject) -> RepObject:
        """Block-diagonal representation with each fiber transforming by its character."""
        if graded.group.table != self.dual.table:
            raise CompositionError("graded object lives over a different dual group")
        diag = np.repeat(self.chars, graded.fibers, axis=0).T  # (|G|, total)
        mats = diag[:, :, None] * np.eye(graded.total_dim)
        return RepObject(self.cat, mats, name="inverse-transform")

    def round_trip_iso(self, x: RepObject) -> Intertwiner:
        """Unitary natural isomorphism x -> inverse(transform(x))."""
        target = self.inverse(self.object_fibers(x))
        return Intertwiner(x, target, _stacked(self.cat.decompose(x)))

    def round_trip_defect(self, x: RepObject, f: Intertwiner | None = None) -> float:
        eta = self.round_trip_iso(x)
        worst = max_dev(eta.matrix @ dagger(eta.matrix), np.eye(x.dim))
        worst = max(worst, eta.equivariance_dev())
        if f is not None:
            eta_dst = self.round_trip_iso(f.dst)
            lhs = eta_dst.matrix @ f.matrix
            back = self.inverse_morphism(self.morphism(f))
            rhs = back @ eta.matrix
            worst = max(worst, max_dev(lhs, rhs))
        return worst

    def inverse_morphism(self, f: GradedMorphism) -> np.ndarray:
        """Matrix of the inverse-transformed morphism in the block-diagonal carriers."""
        return block_diag([f.block(k) for k in range(self.dual.order)])


# -- spectrum points and the evaluation transform ------------------------------

class SpectrumPoint:
    """A concrete symmetric star-functor from a rep category to super vector spaces.

    Presented by per-simple values (dimension plus grading signs), unitary
    twists of the canonical carriers, and the induced structure maps.  The
    validator enforces fusion-dimension consistency, unitarity, the
    braiding square with the appropriate sign rule, and balancing
    preservation.
    """

    def __init__(self, cat: RepCategory, values: dict, twists: dict | None = None,
                 name: str = "point"):
        self.cat = cat
        self.name = name
        self.values = {}
        for irr in cat.irreps():
            if irr.label not in values:
                raise ValidationError(f"missing value for simple {irr.label!r}")
            dim, grading = values[irr.label]
            grading = np.asarray(grading, dtype=float).reshape(-1)
            if grading.shape != (dim,) or np.any(np.abs(np.abs(grading) - 1) > 0):
                raise ValidationError("grading must be a vector of signs")
            self.values[irr.label] = (int(dim), grading)
        self.twists = {}
        for irr in cat.irreps():
            twist = None if twists is None else twists.get(irr.label)
            if twist is None:
                twist = np.eye(self.values[irr.label][0], dtype=np.complex128)
            twist = np.asarray(twist, dtype=np.complex128)
            if twist.shape != (self.values[irr.label][0],) * 2:
                raise ValidationError("twist has the wrong shape")
            self.twists[irr.label] = twist
        self._layouts = {}

    def value_dim(self, label: str) -> int:
        return self.values[label][0]

    def value_grading(self, label: str) -> np.ndarray:
        return self.values[label][1]

    def fused_layout(self, lam: str, mu: str) -> list:
        """The isotypic pieces of the tensor of two simples, in irreducible order.

        Each ordered pair is decomposed once and kept on the point:
        ``cat.irrep`` returns a fresh object, whose own cache would miss."""
        if (lam, mu) not in self._layouts:
            cat = self.cat
            self._layouts[lam, mu] = cat.decompose(cat.tensor(cat.irrep(lam), cat.irrep(mu)))
        return self._layouts[lam, mu]

    def structure_map(self, lam: str, mu: str) -> np.ndarray:
        """Unitary from value(lam) (x) value(mu) onto the fused value layout."""
        layout = self.fused_layout(lam, mu)
        fused_dim = sum(self.value_dim(p.irrep.label) * p.multiplicity for p in layout)
        n_lam, n_mu = self.value_dim(lam), self.value_dim(mu)
        if fused_dim != n_lam * n_mu:
            raise ValidationError(
                f"fusion dimensions are inconsistent at ({lam}, {mu})")
        # canonical: the decomposition coisometry, twisted
        same_dims = all(self.value_dim(p.irrep.label) == p.irrep.degree for p in layout) \
            and n_lam == self.cat.irrep(lam).dim and n_mu == self.cat.irrep(mu).dim
        if not same_dims:
            raise ValidationError("value dimensions do not match any carrier "
                                  "presentation; no structure map available")
        twist_out = block_diag([np.kron(self.twists[p.irrep.label], np.eye(p.multiplicity))
                                for p in layout])
        return twist_out @ _stacked(layout) @ np.kron(dagger(self.twists[lam]),
                                                      dagger(self.twists[mu]))

    def balancing_defect(self) -> float:
        """Deviation from F(beta_x) = b_F(x): gradings must match the parities."""
        worst = 0.0
        for irr in self.cat.irreps():
            beta = self.cat.balancing(self.cat.object_of_irrep(irr)).matrix
            sign = float(np.real(np.trace(beta))) / irr.degree
            grading = self.value_grading(irr.label)
            worst = max(worst, float(np.max(np.abs(grading - sign)))
                        if grading.size else 0.0)
        return worst

    def validate(self, tol: float = 1e-8) -> float:
        """Run all point checks; returns the worst deviation or raises."""
        cat = self.cat
        worst = self.balancing_defect()
        if worst > tol:
            raise ValidationError(
                f"point does not preserve the balancing (defect {worst:.3e})",
                violation=worst)
        labels = [i.label for i in cat.irreps()]
        for lam in labels:
            for mu in labels:
                phi = self.structure_map(lam, mu)
                n = phi.shape[0]
                worst = max(worst, max_dev(phi @ dagger(phi), np.eye(n)))
                worst = max(worst, max_dev(dagger(phi) @ phi, np.eye(n)))
                # braiding square with the sign rule on the value side
                layout = self.fused_layout(lam, mu)
                layout_back = self.fused_layout(mu, lam)
                b_rep = cat.braiding(cat.irrep(lam), cat.irrep(mu)).matrix
                fused_b = _stacked(layout_back) @ b_rep @ dagger(_stacked(layout))
                # transported braiding must match the graded swap of the values
                g_lam = self.value_grading(lam)
                g_mu = self.value_grading(mu)
                n_lam, n_mu = self.value_dim(lam), self.value_dim(mu)
                swap = _swap_matrix(n_lam, n_mu)
                # -1 exactly where both value gradings are odd
                koszul = np.where(np.outer(g_lam < 0, g_mu < 0), -1.0, 1.0).ravel()
                value_b = swap * koszul if not cat.bosonic else swap
                phi_back = self.structure_map(mu, lam)
                # square: phi then transported braiding vs value braiding then phi
                transported = _value_transport(self, layout_back, layout, fused_b, tol)
                worst = max(worst, max_dev(transported @ phi, phi_back @ value_b))
        if worst > tol:
            raise ValidationError(f"point coherence fails ({worst:.3e})", violation=worst)
        return worst

    def value_of(self, x: RepObject):
        """Dimension and grading of the point applied to an arbitrary object."""
        pieces = self.cat.decompose(x)
        dim = 0
        grading = []
        for p in pieces:
            n = self.value_dim(p.irrep.label)
            dim += n * p.multiplicity
            grading.extend(list(self.value_grading(p.irrep.label)) * p.multiplicity)
        return dim, np.array(grading)

    def morphism_value(self, f: Intertwiner, tol: float = 1e-8) -> np.ndarray:
        """Transport of a morphism to the point's value coordinates.

        Raises unless f is block-shaped in isotypic coordinates: in particular
        a map that mixes distinct simples has no value."""
        src, dst = self.cat.decompose(f.src), self.cat.decompose(f.dst)
        mat = _stacked(dst) @ f.matrix @ dagger(_stacked(src))
        return _value_transport(self, dst, src, mat, tol)

    def twisted(self, rng: np.random.Generator) -> "SpectrumPoint":
        """An isomorphic point: the same values on randomly rotated carriers."""
        twists = {lab: random_unitary(rng, self.value_dim(lab))
                  for lab in self.values}
        # twists must preserve the grading decomposition
        for lab, u in twists.items():
            g = np.diag(self.value_grading(lab))
            twists[lab] = 0.5 * (u + g @ u @ g)  # project to grading-even part
            q, _ = np.linalg.qr(twists[lab])
            twists[lab] = q
        return SpectrumPoint(self.cat, {k: v for k, v in self.values.items()},
                             twists, name=self.name + "-twisted")


def _stacked(pieces) -> np.ndarray:
    """The co-isometry onto the isotypic coordinates of an object, from its pieces."""
    return np.vstack([p.coisometry for p in pieces])


def _value_transport(point: SpectrumPoint, rows, cols, mat: np.ndarray,
                     tol: float) -> np.ndarray:
    """Carry a map between isotypic coordinates to the point's value coordinates.

    ``rows`` and ``cols`` are the isotypic pieces of the target and the
    source.  Each block between pieces of one simple of degree d must be
    kron(I_d, a); it becomes kron(I_n, a) for the value dimension n of that
    simple.  Blocks between distinct simples must vanish.
    """
    def iso(p):
        return p.irrep.degree * p.multiplicity

    def val(p):
        return point.value_dim(p.irrep.label) * p.multiplicity

    out = np.zeros((sum(map(val, rows)), sum(map(val, cols))), dtype=np.complex128)
    r_iso = r_val = 0
    for rp in rows:
        c_iso = c_val = 0
        for cp in cols:
            block = mat[r_iso:r_iso + iso(rp), c_iso:c_iso + iso(cp)]
            if rp.irrep.label == cp.irrep.label:
                d = rp.irrep.degree
                a = np.einsum("iaib->ab",
                              block.reshape(d, rp.multiplicity, d, cp.multiplicity)) / d
                if max_dev(block, np.kron(np.eye(d), a)) > tol:
                    raise ValidationError("block is not multiplicity-shaped")
                n = point.value_dim(rp.irrep.label)
                out[r_val:r_val + val(rp), c_val:c_val + val(cp)] = np.kron(np.eye(n), a)
            elif max_abs(block) > tol:
                raise ValidationError("map mixes distinct simples")
            c_iso, c_val = c_iso + iso(cp), c_val + val(cp)
        r_iso, r_val = r_iso + iso(rp), r_val + val(rp)
    return out


def tautological_point(cat: RepCategory) -> SpectrumPoint:
    """The forgetful functor: each simple goes to its carrier with its parity grading."""
    values = {}
    for irr in cat.irreps():
        sign = -1.0 if (irr.parity == 1 and not cat.bosonic) else 1.0
        values[irr.label] = (irr.degree, np.full(irr.degree, sign))
    return SpectrumPoint(cat, values, name="tautological")


@dataclass
class GelfandHat:
    """Evaluation of an object at a finite sample of spectrum points."""

    x: RepObject
    points: list[SpectrumPoint]
    values: dict  # point name -> (dim, grading)

    def dims(self) -> dict:
        return {name: v[0] for name, v in self.values.items()}


def gelfand_hat(x: RepObject, points: list[SpectrumPoint],
                validate_points: bool = True) -> GelfandHat:
    """The evaluation transform: x goes to its tuple of point values."""
    values = {}
    for point in points:
        if validate_points:
            point.validate()
        values[point.name] = point.value_of(x)
    return GelfandHat(x, list(points), values)


def hat_homomorphism_defect(point: SpectrumPoint, x: RepObject, y: RepObject,
                            rng: np.random.Generator) -> float:
    """Deviation of the evaluation transform from a star-homomorphism.

    Checks that point values multiply under tensor, add under direct sum,
    and that star transports to the adjoint on a sampled endomorphism.
    """
    cat = point.cat
    worst = 0.0
    nx, _ = point.value_of(x)
    ny, _ = point.value_of(y)
    nxy, _ = point.value_of(cat.tensor(x, y))
    worst = max(worst, abs(nxy - nx * ny))
    nsum, _ = point.value_of(cat.direct_sum(x, y))
    worst = max(worst, abs(nsum - nx - ny))
    f = cat.hom_basis(x, x, rng)[0]
    worst = max(worst, max_dev(point.morphism_value(f.star()),
                               dagger(point.morphism_value(f))))
    g = cat.hom_basis(x, x, rng)[0]
    worst = max(worst, max_dev(point.morphism_value(f.then(g)),
                               point.morphism_value(g) @ point.morphism_value(f)))
    return float(worst)


def gelfand_hom_dim(point: SpectrumPoint, x: RepObject, y: RepObject) -> int:
    """Intertwiner dimension between hat-values under the reconstructed symmetries.

    The reconstructed transformations are the tuples of irreducible actions;
    the commutant of their action on the value carriers is computed by
    group averaging and must match the source hom dimension.
    """
    cat = point.cat
    order = cat.group.order

    def action(g, obj):
        pieces = cat.decompose(obj)
        blocks = []
        for p in pieces:
            u = point.twists[p.irrep.label]
            mat = u @ p.irrep.matrices[g] @ dagger(u)
            blocks.append(np.kron(mat, np.eye(p.multiplicity)))
        return block_diag(blocks)

    # the averaging projector onto the commutant has trace
    # (1/|R|) sum over transformations of tr(a_y) conj(tr(a_x))
    total = sum(np.trace(action(g, y)) * np.conj(np.trace(action(g, x)))
                for g in range(order))
    dim = float(np.real(total)) / order
    if abs(dim - round(dim)) > 1e-6:
        raise ValidationError("non-integral hom dimension between hat values")
    return int(round(dim))


# -- Tannaka reconstruction ------------------------------------------------------

@dataclass
class TannakaResult:
    group: FiniteGroup | None
    order: int
    is_cyclic: bool | None
    element_orders: tuple[int, ...]
    injection_verified: bool


def tannaka_reconstruct(cat: RepCategory) -> TannakaResult:
    """Reconstruct the symmetry group from the fiber functor.

    Abelian case: enumerate the monoidal unitary endotransformations of the
    forgetful functor (one unit scalar per character, multiplicative) as
    the characters of the materialized dual group.  General case: verify
    that the group injects into the transformation tuples.
    """
    group = cat.group
    if group.is_abelian:
        dual, dual_chars = dual_group(cat)
        dual_cat = RepCategory(dual)
        transformations = []
        for irr in dual_cat.irreps():
            values = irr.character  # one scalar per dual element
            if np.max(np.abs(np.abs(values) - 1.0)) > 1e-8:
                raise ValidationError("transformation is not unitary")
            for a in range(dual.order):
                for b in range(dual.order):
                    want = values[dual.mult(a, b)]
                    if abs(values[a] * values[b] - want) > 1e-6:
                        raise ValidationError("transformation is not monoidal")
            transformations.append(np.round(values, 8))
        # group law: pointwise multiplication of scalar tuples
        n = len(transformations)
        table = np.zeros((n, n), dtype=int)
        for a in range(n):
            for b in range(n):
                prod = transformations[a] * transformations[b]
                hits = [c for c in range(n)
                        if np.max(np.abs(prod - transformations[c])) < 1e-6]
                if len(hits) != 1:
                    raise ValidationError("transformations do not close under product")
                table[a, b] = hits[0]
        rec = FiniteGroup.make(f"tannaka({group.name})", table)
        orders = tuple(sorted(rec.element_order(a) for a in range(rec.order)))
        want = tuple(sorted(group.element_order(a) for a in range(group.order)))
        if orders != want:
            raise ValidationError("reconstructed group has wrong element orders")
        return TannakaResult(rec, rec.order, rec.is_cyclic, orders, True)
    # nonabelian: injection of the group into transformation tuples
    irreps = cat.irreps()
    seen = set()
    for g in range(group.order):
        fingerprint = tuple(np.round(irr.matrices[g], 6).tobytes() for irr in irreps)
        seen.add(fingerprint)
    injective = len(seen) == group.order
    if not injective:
        raise ValidationError("group does not inject into its transformations")
    orders = tuple(sorted(group.element_order(a) for a in range(group.order)))
    return TannakaResult(None, len(seen), None, orders, True)
