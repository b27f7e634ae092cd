"""The acceptance checks, runnable from both pytest and the command line.

Each check is deterministic given a seed, returns a structured result with
its worst observed deviation, and pins its tolerance; ``run_all`` executes
every check and is what the ``suite`` subcommand wraps.
"""
from __future__ import annotations

import math
import time
from dataclasses import dataclass, field

import numpy as np

from .ambrose import ambrose_decompose, block_model, change_basis
from .functors import adjoint_functor, apply_object, hom_dim
from .groups import (
    FiniteSuperGroup,
    catalog,
    cyclic_group,
    dihedral_group,
    product_group,
    quaternion_group,
    symmetric_group,
)
from .hstar import compose, inner_product, star
from .linalg import block_diag, kron, max_dev, random_unitary
from .reps import RepCategory
from .sampling import (
    random_fusion_functor,
    random_morphism,
    random_object,
    random_space,
)
from .tangles import EvalContext, move_suite
from .transforms import FourierMap, tannaka_reconstruct

DEFAULT_SEED = 20240817


@dataclass
class CheckResult:
    check_id: str
    name: str
    passed: bool
    tolerance: float
    deviation: float
    runtime: float
    details: dict = field(default_factory=dict)

    def to_json(self) -> dict:
        return {"id": self.check_id, "name": self.name, "passed": self.passed,
                "tolerance": self.tolerance, "deviation": self.deviation,
                "runtime_seconds": round(self.runtime, 3), "details": self.details}


def _timed(fn):
    def wrapper(seed: int = DEFAULT_SEED) -> CheckResult:
        start = time.perf_counter()
        result = fn(seed)
        result.runtime = time.perf_counter() - start
        return result
    wrapper.__name__ = fn.__name__
    wrapper.__doc__ = fn.__doc__
    return wrapper


@_timed
def check_hstar_axioms(seed=DEFAULT_SEED) -> CheckResult:
    """500 random triples satisfy the product identities and star antiunitarity."""
    tol = 1e-9
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(500):
        space = random_space(rng)
        x, y, z = (random_object(rng, space) for _ in range(3))
        f = random_morphism(rng, x, y)
        g = random_morphism(rng, y, z)
        h = random_morphism(rng, x, z)
        fg = compose(f, g)
        lhs = inner_product(fg, h)
        worst = max(worst, abs(lhs - inner_product(g, compose(star(f), h))))
        worst = max(worst, abs(lhs - inner_product(f, compose(h, star(g)))))
        f2 = random_morphism(rng, x, y)
        worst = max(worst, abs(inner_product(f, f2)
                               - np.conj(inner_product(star(f), star(f2)))))
    return CheckResult("1", "hstar-axioms", worst < tol, tol, worst, 0.0,
                       {"triples": 500})


@_timed
def check_ambrose_roundtrip(seed=DEFAULT_SEED) -> CheckResult:
    """50 random block models survive a unitary change of basis and decomposition."""
    tol = 1e-7
    rng = np.random.default_rng(seed)
    worst = 0.0
    sizes_ok = True
    for _ in range(50):
        n_ideals = int(rng.integers(1, 4))
        sizes = [int(rng.integers(1, 4)) for _ in range(n_ideals)]
        weights = [float(rng.uniform(0.5, 2.0)) for _ in range(n_ideals)]
        alg = change_basis(block_model(sizes, weights),
                           random_unitary(rng, sum(d * d for d in sizes)))
        dec = ambrose_decompose(alg, rng=rng)
        got = sorted(zip(dec.sizes, dec.weights))
        want = sorted(zip(sizes, weights))
        if [g[0] for g in got] != [w[0] for w in want]:
            sizes_ok = False
            break
        worst = max(worst, max(abs(g[1] - w[1]) for g, w in zip(got, want)))
    passed = sizes_ok and worst < tol
    return CheckResult("2", "ambrose-roundtrip", passed, tol, worst, 0.0,
                       {"algebras": 50, "sizes_exact": sizes_ok})


@_timed
def check_adjoint_duality(seed=DEFAULT_SEED) -> CheckResult:
    """100 random integer functors satisfy the hom-dimension duality exactly."""
    rng = np.random.default_rng(seed)
    failures = 0
    for _ in range(100):
        h = random_space(rng)
        k = random_space(rng)
        f = random_fusion_functor(rng, h, k)
        fs = adjoint_functor(f)
        for lam in h.simples:
            for mu in k.simples:
                lhs = hom_dim(apply_object(f, h.simple(lam)), k.simple(mu))
                rhs = hom_dim(h.simple(lam), apply_object(fs, k.simple(mu)))
                if lhs != rhs:
                    failures += 1
    return CheckResult("3", "adjoint-duality", failures == 0, 0.0, float(failures),
                       0.0, {"functors": 100, "mismatches": failures})


def _tangle_contexts():
    specs = [("S3", symmetric_group(3), "2a"),
             ("Q8", quaternion_group(), "2a"),
             ("D4", dihedral_group(4), "2a")]
    out = []
    for name, group, label in specs:
        cat = RepCategory(group)
        out.append((f"{name}:{label}", cat, cat.irrep(label)))
    sh = RepCategory(FiniteSuperGroup.make(cyclic_group(2), 1))
    out.append(("SuperHilb:1b", sh, sh.irrep("1b")))
    return out


@_timed
def check_tangle_moves(seed=DEFAULT_SEED) -> CheckResult:
    """Move suite passes for the catalog objects in ambient 3 and 4 (ambient 4
    only requires crossing symmetry too, which ambient 3 evaluates); the
    mis-scaled duality fails framed R1."""
    tol = 1e-8
    worst = 0.0
    details = {}
    all_passed = True
    for name, cat, obj in _tangle_contexts():
        ctx = EvalContext.make(cat, obj, ambient=3, tol=tol)
        for entry in move_suite(ctx):
            worst = max(worst, entry.deviation)
            if (entry.required or entry.move_id == "crossing-symmetry") and not entry.passed:
                all_passed = False
                details[f"{name}:{entry.move_id}"] = entry.deviation
    # the deliberately mis-scaled duality must fail framed R1 by |scale|^2 - 1
    cat = RepCategory(symmetric_group(3))
    ctx = EvalContext.make(cat, cat.irrep("2a"), ambient=3, scale=2.0)
    entries = {e.move_id: e for e in move_suite(ctx)}
    r1 = entries["framed-r1"]
    expected = abs(2.0) ** 2 - 1.0
    misscale_ok = (not r1.passed) and abs(r1.deviation - expected) < 1e-6
    details["misscaled-framed-r1-deviation"] = r1.deviation
    details["misscaled-zigzag-passes"] = entries["zigzag-plus"].passed
    passed = all_passed and misscale_ok and worst < tol
    return CheckResult("4", "tangle-moves", passed, tol, worst, 0.0, details)


@_timed
def check_falling_factorial(seed=DEFAULT_SEED) -> CheckResult:
    """Antisymmetrizer traces follow the falling factorial; third power of a
    two-dimensional object vanishes."""
    tol = 1e-8
    cat = RepCategory(symmetric_group(3))
    triv = cat.irrep("1a")
    std = cat.irrep("2a")
    objects = {1: triv, 2: std, 3: cat.direct_sum(std, triv),
               4: cat.direct_sum(std, std)}
    worst = 0.0
    lambda3_ok = True
    for d, x in objects.items():
        for n in range(1, 5):
            data = cat.symmetrizer_power(x, n)
            got = float(np.real(np.trace(data.antisymmetrizer.matrix)))
            worst = max(worst, abs(got - math.comb(d, n)))
            if d == 2 and n == 3:
                lambda3_ok = data.alternating_part[0].dim == 0
    passed = worst < tol and lambda3_ok
    return CheckResult("5", "falling-factorial", passed, tol, worst, 0.0,
                       {"lambda3_of_dim2_vanishes": lambda3_ok})


@_timed
def check_dimension_spectrum(seed=DEFAULT_SEED) -> CheckResult:
    """Every computed dimension over the catalog is a nonnegative integer."""
    tol = 1e-8
    rng = np.random.default_rng(seed)
    worst = 0.0
    count = 0
    for name, build in catalog().items():
        cat = RepCategory(build())
        for irr in cat.irreps():
            d = cat.dim(cat.object_of_irrep(irr))
            worst = max(worst, abs(d - round(d)))
            count += 1
            if round(d) < 0:
                worst = max(worst, 1.0)
        x = cat.random_object(rng, max_dim=5)
        d = cat.dim(x)
        worst = max(worst, abs(d - round(d)))
        count += 1
    return CheckResult("6", "dimension-spectrum", worst < tol, tol, worst, 0.0,
                       {"dimensions_checked": count})


@_timed
def check_self_duality(seed=DEFAULT_SEED) -> CheckResult:
    """Catalog scan: one definite sign per self-dual simple, with the known values."""
    rng = np.random.default_rng(seed)
    worst = 0.0
    expected = True
    scanned = 0
    for name, build in catalog().items():
        cat = RepCategory(build())
        for irr in cat.irreps():
            res = cat.classify_self_dual(cat.object_of_irrep(irr), rng)
            scanned += 1
            worst = max(worst, res.residual)
            if res.kind != "not-self-dual" and res.sign not in (1, -1):
                expected = False
    s3 = RepCategory(symmetric_group(3))
    q8 = RepCategory(quaternion_group())
    z3 = RepCategory(cyclic_group(3))
    expected &= s3.classify_self_dual(s3.irrep("2a"), rng).sign == 1
    expected &= q8.classify_self_dual(q8.irrep("2a"), rng).sign == -1
    nontrivial = [lab for lab in z3.irrep_labels() if lab != "1a"]
    expected &= all(z3.classify_self_dual(z3.irrep(lab), rng).kind == "not-self-dual"
                    for lab in nontrivial)
    return CheckResult("7", "self-duality", expected, 1e-6, worst, 0.0,
                       {"simples_scanned": scanned})


@_timed
def check_fourier(seed=DEFAULT_SEED) -> CheckResult:
    """The transform is monoidal-unitary, round-trips, and grades irreducibles exactly."""
    tol = 1e-9
    rng = np.random.default_rng(seed)
    worst = 0.0
    fibers_exact = True
    groups = [cyclic_group(2), cyclic_group(3), cyclic_group(4),
              product_group(cyclic_group(2), cyclic_group(2))]
    for group in groups:
        cat = RepCategory(group)
        fm = FourierMap(cat)
        for k, lab in enumerate(cat.irrep_labels()):
            fibers = fm.transform(cat.irrep(lab)).mults
            want = tuple(1 if j == k else 0 for j in range(group.order))
            fibers_exact &= fibers == want
        for _ in range(3):
            x = cat.random_object(rng, max_dim=4)
            y = cat.random_object(rng, max_dim=4)
            f = cat.random_intertwiner(x, x, rng)
            fp = cat.random_intertwiner(y, y, rng)
            worst = max(worst, fm.monoidal_defect(x, y, f, fp))
            worst = max(worst, fm.round_trip_defect(x, f))
    passed = worst < tol and fibers_exact
    return CheckResult("8", "fourier-equivalence", passed, tol, worst, 0.0,
                       {"irrep_fibers_exact": fibers_exact})


@_timed
def check_tannaka(seed=DEFAULT_SEED) -> CheckResult:
    """Every group is reconstructed with the right order, cyclicity and
    number of involutions (D4 and Q8, whose fusion rules agree, give 5 and
    1); the deviation is the worst residual of the reconstruction."""
    tol = 1e-6
    expected = True
    worst = 0.0
    details = {}
    for group, want_order, want_cyclic, want_involutions in [
        (cyclic_group(2), 2, True, 1),
        (cyclic_group(3), 3, True, 0),
        (cyclic_group(4), 4, True, 1),
        (product_group(cyclic_group(2), cyclic_group(2)), 4, False, 3),
        (symmetric_group(3), 6, False, 3),
        (dihedral_group(4), 8, False, 5),
        (quaternion_group(), 8, False, 1),
    ]:
        res = tannaka_reconstruct(RepCategory(group))
        details[group.name] = res.order
        worst = max(worst, res.deviation)
        expected &= (res.order == want_order and res.is_cyclic == want_cyclic
                     and res.element_orders.count(2) == want_involutions)
    return CheckResult("9", "tannaka", expected and worst < tol, tol, worst, 0.0, details)


@_timed
def check_balancing_laws(seed=DEFAULT_SEED) -> CheckResult:
    """Balancing laws on 100 random pairs in the graded category of the
    quaternion group; bosonization trivializes every balancing."""
    tol = 1e-9
    rng = np.random.default_rng(seed)
    cat = RepCategory(FiniteSuperGroup.make(quaternion_group(), 1))
    worst = 0.0
    for _ in range(100):
        x = cat.random_object(rng, max_dim=3)
        y = cat.random_object(rng, max_dim=3)
        bx = cat.balancing(x).matrix
        by = cat.balancing(y).matrix
        bsum = cat.balancing(cat.direct_sum(x, y)).matrix
        worst = max(worst, max_dev(bsum, block_diag([bx, by])))
        btens = cat.balancing(cat.tensor(x, y)).matrix
        swap_there = cat.braiding(x, y).matrix
        swap_back = cat.braiding(y, x).matrix
        worst = max(worst, max_dev(btens, swap_back @ swap_there @ kron(bx, by)))
    flat = cat.bosonized()
    for irr in cat.irreps():
        b = flat.balancing(flat.object_of_irrep(irr)).matrix
        worst = max(worst, max_dev(b, np.eye(irr.degree)))
    return CheckResult("10", "balancing-laws", worst < tol, tol, worst, 0.0,
                       {"pairs": 100})


ALL_CHECKS = [
    check_hstar_axioms,
    check_ambrose_roundtrip,
    check_adjoint_duality,
    check_tangle_moves,
    check_falling_factorial,
    check_dimension_spectrum,
    check_self_duality,
    check_fourier,
    check_tannaka,
    check_balancing_laws,
]


def run_all(seed: int = DEFAULT_SEED) -> list[CheckResult]:
    """Run every acceptance check, one after another, in check-id order."""
    return [check(seed) for check in ALL_CHECKS]
