import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import twohilb

from twohilb.errors import CompositionError, ValidationError
from twohilb.hstar import (
    BlockMorphism,
    ObjectExpr,
    SpaceTable,
    compose,
    identity,
    inner_product,
    morphism_dev,
    star,
)
from twohilb.linalg import random_unitary
from twohilb.sampling import random_morphism, random_object, random_space

TOL = 1e-9


def embed_full(f):
    """Oracle: embed the blocks into one big block-diagonal matrix."""
    rows = sum(f.dst.mults)
    cols = sum(f.src.mults)
    out = np.zeros((rows, cols), dtype=np.complex128)
    r = c = 0
    for s, (md, ms) in zip(f.space.simples, zip(f.dst.mults, f.src.mults)):
        out[r:r + md, c:c + ms] = f.block(s)
        r += md
        c += ms
    return out


def test_compose_identity_law(rng):
    space = random_space(rng)
    x = random_object(rng, space)
    y = random_object(rng, space)
    g = random_morphism(rng, x, y)
    assert morphism_dev(compose(identity(x), g), g) < TOL
    assert morphism_dev(compose(g, identity(y)), g) < TOL


def test_compose_one_by_one():
    space = SpaceTable.make(["e"])
    x = space.simple("e")
    f = BlockMorphism(x, x, {"e": [[2.0]]})
    g = BlockMorphism(x, x, {"e": [[3.0]]})
    assert compose(f, g).block("e")[0, 0] == pytest.approx(6.0)


def test_compose_matches_full_matrix_oracle(rng):
    space = SpaceTable.make(["a", "b"], {"a": 1.0, "b": 2.0})
    for _ in range(20):
        x, y, z = (random_object(rng, space) for _ in range(3))
        f = random_morphism(rng, x, y)
        g = random_morphism(rng, y, z)
        h = compose(f, g)
        assert np.max(np.abs(embed_full(h) - embed_full(g) @ embed_full(f))) < TOL


def test_star_conjugates_one_by_one():
    space = SpaceTable.make(["e"])
    x = space.simple("e")
    f = BlockMorphism(x, x, {"e": [[1j]]})
    assert star(f).block("e")[0, 0] == pytest.approx(-1j)
    assert morphism_dev(star(star(f)), f) < TOL


def test_star_antihomomorphism(rng):
    space = random_space(rng)
    for _ in range(10):
        x, y, z = (random_object(rng, space) for _ in range(3))
        f = random_morphism(rng, x, y)
        g = random_morphism(rng, y, z)
        lhs = star(compose(f, g))
        rhs = compose(star(g), star(f))
        assert morphism_dev(lhs, rhs) < TOL


def test_star_of_unitary_is_inverse(rng):
    space = random_space(rng)
    x = random_object(rng, space)
    u = BlockMorphism(x, x, {s: random_unitary(rng, m)
                             for s, m in zip(space.simples, x.mults) if m})
    # numeric inverse oracle, blockwise
    for s in u.blocks:
        inv = np.linalg.inv(u.block(s))
        assert np.max(np.abs(star(u).block(s) - inv)) < 1e-8
    assert morphism_dev(compose(u, star(u)), identity(x)) < 1e-9


def test_inner_product_weighted_identity():
    space = SpaceTable.make(["e"], {"e": 2.0})
    one = identity(space.simple("e"))
    assert inner_product(one, one) == pytest.approx(2.0)


def test_inner_product_conjugate_symmetric_positive(rng):
    space = random_space(rng)
    x, y = (random_object(rng, space) for _ in range(2))
    f = random_morphism(rng, x, y)
    g = random_morphism(rng, x, y)
    assert inner_product(f, g) == pytest.approx(np.conj(inner_product(g, f)))
    if any(m.any() for m in f.blocks.values()):
        assert inner_product(f, f).real > 0


def test_inner_product_disjoint_blocks_orthogonal():
    space = SpaceTable.make(["a", "b"])
    x = ObjectExpr.make(space, {"a": 1, "b": 1})
    f = BlockMorphism(x, x, {"a": [[1.0]]})
    g = BlockMorphism(x, x, {"b": [[1.0]]})
    assert inner_product(f, g) == pytest.approx(0.0)


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2 ** 31))
def test_hstar_product_identities(seed):
    rng = np.random.default_rng(seed)
    space = random_space(rng)
    x, y, z = (random_object(rng, space) for _ in range(3))
    f = random_morphism(rng, x, y)
    g = random_morphism(rng, y, z)
    h = random_morphism(rng, x, z)
    fg = compose(f, g)
    assert inner_product(fg, h) == pytest.approx(inner_product(g, compose(star(f), h)))
    assert inner_product(fg, h) == pytest.approx(inner_product(f, compose(h, star(g))))


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2 ** 31))
def test_star_is_antiunitary(seed):
    rng = np.random.default_rng(seed)
    space = random_space(rng)
    x, y = (random_object(rng, space) for _ in range(2))
    f = random_morphism(rng, x, y)
    g = random_morphism(rng, x, y)
    assert inner_product(f, g) == pytest.approx(np.conj(inner_product(star(f), star(g))))


def test_basis_orthogonality():
    space = SpaceTable.make(["a", "b"], {"a": 1.5, "b": 0.5})
    ea, eb = space.simple("a"), space.simple("b")
    f = BlockMorphism(ea, eb)
    assert all(f.block(s).size == 0 for s in space.simples)  # hom(a, b) has only zero shapes
    one = identity(ea)
    assert inner_product(one, one) == pytest.approx(1.5)


def test_shape_mismatch_raises(rng):
    space = SpaceTable.make(["a", "b"])
    x = ObjectExpr.make(space, {"a": 1})
    y = ObjectExpr.make(space, {"b": 1})
    f = random_morphism(rng, x, y)
    g = random_morphism(rng, x, y)
    with pytest.raises(CompositionError):
        compose(f, g)
    with pytest.raises(CompositionError):
        inner_product(f, identity(x))


def test_weight_validation():
    with pytest.raises(ValidationError):
        SpaceTable.make(["a"], {"a": -1.0})
    with pytest.raises(ValidationError):
        SpaceTable.make(["a", "a"])


def _ab_objects():
    space = SpaceTable.make(["a", "b", "c"], {"a": 1.0, "b": 2.0, "c": 0.5})
    return space, ObjectExpr.make(space, {"a": 1, "b": 2}), ObjectExpr.make(space, {"a": 2, "b": 2})


def test_block_label_outside_the_space_is_named():
    _, x, y = _ab_objects()
    with pytest.raises(ValidationError, match=r"block label 'z' not in space"):
        BlockMorphism(x, y, {"z": [[1.0]]})


def test_block_shape_is_checked():
    _, x, y = _ab_objects()
    with pytest.raises(ValidationError,
                       match=r"block 'a' has shape \(1, 1\), expected \(2, 1\)"):
        BlockMorphism(x, y, {"a": [[1.0]]})


def test_blocks_over_different_spaces_refuse():
    _, x, _ = _ab_objects()
    other = ObjectExpr.make(SpaceTable.make(["a", "b", "c"]), {"a": 1, "b": 2})
    with pytest.raises(CompositionError, match="different space tables"):
        BlockMorphism(x, other, {})


def test_blocks_are_read_only_copies(rng):
    _, x, y = _ab_objects()
    mat = rng.normal(size=(2, 1)) + 0j
    f = BlockMorphism(x, y, {"a": mat})
    mat[0, 0] = 99.0
    assert f.block("a")[0, 0] != 99.0
    with pytest.raises(ValueError):
        f.blocks["a"][0, 0] = 1.0


def test_zero_size_blocks_are_dropped_and_lists_accepted():
    space, x, y = _ab_objects()
    f = BlockMorphism(x, y, {"c": np.zeros((0, 0)), "b": [[1, 2], [3, 4]]})
    assert list(f.blocks) == ["b"]
    assert f.blocks["b"].dtype == np.complex128
    assert np.array_equal(f.block("b"), [[1, 2], [3, 4]])
    assert f.block("c").shape == (0, 0)


def test_blocks_keep_the_simple_order():
    _, x, y = _ab_objects()
    f = BlockMorphism(x, y, {"b": np.eye(2), "a": [[1.0], [2.0]]})
    assert list(f.blocks) == ["a", "b"]
    assert list((f + BlockMorphism(x, y, {"b": np.eye(2)})).blocks) == ["a", "b"]



def test_a_nan_block_is_never_unitary_or_zero():
    space = SpaceTable.make(["a", "b"])
    x = ObjectExpr.make(space, {"a": 1, "b": 1})
    f = BlockMorphism(x, x, {"a": [[1.0]], "b": [[np.nan]]})
    assert np.isnan(morphism_dev(f, identity(x)))
    g = BlockMorphism(x, x, {"a": [[0.0]], "b": [[np.nan]]})
    assert np.isnan(morphism_dev(g, BlockMorphism(x, x)))

@settings(max_examples=50, deadline=None)
@given(seed=st.integers(0, 2 ** 31), drop_f=st.integers(0, 7), drop_g=st.integers(0, 7))
def test_inner_product_matches_the_trace_reference(seed, drop_f, drop_g):
    """sum_s k_s tr(f_s^* g_s), with the blocks flagged in drop_f / drop_g missing."""
    rng = np.random.default_rng(seed)
    space = random_space(rng)
    x, y = (random_object(rng, space) for _ in range(2))

    def thinned(drop):
        f = random_morphism(rng, x, y)
        return BlockMorphism(x, y, {s: m for i, (s, m) in enumerate(f.blocks.items())
                                    if not drop >> i & 1})
    f, g = thinned(drop_f), thinned(drop_g)
    want = sum(k * np.trace(f.block(s).conj().T @ g.block(s))
               for s, k in zip(space.simples, space.weights))
    got = inner_product(f, g)
    assert abs(got - want) <= 1e-12 * (1 + abs(want))


_HASH_SEED_PROBE = """
import json
import numpy as np
from twohilb.acceptance import check_hstar_axioms
from twohilb.hstar import SpaceTable, compose
from twohilb.sampling import random_morphism, random_object
rng = np.random.default_rng(11)
space = SpaceTable.make(["p", "q", "r", "s"], {"p": 0.5, "q": 1.5, "r": 2.0, "s": 3.0})
x, y, z = (random_object(rng, space) for _ in range(3))
f, f2, g = random_morphism(rng, x, y), random_morphism(rng, x, y), random_morphism(rng, y, z)


def values(h):
    return [[s, m.real.tolist(), m.imag.tolist()] for s, m in h.blocks.items()]


print(json.dumps([repr(check_hstar_axioms(5).deviation), repr(check_hstar_axioms(9).deviation),
                  values(compose(f, g)), values(f + f2)]))
"""


def test_pairing_and_json_do_not_depend_on_the_hash_seed():
    """Criterion 1's deviation and the JSON of the block values of a composite
    and a sum are the same bits under every string-hash seed."""
    src = Path(twohilb.__file__).resolve().parent.parent
    outputs = set()
    for hash_seed in ("0", "1", "2"):
        env = dict(os.environ, PYTHONHASHSEED=hash_seed, OPENBLAS_NUM_THREADS="1",
                   PYTHONPATH=str(src))
        run = subprocess.run([sys.executable, "-c", _HASH_SEED_PROBE], env=env,
                             capture_output=True, text=True, check=True)
        outputs.add(run.stdout)
    assert len(outputs) == 1
