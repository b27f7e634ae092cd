from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from twohilb import tangles

from twohilb.errors import TangleSyntaxError, TangleTypeError, ValidationError
from twohilb.groups import FiniteSuperGroup, cyclic_group, symmetric_group
from twohilb.linalg import kron, max_dev
from twohilb.reps import RepCategory
from twohilb.tangles import (
    HOPF_PRESENTATIONS,
    KINK_PLUS,
    UNKNOT_PRESENTATIONS,
    GEN_TYPES,
    EvalContext,
    Par,
    Seq,
    evaluate,
    move_check,
    move_suite,
    parse,
)


@pytest.fixture(scope="module")
def s3_ctx():
    cat = RepCategory(symmetric_group(3))
    return EvalContext.make(cat, cat.irrep("2a"))


@pytest.fixture(scope="module")
def odd_ctx():
    cat = RepCategory(FiniteSuperGroup.make(cyclic_group(2), 1))
    return EvalContext.make(cat, cat.irrep("1b"))


def test_parse_closed_loop():
    expr = parse("coev ; coev*")
    assert expr.src == "" and expr.dst == ""


def test_parse_parallel_identities():
    expr = parse("id+ | id-")
    assert expr.src == "+-" and expr.dst == "+-"


def test_parse_ev_then_coev():
    expr = parse("ev ; coev")
    assert expr.src == "-+" and expr.dst == "+-"


def test_parse_errors_carry_position():
    with pytest.raises(TangleSyntaxError) as err:
        parse("coev ; @")
    assert err.value.position == 7
    with pytest.raises(TangleSyntaxError):
        parse("(coev ; coev*")
    with pytest.raises(TangleTypeError, match="mismatch"):
        parse("ev ; ev")


def test_nesting_is_limited_at_the_offending_parenthesis():
    depth = tangles.MAX_NESTING
    parse("(" * depth + "id+" + ")" * depth)
    with pytest.raises(TangleSyntaxError, match="nested deeper") as err:
        parse("(" * (depth + 1) + "id+" + ")" * (depth + 1))
    assert err.value.position == depth


@pytest.mark.parametrize("expr", [
    " | ".join(["id+"] * 7),                      # 3^7 x 3^7, 73 MB
    " | ".join(["id+"] * 14),
    # each node has at most 8 points, but the running product after the cups has 16
    "(ev | ev | ev | ev) ; (ev* | ev* | ev* | ev*) ; (ev | ev | ev | ev)",
])
def test_oversized_matrices_are_refused_before_any_allocation(expr, monkeypatch):
    cat = RepCategory(symmetric_group(4))
    ctx = EvalContext.make(cat, cat.irrep("3a"))

    def no_matrix(*args):
        raise AssertionError("a matrix was built")
    monkeypatch.setattr(tangles, "_gen_matrix", no_matrix)
    monkeypatch.setattr(tangles, "kron", no_matrix)
    with pytest.raises(TangleTypeError, match="over the 64 MB limit"):
        evaluate(expr, ctx)


def test_matrices_under_the_limit_are_evaluated():
    """Six strands of S4's 3a on each side: 3^6 x 3^6, 8.1 MB."""
    cat = RepCategory(symmetric_group(4))
    ctx = EvalContext.make(cat, cat.irrep("3a"))
    mat = evaluate(" | ".join(["id+"] * 6), ctx).matrix
    assert mat.shape == (729, 729) and max_dev(mat, np.eye(729)) == 0.0


def test_parse_annotates_boundary_types():
    tree = parse("(coev | id+) ; (id+ | ev)")
    assert isinstance(tree, Seq)
    assert tree.src == "+" and tree.dst == "+"
    first = tree.parts[0]
    assert isinstance(first, Par) and (first.src, first.dst) == ("+", "+-+")
    assert [(p.name, p.src, p.dst) for p in first.parts] == [("coev", "", "+-"),
                                                             ("id+", "+", "+")]


def test_closed_loop_value_is_dimension(s3_ctx):
    assert evaluate("coev ; coev*", s3_ctx).matrix[0, 0] == pytest.approx(2.0)
    assert evaluate("ev* ; ev", s3_ctx).matrix[0, 0] == pytest.approx(2.0)


def test_twist_tangle_is_balancing(s3_ctx, odd_ctx):
    twist = evaluate(KINK_PLUS, s3_ctx)
    assert max_dev(twist.matrix, np.eye(2)) < 1e-9
    odd_twist = evaluate(KINK_PLUS, odd_ctx)
    assert odd_twist.matrix[0, 0] == pytest.approx(-1.0)


def test_kinked_unknot_value(odd_ctx):
    # one positive kink in ambient 3 multiplies the closed loop by the twist
    kinked = f"ev* ; (id- | ({KINK_PLUS})) ; ev"
    assert evaluate(kinked, odd_ctx).matrix[0, 0] == pytest.approx(-1.0)


def test_evaluation_is_functorial(s3_ctx, rng):
    pieces = ["(coev | id+)", "(id+ | ev)"]
    whole = evaluate(" ; ".join(pieces), s3_ctx)
    first = evaluate(pieces[0], s3_ctx)
    second = evaluate(pieces[1], s3_ctx)
    assert max_dev(whole.matrix, second.matrix @ first.matrix) < 1e-12
    left = evaluate("coev", s3_ctx)
    right = evaluate("id+", s3_ctx)
    par = evaluate("coev | id+", s3_ctx)
    assert max_dev(par.matrix, np.kron(left.matrix, right.matrix)) < 1e-12


def test_crossings_rejected_in_ambient_two():
    cat = RepCategory(symmetric_group(3))
    ctx = EvalContext.make(cat, cat.irrep("2a"), ambient=2)
    evaluate("coev ; coev*", ctx)  # cups and caps are fine
    with pytest.raises(TangleTypeError, match="ambient"):
        evaluate("b++", ctx)


def test_move_suite_passes_for_catalog_objects(s3_ctx, odd_ctx):
    for ctx in (s3_ctx, odd_ctx):
        for entry in move_suite(ctx):
            assert entry.passed, (entry.move_id, entry.deviation)


def test_move_suite_ambient_four(s3_ctx):
    ctx = EvalContext.make(s3_ctx.cat, s3_ctx.x, ambient=4)
    entries = {e.move_id: e for e in move_suite(ctx)}
    assert entries["crossing-symmetry"].required
    assert entries["crossing-symmetry"].passed
    entries3 = {e.move_id: e for e in move_suite(s3_ctx)}
    assert not entries3["crossing-symmetry"].required
    assert "not required" in entries3["crossing-symmetry"].note


def test_scaled_context_fails_framed_r1(s3_ctx):
    ctx = EvalContext.make(s3_ctx.cat, s3_ctx.x, scale=2.0)
    entries = {e.move_id: e for e in move_suite(ctx)}
    assert entries["zigzag-plus"].passed  # still a duality
    assert entries["r2"].passed
    assert not entries["framed-r1"].passed
    assert entries["framed-r1"].deviation == pytest.approx(3.0, abs=1e-9)


@pytest.mark.parametrize("option", [{"tol": float("nan")}, {"tol": 0.0},
                                    {"scale": 0.0}, {"scale": float("inf")},
                                    {"scale": float("nan")}])
def test_context_rejects_invalid_tolerance_and_scale(s3_ctx, option):
    with pytest.raises(ValidationError):
        EvalContext.make(s3_ctx.cat, s3_ctx.x, **option)


def test_unknot_presentations_agree(s3_ctx, odd_ctx):
    for ctx, want in ((s3_ctx, 2.0), (odd_ctx, 1.0)):
        values = [evaluate(text, ctx).matrix[0, 0] for text in UNKNOT_PRESENTATIONS]
        assert len(values) >= 5
        for v in values:
            assert v == pytest.approx(want, abs=1e-8)


def test_hopf_presentations_agree(s3_ctx, odd_ctx):
    for ctx in (s3_ctx, odd_ctx):
        values = [evaluate(text, ctx).matrix[0, 0] for text in HOPF_PRESENTATIONS]
        assert len(values) >= 3
        first = values[0]
        for v in values[1:]:
            assert v == pytest.approx(first, abs=1e-8)


def test_move_check_boundary_mismatch(s3_ctx):
    with pytest.raises(TangleTypeError):
        move_check("id+", "id+ | id+", s3_ctx)


def _reference_tokenize(text):
    """The tokenizer as a loop: skip str.isspace, take a punctuation mark or
    else the first generator, longest first, that the text continues with."""
    generators = sorted(GEN_TYPES, key=len, reverse=True)
    tokens, pos = [], 0
    while pos < len(text):
        ch = text[pos]
        if ch.isspace():
            pos += 1
            continue
        if ch in ";|()":
            tokens.append((ch, ch, pos))
            pos += 1
            continue
        for gen in generators:
            if text.startswith(gen, pos):
                tokens.append(("gen", gen, pos))
                pos += len(gen)
                break
        else:
            raise TangleSyntaxError(f"unexpected character {ch!r}", pos)
    return tokens


# generators, their prefixes and suffixes, punctuation, ASCII and Unicode
# whitespace, and stray characters
_FRAGMENTS = sorted(GEN_TYPES) + [
    "c", "co", "coe", "e", "i", "id", "b", "B", "b+", "B-", "*", "+", "-",
    ";", "|", "(", ")", " ", "  ", "\t", "\n", "\x1c", "\xa0", "\u2003",
    "@", "x", "\u00e9", "\U0001f600"]


@settings(max_examples=400, deadline=None)
@given(st.lists(st.sampled_from(_FRAGMENTS), max_size=12).map("".join))
def test_tokenizer_matches_the_reference_loop(text):
    def outcome(tokenize):
        try:
            return tokenize(text)
        except TangleSyntaxError as err:
            return str(err), err.position

    assert outcome(tangles._tokenize) == outcome(_reference_tokenize)


def test_generator_matrices_are_read_only(s3_ctx):
    """Evaluations in one context share each generator's matrix."""
    value = evaluate("b++", s3_ctx)
    with pytest.raises(ValueError):
        value.matrix[0, 0] = 2.0
    assert evaluate("b++", s3_ctx).matrix is value.matrix


def test_parallel_composition_is_bitwise_kron(s3_ctx, rng):
    a = rng.normal(size=(2, 3)) + 1j * rng.normal(size=(2, 3))
    b = rng.normal(size=(4, 1)) + 1j * rng.normal(size=(4, 1))
    assert np.array_equal(kron(a, b), np.kron(a, b))
    par = evaluate("coev | b+- | ev*", s3_ctx).matrix
    want = np.kron(np.kron(evaluate("coev", s3_ctx).matrix, evaluate("b+-", s3_ctx).matrix),
                   evaluate("ev*", s3_ctx).matrix)
    assert np.array_equal(par, want)


@pytest.mark.parametrize("ambient", [2, 3, 4])
def test_move_suite_parses_nothing(monkeypatch, ambient):
    """The suite's expressions are parsed when the module loads, not per call."""
    cat = RepCategory(symmetric_group(4))
    ctx = EvalContext.make(cat, cat.irrep("3a"), ambient=ambient)

    def refuse(text):
        raise AssertionError(f"parse({text!r}) was called")

    monkeypatch.setattr(tangles, "parse", refuse)
    entries = move_suite(ctx)
    assert len(entries) == (4 if ambient == 2 else 10)
    assert all(e.passed for e in entries if e.required)


@pytest.mark.parametrize("ambient", [2, 3, 4])
def test_move_suite_builds_each_generator_once(monkeypatch, ambient):
    cat = RepCategory(symmetric_group(4))
    ctx = EvalContext.make(cat, cat.irrep("3a"), ambient=ambient)
    calls = Counter()
    original = tangles._gen_matrix

    def counted(name, context):
        calls[name] += 1
        return original(name, context)

    monkeypatch.setattr(tangles, "_gen_matrix", counted)
    move_suite(ctx)
    assert calls and max(calls.values()) == 1
    assert ("b++" in calls) == (ambient >= 3)
