"""Framed oriented tangle expressions: parsing, typing, and evaluation.

Grammar::

    expr   := term (';' term)*
    term   := factor ('|' factor)*
    factor := gen | '(' expr ')'
    gen    := id+ | id- | ev | ev* | coev | coev* | b?? | B??   (? in {+, -})

';' reads top to bottom (first operation first); '|' is horizontal
juxtaposition.  A '+' boundary point is the chosen object, '-' its dual.
Cups and caps evaluate to the counit/unit of a well-balanced duality;
``b st`` is the positive crossing (s, t) -> (t, s) and ``B st`` its inverse.
Crossings need ambient dimension at least 3; in ambient 4 both crossings
are required to agree (the braiding is a symmetry).

One compiled regular expression tokenizes an expression.  The move suite's
expressions are parsed once, when the module loads; any other is parsed on
every call.  An ``EvalContext`` builds each generator's matrix on first use
and keeps it, read-only, for every later occurrence, so a move suite builds
``b++`` and the inverse behind ``B++`` once.  Juxtaposition is
``linalg.kron``: the products ``np.kron`` makes, by broadcasting, without
its per-call set-up.
"""
from __future__ import annotations

import re
from dataclasses import dataclass, field

import numpy as np

from .errors import TangleSyntaxError, TangleTypeError, ValidationError
from .linalg import DEFAULT_TOL, distance_to_unitary, kron, max_dev
from .reps import Adjunction, Intertwiner, RepCategory, RepObject

__all__ = ["parse", "TangleExpr", "Gen", "Seq", "Par", "EvalContext",
           "evaluate", "move_check", "move_suite",
           "MoveEntry", "KINK_PLUS", "KINK_MINUS",
           "UNKNOT_PRESENTATIONS", "HOPF_PRESENTATIONS"]

GEN_TYPES = {
    "id+": ("+", "+"),
    "id-": ("-", "-"),
    "ev": ("-+", ""),
    "ev*": ("", "-+"),
    "coev": ("", "+-"),
    "coev*": ("+-", ""),
}
for _s in "+-":
    for _t in "+-":
        GEN_TYPES[f"b{_s}{_t}"] = (_s + _t, _t + _s)
        GEN_TYPES[f"B{_s}{_t}"] = (_s + _t, _t + _s)

_GENERATORS = sorted(GEN_TYPES, key=len, reverse=True)

# Each level of parentheses is three parser frames; about 330 reach the recursion limit.
MAX_NESTING = 100
# The largest matrix evaluate builds: 16 d^n bytes for n points of dimension d.
MAX_MATRIX_BYTES = 64 * 2 ** 20


@dataclass
class TangleExpr:
    src: str = ""
    dst: str = ""


@dataclass
class Gen(TangleExpr):
    name: str = ""


@dataclass
class Seq(TangleExpr):
    parts: list = field(default_factory=list)


@dataclass
class Par(TangleExpr):
    parts: list = field(default_factory=list)


# optional whitespace, then a token: a punctuation mark, a generator (the
# longest that matches, as the alternation takes the first and the list is
# longest first) or any other character, which is an error
_TOKEN = re.compile(r"(\s*)([;|()]|%s|\S)" % "|".join(map(re.escape, _GENERATORS)))
_TOKEN_KINDS = {**{ch: ch for ch in ";|()"}, **{gen: "gen" for gen in GEN_TYPES}}


def _tokenize(text: str):
    tokens = []
    pos = 0
    for space, tok in _TOKEN.findall(text):
        pos += len(space)
        kind = _TOKEN_KINDS.get(tok)
        if kind is None:
            raise TangleSyntaxError(f"unexpected character {tok!r}", pos)
        tokens.append((kind, tok, pos))
        pos += len(tok)
    return tokens


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.tokens = _tokenize(text)
        self.pos = 0
        self.depth = 0

    def peek(self):
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def at(self, kind: str) -> bool:
        return self.pos < len(self.tokens) and self.tokens[self.pos][0] == kind

    def take(self, kind=None):
        tok = self.peek()
        if tok is None:
            raise TangleSyntaxError("unexpected end of input", len(self.text))
        if kind is not None and tok[0] != kind:
            raise TangleSyntaxError(f"expected {kind!r}, found {tok[1]!r}", tok[2])
        self.pos += 1
        return tok

    def parse_expr(self) -> TangleExpr:
        parts = [self.parse_term()]
        while self.at(";"):
            self.pos += 1
            parts.append(self.parse_term())
        if len(parts) == 1:
            return parts[0]
        return _typed_seq(parts)

    def parse_term(self) -> TangleExpr:
        parts = [self.parse_factor()]
        while self.at("|"):
            self.pos += 1
            parts.append(self.parse_factor())
        if len(parts) == 1:
            return parts[0]
        node = Par(parts=parts)
        node.src = "".join(p.src for p in parts)
        node.dst = "".join(p.dst for p in parts)
        return node

    def parse_factor(self) -> TangleExpr:
        tok = self.peek()
        if tok is None:
            raise TangleSyntaxError("unexpected end of input", len(self.text))
        if tok[0] == "(":
            if self.depth == MAX_NESTING:
                raise TangleSyntaxError(f"parentheses nested deeper than {MAX_NESTING}", tok[2])
            self.take("(")
            self.depth += 1
            inner = self.parse_expr()
            self.depth -= 1
            self.take(")")
            return inner
        if tok[0] == "gen":
            self.take()
            src, dst = GEN_TYPES[tok[1]]
            return Gen(src=src, dst=dst, name=tok[1])
        raise TangleSyntaxError(f"unexpected token {tok[1]!r}", tok[2])


def _typed_seq(parts) -> Seq:
    for first, second in zip(parts, parts[1:]):
        if first.dst != second.src:
            raise TangleTypeError(
                f"inner boundary mismatch: {first.dst or '()'} then {second.src or '()'}")
    node = Seq(parts=parts)
    node.src = parts[0].src
    node.dst = parts[-1].dst
    return node


def parse(text: str) -> TangleExpr:
    """Parse and typecheck a tangle expression; annotates boundary words."""
    parser = _Parser(text)
    expr = parser.parse_expr()
    tok = parser.peek()
    if tok is not None:
        raise TangleSyntaxError(f"trailing input {tok[1]!r}", tok[2])
    return expr


# -- evaluation ----------------------------------------------------------------

@dataclass
class EvalContext:
    """Evaluation data: a rep category, an object with a duality, an ambient dimension."""

    cat: RepCategory
    x: RepObject
    adjunction: Adjunction
    ambient: int = 3
    tol: float = 1e-9
    # each generator's matrix, built on first use; read-only because every
    # evaluation in the context shares it
    _gens: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    @staticmethod
    def make(cat: RepCategory, x: RepObject, ambient: int = 3, tol: float = 1e-9,
             scale: complex | None = None) -> "EvalContext":
        """Context with the canonical well-balanced duality.

        ``scale`` deliberately deforms the duality (counit times scale, unit
        divided by it); the result is still a duality but no longer well
        balanced, which the framed first Reidemeister move detects.
        """
        if ambient not in (2, 3, 4):
            raise ValidationError("ambient dimension must be 2, 3 or 4")
        if not tol > 0:
            raise ValidationError("tolerance must be positive")
        if scale is not None and (scale == 0 or not np.isfinite(scale)):
            raise ValidationError("scale must be nonzero and finite")
        scaled = scale is not None and scale != 1
        # an unscaled duality in ambient 3 or 4 must also be balanced within tol
        adj = cat.well_balanced_adjunction(
            x, tol=DEFAULT_TOL if scaled or ambient < 3 else min(tol, DEFAULT_TOL))
        return EvalContext(cat, x, adj.scaled(scale) if scaled else adj, ambient, tol)

    @property
    def xstar(self) -> RepObject:
        return self.adjunction.xstar

    def leg(self, sign: str) -> RepObject:
        return self.x if sign == "+" else self.xstar

    def word_object(self, word: str) -> RepObject:
        obj = None
        for sign in word:
            leg = self.leg(sign)
            obj = leg if obj is None else self.cat.tensor(obj, leg)
        return obj if obj is not None else self.cat.unit()


def _gen_matrix(name: str, ctx: EvalContext) -> np.ndarray:
    adj = ctx.adjunction
    if name == "id+":
        return np.eye(ctx.x.dim, dtype=np.complex128)
    if name == "id-":
        return np.eye(ctx.xstar.dim, dtype=np.complex128)
    if name == "ev":
        return adj.e.matrix
    if name == "ev*":
        return adj.e.matrix.conj().T
    if name == "coev":
        return adj.i.matrix
    if name == "coev*":
        return adj.i.matrix.conj().T
    if name[0] in "bB":
        if ctx.ambient < 3:
            raise TangleTypeError("crossings are not available in ambient dimension 2")
        s, t = name[1], name[2]
        if name[0] == "b":
            return ctx.cat.braiding(ctx.leg(s), ctx.leg(t)).matrix
        return np.linalg.inv(ctx.cat.braiding(ctx.leg(t), ctx.leg(s)).matrix)
    raise ValidationError(f"unknown generator {name!r}")


def evaluate(expr, ctx: EvalContext) -> Intertwiner:
    """Evaluate a (parsed or textual) tangle expression to an intertwiner."""
    if isinstance(expr, str):
        expr = parse(expr)
    points = _boundary_points(expr)
    if 16 * ctx.x.dim ** points > MAX_MATRIX_BYTES:
        raise TangleTypeError(f"evaluation needs {points} boundary points of dimension "
                              f"{ctx.x.dim}, over the {MAX_MATRIX_BYTES >> 20} MB limit")
    mat = _eval_node(expr, ctx)
    return Intertwiner(ctx.word_object(expr.src), ctx.word_object(expr.dst), mat)


def _boundary_points(node: TangleExpr) -> int:
    """The most boundary points of any matrix that evaluating ``node`` builds,
    each running product of a composite (its source to a part's target) included."""
    if isinstance(node, Seq):
        own = len(node.src) + max(len(part.dst) for part in node.parts)
    else:
        own = len(node.src) + len(node.dst)
    return max([own] + [_boundary_points(part) for part in getattr(node, "parts", ())])


def _eval_node(node: TangleExpr, ctx: EvalContext) -> np.ndarray:
    if isinstance(node, Gen):
        mat = ctx._gens.get(node.name)
        if mat is None:
            # a copy, so the adjunction's own arrays stay writable
            mat = ctx._gens[node.name] = np.array(_gen_matrix(node.name, ctx),
                                                  dtype=np.complex128)
            mat.flags.writeable = False
        return mat
    if isinstance(node, Seq):
        mat = _eval_node(node.parts[0], ctx)
        for part in node.parts[1:]:
            mat = _eval_node(part, ctx) @ mat
        return mat
    if isinstance(node, Par):
        mat = None
        for part in node.parts:
            piece = _eval_node(part, ctx)
            mat = piece if mat is None else kron(mat, piece)
        return mat
    raise ValidationError("malformed tangle tree")


# -- moves ---------------------------------------------------------------------

KINK_PLUS = "(ev* | id+) ; (id- | b++) ; (ev | id+)"
KINK_MINUS = "(ev* | id+) ; (id- | B++) ; (ev | id+)"

UNKNOT_PRESENTATIONS = [
    "coev ; coev*",
    "ev* ; ev",
    "coev ; (id+ | id-) ; coev*",
    f"ev* ; (id- | ({KINK_PLUS} ; {KINK_MINUS})) ; ev",
    "ev* ; b-+ ; B+- ; ev",
    "ev* ; (id- | ((coev | id+) ; (id+ | ev))) ; ev",
]

HOPF_PRESENTATIONS = [
    "(ev* | ev*) ; (id- | (b+- ; b-+) | id+) ; (ev | ev)",
    "(ev* | ev*) ; (id- | (b+- ; b-+ ; b+- ; B-+) | id+) ; (ev | ev)",
    f"(ev* | ev*) ; (id- | (b+- ; b-+) | ({KINK_PLUS} ; {KINK_MINUS})) ; (ev | ev)",
]


@dataclass
class MoveEntry:
    move_id: str
    name: str
    lhs: str
    rhs: str | None
    deviation: float
    passed: bool
    required: bool
    note: str = ""

    def to_json(self) -> dict:
        return {"id": self.move_id, "name": self.name, "lhs": self.lhs,
                "rhs": self.rhs, "deviation": self.deviation,
                "passed": self.passed, "required": self.required,
                "note": self.note}


def move_check(lhs: str | TangleExpr, rhs: str | TangleExpr, ctx: EvalContext) -> float:
    """Evaluate both sides (parsed or textual) of a move; returns the largest
    entry deviation."""
    left = evaluate(lhs, ctx)
    right = evaluate(rhs, ctx)
    if left.src.dim != right.src.dim or left.dst.dim != right.dst.dim:
        raise TangleTypeError("move sides have different boundaries")
    return max_dev(left.matrix, right.matrix)


_ZIGZAGS = [
    ("zigzag-plus", "(coev | id+) ; (id+ | ev)", "id+"),
    ("zigzag-minus", "(id- | coev) ; (ev | id-)", "id-"),
    ("zigzag-star-plus", "(ev* | id-) ; (id- | coev*)", "id-"),
    ("zigzag-star-minus", "(id+ | ev*) ; (coev* | id+)", "id+"),
]

_CROSSING_PAIRS = [
    ("r2", "b++ ; B++", "id+ | id+"),
    ("r2-mixed", "b+- ; B-+", "id+ | id-"),
    ("r3", "(b++ | id+) ; (id+ | b++) ; (b++ | id+)",
     "(id+ | b++) ; (b++ | id+) ; (id+ | b++)"),
    ("framed-r1-pair", f"{KINK_PLUS} ; {KINK_MINUS}", "id+"),
]


# the suite's expressions never change, so each is parsed once, here
_PARSED = {text: parse(text)
           for text in [t for _, lhs, rhs in _ZIGZAGS + _CROSSING_PAIRS for t in (lhs, rhs)]
           + [KINK_PLUS, "b++", "B++"]}


def move_suite(ctx: EvalContext) -> list[MoveEntry]:
    """Evaluate the standard isotopy moves in the given context.

    Ambient 2 runs only the duality zig-zags; ambient 3 adds the second and
    third Reidemeister moves and the framed first move (the twist tangle
    must be unitary); ambient 4 additionally requires crossing symmetry.  A
    move passes when its deviation is below ``ctx.tol``.
    """
    jobs = []
    for move_id, lhs, rhs in _ZIGZAGS:
        jobs.append((move_id, move_id, lhs, rhs, True, ""))
    if ctx.ambient >= 3:
        for move_id, lhs, rhs in _CROSSING_PAIRS:
            jobs.append((move_id, move_id, lhs, rhs, True, ""))
        jobs.append(("framed-r1", "framed-r1 (twist unitarity)", KINK_PLUS, None,
                     True, "deviation is the distance of the twist from unitary"))
        required = ctx.ambient == 4
        note = "" if required else "not required in ambient 3"
        jobs.append(("crossing-symmetry", "crossing-symmetry", "b++", "B++",
                     required, note))

    entries = []
    for move_id, name, lhs, rhs, required, note in jobs:
        if rhs is None:
            deviation = distance_to_unitary(evaluate(_PARSED[lhs], ctx).matrix)
        else:
            deviation = move_check(_PARSED[lhs], _PARSED[rhs], ctx)
        entries.append(MoveEntry(move_id, name, lhs, rhs, float(deviation),
                                 bool(deviation < ctx.tol), required, note))
    return entries
