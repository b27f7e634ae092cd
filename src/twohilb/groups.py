"""Finite groups, supergroups (a group with a chosen central involution),
and the built-in catalog.  There is no groupoid type: a finite groupoid is
equivalent to the disjoint union of its vertex groups, one per component, so
its Rep is the product of the components' Rep(G_x), each a ``RepCategory``.

Groups are multiplication tables on element indices; ``table[a, b]`` is the
index of "a times b".  All constructors validate the group axioms and
build a fresh group; a catalog entry, and ``load_group`` of a catalog name,
return one shared instance per process.
"""
from __future__ import annotations

import json
import os
from dataclasses import dataclass
from functools import partial

import numpy as np

from .errors import ValidationError
from .linalg import read_only

__all__ = ["FiniteGroup", "FiniteSuperGroup", "cyclic_group", "product_group",
           "symmetric_group", "dihedral_group", "quaternion_group", "catalog",
           "catalog_names", "load_group", "group_from_json"]


@dataclass(frozen=True, eq=False)
class FiniteGroup:
    """A finite group as a multiplication table on {0, .., order-1}.

    The table is one read-only int array, validated by ``make``.  The
    identity, the inverses, the element orders and the conjugacy classes
    are derived once, on first use, and kept on the instance, and so are
    the irreducibles, character table, skeleton and dual group of Rep(G)
    for each grading (see ``reps.RepCategory``); the values are read-only
    because every caller shares them.
    """

    name: str
    table: np.ndarray
    element_names: tuple[str, ...] | None = None

    @staticmethod
    def make(name: str, table, element_names=None) -> "FiniteGroup":
        """The validated group; a read-only array that owns its data is kept
        as the table, any other input is copied."""
        arr = table
        if not (isinstance(arr, np.ndarray) and arr.flags.owndata and not arr.flags.writeable):
            arr = np.array(table)
        if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
            raise ValidationError("multiplication table must be square")
        n = len(arr)
        if arr.dtype.kind not in "iu":  # a float, bool or string entry
            raise ValidationError("table entries must be integers")
        arr = arr.astype(int, copy=False)
        if np.any(arr < 0) or np.any(arr >= n):
            raise ValidationError("table entries out of range")
        names = tuple(element_names) if element_names else None
        if names and not len(names) == len(set(names)) == n:
            raise ValidationError("need one distinct name per element")
        g = FiniteGroup(name, read_only(arr), names)
        g.validate()
        return g

    def __eq__(self, other) -> bool:
        if not isinstance(other, FiniteGroup):
            return NotImplemented
        return (self.name == other.name and self.element_names == other.element_names
                and np.array_equal(self.table, other.table))

    def __hash__(self) -> int:
        return hash((self.name, self.order))

    def _memo(self, key: str, build):
        """The derived value stored under key, built on first use."""
        if key not in self.__dict__:
            object.__setattr__(self, key, build())
        return self.__dict__[key]

    @property
    def order(self) -> int:
        return len(self.table)

    @property
    def matrix(self) -> np.ndarray:
        return self.table

    def mult(self, a: int, b: int) -> int:
        return int(self.table[a, b])

    @property
    def identity(self) -> int:
        return self._memo("_identity", self._find_identity)

    def _find_identity(self) -> int:
        t, ar = self.matrix, np.arange(self.order)
        hits = np.flatnonzero((t == ar).all(axis=1) & (t.T == ar).all(axis=1))
        if not hits.size:
            raise ValidationError("no identity element")
        return int(hits[0])

    @property
    def inverses(self) -> np.ndarray:
        """inverses[a] is the index of a^-1 (read-only)."""
        return self._memo("_inverses", self._find_inverses)

    def _find_inverses(self) -> np.ndarray:
        hits = self.matrix == self.identity
        bad = np.flatnonzero(hits.sum(axis=1) != 1)
        if bad.size:
            raise ValidationError(f"element {bad[0]} has no unique inverse")
        return read_only(hits.argmax(axis=1))

    def inverse(self, a: int) -> int:
        return int(self.inverses[a])

    @property
    def generators(self) -> tuple[int, ...]:
        """The greedy generating set of ``_generators_and_walk``."""
        return self._memo("_walk", partial(_generators_and_walk, self))[0]

    @property
    def walk(self) -> tuple[tuple[int, np.ndarray, np.ndarray], ...]:
        """The steps (s, parents, children = parents s) that reach every
        element from the identity, in order (see ``_generators_and_walk``)."""
        return self._memo("_walk", partial(_generators_and_walk, self))[1]

    def validate(self) -> None:
        n = self.order
        t = self.matrix
        if np.any(np.sort(t, axis=1) != np.arange(n)):
            raise ValidationError("rows must be permutations")
        self.inverses  # finds the identity and every inverse, or raises
        # Light's test: the s with (xs)y = x(sy) for all x, y are closed under
        # products and contain the identity, so checking s over a generating
        # set is exact; each s costs two n x n gathers
        for s in self.generators:
            if not np.array_equal(t[t[:, s]], t[:, t[s]]):
                raise ValidationError("multiplication table is not associative")

    def element_name(self, a: int) -> str:
        if self.element_names:
            return self.element_names[a]
        return str(a)

    @property
    def element_orders(self) -> np.ndarray:
        """element_orders[a] is the order of a (read-only)."""
        return self._memo("_orders", self._find_orders)

    def _find_orders(self) -> np.ndarray:
        t, e, ar = self.matrix, self.identity, np.arange(self.order)
        orders = np.zeros(self.order, dtype=int)
        power, k = ar, 1  # power[a] = a^k
        while not orders.all():
            orders[(power == e) & (orders == 0)] = k
            power, k = t[power, ar], k + 1
        return read_only(orders)

    @property
    def is_abelian(self) -> bool:
        t = self.matrix
        return np.array_equal(t, t.T)

    @property
    def is_cyclic(self) -> bool:
        return bool(np.any(self.element_orders == self.order))

    def center(self) -> list[int]:
        t = self.matrix
        return np.flatnonzero((t == t.T).all(axis=1)).tolist()

    def conjugacy_classes(self) -> list[list[int]]:
        return [list(c) for c in self._memo("_classes", self._find_classes)]

    def _find_classes(self) -> tuple[tuple[int, ...], ...]:
        t = self.matrix
        conj = t[t, self.inverses[:, None]]  # conj[g, a] = g a g^-1
        seen = np.zeros(self.order, dtype=bool)
        classes = []
        for a in range(self.order):
            if not seen[a]:
                # bincount, not np.unique, whose first call imports numpy.ma
                cls = np.flatnonzero(np.bincount(conj[:, a], minlength=self.order))
                seen[cls] = True
                classes.append(tuple(cls.tolist()))
        return tuple(classes)

    def central_involutions(self) -> list[int]:
        e = self.identity
        return [a for a in self.center() if a != e and self.mult(a, a) == e]

    def to_json(self) -> dict:
        data = {"name": self.name, "order": self.order,
                "table": self.table.tolist()}
        if self.element_names:
            data["element_names"] = list(self.element_names)
        return data

    @staticmethod
    def from_json(data: dict) -> "FiniteGroup":
        g = FiniteGroup.make(data.get("name", "group"), data["table"],
                             data.get("element_names"))
        if "order" in data:
            order = data["order"]
            if not isinstance(order, int) or isinstance(order, bool):
                raise ValidationError("declared order must be an integer")
            if order != g.order:
                raise ValidationError("declared order does not match the table")
        return g


@dataclass(frozen=True)
class FiniteSuperGroup:
    """A finite group with a chosen central involution that grades every representation."""

    group: FiniteGroup
    z: int

    @staticmethod
    def make(group: FiniteGroup, z: int) -> "FiniteSuperGroup":
        if z < 0 or z >= group.order:
            raise ValidationError("grading element out of range")
        if z not in group.center():
            raise ValidationError("grading element must be central")
        if group.mult(z, z) != group.identity:
            raise ValidationError("grading element must square to the identity")
        return FiniteSuperGroup(group, z)


def group_from_json(data: dict):
    """Group or supergroup from the JSON interchange format."""
    g = FiniteGroup.from_json(data)
    z = data.get("central_involution")
    if z is None:
        return g
    if not isinstance(z, int) or isinstance(z, bool):
        raise ValidationError("central_involution must be an element index")
    return FiniteSuperGroup.make(g, int(z))


def _generators_and_walk(group: FiniteGroup):
    """A generating set, found greedily, and a walk over the Cayley graph.

    The first element not yet reached joins the generators, and the reached
    set is closed under right multiplication by the generators so far, one
    level at a time.  Each step (s, parents, children) of the walk records
    the elements first reached as children = parents s, so every element is
    a product ((g1 g2) g3)... of generators; a group of order n needs at
    most log2(n) of them.  The arrays are read-only."""
    t = group.matrix
    reached = np.zeros(len(t), dtype=bool)
    reached[group.identity] = True
    gens, steps = [], []
    while not reached.all():
        gens.append(int(np.argmin(reached)))
        frontier = np.flatnonzero(reached)  # each needs the new generator
        while frontier.size:
            level = [frontier[:0]]
            for s in gens:
                children = t[frontier, s]
                new = ~reached[children]
                if new.any():
                    reached[children[new]] = True
                    steps.append((s, read_only(frontier[new]), read_only(children[new])))
                    level.append(children[new])
            frontier = np.concatenate(level)
    return tuple(gens), tuple(steps)


# -- constructions -----------------------------------------------------------

def cyclic_group(n: int) -> FiniteGroup:
    table = (np.arange(n)[:, None] + np.arange(n)) % n
    names = [f"g{a}" for a in range(n)]
    names[0] = "e"
    return FiniteGroup.make(f"Z{n}", read_only(table), names)


def product_group(g: FiniteGroup, h: FiniteGroup) -> FiniteGroup:
    n, m = g.order, h.order
    # element (a, b) has index a * m + b, and (a, b)(c, d) = (ac, bd)
    table = g.matrix[:, None, :, None] * m + h.matrix[None, :, None, :]
    names = [f"({g.element_name(a)},{h.element_name(b)})"
             for a in range(n) for b in range(m)]
    return FiniteGroup.make(f"{g.name}x{h.name}", table.reshape(n * m, n * m), names)


def symmetric_group(n: int) -> FiniteGroup:
    from itertools import chain, permutations
    from math import factorial
    m = factorial(n)
    elems = np.fromiter(chain.from_iterable(permutations(range(n))), dtype=int,
                        count=m * n).reshape(m, n)
    # elements are listed in lexicographic order, which is the order of their
    # base-n codes; the product "first q, then p" is p[q], whose code
    # sum_i p[q[i]] n^(n-1-i) is added up one position i at a time and
    # then replaced by its index
    weights = n ** np.arange(n - 1, -1, -1)
    table = np.zeros((m, m), dtype=int)
    for i, w in enumerate(weights):
        table += (w * elems)[:, elems[:, i]]
    table = np.searchsorted(elems @ weights, table)
    names = ["".join(map(str, p)) for p in elems.tolist()]
    return FiniteGroup.make(f"S{n}", read_only(table), names)


def dihedral_group(n: int) -> FiniteGroup:
    """Dihedral group of order 2n: rotations r^a and reflections r^a s.

    Element a + n b is r^a s^b, and (r^a s^b)(r^c s^d) = r^(a + c (-1)^b) s^(b + d).
    """
    b, a = np.divmod(np.arange(2 * n), n)
    table = (a[:, None] + (1 - 2 * b[:, None]) * a) % n + n * (b[:, None] ^ b)
    names = [f"r{k}" for k in range(n)] + [f"r{k}s" for k in range(n)]
    names[0] = "e"
    return FiniteGroup.make(f"D{n}", read_only(table), names)


def quaternion_group() -> FiniteGroup:
    """The quaternion group of order 8 on {1, -1, i, -i, j, -j, k, -k}.

    Element 2u + s is (-1)^s times the unit u of (1, i, j, k).  Units
    multiply by XOR of their indices (ij = k, jk = i, ki = j, ii = 1), with
    the sign -1 for a square of i, j, k and for the reversed products ji,
    kj, ik, that is when (v - u) % 3 == 2.
    """
    unit, sign = np.divmod(np.arange(8), 2)
    u, v = unit[:, None], unit[None, :]
    flip = (u > 0) & (v > 0) & ((u == v) | ((v - u) % 3 == 2))
    table = 2 * (u ^ v) + (sign[:, None] ^ sign[None, :] ^ flip)
    names = ["1", "-1", "i", "-i", "j", "-j", "k", "-k"]
    return FiniteGroup.make("Q8", table, names)


# -- catalog -----------------------------------------------------------------

def _superhilb():
    z2 = cyclic_group(2)
    return FiniteSuperGroup.make(FiniteGroup.make("SuperHilb", z2.table, ("e", "z")), 1)


def _klein() -> FiniteGroup:
    return product_group(cyclic_group(2), cyclic_group(2))


_BUILDERS = {**{f"Z{n}": partial(cyclic_group, n) for n in range(1, 13)},
             "Z2xZ2": _klein,
             "S3": partial(symmetric_group, 3),
             "S4": partial(symmetric_group, 4),
             "D4": partial(dihedral_group, 4),
             "Q8": quaternion_group,
             "SuperHilb": _superhilb}
_BUILT: dict = {}


def _catalog_group(name: str):
    """The one shared instance of a catalog group, built on first use.  The
    data a group derives (its classes, irreducibles, character table, ...)
    is kept on it, so every caller in the process reuses it."""
    if name not in _BUILT:
        _BUILT[name] = _BUILDERS[name]()
    return _BUILT[name]


def catalog() -> dict:
    """The built-in group catalog, keyed by name: each entry returns the
    shared instance of its group (the constructors build fresh ones)."""
    return {name: partial(_catalog_group, name) for name in _BUILDERS}


def catalog_names() -> list[str]:
    return list(_BUILDERS)


def load_group(name: str):
    """Resolve a group by catalog name (the shared instance), JSON file path, or
    ``name[.json]`` in ``$TWOHILB_CATALOG`` (a file is built anew on every call)."""
    if name in _BUILDERS:
        return _catalog_group(name)
    candidates = [name]
    directory = os.environ.get("TWOHILB_CATALOG")
    if directory:
        candidates.append(os.path.join(directory, name))
        candidates.append(os.path.join(directory, name + ".json"))
    for path in candidates:
        if os.path.isfile(path):
            with open(path) as fh:
                try:
                    data = json.load(fh)
                    if not isinstance(data, dict):
                        raise TypeError("expected a JSON object")
                    return group_from_json(data)
                except (ValueError, TypeError, KeyError) as err:
                    # malformed JSON, a missing table or non-integer entries
                    raise ValidationError(f"{path} is not a group in the JSON "
                                          f"format: {err!r}") from err
    raise ValidationError(f"unknown group {name!r}; catalog has {catalog_names()}")
