"""The n-dimensional unitary geometry over F_{q^2}.

Vectors are tuples (or int64 arrays) of field-element ids; the Hermitian
product is <x, y> = sum_i x_i * conj(y_i).  ``UnitarySpace`` holds the
nonzero isotropic vectors in canonical (lexicographic) order as the block
codes the classification kernels take; a point's coordinates are decoded
from its blocks, and a vector's index is computed from them, on demand.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from . import kernels
from .fields import (FieldTables, _check_ids, build_field, check_int, norm_solutions,
                     trace_solutions)

# Every size limit of the package, name: (unit, limit); README lists what each gates.
BUDGETS = {
    "scan": ("points", 1 << 24),
    "pairs": ("pairs", 5_000_000),
    "dense": ("points", 512),
    "idempotents": ("points", 27),
    "chartable": ("points", 10**4000),
}


def check_budget(name: str, amount: int) -> None:
    """Refuse, before the work it bounds, an ``amount`` over budget ``name``."""
    unit, limit = BUDGETS[name]
    if amount > limit:
        raise ValueError(f"{_decimal(amount)} {unit} exceed the {name} budget of "
                         f"{_decimal(limit)}")


def check_dimension(n: int) -> None:
    """Refuse, naming it, an n that is not an integer of at least 2."""
    check_int("n", n)
    if n < 2:
        raise ValueError("n must be >= 2")


def _decimal(x: int) -> str:
    """``x`` in decimal below 10^100, else ``10^k`` or ``over 10^k``: Python
    refuses to print an int of more than 4300 digits."""
    if x < 10**100:
        return str(x)
    k = int((x.bit_length() - 1) * math.log10(2)) - 1  # 10^k < x
    while 10 ** (k + 1) <= x:
        k += 1
    return f"10^{k}" if x == 10**k else f"over 10^{k}"


def isotropic_count(n: int, q: int) -> int:
    """Closed-form size of the set of nonzero isotropic vectors in F_{q^2}^n."""
    check_int("n", n)
    check_int("q", q)
    n, q = int(n), int(q)  # a numpy integer's q**n would wrap at 2^63
    if n < 0:
        raise ValueError("dimension must be non-negative")
    if n <= 1:
        return 0
    return (q**n - (-1) ** n) * (q ** (n - 1) - (-1) ** (n - 1))


@dataclass(eq=False)
class UnitarySpace:
    """Enumerated isotropic vectors of F_{q^2}^n, kept as block codes.

    ``block_codes[i]`` are the codes of point i's two blocks (see
    ``kernels``), and a vector with blocks (head, tail) is point
    ``tables.start[head] + tables.rank[tail]`` if it is a point at all.
    ``block_codes`` and ``tables`` are the arguments the kernels in
    ``kernels`` take after the fixed vector.
    """

    n: int
    q: int
    ft: FieldTables
    block_codes: np.ndarray = field(repr=False)
    tables: kernels.BlockTables = field(repr=False)

    @property
    def size(self) -> int:
        return self.block_codes.shape[0]

    def point(self, index: int) -> tuple[int, ...]:
        """The coordinates of point ``index``."""
        t = self.tables
        return tuple(t.digits[self.block_codes[index]].ravel()[t.pad.size:].tolist())

    def index_of(self, vec) -> int:
        t = self.tables
        head, tail = blocks = (kernels._blocked(vec, t) @ t.place).tolist()
        idx = int(t.start[head] + t.rank[tail])
        if not 0 <= idx < self.size or self.block_codes[idx].tolist() != blocks:
            raise ValueError(f"{tuple(int(c) for c in vec)} is not a nonzero isotropic vector")
        return idx

    def __contains__(self, vec) -> bool:
        try:
            self.index_of(vec)
        except ValueError:
            return False
        return True

    def hermitian_inner(self, x, y) -> int:
        return hermitian_inner(self.ft, x, y)

    def is_isotropic(self, x) -> bool:
        _check_ids(x, self.ft.order, self.n)
        return _isotropic(self.ft, x)

    def scalar_multiple(self, lam: int, x) -> tuple[int, ...]:
        _check_ids(x, self.ft.order, self.n)
        if not 0 <= lam < self.ft.order:
            raise ValueError(f"scalar {lam} must be a field-element id in [0, {self.ft.order})")
        mul = self.ft.mul_table
        return tuple(int(mul[lam, c]) for c in x)

    def hyperbolic_partner(self, u) -> tuple[int, ...]:
        return hyperbolic_partner(self.ft, self.n, u)


def hermitian_inner(ft: FieldTables, x, y) -> int:
    """<x, y> = sum_i x_i * conj(y_i)."""
    if len(x) != len(y):
        raise ValueError("vectors must have the same length")
    _check_ids(x, ft.order)
    _check_ids(y, ft.order)
    return _inner(ft, x, y)


def _inner(ft: FieldTables, x, y) -> int:
    """``hermitian_inner`` of two vectors already checked to be element ids."""
    add, mul, conj = ft.lists
    acc = 0
    for a, b in zip(x, y):
        acc = add[acc][mul[a][conj[b]]]
    return acc


def _isotropic(ft: FieldTables, x) -> bool:
    """Whether checked element ids ``x`` form a nonzero isotropic vector."""
    return any(c != 0 for c in x) and _inner(ft, x, x) == 0


def hyperbolic_partner(ft: FieldTables, n: int, u) -> tuple[int, ...]:
    """Isotropic v with <u, v> = 1, chosen deterministically.

    Takes the first w in canonical vector order with <u, w> != 0, rescales it
    to <u, w> = 1, then subtracts the multiple of u that kills <w, w> (a trace
    equation over F_q).  That first w is the unit vector e_k at the last
    nonzero coordinate k of u: every vector before e_k is supported after k,
    where u vanishes.
    """
    check_int("n", n)
    _check_ids(u, ft.order, n)
    if all(c == 0 for c in u) or hermitian_inner(ft, u, u) != 0:
        raise ValueError("hyperbolic partner needs a nonzero isotropic vector")
    k = max(i for i, c in enumerate(u) if c)
    # <u, e_k> = u_k, so scale e_k by 1 / conj(u_k)
    w = (0,) * k + (ft.inv(ft.conj(int(u[k]))),) + (0,) * (n - k - 1)
    lam = trace_solutions(ft, hermitian_inner(ft, w, w))[0]
    v = tuple(ft.sub(wc, ft.mul(lam, uc)) for wc, uc in zip(w, u))
    if hermitian_inner(ft, v, v) != 0 or hermitian_inner(ft, u, v) != 1:
        raise AssertionError("hyperbolic partner construction failed")
    return v


def enumerate_isotropic(n: int, q: int) -> UnitarySpace:
    """Collect the nonzero isotropic vectors of F_{q^2}^n by a meet-in-the-middle scan."""
    ft = build_field(q)
    count = isotropic_count(n, q)  # refuses an n that is not an integer >= 0
    check_budget("scan", count)
    block_codes, start, rank = kernels.isotropic_scan(n, ft.order, ft.norm_table,
                                                      ft.add_table, count)
    return UnitarySpace(n=n, q=q, ft=ft, block_codes=block_codes,
                        tables=kernels.block_tables(ft, n, start, rank))


def unit_norm_witness(ft: FieldTables) -> int:
    """First element a (in canonical order) with a * conj(a) = -1."""
    return norm_solutions(ft, ft.neg(ft.one))[0]


def standard_isotropic_vector(ft: FieldTables, n: int) -> tuple[int, ...]:
    """The vector (1, a, 0, ..., 0) with a * conj(a) = -1."""
    check_dimension(n)
    return (ft.one, unit_norm_witness(ft)) + (0,) * (n - 2)


@lru_cache(maxsize=None)
def _witness_vectors(n: int, q: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """The standard isotropic vector x and its hyperbolic partner, once per (n, q)."""
    ft = build_field(q)
    x = standard_isotropic_vector(ft, n)
    return x, hyperbolic_partner(ft, n, x)


@lru_cache(maxsize=None, typed=True)  # typed, so that 1.0 and True miss the entry of 1
def witness_pair(l: int, n: int, q: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """A canonical ordered pair of isotropic vectors lying in relation l.

    Scalar relations pair x with g^l * x; product relations pair g^e * x with
    a hyperbolic partner of x; the perpendicular relation uses two standard
    vectors with disjoint support (hence needs n >= 4).  Pairs are cached,
    and x and its partner are found once per (n, q).
    """
    check_dimension(n)
    ft = build_field(q)
    nrel = ft.order - 1
    last = 2 * nrel
    check_int("l", l)
    if not 0 <= l <= last:
        raise ValueError(f"relation index {l} out of range [0, {last}]")
    x, v = _witness_vectors(n, q)
    if l < nrel:
        lam = ft.exp(l)
        return x, tuple(ft.mul(lam, c) for c in x)
    if l < last:
        lam = ft.exp(l - nrel)
        return tuple(ft.mul(lam, c) for c in x), v
    if n < 4:
        raise ValueError(
            "perpendicular independent pairs do not exist in dimension 2 or 3"
        )
    y = (0, 0) + (x[0], x[1]) + (0,) * (n - 4)
    return x, y
