"""Exact arithmetic in F_q and its quadratic extension F_{q^2} for small q.

Elements are integer ids: id 0 is the zero element and id k (1 <= k <= q^2-1)
is g^(k-1) for the fixed primitive generator g.  All arithmetic is table
lookup, so the integer order of ids (zero first, then ascending powers of g)
doubles as the canonical element order used everywhere else in the package.

Each element also has one coefficient encoding: its m coefficients over F_p
in the basis 1, g, ..., g^(m-1), with q^2 = p^m.  The powers of g are found
in it by shifting and reducing by the Conway polynomial, and addition and
negation are digit-wise modulo p, so those two tables are array arithmetic
over the digits.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

# Conway polynomials over the prime field, lowest degree first, keyed by
# (p, m) with q^2 = p^m.  Pinning these makes the generator, and with it every
# relation label downstream, reproducible across runs.
_CONWAY = {
    (2, 2): (1, 1, 1),
    (3, 2): (2, 2, 1),
    (2, 4): (1, 1, 0, 0, 1),
    (5, 2): (2, 4, 1),
    (7, 2): (3, 6, 1),
    (2, 6): (1, 1, 0, 1, 1, 0, 1),
    (3, 4): (2, 0, 0, 2, 1),
}

SUPPORTED_Q = (2, 3, 4, 5, 7, 8, 9)


def _prime_power(q: int) -> tuple[int, int] | None:
    """Return (p, k) with q = p^k, or None if q is not a prime power."""
    if q < 2:
        return None
    for p in range(2, q + 1):
        if p * p > q and p < q:
            break
        if q % p:
            continue
        k, m = 0, q
        while m % p == 0:
            m //= p
            k += 1
        return (p, k) if m == 1 else None
    return (q, 1)


@dataclass(frozen=True, eq=False)
class FieldTables:
    """Lookup-table model of F_{q^2} with the involution x -> x^q.

    ``exp_table[e]`` is the id of g^e and ``log_table`` is its inverse (-1 at
    zero).  ``coeff_digits[a]`` are the coefficients of a over F_p, lowest
    degree first, ``coeff_table[a]`` packs them as a base-p number, and
    ``id_of_coeff`` is its inverse.
    ``modulus_poly`` holds the ids of the constant, linear and leading
    coefficients of the minimal polynomial of g over the embedded F_q.
    """

    q: int
    p: int
    order: int
    modulus_poly: tuple[int, int, int]
    exp_table: np.ndarray
    log_table: np.ndarray
    conj_table: np.ndarray
    add_table: np.ndarray
    mul_table: np.ndarray
    neg_table: np.ndarray
    inv_table: np.ndarray
    norm_table: np.ndarray
    coeff_table: np.ndarray
    coeff_digits: np.ndarray
    id_of_coeff: np.ndarray
    base_field: tuple[int, ...]

    # -- element constants ------------------------------------------------

    @property
    def zero(self) -> int:
        return 0

    @property
    def one(self) -> int:
        return 1

    @property
    def generator(self) -> int:
        return int(self.exp_table[1])

    def elements(self) -> range:
        return range(self.order)

    @cached_property
    def lists(self) -> tuple[list[list[int]], list[list[int]], list[int]]:
        """``add_table``, ``mul_table`` and ``conj_table`` as nested Python
        lists, for loops over single elements: indexing a list with a Python
        int returns a Python int, where a numpy table returns a numpy scalar."""
        return self.add_table.tolist(), self.mul_table.tolist(), self.conj_table.tolist()

    # -- arithmetic --------------------------------------------------------

    def add(self, a: int, b: int) -> int:
        return int(self.add_table[a, b])

    def sub(self, a: int, b: int) -> int:
        return int(self.add_table[a, self.neg_table[b]])

    def neg(self, a: int) -> int:
        return int(self.neg_table[a])

    def mul(self, a: int, b: int) -> int:
        return int(self.mul_table[a, b])

    def div(self, a: int, b: int) -> int:
        if b == 0:
            raise ZeroDivisionError("division by the zero field element")
        return int(self.mul_table[a, self.inv_table[b]])

    def inv(self, a: int) -> int:
        if a == 0:
            raise ZeroDivisionError("zero field element has no inverse")
        return int(self.inv_table[a])

    def pow(self, a: int, e: int) -> int:
        """Square-and-multiply power; independent of the log tables."""
        if e < 0:
            return self.pow(self.inv(a), -e)
        result, base = 1, a
        while e:
            if e & 1:
                result = self.mul(result, base)
            base = self.mul(base, base)
            e >>= 1
        return result

    def conj(self, a: int) -> int:
        return int(self.conj_table[a])

    def norm(self, a: int) -> int:
        return int(self.norm_table[a])

    def trace(self, a: int) -> int:
        return int(self.add_table[a, self.conj_table[a]])

    def in_base_field(self, a: int) -> bool:
        return int(self.conj_table[a]) == a

    def log(self, a: int) -> int:
        if a == 0:
            raise ValueError("zero field element has no discrete log")
        return int(self.log_table[a])

    def exp(self, e: int) -> int:
        return int(self.exp_table[e % (self.order - 1)])


def check_int(name: str, value, error: type[ValueError] = ValueError) -> None:
    """Refuse ``value``, naming it, unless it is an int or a numpy integer (not a bool)."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise error(f"{name} must be an integer, not {value!r}")


def _check_ids(vec, order: int, n: int | None = None) -> None:
    """Reject ``vec`` unless it is field-element ids in [0, order), and n of
    them when n is given."""
    ids = vec.tolist() if isinstance(vec, np.ndarray) else vec  # min/max are slow on arrays
    if n is not None and len(ids) != n:
        raise ValueError(f"expected a vector of length {n}")
    if ids and not (0 <= min(ids) and max(ids) < order):
        raise ValueError(f"coordinates of {tuple(int(c) for c in vec)} must be"
                         f" field-element ids in [0, {order})")


@lru_cache(maxsize=None, typed=True)  # typed, so that 2.0 and True miss the entries of 2 and 1
def build_field(q: int) -> FieldTables:
    """Build the arithmetic tables for F_{q^2}, q an integer in the supported range."""
    check_int("q", q)
    pk = _prime_power(q)
    if pk is None:
        raise ValueError(f"q must be a prime power, got {q}")
    if q not in SUPPORTED_Q:
        raise ValueError(f"q={q} is outside the supported range {SUPPORTED_Q}")
    p, k = pk
    m = 2 * k
    conway = _CONWAY[(p, m)]
    order = q * q

    # row e holds g^e: multiplying by g shifts the digits up, and the one
    # shifted out is reduced by the Conway polynomial
    low = np.array(conway[:m])
    coeff_digits = np.zeros((order, m), dtype=np.int64)
    coeff_digits[1, 0] = 1
    for e in range(2, order):
        prev = coeff_digits[e - 1]
        coeff_digits[e, 1:] = prev[:-1]
        coeff_digits[e] = (coeff_digits[e] - prev[-1] * low) % p
    place = p ** np.arange(m)
    coeff_table = coeff_digits @ place
    if sorted(coeff_table[1:].tolist()) != list(range(1, order)):
        raise AssertionError(f"modulus for q={q} is not primitive")
    id_of_coeff = np.empty(order, dtype=np.int64)
    id_of_coeff[coeff_table] = np.arange(order)

    n1 = order - 1
    exp_table = np.arange(1, order, dtype=np.int64)
    log_table = np.concatenate(([-1], np.arange(n1, dtype=np.int64)))

    ids = np.arange(order)
    mul_table = np.zeros((order, order), dtype=np.int64)
    nz = ids[1:]
    mul_table[1:, 1:] = 1 + (nz[:, None] - 1 + nz[None, :] - 1) % n1

    add_table = id_of_coeff[((coeff_digits[:, None] + coeff_digits) % p) @ place]
    neg_table = id_of_coeff[(-coeff_digits % p) @ place]

    conj_table = np.zeros(order, dtype=np.int64)
    conj_table[1:] = 1 + ((nz - 1) * q) % n1

    inv_table = np.zeros(order, dtype=np.int64)
    inv_table[1:] = 1 + (n1 - (nz - 1)) % n1

    norm_table = mul_table[ids, conj_table]

    base_field = tuple(int(a) for a in ids if conj_table[a] == a)

    # Minimal polynomial of g over F_q: X^2 - (g + g^q) X + g^(q+1).
    g = int(exp_table[1])
    tr = int(add_table[g, conj_table[g]])
    nrm = int(norm_table[g])
    modulus_poly = (nrm, int(neg_table[tr]), 1)

    for arr in (exp_table, log_table, conj_table, add_table, mul_table,
                neg_table, inv_table, norm_table, coeff_table, coeff_digits, id_of_coeff):
        arr.setflags(write=False)

    return FieldTables(
        q=q, p=p, order=order, modulus_poly=modulus_poly,
        exp_table=exp_table, log_table=log_table, conj_table=conj_table,
        add_table=add_table, mul_table=mul_table, neg_table=neg_table,
        inv_table=inv_table, norm_table=norm_table, coeff_table=coeff_table,
        coeff_digits=coeff_digits, id_of_coeff=id_of_coeff, base_field=base_field,
    )


def norm_solutions(ft: FieldTables, lam: int) -> list[int]:
    """All x in F_{q^2}* with x * conj(x) = lam, for lam in F_q*.

    There are always exactly q+1 of them, returned in canonical id order.
    """
    if lam == 0 or not ft.in_base_field(lam):
        raise ValueError("norm equation needs a nonzero element of the base field")
    sols = [a for a in range(1, ft.order) if ft.norm(a) == lam]
    if len(sols) != ft.q + 1:
        raise AssertionError("norm fiber has unexpected size")
    return sols


def trace_solutions(ft: FieldTables, lam: int) -> list[int]:
    """All x in F_{q^2} with x + conj(x) = lam, for lam in F_q.

    There are always exactly q of them, returned in canonical id order.
    """
    if not ft.in_base_field(lam):
        raise ValueError("trace equation needs an element of the base field")
    sols = [a for a in range(ft.order) if ft.trace(a) == lam]
    if len(sols) != ft.q:
        raise AssertionError("trace fiber has unexpected size")
    return sols
