import itertools
import math
import random
import re
import time
import tracemalloc

import numpy as np
import pytest

from unitary_schemes import kernels, space
from unitary_schemes.fields import build_field
from unitary_schemes.scheme import classify_pair
from unitary_schemes.space import (
    BUDGETS,
    enumerate_isotropic,
    hermitian_inner,
    hyperbolic_partner,
    isotropic_count,
    standard_isotropic_vector,
    witness_pair,
)

from _reference import (
    RefField,
    full_codes,
    hyperbolic_partner_scan,
    inner,
    isotropic_vectors,
    vectors,
)

COUNTS = {
    (2, 2): 9, (3, 2): 27, (4, 2): 135, (5, 2): 495, (6, 2): 2079,
    (2, 3): 32, (3, 3): 224, (4, 3): 2240,
}


@pytest.mark.parametrize("n,q", sorted(COUNTS))
def test_closed_count_matches_enumeration(n, q, get_space):
    assert isotropic_count(n, q) == COUNTS[n, q]
    assert get_space(n, q).size == COUNTS[n, q]


@pytest.mark.parametrize("n,q,count", [(5, 3, 19520), (6, 3, 177632)])
def test_counts_at_larger_q3_instances(n, q, count):
    assert isotropic_count(n, q) == count
    assert enumerate_isotropic(n, q).size == count


def test_degenerate_dimensions():
    assert isotropic_count(0, 2) == 0
    assert isotropic_count(1, 5) == 0
    assert enumerate_isotropic(1, 2).size == 0
    # the empty spaces hold no point, the empty vector and (0,) included
    for n in (0, 1):
        us = enumerate_isotropic(n, 3)
        assert us.size == 0 and (0,) * n not in us and (1,) * n not in us
    with pytest.raises(ValueError):
        isotropic_count(-1, 2)


def test_budget_rejection(monkeypatch):
    # the scan budget counts the points, from the closed count, before the scan
    def no_scan(*args):
        raise AssertionError("scan ran over budget")

    monkeypatch.setattr(kernels, "isotropic_scan", no_scan)
    with pytest.raises(ValueError, match="^33550335 points exceed the scan"
                                         " budget of 16777216$"):
        enumerate_isotropic(13, 2)
    # (8, 3) and (4, 9) are the largest spaces admitted; each has more than
    # 2^24 coordinate vectors
    assert isotropic_count(13, 2) > BUDGETS["scan"][1] >= isotropic_count(8, 3)
    assert min(3**16, 9**8) > BUDGETS["scan"][1] >= isotropic_count(4, 9)


def test_huge_dimension_refused_from_n(monkeypatch):
    """At n = 10^9 the count alone is a number of 2 * 10^9 bits at q = 2 and
    6.3 * 10^9 at q = 9; the refusal comes from n, without it."""
    def no_count(n, q):
        raise AssertionError(f"isotropic_count({n}, {q})")

    monkeypatch.setattr(space, "isotropic_count", no_count)
    start = time.perf_counter()
    for q, k in ((2, 602059991), (9, 1908485017)):
        with pytest.raises(ValueError, match=f"^over 10\\^{k} points exceed the scan budget"
                                             " of 16777216$"):
            enumerate_isotropic(10**9, q)
    assert time.perf_counter() - start < 1


@pytest.mark.parametrize("q", [2, 3, 9])
def test_count_exponent_from_logarithms_is_the_exact_one(q):
    """Just past ``COUNT_BITS`` the exponent k of ``over 10^k`` comes from
    logarithms; there it is the one printed from the exact count, so
    10^k < count."""
    n = int(space.COUNT_BITS / math.log2(q) / 2)
    while (2 * n - 1) * math.log2(q) <= space.COUNT_BITS:
        n += 1
    with pytest.raises(ValueError) as refused:
        space.budgeted_count("scan", n, q)
    exact = space._decimal(isotropic_count(n, q))
    assert str(refused.value).split(" points")[0] == exact
    assert exact.startswith("over 10^")


@pytest.mark.parametrize("n,q", [(2, 2), (3, 2), (2, 3)])
def test_enumeration_matches_reference_order(n, q, get_space):
    ref = RefField(q)
    expected = [tuple(ref.id_of(c) for c in vec) for vec in isotropic_vectors(ref, n)]
    got = [tuple(int(c) for c in row) for row in vectors(get_space(n, q))]
    assert got == expected


@pytest.mark.parametrize("n,q", [(4, 2), (3, 3)])
def test_enumeration_sorted_and_isotropic(n, q, get_space):
    us = get_space(n, q)
    rows = [tuple(int(c) for c in row) for row in vectors(us)]
    assert rows == sorted(rows)
    assert len(set(rows)) == len(rows)
    for vec in rows[:: max(1, len(rows) // 50)]:
        assert us.is_isotropic(vec)
    for idx, vec in enumerate(rows):
        assert us.index_of(vec) == idx


def test_index_of_rejects_outsiders(get_space):
    us = get_space(2, 2)
    with pytest.raises(ValueError):
        us.index_of((1, 0))  # <x,x> = 1, not isotropic
    with pytest.raises(ValueError):
        us.index_of((1, 1, 0))


@pytest.mark.parametrize("vec", [(-1, 3), (0, -1), (0, 16), (1, 99), (3, 4)])
def test_coordinates_must_be_element_ids(vec, get_space):
    # q = 2: ids lie in [0, 4); (-1, 3) used to wrap to the index of (3, 3)
    us = get_space(2, 2)
    with pytest.raises(ValueError, match=r"field-element ids in \[0, 4\)"):
        us.index_of(vec)
    with pytest.raises(ValueError, match=r"field-element ids in \[0, 4\)"):
        us.is_isotropic(vec)
    with pytest.raises(ValueError, match="field-element ids"):
        classify_pair(us, vec, (1, 2))
    assert vec not in us
    assert (3, 3) in us and us.index_of((3, 3)) == 8


@pytest.mark.parametrize("call,message", [
    (lambda us: kernels.classify_row((-1, 3), us.block_codes, us.tables),
     r"coordinates of \(-1, 3\) must be field-element ids in \[0, 4\)"),
    (lambda us: kernels.classify_row((1, 99), us.block_codes, us.tables),
     r"coordinates of \(1, 99\) must be field-element ids in \[0, 4\)"),
    (lambda us: classify_pair(us, (1, 1), (1, 99)),
     r"coordinates of \(1, 99\) must be field-element ids in \[0, 4\)"),
    (lambda us: hermitian_inner(us.ft, (-1, 3), (1, 1)),
     r"coordinates of \(-1, 3\) must be field-element ids in \[0, 4\)"),
    (lambda us: hyperbolic_partner(us.ft, 2, (-1, 3)),
     r"coordinates of \(-1, 3\) must be field-element ids in \[0, 4\)"),
    (lambda us: us.scalar_multiple(7, (1, 1)),
     r"scalar 7 must be a field-element id in \[0, 4\)"),
], ids=["classify_row-negative", "classify_row-large", "classify_pair-large",
        "hermitian_inner", "hyperbolic_partner", "scalar_multiple"])
def test_element_ids_checked_by_every_entry_point(call, message, get_space):
    # (2, 2): (-1, 3) used to read as (3, 3), (1, 99) and the scalar 7 failed
    # with numpy's IndexError, and hermitian_inner returned 0
    with pytest.raises(ValueError, match=f"^{message}$"):
        call(get_space(2, 2))


@pytest.mark.parametrize("q", [2, 3])
def test_hermitian_conjugate_symmetry(q, get_space):
    us = get_space(2, q)
    ft = us.ft
    for x in vectors(us):
        for y in vectors(us):
            assert hermitian_inner(ft, y, x) == ft.conj(hermitian_inner(ft, x, y))


def test_hermitian_examples():
    ft = build_field(2)
    assert hermitian_inner(ft, (1, 0), (1, 0)) == 1
    assert hermitian_inner(ft, (1, 1), (1, 1)) == 0
    with pytest.raises(ValueError):
        hermitian_inner(ft, (1, 0), (1, 0, 0))


def test_hermitian_sesquilinear():
    ft = build_field(3)
    rng = random.Random(7)
    for _ in range(50):
        x = tuple(rng.randrange(ft.order) for _ in range(3))
        y = tuple(rng.randrange(ft.order) for _ in range(3))
        lam = rng.randrange(1, ft.order)
        lx = tuple(ft.mul(lam, c) for c in x)
        ly = tuple(ft.mul(lam, c) for c in y)
        assert hermitian_inner(ft, lx, y) == ft.mul(lam, hermitian_inner(ft, x, y))
        assert hermitian_inner(ft, x, ly) == ft.mul(ft.conj(lam), hermitian_inner(ft, x, y))


def test_hermitian_against_reference():
    ref = RefField(3)
    ft = build_field(3)
    rng = random.Random(11)
    for _ in range(30):
        x = tuple(rng.randrange(ft.order) for _ in range(2))
        y = tuple(rng.randrange(ft.order) for _ in range(2))
        rx = tuple(ref.elements[c] for c in x)
        ry = tuple(ref.elements[c] for c in y)
        assert hermitian_inner(ft, x, y) == ref.id_of(inner(ref, rx, ry))


def test_hyperbolic_partner_exhaustive_4_2(get_space):
    us = get_space(4, 2)
    ft = us.ft
    for u in vectors(us):
        u = tuple(int(c) for c in u)
        v = us.hyperbolic_partner(u)
        assert hermitian_inner(ft, u, v) == 1
        assert hermitian_inner(ft, v, v) == 0
        assert us.hyperbolic_partner(u) == v  # deterministic


@pytest.mark.parametrize("n,q", [(2, 2), (3, 2), (4, 2), (2, 3), (3, 3), (2, 4), (2, 5)])
def test_hyperbolic_partner_matches_canonical_scan(n, q, get_space):
    us = get_space(n, q)
    ref = RefField(q)
    for u in vectors(us):
        u = tuple(int(c) for c in u)
        scanned = hyperbolic_partner_scan(ref, tuple(ref.elements[c] for c in u))
        assert us.hyperbolic_partner(u) == tuple(ref.id_of(c) for c in scanned)


def test_hyperbolic_partner_spot_3_3(get_space):
    us = get_space(3, 3)
    ft = us.ft
    for u in vectors(us)[::17]:
        u = tuple(int(c) for c in u)
        v = us.hyperbolic_partner(u)
        assert hermitian_inner(ft, u, v) == 1
        assert hermitian_inner(ft, v, v) == 0


def test_hyperbolic_partner_never_proportional(get_space):
    us = get_space(3, 2)
    ft = us.ft
    for u in vectors(us):
        u = tuple(int(c) for c in u)
        v = us.hyperbolic_partner(u)
        assert all(v != us.scalar_multiple(lam, u) for lam in range(1, ft.order))


def test_hyperbolic_partner_rejects_bad_input():
    ft = build_field(2)
    with pytest.raises(ValueError):
        hyperbolic_partner(ft, 2, (1, 0))  # not isotropic
    with pytest.raises(ValueError):
        hyperbolic_partner(ft, 2, (0, 0))


def test_standard_vector_is_isotropic():
    for q in (2, 3, 4, 5):
        ft = build_field(q)
        x = standard_isotropic_vector(ft, 4)
        assert hermitian_inner(ft, x, x) == 0
        assert x[0] == ft.one and all(c == 0 for c in x[2:])


def test_witness_pair_identity_and_perp():
    x, y = witness_pair(0, 4, 2)
    assert x == y == (1, 1, 0, 0)
    x, y = witness_pair(6, 4, 2)
    assert (x, y) == ((1, 1, 0, 0), (0, 0, 1, 1))
    ft = build_field(2)
    assert hermitian_inner(ft, x, y) == 0


def test_witness_pair_perp_requires_dim_4():
    with pytest.raises(ValueError, match="dimension"):
        witness_pair(6, 3, 2)
    with pytest.raises(ValueError, match="dimension"):
        witness_pair(2 * 24, 2, 5)


def test_witness_pair_range_checks():
    with pytest.raises(ValueError):
        witness_pair(7, 4, 2)
    with pytest.raises(ValueError):
        witness_pair(-1, 4, 2)
    with pytest.raises(ValueError):
        witness_pair(0, 1, 2)


@pytest.mark.parametrize("n,q", [(2, 2), (4, 2), (2, 3)])
def test_witness_pairs_are_isotropic(n, q, get_space):
    us = get_space(n, q)
    rank = 2 * q * q - 2 + (1 if n >= 4 else 0)
    for l in range(rank):
        x, y = witness_pair(l, n, q)
        assert us.is_isotropic(x) and us.is_isotropic(y)
        us.index_of(x), us.index_of(y)


def test_unit_scaling_preserves_isotropy(get_space):
    us = get_space(3, 2)
    ft = us.ft
    units = [lam for lam in range(1, ft.order) if ft.norm(lam) == ft.one]
    assert len(units) == ft.q + 1
    for x in vectors(us):
        x = tuple(int(c) for c in x)
        for lam in units:
            assert us.is_isotropic(us.scalar_multiple(lam, x))


def test_scan_order_is_code_order(get_space):
    # lexicographic on ids, first coordinate most significant
    us = get_space(2, 3)
    codes = full_codes(us.block_codes, us.ft.order, us.n).tolist()
    assert codes == sorted(codes)
    assert all(us.index_of(us.point(i)) == i for i in range(us.size))
    full = list(itertools.product(range(us.ft.order), repeat=2))
    positions = [full.index(tuple(int(c) for c in vec)) for vec in vectors(us)]
    assert positions == sorted(positions)


@pytest.mark.parametrize("n,q", [(3, 2), (2, 3), (4, 2)])
def test_points_decode_from_sorted_codes(n, q, get_space):
    us = get_space(n, q)
    codes = full_codes(us.block_codes, us.ft.order, n)
    assert not us.block_codes.flags.writeable and (codes[1:] > codes[:-1]).all()
    decoded = vectors(us)
    assert decoded.shape == (us.size, n)
    for i in range(us.size):
        assert us.point(i) == tuple(int(c) for c in decoded[i])
        assert us.index_of(us.point(i)) == i
    # the computed index of the zero vector is -1, and that of the last
    # vector, unless it is a point, may lie past the last point
    assert (0,) * n not in us
    top = (us.ft.order - 1,) * n
    assert (top in us) == (us.point(-1) == top)


@pytest.mark.parametrize("n,q", [(2, 2), (3, 2), (2, 3), (4, 2), (3, 3), (2, 9)])
def test_index_of_every_vector_matches_the_oracle(n, q, get_space):
    """Over all of F^n, zero included, ``in`` and ``index_of`` agree with the
    scalar oracle's enumeration: a point's index is its place there, and
    every other vector is refused with the same message."""
    us = get_space(n, q)
    ref = RefField(q)
    place = {tuple(ref.id_of(c) for c in vec): i
             for i, vec in enumerate(isotropic_vectors(ref, n))}
    for vec in itertools.product(range(us.ft.order), repeat=n):
        if vec in place:
            assert vec in us and us.index_of(vec) == place[vec]
            continue
        assert vec not in us
        with pytest.raises(ValueError, match=f"^{re.escape(str(vec))} is not a nonzero"
                                             " isotropic vector$"):
            us.index_of(np.array(vec))


def test_enumeration_memory_per_point():
    """The scan keeps each point as two uint16 block codes and builds no
    array of N int64 codes: enumerating the 4 197 375 points of (6, 4) peaks
    at no more than 7 bytes per point (24 MB)."""
    build_field(4)
    tracemalloc.start()
    try:
        us = enumerate_isotropic(6, 4)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert us.size == isotropic_count(6, 4) == 4_197_375
    assert peak <= 7 * us.size
