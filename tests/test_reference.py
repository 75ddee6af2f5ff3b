"""Checks on the orthogonal-decomposition reference in ``_reference``."""

import itertools

import numpy as np
import pytest

from unitary_schemes.scheme import _closed_tensor, scheme_rank

from _reference import RefField, assert_matches_decomposition, inner, norm_counts
from test_acceptance import ORACLE_GRID


@pytest.mark.parametrize("q,m", [(q, m) for q in (2, 3) for m in range(5)]
                         + [(q, m) for q in (4, 5) for m in range(3)])
def test_norm_counts_match_enumeration(q, m):
    F = RefField(q)
    counts = np.zeros(q * q, dtype=np.int64)
    for w in itertools.product(F.elements, repeat=m):
        counts[F.id_of(inner(F, w, w))] += 1
    assert np.array_equal(norm_counts(q, m), counts)


KINDS = ("scalar", "product", "perp")


@pytest.mark.parametrize("j_kind", KINDS)
@pytest.mark.parametrize("i_kind", KINDS)
def test_decomposition_catches_one_wrong_entry(i_kind, j_kind):
    # at (4, 3) every (i-kind, j-kind) block of the tensor is non-empty
    n, q = 4, 3
    nrel = q * q - 1
    span = {"scalar": range(nrel), "product": range(nrel, 2 * nrel),
            "perp": range(2 * nrel, 2 * nrel + 1)}
    tensor = _closed_tensor(n, q)
    assert_matches_decomposition(tensor, n, q)
    h, i, j = next((h, i, j) for h in range(scheme_rank(n, q))
                   for i in span[i_kind] for j in span[j_kind] if tensor[h, i, j])
    tensor[h, i, j] += 1
    with pytest.raises(AssertionError, match=rf"^tensor\[{h}, {i}, {j}\] = "):
        assert_matches_decomposition(tensor, n, q)


def test_decomposition_equals_bruteforce_tensor(get_descriptor):
    # every (n, q) that the acceptance suite's oracle criterion enumerates
    for n, q in ORACLE_GRID:
        assert_matches_decomposition(get_descriptor(n, q, "bruteforce").tensor, n, q)
