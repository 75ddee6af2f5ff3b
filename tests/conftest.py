import functools

import pytest

from unitary_schemes import build_descriptor, char_table_closed, enumerate_isotropic
from unitary_schemes import scheme as scheme_mod

from _reference import assert_same_structure, structure


@pytest.fixture(autouse=True)
def structure_matches_whole_matrix(monkeypatch):
    """Every relation matrix a test passes through ``scheme._structure`` is
    also counted by the whole-matrix oracle, which must agree with the row
    blocks or raise the same ``ValueError``; ``inspect.unwrap`` gives the
    library function alone."""
    blocked = scheme_mod._structure

    @functools.wraps(blocked)
    def checked(M, rank):
        try:
            st = blocked(M, rank)
        except ValueError as err:
            with pytest.raises(ValueError) as again:
                structure(M, rank)
            assert str(again.value) == str(err)
            raise
        assert_same_structure(st, structure(M, rank))
        return st

    monkeypatch.setattr(scheme_mod, "_structure", checked)


@pytest.fixture(scope="session")
def get_space():
    cache = {}

    def build(n, q):
        if (n, q) not in cache:
            cache[n, q] = enumerate_isotropic(n, q)
        return cache[n, q]

    return build


@pytest.fixture(scope="session")
def get_descriptor():
    cache = {}

    def build(n, q, mode="both"):
        if (n, q, mode) not in cache:
            cache[n, q, mode] = build_descriptor(n, q, mode=mode)
        return cache[n, q, mode]

    return build


@pytest.fixture(scope="session")
def get_table():
    cache = {}

    def build(n):
        if n not in cache:
            cache[n] = char_table_closed(n)
        return cache[n]

    return build
