"""Mutated documents and relation matrices: importing them fails only with a
ValueError, and unmutated inputs re-render byte for byte.  Every public
function's n, q and rank refuse anything but an integer with a ValueError."""

import functools
import inspect
import re

import numpy as np

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import unitary_schemes
from unitary_schemes import (
    build_descriptor,
    build_field,
    char_table_closed,
    chartable_from_document,
    document_from_chartable,
    document_from_descriptor,
    enumerate_isotropic,
    parse_document,
    parse_relation_matrix,
    relation_matrix,
    render_document,
    render_relation_matrix,
    scheme_from_relation_matrix,
    scheme_rank,
    verify_orthogonality,
    verify_relation_matrix,
)
from unitary_schemes.scheme import check_parameters

# what `build --n 2 --q 2`, `build --n 4 --q 2 --mode closed` and
# `chartable --n 3 --out` write
DOCUMENTS = {
    "build-2-2": lambda: document_from_descriptor(build_descriptor(2, 2)),
    "build-4-2-closed": lambda: document_from_descriptor(build_descriptor(4, 2, "closed")),
    "chartable-3": lambda: document_from_chartable(char_table_closed(3), 3),
}
MATRICES = [(2, 2), (3, 2), (2, 3)]
ALPHABET = "0123456789 +-/*w\nx"


@functools.cache
def document_text(key: str) -> str:
    return render_document(DOCUMENTS[key]())


@functools.cache
def matrix_text(n: int, q: int) -> str:
    return render_relation_matrix(relation_matrix(enumerate_isotropic(n, q)),
                                  scheme_rank(n, q))


@st.composite
def mutated(draw, text: str) -> str:
    """``text`` after one to three truncations, line deletions or
    duplications, character replacements, or deletions or replacements of
    one space-separated token (by a small integer)."""
    for _ in range(draw(st.integers(1, 3))):
        if not text:
            break
        kind = draw(st.sampled_from(["truncate", "line", "character", "token"]))
        if kind == "truncate":
            text = text[:draw(st.integers(0, len(text) - 1))]
        elif kind == "character":
            at = draw(st.integers(0, len(text) - 1))
            text = text[:at] + draw(st.sampled_from(ALPHABET)) + text[at + 1:]
        elif kind == "line":
            lines = text.splitlines(keepends=True)
            at = draw(st.integers(0, len(lines) - 1))
            copies = draw(st.sampled_from([0, 2]))  # delete or duplicate
            text = "".join(lines[:at] + [lines[at]] * copies + lines[at + 1:])
        else:
            lines = text.split("\n")
            at = draw(st.integers(0, len(lines) - 1))
            tokens = lines[at].split(" ")
            pick = draw(st.integers(0, len(tokens) - 1))
            drop = draw(st.booleans())
            tokens[pick:pick + 1] = [] if drop else [str(draw(st.integers(-1, 9)))]
            lines[at] = " ".join(tokens)
            text = "\n".join(lines)
    return text


def import_document(text: str) -> None:
    doc = parse_document(text)
    render_document(doc)
    verify_orthogonality(chartable_from_document(doc))


def import_matrix(text: str) -> None:
    matrix, rank = parse_relation_matrix(text)
    try:
        scheme_from_relation_matrix(matrix)
    except ValueError:
        pass
    verify_relation_matrix(matrix, rank)


@pytest.mark.parametrize("key", sorted(DOCUMENTS))
@settings(max_examples=150, deadline=None, derandomize=True)
@given(data=st.data())
def test_mutated_documents_raise_only_value_error(key, data):
    text = data.draw(mutated(document_text(key)))
    try:
        import_document(text)
    except ValueError:
        pass


@pytest.mark.parametrize("n,q", MATRICES)
@settings(max_examples=150, deadline=None, derandomize=True)
@given(data=st.data())
def test_mutated_relation_matrices_raise_only_value_error(n, q, data):
    text = data.draw(mutated(matrix_text(n, q)))
    try:
        import_matrix(text)
    except ValueError:
        pass


@pytest.mark.parametrize("key", sorted(DOCUMENTS))
def test_documents_rerender_byte_for_byte(key):
    text = document_text(key)
    doc = parse_document(text)
    assert render_document(doc) == text
    if doc.chartable is not None:
        table = chartable_from_document(doc)
        assert verify_orthogonality(table) == (True, None)
        again = document_from_chartable(table, doc.n, fusion=doc.fusion, seed=doc.seed)
        assert render_document(again) == text


@pytest.mark.parametrize("n,q", MATRICES)
def test_relation_matrices_rerender_byte_for_byte(n, q):
    text = matrix_text(n, q)
    matrix, rank = parse_relation_matrix(text)
    assert render_relation_matrix(matrix, rank) == text
    assert len(scheme_from_relation_matrix(matrix)[1]) == rank
    assert verify_relation_matrix(matrix, rank).passed


# Valid arguments of every public function that takes n, q or rank.
INTEGER_ARGUMENTS = {
    "char_table_closed": lambda: {"n": 2},
    "closed_multiplicity_formulas": lambda: {"n": 2},
    "build_field": lambda: {"q": 2},
    "canonical_fusions": lambda: {"n": 2, "q": 2},
    "coarse_partition": lambda: {"n": 2, "q": 2},
    "symmetrization_partition": lambda: {"n": 2, "q": 2},
    "build_descriptor": lambda: {"n": 2, "q": 2},
    "conjugate_index": lambda: {"l": 0, "n": 2, "q": 2},
    "intersection_number_closed": lambda: {"n": 2, "q": 2, "h": 0, "i": 0, "j": 0},
    "scheme_rank": lambda: {"n": 2, "q": 2},
    "verify_relation_matrix": lambda: {"M": _matrix(), "rank": 6},
    "document_from_chartable": lambda: {"ct": char_table_closed(2), "n": 2},
    "render_relation_matrix": lambda: {"matrix": _matrix(), "rank": 6},
    "enumerate_isotropic": lambda: {"n": 2, "q": 2},
    "hyperbolic_partner": lambda: {"ft": build_field(2), "n": 2, "u": (1, 1)},
    "isotropic_count": lambda: {"n": 2, "q": 2},
    "witness_pair": lambda: {"l": 0, "n": 2, "q": 2},
}
NOT_INTEGERS = [2.0, np.float64(2), True, "2"]


def _matrix():
    return relation_matrix(enumerate_isotropic(2, 2))


def test_integer_sweep_covers_every_public_function():
    """A public function (cached ones included) that takes n, q or rank is
    listed above, so the sweep below calls it."""
    functions = {name: getattr(unitary_schemes, name) for name in unitary_schemes.__all__}
    takes = {name for name, f in functions.items()
             if callable(f) and not inspect.isclass(f)
             and {"n", "q", "rank"} & set(inspect.signature(f).parameters)}
    assert takes == set(INTEGER_ARGUMENTS)


@pytest.mark.parametrize("name", sorted(INTEGER_ARGUMENTS))
def test_numpy_integer_n_q_and_rank_are_accepted(name):
    """n, q and rank may be numpy integers wherever they are taken."""
    valid = INTEGER_ARGUMENTS[name]()
    params = {"n", "q", "rank"} & set(valid)
    getattr(unitary_schemes, name)(**{**valid, **{p: np.int64(valid[p]) for p in params}})


@pytest.mark.parametrize("name", sorted(INTEGER_ARGUMENTS))
def test_non_integer_n_q_and_rank_raise_value_error(name):
    """2.0, np.float64(2), True and "2" as n, q or rank raise a ValueError
    that names the argument, never a TypeError or a result; the valid
    arguments pass."""
    function = getattr(unitary_schemes, name)
    valid = INTEGER_ARGUMENTS[name]()
    function(**valid)
    for param in {"n", "q", "rank"} & set(valid):
        for value in NOT_INTEGERS:
            with pytest.raises(ValueError, match=rf"\b{param}\b"):
                function(**{**valid, param: value})


@pytest.mark.parametrize("n,q", [(2, 2), (20, 3), (21, 3), (40, 3), (41, 3), (27, 5), (64, 2)])
def test_numpy_integer_n_and_q_count_and_refuse_like_ints(n, q):
    """``q ** n`` of a numpy integer would wrap at 2^63; a numpy n or q gives
    the int result, and the same refusal past int64."""
    expected = unitary_schemes.isotropic_count(n, q)
    for args in ((np.int64(n), q), (n, np.int64(q)), (np.int64(n), np.int64(q))):
        assert unitary_schemes.isotropic_count(*args) == expected
        assert type(unitary_schemes.isotropic_count(*args)) is int
        try:
            check_parameters(n, q)
        except ValueError as exc:
            with pytest.raises(ValueError, match=f"^{re.escape(str(exc))}$"):
                check_parameters(*args)
        else:
            check_parameters(*args)


@pytest.mark.parametrize("call,param", [
    (lambda: unitary_schemes.scheme_rank(3, 6), "q"),
    (lambda: unitary_schemes.scheme_rank(3, 11), "q"),
    (lambda: unitary_schemes.conjugate_index(1, 3, 6), "q"),
    (lambda: unitary_schemes.symmetrization_partition(3, 6), "q"),
    (lambda: unitary_schemes.coarse_partition(3, 6), "q"),
    (lambda: unitary_schemes.canonical_fusions(1), "n"),
    (lambda: unitary_schemes.isotropic_count(3, 2.5), "q"),
    (lambda: unitary_schemes.closed_multiplicity_formulas(1), "n"),
    (lambda: unitary_schemes.closed_multiplicity_formulas(4.0), "n"),
    (lambda: verify_relation_matrix(_matrix(), rank=6.5), "rank"),
    (lambda: verify_relation_matrix(_matrix(), rank=6.0, sd=build_descriptor(2, 2)), "rank"),
], ids=["rank-q6", "rank-q11", "conjugate-q6", "symmetrize-q6", "coarse-q6",
        "fusions-n1", "count-q2.5", "multiplicities-n1", "multiplicities-n4.0",
        "verify-rank6.5", "verify-rank6.0-descriptor"])
def test_out_of_range_arguments_raise_value_error(call, param):
    """A q outside ``SUPPORTED_Q``, an n below 2 and a float rank, also
    beside a descriptor whose rank it equals, raise a ValueError naming the
    argument."""
    with pytest.raises(ValueError, match=rf"\b{param}\b"):
        call()
