"""Mutated documents and relation matrices: importing them fails only with a
ValueError, and unmutated inputs re-render byte for byte."""

import functools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from unitary_schemes import (
    build_descriptor,
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
