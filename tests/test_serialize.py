import dataclasses

import numpy as np
import pytest

from unitary_schemes.fusion import coarse_partition, fuse
from unitary_schemes.scheme import relation_matrix, scheme_rank, verify_relation_matrix
from unitary_schemes.serialize import (
    chartable_csv,
    chartable_from_document,
    document_from_chartable,
    document_from_descriptor,
    parse_document,
    parse_relation_matrix,
    render_document,
    render_relation_matrix,
    tensor_csv,
)


@pytest.mark.parametrize("n,q", [(2, 2), (4, 2), (2, 3)])
def test_descriptor_document_roundtrip(n, q, get_descriptor):
    doc = document_from_descriptor(get_descriptor(n, q))
    text = render_document(doc)
    again = render_document(parse_document(text))
    assert text == again
    parsed = parse_document(text)
    assert parsed.n == n and parsed.q == q
    assert parsed.valencies == doc.valencies
    assert parsed.tensor_entries == doc.tensor_entries
    assert parsed.commutative == (q == 2)


def test_document_sparse_entries_sorted(get_descriptor):
    doc = document_from_descriptor(get_descriptor(4, 2))
    assert list(doc.tensor_entries) == sorted(doc.tensor_entries)
    assert all(v != 0 for *_, v in doc.tensor_entries)
    total = sum(1 for h in range(7) for i in range(7) for j in range(7)
                if get_descriptor(4, 2).tensor[h][i][j])
    assert len(doc.tensor_entries) == total


def test_chartable_document_roundtrip(get_table, get_descriptor):
    doc = document_from_chartable(get_table(3), 3)
    text = render_document(doc)
    assert render_document(parse_document(text)) == text
    back = chartable_from_document(parse_document(text))
    assert back.entries == get_table(3).entries
    assert back.multiplicities == (1, 3, 3, 8, 6, 6)

    fused = fuse(get_table(4), get_descriptor(4, 2), coarse_partition(4))
    doc = document_from_chartable(fused.table, 4, fusion="coarse")
    text = render_document(doc)
    assert render_document(parse_document(text)) == text
    assert parse_document(text).fusion == "coarse"


def test_chartable_document_rejects_entries_outside_z_omega(get_table):
    text = render_document(document_from_chartable(get_table(2), 2))
    bad = text.replace("\n1+0*w 1+0*w 1+0*w -1+0*w", "\n1+0*w 1/2+0*w 1+0*w -1+0*w", 1)
    assert bad != text
    with pytest.raises(ValueError, match="^chartable row 3, column 1: 1/2\\+0\\*w is not in Z\\[w\\]$"):
        chartable_from_document(parse_document(bad))
    # a decimal spelling of a non-integer is caught too
    with pytest.raises(ValueError, match="row 3, column 1"):
        chartable_from_document(parse_document(bad.replace("1/2+0*w", "0.5+0*w")))


def _chartable3_text():
    from unitary_schemes.chartable import char_table_closed

    return render_document(document_from_chartable(char_table_closed(3), 3))


@pytest.mark.parametrize("old,new,message", [
    ("\n1+0*w 0+1*w -1-1*w -4+0*w 4+4*w 0-4*w\n", "\n1+0*w 0+1*w -1-1*w -4+0*w 4+4*w\n",
     "^chartable row 1 has 5 entries, expected 6$"),
    ("valencies 1 1 1 8 8 8", "valencies 1 1 1 8 0 8", "^valencies must be positive, got 0$"),
    ("multiplicities 1 3 3 8 6 6", "multiplicities 1 3 3 -8 6 6",
     "^multiplicities must be positive, got -8$"),
    ("valencies 1 1 1 8 8 8", "valencies 1 1 1 8 8", "^valencies has 5 entries, expected 6$"),
    ("multiplicities 1 3 3 8 6 6", "multiplicities 1 3 3 8 6 6 1",
     "^multiplicities has 7 entries, expected 6$"),
    ("rank 6", "rank 5", "^chartable has 6 rows, the rank line says 5$"),
], ids=["short-row", "zero-valency", "negative-multiplicity", "short-valencies",
        "long-multiplicities", "rank"])
def test_chartable_document_rejects_malformed_tables(old, new, message):
    text = _chartable3_text()
    assert text.count(old) == 1
    with pytest.raises(ValueError, match=message):
        chartable_from_document(parse_document(text.replace(old, new)))


def test_chartable_document_rejects_empty_table():
    doc = parse_document(_chartable3_text())
    empty = dataclasses.replace(doc, rank=0, chartable=(), valencies=(), multiplicities=())
    with pytest.raises(ValueError, match="^chartable has 0 rows, the rank line says 0$"):
        chartable_from_document(empty)


def test_chartable_document_rejects_zero_denominator():
    text = _chartable3_text().replace("-4+0*w 4+4*w", "-4/0+0*w 4+4*w", 1)
    with pytest.raises(ValueError, match="cannot parse '-4/0\\+0\\*w'"):
        chartable_from_document(parse_document(text))


def test_csv_renderings(get_table, get_descriptor):
    doc = document_from_descriptor(get_descriptor(2, 2))
    csv = tensor_csv(doc)
    assert csv.splitlines()[0] == "h,i,j,value"
    assert len(csv.splitlines()) == len(doc.tensor_entries) + 1

    tdoc = document_from_chartable(get_table(2), 2)
    lines = chartable_csv(tdoc).splitlines()
    assert len(lines) == 6
    assert lines[0].endswith(",1")
    assert lines[0].startswith("1+0*w,")


def test_parse_document_rejections():
    with pytest.raises(ValueError):
        parse_document("bogus\n")
    with pytest.raises(ValueError):
        parse_document("unitary-scheme-document 1\nn 2\n")  # no end line
    with pytest.raises(ValueError):
        parse_document("unitary-scheme-document 1\nwhatever 3\nend\n")


@pytest.mark.parametrize("n,q", [(2, 2), (3, 2)])
def test_relation_matrix_roundtrip(n, q, get_space):
    M = relation_matrix(get_space(n, q))
    rank = scheme_rank(n, q)
    text = render_relation_matrix(M, rank)
    header = text.splitlines()[0].split()
    assert header == [str(M.shape[0]), str(rank)]
    back, parsed_rank = parse_relation_matrix(text)
    assert parsed_rank == rank
    assert np.array_equal(back, M)
    assert render_relation_matrix(back, parsed_rank) == text


def test_relation_matrix_examples(get_space, get_descriptor):
    M = relation_matrix(get_space(2, 2))
    assert (np.diagonal(M) == 0).all()
    assert set(np.unique(M)) == set(range(6))
    M3 = relation_matrix(get_space(3, 2))
    for l in range(1, 3):  # non-identity scalar relations appear once per row
        assert int((M3 == l).sum()) == 27


def test_reimported_matrix_passes_axioms(get_space, get_descriptor):
    sd = get_descriptor(3, 2)
    text = render_relation_matrix(relation_matrix(get_space(3, 2)), sd.rank)
    back, _ = parse_relation_matrix(text)
    report = verify_relation_matrix(back, sd=sd)
    assert report.passed, report.failing()


def test_parse_relation_matrix_rejections():
    with pytest.raises(ValueError):
        parse_relation_matrix("")
    with pytest.raises(ValueError):
        parse_relation_matrix("2\n0 1\n1 0\n")
    with pytest.raises(ValueError):
        parse_relation_matrix("2 2\n0 1\n")
    with pytest.raises(ValueError):
        parse_relation_matrix("2 2\n0 5\n1 0\n")


def test_parse_document_truncated_blocks(get_descriptor):
    text = render_document(document_from_descriptor(get_descriptor(2, 2)))
    lines = text.splitlines()
    start = next(k for k, line in enumerate(lines) if line.startswith("tensor "))
    cut = "\n".join(lines[:start + 3]) + "\n"
    with pytest.raises(ValueError, match=f"^line {start + 1}: tensor block"):
        parse_document(cut)
    table = "unitary-scheme-document 1\nn 2\nchartable 3\n1 1 1\n"
    with pytest.raises(ValueError, match="^line 3: chartable block"):
        parse_document(table)


def test_parse_document_bad_block_line_is_named(get_descriptor):
    text = render_document(document_from_descriptor(get_descriptor(2, 2)))
    lines = text.splitlines()
    start = next(k for k, line in enumerate(lines) if line.startswith("tensor "))
    lines[start + 2] = "0 1 x 1"
    with pytest.raises(ValueError, match=f"^line {start + 3}: invalid literal"):
        parse_document("\n".join(lines) + "\n")


def test_parse_document_missing_header_fields():
    with pytest.raises(ValueError, match="^line 4: .*rank, order, mode, seed"):
        parse_document("unitary-scheme-document 1\nn 2\nq 2\nend\n")


def test_parse_relation_matrix_ragged_rows():
    with pytest.raises(ValueError, match="^line 4: expected 3 entries, found 2"):
        parse_relation_matrix("3 2\n0 1 1\n\n1 0\n1 1 0\n")
    with pytest.raises(ValueError, match="^line 2: invalid literal"):
        parse_relation_matrix("2 2\n0 one\n1 0\n")


def _tensor_lines(get_descriptor):
    text = render_document(document_from_descriptor(get_descriptor(2, 2)))
    lines = text.splitlines()
    return lines, next(k for k, line in enumerate(lines) if line.startswith("tensor "))


@pytest.mark.parametrize("entry", ["0 0", "0 1 2 3 4"])
def test_parse_document_tensor_line_arity(entry, get_descriptor):
    lines, start = _tensor_lines(get_descriptor)
    lines[start + 2] = entry
    count = len(entry.split())
    with pytest.raises(ValueError,
                       match=f"^line {start + 3}: tensor line has {count} integers"):
        parse_document("\n".join(lines) + "\n")


@pytest.mark.parametrize("entry", ["6 0 0 1", "0 -1 0 1", "0 0 99 1"])
def test_parse_document_tensor_index_range(entry, get_descriptor):
    lines, start = _tensor_lines(get_descriptor)
    lines[start + 2] = entry
    with pytest.raises(ValueError,
                       match=rf"^line {start + 3}: tensor index out of range \[0, 6\)"):
        parse_document("\n".join(lines) + "\n")


def test_parse_document_tensor_before_rank(get_descriptor):
    lines, start = _tensor_lines(get_descriptor)
    del lines[lines.index("rank 6")]
    with pytest.raises(ValueError,
                       match=f"^line {start}: tensor block comes before the rank line"):
        parse_document("\n".join(lines) + "\n")
