import contextlib
import csv
import dataclasses
import io
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from unitary_schemes import cli, kernels
from unitary_schemes.fields import SUPPORTED_Q
from unitary_schemes.fusion import coarse_partition, fuse
from unitary_schemes.scheme import (
    build_descriptor,
    max_dimension,
    relation_matrix,
    scheme_rank,
    verify_relation_matrix,
)
from unitary_schemes.serialize import (
    WORD_BOUND,
    _append_rows,
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

from _reference import append_rows
from _reference import chartable_from_document as chartable_per_entry


@pytest.mark.parametrize("n,q", [(2, 2), (4, 2), (2, 3)])
def test_descriptor_document_roundtrip(n, q, get_descriptor):
    doc = document_from_descriptor(get_descriptor(n, q))
    text = render_document(doc)
    again = render_document(parse_document(text))
    assert text == again
    parsed = parse_document(text)
    assert parsed.n == n and parsed.q == q
    assert parsed.valencies == doc.valencies
    entries = np.count_nonzero(get_descriptor(n, q).tensor)
    for quads in (doc.tensor_entries, parsed.tensor_entries):
        assert quads.dtype == np.int64
        assert quads.shape == (entries, 4)
        assert not quads.flags.writeable
    assert np.array_equal(parsed.tensor_entries, doc.tensor_entries)
    assert parsed.commutative == (q == 2)


def test_document_sparse_entries_sorted(get_descriptor):
    doc = document_from_descriptor(get_descriptor(4, 2))
    quads = doc.tensor_entries
    # strictly increasing (h, i, j): lexsort (last key primary) keeps the
    # order, and no two neighbours share their index triple
    assert np.array_equal(np.lexsort(quads[:, 2::-1].T), np.arange(len(quads)))
    assert (np.diff(quads[:, :3], axis=0) != 0).any(axis=1).all()
    assert (quads[:, 3] != 0).all()
    total = sum(1 for h in range(7) for i in range(7) for j in range(7)
                if get_descriptor(4, 2).tensor[h][i][j])
    assert len(doc.tensor_entries) == total


def test_chartable_document_roundtrip(get_table, get_descriptor):
    doc = document_from_chartable(get_table(3), 3)
    text = render_document(doc)
    assert render_document(parse_document(text)) == text
    back = chartable_from_document(parse_document(text))
    assert back.p.tolist() == get_table(3).p.tolist()
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


@pytest.mark.parametrize("old,new,message", [
    ("valencies 1 1 1 8 8 8", "valencies 1 1 1 8 8 9",
     "^valencies: chartable row 0, column 5 is 8\\+0\\*w, the valency is 9$"),
    ("multiplicities 1 3 3 8 6 6", "multiplicities 1 3 3 8 6 7",
     "^multiplicities sum to 28, the order line says 27$"),
    ("\n1+0*w 1+0*w 1+0*w -1+0*w", "\n1+1*w 1+0*w 1+0*w -1+0*w",
     "^chartable row 3, column 0: 1\\+1\\*w is not 1$"),
    ("\n1+0*w 1+0*w 1+0*w 8+0*w 8+0*w 8+0*w", "\n1+0*w 1+0*w 1+0*w 8+0*w 8+0*w 8+1*w",
     "^valencies: chartable row 0, column 5 is 8\\+1\\*w, the valency is 8$"),
], ids=["valency", "multiplicity-sum", "column-0", "row-0-omega-part"])
def test_chartable_document_rejects_tables_that_contradict_their_lines(old, new, message):
    # row 0 of a character table is the valencies, column 0 is all ones and
    # the multiplicities sum to the order
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
    with pytest.raises(ValueError, match="^chartable row 1, column 3: -4/0\\+0\\*w is not in Z\\[w\\]$"):
        chartable_from_document(parse_document(text))


@pytest.mark.parametrize("spelling", [
    "1e3+0*w", "1/1+0*w", "1.0+0*w", "1/2+0*w", "+1+0*w", "1+-1*w", "1+0w", "1", "",
    "1 +0*w", "\u0661+0*w",
])
def test_chartable_document_reads_only_integer_spellings(spelling):
    # an entry is read as "A+B*w" or "A-B*w" with ASCII decimal integers,
    # the one spelling document_from_chartable writes
    text = _chartable3_text()
    assert "\n1+0*w 1+0*w 1+0*w -1+0*w" in text
    doc = parse_document(text)
    rows = [list(row) for row in doc.chartable]
    rows[3][1] = spelling
    bad = dataclasses.replace(doc, chartable=tuple(map(tuple, rows)))
    message = f"^chartable row 3, column 1: {re.escape(spelling)} is not in Z\\[w\\]$"
    with pytest.raises(ValueError, match=message):
        chartable_from_document(bad)


def test_chartable_document_reads_both_signs_beyond_int64():
    doc = parse_document(_chartable3_text())
    rows = [list(row) for row in doc.chartable]
    rows[1][1], rows[1][2] = f"-{2**80}-{2**70}*w", f"{2**80}+0*w"
    table = chartable_from_document(dataclasses.replace(doc, chartable=tuple(map(tuple, rows))))
    assert table.p[:, 1, 1].tolist() == [-2**80, -2**70]
    assert table.p[:, 1, 2].tolist() == [2**80, 0]
    assert table.entry(1, 1) == (-2**80, -2**70)


@pytest.fixture(scope="module")
def chartable_texts(tmp_path_factory):
    """The documents of ``chartable --n N --fusion F --out`` for n = 2 ... 12
    and the three fusions (the 33 tables of perfbench's doc_import), and for
    n = 140, whose entries pass int64 with both signs."""
    out = tmp_path_factory.mktemp("chartables")
    texts = {}
    for n in (*range(2, 13), 140):
        for fusion in ("none", "symmetrize", "coarse"):
            path = out / f"{n}_{fusion}.txt"
            with contextlib.redirect_stdout(io.StringIO()):
                assert cli.main(["chartable", "--n", str(n), "--fusion", fusion,
                                 "--out", str(path)]) == 0
            texts[n, fusion] = path.read_text()
    return texts


def test_chartable_reader_matches_the_per_entry_oracle(chartable_texts):
    assert len(chartable_texts) == 36
    for (n, fusion), text in chartable_texts.items():
        doc = parse_document(text)
        got, want = chartable_from_document(doc), chartable_per_entry(doc)
        assert got.p.shape == want.p.shape == (2, doc.rank, doc.rank)
        assert got.p.tolist() == want.p.tolist(), (n, fusion)
        assert all(type(x) is int for x in got.p.flat)
        assert (got.multiplicities, got.valencies, got.order) == \
            (want.multiplicities, want.valencies, want.order)
    big = chartable_from_document(parse_document(chartable_texts[140, "none"])).p
    assert big.max() >= 2**63 and big.min() < -2**63


def _oracle_message(doc):
    with pytest.raises(ValueError) as want:
        chartable_per_entry(doc)
    return str(want.value)


@pytest.mark.parametrize("n,fusion", [(12, "none"), (4, "coarse")])
@pytest.mark.parametrize("edits,message", [
    ({(0, 0): "1.0+0*w"}, "chartable row 0, column 0: 1.0+0*w is not in Z[w]"),
    ({"middle": "1/2+0*w"}, ": 1/2+0*w is not in Z[w]"),
    ({"last": "+1+0*w"}, ": +1+0*w is not in Z[w]"),
    ({"middle": "", "last": "x"}, ":  is not in Z[w]"),  # the first bad entry is named
    ({"middle": "1+0*w 2+0*w"}, ": 1+0*w 2+0*w is not in Z[w]"),  # a space inside an entry
    ({(0, 1): "5+0*w"}, "valencies: chartable row 0, column 1 is 5+0*w, the valency is"),
    ({(0, 1): "2+1*w", (1, 0): "2+0*w"}, "valencies: chartable row 0, column 1 is 2+1*w"),
    ({"last-row-0": "1+0*w"}, "is 1+0*w, the valency is"),
    ({(1, 0): "1+1*w"}, "chartable row 1, column 0: 1+1*w is not 1"),
    ({"last-column-0": "-1+0*w"}, ", column 0: -1+0*w is not 1"),
], ids=["first", "middle", "last", "first-of-two", "space", "valency", "row-0-before-column-0",
        "last-valency", "column-0", "last-column-0"])
def test_tampered_chartable_gets_the_oracle_message(n, fusion, edits, message, chartable_texts):
    doc = parse_document(chartable_texts[n, fusion])
    size = doc.rank
    places = {"middle": (size // 2, size // 2), "last": (size - 1, size - 1),
              "last-row-0": (0, size - 1), "last-column-0": (size - 1, 0)}
    rows = [list(row) for row in doc.chartable]
    for where, entry in edits.items():
        i, j = places.get(where, where)
        rows[i][j] = entry
    bad = dataclasses.replace(doc, chartable=tuple(map(tuple, rows)))
    expected = _oracle_message(bad)
    assert message in expected  # the edit fails the check it is meant for
    with pytest.raises(ValueError, match=f"^{re.escape(expected)}$"):
        chartable_from_document(bad)


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


@pytest.mark.parametrize("matrix,rank,message", [
    ([[0.5, 1.7], [1.2, 0.0]], 2, "^relation labels must be integers$"),  # was "0 1" / "1 0"
    ([[True, False], [False, True]], 2, "^relation labels must be integers$"),
    ([[0, 1, 1], [1, 0, 1]], 2, "^relation matrix must be square$"),
    ([0, 1], 2, "^relation matrix must be square$"),  # was "not enough values to unpack"
    (np.zeros((0, 0), dtype=np.int64), 1, "^relation matrix is empty$"),
    ([[0, -1], [1, 0]], 2, r"^relation labels must lie in 0\.\.1$"),
    ([[0, 2], [2, 0]], 2, r"^relation labels must lie in 0\.\.1$"),
])
def test_render_relation_matrix_refuses_what_the_parser_refuses(matrix, rank, message):
    with pytest.raises(ValueError, match=message):
        render_relation_matrix(matrix, rank)


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


def test_parse_document_refuses_a_second_n_line(get_descriptor):
    text = render_document(document_from_descriptor(get_descriptor(2, 2, "closed")))
    assert "\nn 2\nq 2\n" in text
    with pytest.raises(ValueError, match="^line 3: second n line, the first is line 2$"):
        parse_document(text.replace("\nn 2\n", "\nn 2\nn 3\n", 1))


@pytest.mark.parametrize("key", ["n", "q", "rank", "order", "mode", "seed", "valencies",
                                 "conjugation", "tensor", "commutative", "witness", "fusion",
                                 "chartable", "multiplicities"])
def test_parse_document_refuses_a_repeated_line(key, get_table, get_descriptor):
    # each line (a block with its rows) given twice in a row
    if key in ("fusion", "chartable", "multiplicities"):
        fused = fuse(get_table(4), get_descriptor(4, 2), coarse_partition(4))
        doc = document_from_chartable(fused.table, 4, fusion="coarse")
    else:  # non-commutative, so the document has a witness line
        doc = document_from_descriptor(get_descriptor(2, 3, "closed"))
    lines = render_document(doc).splitlines()
    start = next(k for k, line in enumerate(lines) if line.split(" ")[0] == key)
    end = start + 1 + (int(lines[start].split()[1]) if key in ("tensor", "chartable") else 0)
    lines[end:end] = lines[start:end]
    with pytest.raises(ValueError,
                       match=f"^line {end + 1}: second {key} line, the first is line {start + 1}$"):
        parse_document("\n".join(lines) + "\n")


def _witness_document(get_descriptor):
    """A non-commutative document, its commutative and witness lines last."""
    text = render_document(document_from_descriptor(get_descriptor(2, 3, "closed")))
    lines = text.splitlines()
    assert lines[-3:] == ["commutative false", "witness 1 8 11", "end"]
    return text, len(lines)


@pytest.mark.parametrize("word", ["TRUE", "False", "yes", "1", ""])
def test_parse_document_refuses_a_commutative_word_other_than_true_or_false(word, get_descriptor):
    text, count = _witness_document(get_descriptor)
    bad = text.replace("\ncommutative false\n", f"\ncommutative {word}\n")
    with pytest.raises(ValueError, match=f"^line {count - 2}: commutative must be true or false, "
                                         f"not {re.escape(repr(word))}$"):
        parse_document(bad)


@pytest.mark.parametrize("old,new,line", [
    ("witness 1 8 11", "witness 1 8", -1),  # two relations
    ("witness 1 8 11", "witness 1 8 11 2", -1),
    ("witness 1 8 11", "witness 1 8 16", -1),  # rank 16
    ("witness 1 8 11", "witness -1 8 11", -1),
    ("commutative false", "commutative true", -1),
    ("commutative false\n", "", -2),  # no commutative line: render would drop the witness
], ids=["two", "four", "past-rank", "negative", "beside-true", "alone"])
def test_parse_document_refuses_a_witness_that_does_not_render_back(old, new, line,
                                                                    get_descriptor):
    text, count = _witness_document(get_descriptor)
    assert text.count(old) == 1
    message = "witness must be 3 relations in [0, rank), after a commutative false line"
    with pytest.raises(ValueError, match=f"^line {count + line}: {re.escape(message)}$"):
        parse_document(text.replace(old, new))


@pytest.mark.parametrize("mode", ["nonsense", "Closed", "closed ", ""])
def test_parse_document_refuses_a_mode_outside_the_modes(mode, get_descriptor):
    text = render_document(document_from_descriptor(get_descriptor(2, 2, "closed")))
    assert text.count("\nmode closed\n") == 1
    with pytest.raises(ValueError, match="^line 6: mode must be one of \\('bruteforce', "
                                         f"'closed', 'both'\\), not {re.escape(repr(mode))}$"):
        parse_document(text.replace("\nmode closed\n", f"\nmode {mode}\n"))


def test_parse_document_missing_header_fields():
    with pytest.raises(ValueError, match="^line 4: .*rank, order, mode, seed"):
        parse_document("unitary-scheme-document 1\nn 2\nq 2\nend\n")


def test_parse_relation_matrix_ragged_rows():
    with pytest.raises(ValueError, match="^line 4: expected 3 entries, found 2"):
        parse_relation_matrix("3 2\n0 1 1\n\n1 0\n1 1 0\n")
    with pytest.raises(ValueError, match="^line 2: invalid literal"):
        parse_relation_matrix("2 2\n0 one\n1 0\n")


@pytest.mark.parametrize("text,message", [
    ("2 2\n0 -1\n1 0\n", r"^line 2: relation index -1 is outside \[0, 2\)$"),
    ("3 2\n0 1 1\n\n1 0 1\n1 7 0\n", r"^line 5: relation index 7 is outside \[0, 2\)$"),
    ("3 2\n0 1 1\n1 0 9\n1 \u0662 0\n", r"^line 3: relation index 9 is outside \[0, 2\)$"),
], ids=["negative", "too-large", "read-line-by-line"])
def test_parse_relation_matrix_names_the_line_of_a_label_outside_the_rank(text, message):
    with pytest.raises(ValueError, match=message):
        parse_relation_matrix(text)


def _tensor_lines(get_descriptor):
    text = render_document(document_from_descriptor(get_descriptor(2, 2)))
    lines = text.splitlines()
    return lines, next(k for k, line in enumerate(lines) if line.startswith("tensor "))


@pytest.mark.parametrize("entry", ["0 0", "0 1 2 3 4", ""])
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


@pytest.mark.parametrize("q", SUPPORTED_Q)
def test_tensor_block_renders_like_per_entry_join(q):
    # n = max_dimension(q): values up to 5.8e17, 557 k entries at (10, 9)
    sd = build_descriptor(max_dimension(q), q, mode="closed")
    doc = document_from_descriptor(sd)
    where = np.nonzero(sd.tensor)
    quads = list(zip(*(axis.tolist() for axis in where), sd.tensor[where].tolist()))
    block = "\n".join(" ".join(map(str, quad)) for quad in quads)
    text = render_document(doc)
    assert f"\ntensor {len(quads)}\n{block}\ncommutative " in text
    assert tensor_csv(doc) == "h,i,j,value\n" + block.replace(" ", ",") + "\n"
    parsed = parse_document(text)
    assert np.array_equal(parsed.tensor_entries, doc.tensor_entries)
    assert render_document(parsed) == text


@pytest.mark.parametrize("value", ["9223372036854775808", "-9223372036854775809"])
def test_parse_document_tensor_value_past_int64(value, get_descriptor):
    # int64 is the tensor's own dtype; such a value used to be kept as a Python int
    lines, start = _tensor_lines(get_descriptor)
    lines[start + 2] = "0 0 0 " + value
    with pytest.raises(ValueError, match=f"^line {start + 3}: {value} is outside the int64 range$"):
        parse_document("\n".join(lines) + "\n")


def test_parse_document_names_the_first_of_two_bad_lines(get_descriptor):
    # 3 + 5 tokens keep the block's token count a multiple of 4, so only a
    # per-line count catches them
    lines, start = _tensor_lines(get_descriptor)
    lines[start + 2], lines[start + 3] = "0 1 1", "1 0 1 1 1"
    with pytest.raises(ValueError, match=f"^line {start + 3}: tensor line has 3 integers"):
        parse_document("\n".join(lines) + "\n")


@pytest.mark.parametrize("spelling,value", [("1_0", 10), ("١", 1), ("+1", 1), (" 1\t", 1)],
                         ids=["underscore", "arabic-indic-digit", "plus", "whitespace"])
def test_parse_document_reads_tokens_as_int_does(spelling, value, get_descriptor):
    lines, start = _tensor_lines(get_descriptor)
    assert lines[start + 1] == "0 0 0 1"
    expected = parse_document("\n".join(lines) + "\n").tensor_entries.copy()
    expected[0, 3] = value
    lines[start + 1] = "0 0 0 " + spelling
    parsed = parse_document("\n".join(lines) + "\n")
    assert np.array_equal(parsed.tensor_entries, expected)
    assert not parsed.tensor_entries.flags.writeable


def test_parse_relation_matrix_int64_and_int_tokens():
    # the value past int64 used to raise OverflowError
    with pytest.raises(ValueError, match="^line 3: 9223372036854775808 is outside the int64 range$"):
        parse_relation_matrix("2 2\n0 1\n9223372036854775808 0\n")
    matrix, _ = parse_relation_matrix("2 2\n0 0_1\n١ 0\n")
    assert matrix.tolist() == [[0, 1], [1, 0]]


@pytest.mark.parametrize("n,q", [(2, 3), (3, 2)])
def test_relation_matrix_and_csv_roundtrip_byte_for_byte(n, q, get_space, get_descriptor):
    M = relation_matrix(get_space(n, q))
    text = render_relation_matrix(M, scheme_rank(n, q))
    rows = [" ".join(map(str, row)) for row in M.tolist()]
    assert text == "\n".join([f"{M.shape[0]} {scheme_rank(n, q)}"] + rows) + "\n"
    assert render_relation_matrix(*parse_relation_matrix(text)) == text

    doc = document_from_descriptor(get_descriptor(n, q))
    csv_text = tensor_csv(doc)
    header, *records = csv.reader(io.StringIO(csv_text))
    assert header == ["h", "i", "j", "value"]
    back = dataclasses.replace(doc, tensor_entries=np.array(records, dtype=np.int64))
    assert tensor_csv(back) == csv_text


# int64, uint8 and uint64 extremes, and both sides of the word-table bound
EDGES = (0, 1, WORD_BOUND - 1, WORD_BOUND, WORD_BOUND + 1, -1,
         -(1 << 63), (1 << 63) - 1, (1 << 64) - 1, 255)


@st.composite
def integer_blocks(draw):
    dtype = np.dtype(draw(st.sampled_from([np.int64, np.uint8, np.uint64])))
    info = np.iinfo(dtype)
    edges = [v for v in EDGES if info.min <= v <= info.max]
    shape = (draw(st.integers(0, 6)), draw(st.integers(1, 5)))
    elements = st.one_of(st.sampled_from(edges), st.integers(info.min, info.max),
                         st.integers(max(info.min, -9), min(info.max, 2 * WORD_BOUND)))
    return draw(hnp.arrays(dtype, shape, elements=elements))


def assert_writes_like_the_percent_pass(rows, sep):
    # the writer appends one string per chunk of rows, which _text joins
    got, expected = ["head"], ["head"]
    _append_rows(got, rows, sep)
    append_rows(expected, rows, sep)
    assert "\n".join(got) == "\n".join(expected)


@settings(max_examples=300, deadline=None)
@given(rows=integer_blocks(), sep=st.sampled_from([" ", ","]))
def test_word_table_writes_like_the_percent_pass(rows, sep):
    assert_writes_like_the_percent_pass(rows, sep)


@pytest.mark.parametrize("dtype", [np.int64, np.uint8, np.uint64])
@pytest.mark.parametrize("width", [1, 3])
def test_word_table_writes_every_edge_like_the_percent_pass(dtype, width):
    # every edge in every column
    info = np.iinfo(dtype)
    edges = np.array([v for v in EDGES if info.min <= v <= info.max], dtype=dtype)
    rows = edges[np.add.outer(np.arange(edges.size), np.arange(width)) % edges.size]
    for block in (rows, rows[:1], rows[:0]):
        for sep in (" ", ","):
            assert_writes_like_the_percent_pass(block, sep)


@pytest.mark.parametrize("width", [1, 4, 5, 200])
def test_writer_chunk_edges_write_like_the_percent_pass(width):
    """One row short of a chunk, a chunk and one row past it, for blocks
    with a field per column (widths 1, 4, 5) and for a wide one (200)."""
    step = kernels.group_size(width)
    rng = np.random.default_rng(width)
    for count in (step - 1, step, step + 1, 2 * step + 1):
        rows = rng.integers(-5, 2 * WORD_BOUND, (count, width))
        for sep in (" ", ","):
            assert_writes_like_the_percent_pass(rows, sep)
            got = []
            _append_rows(got, rows, sep)
            assert len(got) == -(-count // step)  # one string per chunk


def test_writer_row_wider_than_a_chunk_writes_like_the_percent_pass():
    """Relation-matrix rows of CHUNK + 1 labels: one row per chunk."""
    width = kernels.CHUNK + 1
    rows = np.random.default_rng(0).integers(0, 161, (3, width)).astype(np.uint8)
    assert_writes_like_the_percent_pass(rows, " ")
    got = []
    _append_rows(got, rows, " ")
    assert len(got) == 3


@pytest.mark.parametrize("dtype,extreme", [(np.int64, -(1 << 63)), (np.int64, (1 << 63) - 1),
                                           (np.uint64, (1 << 64) - 1)])
@pytest.mark.parametrize("column", [0, 3])
def test_writer_extremes_in_one_chunk_write_like_the_percent_pass(dtype, extreme, column):
    """An int64 or uint64 extreme in the second of three chunks only: its
    column's words widen in every chunk, and the others' do not."""
    step = kernels.group_size(4)
    rows = np.random.default_rng(1).integers(0, 200, (3 * step, 4)).astype(dtype)
    rows[step + 7, column] = extreme
    for sep in (" ", ","):
        assert_writes_like_the_percent_pass(rows, sep)


def test_render_memory_stays_near_its_text():
    """Writing the (10, 9) tensor block holds its chunk strings and then the
    joined text, and no whole-block table beside them (3.3x the text when
    every number became a str)."""
    doc = document_from_descriptor(build_descriptor(10, 9, mode="closed"))
    render_document(doc)  # the cached word tables are built outside the count
    tracemalloc.start()
    try:
        text = render_document(doc)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2.5 * len(text)
