import argparse
import time
import tracemalloc

import numpy as np
import pytest

from unitary_schemes import chartable as ct_mod
from unitary_schemes import cli
from unitary_schemes import scheme as scheme_mod
from unitary_schemes import serialize, space
from unitary_schemes.cli import main
from unitary_schemes.space import enumerate_isotropic
from unitary_schemes.scheme import verify_relation_matrix
from unitary_schemes.serialize import (document_from_descriptor, parse_document,
                                       parse_relation_matrix)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_exit(capsys, *argv):
    """``run`` for a call that argparse ends with ``SystemExit``: usage
    errors and ``--help``."""
    with pytest.raises(SystemExit) as ended:
        main(list(argv))
    captured = capsys.readouterr()
    return ended.value.code, captured.out, captured.err


def test_build_document(capsys):
    code, out, _ = run(capsys, "build", "--n", "4", "--q", "2")
    assert code == 0
    doc = parse_document(out)
    assert doc.rank == 7
    assert doc.valencies == (1, 1, 1, 32, 32, 32, 36)
    assert doc.commutative is True


def test_build_deterministic(capsys):
    _, first, _ = run(capsys, "build", "--n", "3", "--q", "2")
    _, second, _ = run(capsys, "build", "--n", "3", "--q", "2")
    assert first == second


def test_build_rank_for_q5(capsys):
    code, out, _ = run(capsys, "build", "--n", "2", "--q", "5", "--mode", "closed")
    assert code == 0
    assert parse_document(out).rank == 48


def test_build_rejects_bad_dimension(capsys):
    code, _, err = run(capsys, "build", "--n", "1", "--q", "2")
    assert code == 2
    assert "n must be >= 2" in err


def test_build_csv_and_hanaki(capsys, tmp_path):
    code, out, _ = run(capsys, "build", "--n", "2", "--q", "2", "--format", "csv")
    assert code == 0
    assert out.splitlines()[0] == "h,i,j,value"
    path = tmp_path / "scheme.txt"
    code, _, _ = run(capsys, "build", "--n", "2", "--q", "2", "--format", "hanaki",
                     "--out", str(path))
    assert code == 0
    matrix, rank = parse_relation_matrix(path.read_text())
    assert matrix.shape == (9, 9) and rank == 6


def test_chartable_stdout(capsys):
    code, out, _ = run(capsys, "chartable", "--n", "3")
    assert code == 0
    assert "27 points" in out
    assert "-4" in out and "w" in out


def test_chartable_fusion_document(capsys, tmp_path):
    path = tmp_path / "fused.txt"
    code, out, _ = run(capsys, "chartable", "--n", "4", "--fusion", "coarse",
                       "--out", str(path))
    assert code == 0
    doc = parse_document(path.read_text())
    assert doc.fusion == "coarse"
    assert doc.rank == 4
    assert doc.multiplicities == (1, 90, 20, 24)


def test_chartable_symmetrization_document(capsys, tmp_path):
    path = tmp_path / "sym.txt"
    code, _, _ = run(capsys, "chartable", "--n", "2", "--fusion", "symmetrize",
                     "--out", str(path))
    assert code == 0
    doc = parse_document(path.read_text())
    assert doc.rank == 4
    assert doc.multiplicities == (1, 2, 2, 4)


def test_chartable_rejects_n1(capsys):
    code, _, err = run(capsys, "chartable", "--n", "1")
    assert code == 2 and "n must be >= 2" in err


def test_chartable_size_budget(capsys):
    code, out, _ = run(capsys, "chartable", "--n", "6644")
    assert code == 0 and out.startswith("character table, dimension 6644, ")
    code, out, err = run(capsys, "chartable", "--n", "6645")
    assert (code, out) == (2, "")
    assert err == "error: over 10^4000 points exceed the chartable budget of 10^4000\n"


def test_chartable_refuses_a_huge_dimension_before_any_work(capsys, monkeypatch):
    # its point count has more digits than Python prints; it used to fail
    # with the int-to-str digit limit after seconds of work
    monkeypatch.setattr(ct_mod, "_eigenmatrix", None)
    code, _, err = run(capsys, "chartable", "--n", "200000")
    assert code == 2
    assert err == "error: over 10^120411 points exceed the chartable budget of 10^4000\n"


BEYOND_INT64 = ("(n, q) = (1000000000, 9) has at least 2^63 points, beyond the int64 tensor;"
                " the largest n for q = 9 is 10")


@pytest.mark.parametrize("argv,message", [
    (["chartable", "--n", "1000000000"],
     "over 10^602059991 points exceed the chartable budget of 10^4000"),
    (["build", "--n", "1000000000", "--q", "9"], BEYOND_INT64),
    (["verify", "--n", "1000000000", "--q", "9"], BEYOND_INT64),
    (["export", "--n", "1000000000", "--q", "9"], BEYOND_INT64),
], ids=["chartable", "build", "verify", "export"])
def test_huge_dimensions_refuse_from_n(argv, message, capsys, monkeypatch):
    """These refusals used to compute the point count first: at n = 10^9 and
    q = 9, a number of 6.3 * 10^9 bits."""
    count = space.isotropic_count

    def small_only(n, q):
        assert n < 10**4, f"isotropic_count({n}, {q})"
        return count(n, q)

    for module in (space, scheme_mod, cli):
        monkeypatch.setattr(module, "isotropic_count", small_only)
    start = time.perf_counter()
    code, out, err = run(capsys, *argv)
    assert time.perf_counter() - start < 1
    assert (code, out, err) == (2, "", f"error: {message}\n")


def test_export_roundtrip(capsys, tmp_path):
    path = tmp_path / "as9.txt"
    code, _, _ = run(capsys, "export", "--n", "2", "--q", "2", "--out", str(path))
    assert code == 0
    matrix, rank = parse_relation_matrix(path.read_text())
    assert (np.diagonal(matrix) == 0).all()
    assert verify_relation_matrix(matrix, rank=rank).passed


@pytest.mark.parametrize("argv", [
    ["build", "--n", "2", "--q", "2"],
    ["chartable", "--n", "2"],
    ["export", "--n", "2", "--q", "2"],
], ids=lambda argv: argv[0])
def test_unwritable_out_path_is_an_error(argv, capsys, tmp_path):
    # used to end in a FileNotFoundError traceback, exit 1
    path = tmp_path / "missing" / "out.txt"
    code, _, err = run(capsys, *argv, "--out", str(path))
    assert code == 2
    assert err == f"error: cannot write {path}: No such file or directory\n"


@pytest.mark.parametrize("argv", [
    ["build", "--n", "2", "--q", "2"],
    ["build", "--n", "2", "--q", "2", "--format", "csv"],
    ["build", "--n", "2", "--q", "2", "--format", "hanaki"],
    ["chartable", "--n", "2"],
    ["export", "--n", "2", "--q", "2"],
], ids=" ".join)
def test_full_device_is_an_error(argv, capsys):
    # the write of a piece, or the flush at close, fails
    code, _, err = run(capsys, *argv, "--out", "/dev/full")
    assert code == 2
    assert err == "error: cannot write /dev/full: No space left on device\n"


def test_refused_relation_matrix_leaves_no_file(capsys, tmp_path, monkeypatch):
    # a label past the rank is refused before the file is opened
    relation_matrix = scheme_mod.relation_matrix

    def past_the_rank(us):
        matrix = relation_matrix(us).copy()
        matrix[0, 1] = 6
        return matrix

    monkeypatch.setattr(scheme_mod, "relation_matrix", past_the_rank)
    path = tmp_path / "as9.txt"
    code, out, err = run(capsys, "export", "--n", "2", "--q", "2", "--out", str(path))
    assert (code, out) == (2, "")
    assert err.startswith("error: ")
    assert not path.exists()


def test_writer_holds_no_copy_of_the_text(tmp_path):
    """Writing the (10, 9) document, 14.9 MB, piece by piece: the joined text
    and its encoded copy took twice its length; the sort of its distinct
    tensor values, 0.3 times, is now the largest block."""
    doc = document_from_descriptor(scheme_mod.build_descriptor(10, 9, mode="closed"))
    path = tmp_path / "doc.txt"
    cli._write(serialize.document_pieces(doc), str(path))  # the cached word tables
    tracemalloc.start()
    try:
        cli._write(serialize.document_pieces(doc), str(path))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < path.stat().st_size / 2


def test_verify_refuses_out(capsys, tmp_path):
    # verify prints its report; an --out it would ignore is a usage error
    path = tmp_path / "report.txt"
    code, out, err = run_exit(capsys, "verify", "--n", "2", "--q", "2", "--out", str(path))
    assert (code, out) == (2, "")
    assert "unrecognized arguments: --out" in err
    assert not path.exists()


def test_export_refuses_seed(capsys, tmp_path):
    # nothing export writes depends on a seed; a --seed it would ignore is a
    # usage error
    path = tmp_path / "as32.txt"
    code, out, err = run_exit(capsys, "export", "--n", "2", "--q", "3", "--seed", "1",
                              "--out", str(path))
    assert (code, out) == (2, "")
    assert "unrecognized arguments: --seed" in err
    assert not path.exists()


def test_export_budget(capsys):
    code, _, err = run(capsys, "export", "--n", "7", "--q", "2")
    assert code == 2
    assert err == "error: 66048129 pairs exceed the pairs budget of 5000000\n"


@pytest.mark.parametrize("argv", [
    ("export", "--n", "7", "--q", "2"),
    ("build", "--n", "7", "--q", "2", "--format", "hanaki"),
    ("build", "--n", "7", "--q", "2", "--mode", "closed", "--format", "hanaki"),
    ("build", "--n", "12", "--q", "2", "--format", "hanaki"),
    ("build", "--n", "5", "--q", "5", "--format", "hanaki"),
])
def test_relation_matrix_refused_before_enumeration(argv, capsys, monkeypatch):
    from unitary_schemes import cli, scheme

    def refuse(n, q):
        raise AssertionError("enumerated past the pairs budget")

    monkeypatch.setattr(scheme, "enumerate_isotropic", refuse)
    monkeypatch.setattr(cli, "enumerate_isotropic", refuse)
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    assert "pairs exceed the pairs budget of 5000000" in err


def test_export_byte_stable(capsys, tmp_path):
    one, two, built = tmp_path / "a.txt", tmp_path / "b.txt", tmp_path / "c.txt"
    run(capsys, "export", "--n", "3", "--q", "2", "--out", str(one))
    run(capsys, "export", "--n", "3", "--q", "2", "--out", str(two))
    assert one.read_bytes() == two.read_bytes()
    # build --format hanaki writes the same file
    assert run(capsys, "build", "--n", "3", "--q", "2", "--format", "hanaki",
               "--out", str(built))[0] == 0
    assert built.read_bytes() == one.read_bytes()


def test_verify_pass_q2(capsys):
    code, out, _ = run(capsys, "verify", "--n", "3", "--q", "2")
    assert code == 0
    assert out.strip().endswith("PASS")
    assert "perpendicular class empty" in out
    assert ("ok   - oracle: closed-form tensor equals brute-force tensor, "
            "216 entries compared") in out.splitlines()
    # 27 points: every one of the 27^2 pairs classified; rank 6: 5 histograms
    # each, counted coordinate by coordinate at each of 5 samples
    assert ("ok   - representatives: every relation recounted at 5 random pairs "
            "(30 histograms, counted over coordinates without enumeration)") in out.splitlines()
    assert ("ok   - axioms: partition, identity, converse, valencies, constancy; "
            "729 pairs classified, 5 sampled pairs per relation") in out.splitlines()
    # rank 6: 2 * 6^2 matrix entries for the two-sided relations, 6^3 for the rest
    assert ("ok   - character table: 72 orthogonality, 216 homomorphism, "
            "216 reconstruction, 72 eigenmatrix inverse and 216 minimal polynomial "
            "equalities") in out.splitlines()
    assert out.splitlines()[-1] == "PASS"


def test_verify_notes_the_pairs_budget(capsys):
    code, out, _ = run(capsys, "verify", "--n", "6", "--q", "3")
    assert code == 0
    assert ("note - axioms: skipped, 31553127424 pairs exceed the pairs budget of 5000000"
            in out.splitlines())
    assert out.splitlines()[-1] == "PASS"


@pytest.mark.parametrize("argv", [
    ("verify", "--n", "4", "--q", "2"),
    ("verify", "--n", "3", "--q", "2", "--mode", "bruteforce"),
    ("build", "--n", "4", "--q", "2", "--format", "hanaki"),
    ("build", "--n", "3", "--q", "2", "--mode", "closed", "--format", "hanaki"),
])
def test_commands_enumerate_once(argv, capsys, monkeypatch):
    from unitary_schemes import cli, scheme

    calls = []

    def counting(n, q):
        calls.append((n, q))
        return enumerate_isotropic(n, q)

    monkeypatch.setattr(scheme, "enumerate_isotropic", counting)
    monkeypatch.setattr(cli, "enumerate_isotropic", counting)
    code, _, _ = run(capsys, *argv)
    assert code == 0
    assert calls == [(int(argv[2]), int(argv[4]))]


def test_verify_counts_q9_perpendicular_relation(capsys):
    # 4 788 800 points, inside the scan budget: the q = 9 perpendicular
    # formulas are compared with a count
    code, out, _ = run(capsys, "verify", "--n", "4", "--q", "9")
    assert code == 0
    lines = out.splitlines()
    assert ("ok   - oracle: closed-form tensor equals brute-force tensor, "
            "4173281 entries compared") in lines
    assert ("ok   - representatives: every relation recounted at 5 random pairs "
            "(805 histograms, counted over coordinates without enumeration)") in lines
    assert lines[-1] == "PASS"


def test_verify_pass_q3(capsys):
    code, out, _ = run(capsys, "verify", "--n", "2", "--q", "3")
    assert code == 0
    assert "non-commutative as expected" in out
    assert "witness (3,8,9)" in out


def test_verify_closed_mode(capsys):
    code, out, _ = run(capsys, "verify", "--n", "8", "--q", "2", "--mode", "closed")
    assert code == 0
    assert "enumeration skipped" in out
    assert "ok   - axioms" not in out
    # the closed tensor is recounted at random pairs, without enumeration
    assert ("ok   - representatives: every relation recounted at 5 random pairs "
            "(35 histograms, counted over coordinates without enumeration)") in out.splitlines()


@pytest.mark.parametrize("n,q,rank", [(31, 2, 7), (20, 3, 17)])
def test_verify_closed_mode_recounts_the_largest_dimension(n, q, rank, capsys):
    """At the largest admitted n for q = 2 and 3 the closed tensor still has a
    counting oracle."""
    code, out, _ = run(capsys, "verify", "--n", str(n), "--q", str(q), "--mode", "closed")
    assert code == 0
    lines = out.splitlines()
    assert ("ok   - representatives: every relation recounted at 5 random pairs "
            f"({5 * rank} histograms, counted over coordinates without enumeration)") in lines
    assert lines[-1] == "PASS"


def test_verify_closed_mode_reports_a_wrong_tensor(capsys, monkeypatch):
    from unitary_schemes import scheme

    closed = scheme._closed_tensor

    def moved(n, q):
        tensor = closed(n, q).copy()
        tensor[4, 3, 3] -= 1  # within relation 4, so the row sums still hold
        tensor[4, 3, 4] += 1
        return tensor

    monkeypatch.setattr(scheme, "_closed_tensor", moved)
    code, out, _ = run(capsys, "verify", "--n", "6", "--q", "2", "--mode", "closed")
    assert code == 1
    lines = out.splitlines()
    assert ("FAIL - representatives: intersection counts depend on the representative "
            "of relation 4") in lines
    assert lines[-1] == "FAIL"


def test_verify_bruteforce_mode_passes(capsys):
    code, out, _ = run(capsys, "verify", "--n", "3", "--q", "2", "--mode", "bruteforce")
    assert code == 0
    assert out.strip().splitlines()[-1] == "PASS"
    assert "FAIL" not in out
    assert "note - oracle: bruteforce mode, closed form not computed, skipped" in out
    assert ("ok   - representatives: every relation recounted at 5 random pairs "
            "(30 histograms, counted over coordinates without enumeration)") in out.splitlines()


@pytest.mark.parametrize("mode,names,notes", [
    ("both", ["counting", "oracle", "representatives", "axioms", "commutative"], 1),
    ("bruteforce", ["counting", "representatives", "axioms", "commutative"], 2),
    ("closed", ["representatives", "commutative"], 2),
])
def test_verify_descriptor_runs_the_checks_of_its_mode(mode, names, notes):
    sd, us = scheme_mod.build_descriptor_with_space(3, 2, mode)
    report = scheme_mod.verify_descriptor(sd, us)
    assert [name for name, _, _ in report.checks] == names
    assert report.passed and len(report.notes) == notes
    assert report.notes[-1] == "perpendicular class empty (dimension < 4)"


def _failing_lines(out):
    return [line for line in out.splitlines() if line.startswith("FAIL - ")]


def test_verify_fails_on_a_changed_character_table(capsys, monkeypatch):
    closed = ct_mod.char_table_closed

    def changed(n):
        table = closed(n)
        p = table.p.copy()
        p[0, 2, 4] += 1
        return ct_mod.CharTable(p=p, multiplicities=table.multiplicities,
                                valencies=table.valencies, order=table.order)

    sd = scheme_mod.build_descriptor(3, 2)
    assert ct_mod.verify_table(closed(3), sd)[:2] == ("character table", True)
    assert ct_mod.verify_table(changed(3), sd)[:2] == ("character table", False)
    monkeypatch.setattr(ct_mod, "char_table_closed", changed)
    code, out, _ = run(capsys, "verify", "--n", "3", "--q", "2")
    assert code == 1
    assert _failing_lines(out) == [
        "FAIL - character table: 72 orthogonality, 216 homomorphism, 216 reconstruction, "
        "72 eigenmatrix inverse and 216 minimal polynomial equalities"]
    assert out.splitlines()[-1] == "FAIL"


def test_verify_fails_on_a_changed_relation_matrix(capsys, monkeypatch):
    classify = scheme_mod.relation_matrix

    def changed(us):
        M = classify(us).copy()
        M[1, 2] = M[1, 2] % 5 + 1  # another of the labels 1..5 of rank 6
        return M

    monkeypatch.setattr(scheme_mod, "relation_matrix", changed)
    sd, us = scheme_mod.build_descriptor_with_space(3, 2)
    report = scheme_mod.verify_descriptor(sd, us)
    assert [name for name, _, _ in report.failing()] == ["axioms"]
    assert not report.passed
    code, out, _ = run(capsys, "verify", "--n", "3", "--q", "2")
    assert code == 1
    assert _failing_lines(out) == [
        "FAIL - axioms: partition, identity, converse, valencies, constancy; 729 pairs "
        "classified, 5 sampled pairs per relation"]
    assert out.splitlines()[-1] == "FAIL"


@pytest.mark.parametrize("n,q", [(2, 3), (3, 4)])
def test_verify_fails_on_a_moved_witness_cell(n, q, capsys, monkeypatch):
    """One count of row (h, j) moved to (h, j, i), the witness (q, q^2 - 1,
    q^2) in its mirror order: the row sums hold, and p^h_ji is no longer 0."""
    closed = scheme_mod._closed_tensor
    h, i, j = q, q * q - 1, q * q

    def moved(n, q):
        tensor = closed(n, q).copy()
        k = next(k for k in np.flatnonzero(tensor[h, j]) if k != i)
        tensor[h, j, k] -= 1
        tensor[h, j, i] += 1
        return tensor

    monkeypatch.setattr(scheme_mod, "_closed_tensor", moved)
    report = scheme_mod.verify_descriptor(scheme_mod.build_descriptor(n, q, "closed"), None)
    assert "commutative" in [name for name, _, _ in report.failing()]
    code, out, _ = run(capsys, "verify", "--n", str(n), "--q", str(q), "--mode", "closed")
    assert code == 1
    assert any(line.startswith(f"FAIL - non-commutative as expected for q={q}; witness "
                               f"({h},{i},{j}): ") for line in _failing_lines(out))
    assert out.splitlines()[-1] == "FAIL"


def _refuse(message):
    def check(*args, **kwargs):
        raise AssertionError(message)

    return check


@pytest.mark.parametrize("mode", ["both", "bruteforce"])
@pytest.mark.parametrize("target,name", [("_spot_check", "representatives"),
                                         ("_check_descriptor", "descriptor")])
def test_verify_reports_a_failed_build_check(mode, target, name, capsys, monkeypatch):
    # these checks run inside the build; they used to end verify in a traceback
    monkeypatch.setattr(scheme_mod, target, _refuse("counts moved"))
    sd, report = scheme_mod.verify_build(3, 2, mode)
    assert sd is None and report.checks == [(name, False, f"{name}: counts moved")]
    code, out, err = run(capsys, "verify", "--n", "3", "--q", "2", "--mode", mode)
    assert (code, err) == (1, "")
    assert out.splitlines() == ["scheme (n=3, q=2): 27 points, rank 6",
                                f"FAIL - {name}: counts moved", "FAIL"]


@pytest.mark.parametrize("target,name", [("_spot_check", "representatives"),
                                         ("_check_descriptor", "descriptor")])
def test_verify_closed_mode_reports_a_failed_check(target, name, capsys, monkeypatch):
    monkeypatch.setattr(scheme_mod, target, _refuse("counts moved"))
    code, out, err = run(capsys, "verify", "--n", "3", "--q", "2", "--mode", "closed")
    assert (code, err) == (1, "")
    assert _failing_lines(out) == [f"FAIL - {name}: counts moved"]
    assert out.splitlines()[-1] == "FAIL"


@pytest.mark.parametrize("mode,target,name", [
    ("both", "_spot_check", "representatives"),
    ("bruteforce", "_spot_check", "representatives"),
    ("closed", "_check_descriptor", "descriptor"),  # a closed build runs no spot check
])
@pytest.mark.parametrize("fmt", ["doc", "csv", "hanaki"])
def test_build_stops_on_a_failed_build_check(fmt, mode, target, name, capsys, monkeypatch,
                                             tmp_path):
    # a CheckFailed used to end build in a traceback
    monkeypatch.setattr(scheme_mod, target, _refuse("moved"))
    path = tmp_path / "out.txt"
    code, out, err = run(capsys, "build", "--n", "3", "--q", "2", "--mode", mode,
                         "--format", fmt, "--out", str(path))
    assert (code, out, err) == (2, "", f"error: {name}: moved\n")
    assert not path.exists()


def test_verify_fails_when_the_counted_conjugation_map_differs(capsys, monkeypatch):
    # the reversed witness pairs classified unreversed: every relation its own
    # converse
    classify = scheme_mod.classify_pair
    monkeypatch.setattr(scheme_mod, "classify_pair", lambda us, x, y: classify(us, y, x))
    code, out, err = run(capsys, "verify", "--n", "3", "--q", "2")
    assert (code, err) == (1, "")
    assert out.splitlines() == [
        "scheme (n=3, q=2): 27 points, rank 6",
        "FAIL - oracle: conjugation maps disagree: (0, 1, 2, 3, 4, 5) vs (0, 2, 1, 3, 5, 4)",
        "FAIL"]


def test_verify_oracle_mismatch_stays_an_error(capsys, monkeypatch):
    closed = scheme_mod._closed_tensor

    def moved(n, q):
        tensor = closed(n, q).copy()
        tensor[4, 3, 3] -= 1
        tensor[4, 3, 4] += 1
        return tensor

    monkeypatch.setattr(scheme_mod, "_closed_tensor", moved)
    code, out, err = run(capsys, "verify", "--n", "4", "--q", "2")
    assert (code, out) == (2, "")
    assert err.startswith("error: closed form ")
    assert err.endswith(" at (h,i,j)=(4,3,3) for (n,q)=(4,2)\n")


def test_build_largest_int64_dimension(capsys):
    code, out, _ = run(capsys, "build", "--n", "31", "--q", "2", "--mode", "closed")
    assert code == 0
    doc = parse_document(out)
    assert doc.n == 31 and doc.order < 2**63


def test_build_rejects_dimension_beyond_int64(capsys):
    code, out, err = run(capsys, "build", "--n", "32", "--q", "2", "--mode", "closed")
    assert code == 2
    assert out == ""
    assert "largest n for q = 2 is 31" in err


# The parser is built once, when ``cli`` is imported; every ``main`` call in a
# process parses with it.

@pytest.mark.parametrize("argv", [
    ("build", "--n", "3", "--q", "2", "--out"),
    ("chartable", "--n", "4", "--fusion", "coarse", "--out"),
    ("export", "--n", "2", "--q", "3", "--out"),
    ("verify", "--n", "2", "--q", "3"),
], ids=lambda argv: argv[0])
def test_commands_repeat_in_one_process(argv, capsys, tmp_path):
    results = []
    for name in ("first.txt", "second.txt"):
        path = tmp_path / name
        full = (*argv, str(path)) if argv[-1] == "--out" else argv
        results.append((*run(capsys, *full), path.read_bytes() if path.exists() else None))
    assert results[0][0] == 0
    assert results[0] == results[1]


@pytest.mark.parametrize("argv,last_line", [
    (("build", "--n", "3"),
     "unitary-schemes build: error: the following arguments are required: --q"),
    (("verify", "--n", "3", "--q", "x"),
     "unitary-schemes verify: error: argument --q: invalid int value: 'x'"),
    (("nosuch", "--n", "3"),
     "unitary-schemes: error: argument command: invalid choice: 'nosuch'"),
], ids=["missing-q", "bad-q", "unknown-command"])
def test_usage_error_between_good_calls(argv, last_line, capsys):
    good = run(capsys, "chartable", "--n", "2")
    first = run_exit(capsys, *argv)
    assert run(capsys, "chartable", "--n", "2") == good
    assert run_exit(capsys, *argv) == first
    assert run(capsys, "chartable", "--n", "2") == good
    code, out, err = first
    assert code == 2 and out == ""
    assert err.startswith("usage: " + last_line.split(": error")[0] + " ")
    assert err.splitlines()[-1].startswith(last_line)


@pytest.mark.parametrize("command,text", [
    ("build", "hanaki: relation matrix, as export writes it"),
    ("chartable", "format of the --out document only; the printed table is always the same"),
])
def test_help_is_formatted_at_the_width_it_is_printed_at(command, text, capsys, monkeypatch):
    helps = []
    for columns in ("200", "40"):
        monkeypatch.setenv("COLUMNS", columns)
        code, out, err = run_exit(capsys, command, "--help")
        assert code == 0 and err == ""
        assert out.startswith(f"usage: unitary-schemes {command}")
        helps.append(out)
    wide, narrow = helps
    assert text in wide and text not in narrow
    assert " ".join(wide.split()) == " ".join(narrow.split())


def test_main_builds_no_parser(capsys, monkeypatch):
    built = []
    init = argparse.ArgumentParser.__init__

    def counting(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting)
    for argv in (("chartable", "--n", "2"), ("export", "--n", "2", "--q", "2"),
                 ("verify", "--n", "2", "--q", "2")):
        assert run(capsys, *argv)[0] == 0
    assert built == []


def test_main_runs_the_command_function_bound_at_call_time(capsys, monkeypatch):
    from unitary_schemes import cli

    seen = []
    monkeypatch.setattr(cli, "cmd_build", lambda args: seen.append(
        (args.n, args.q, args.mode, args.format)) or 7)
    assert run(capsys, "build", "--n", "5", "--q", "3", "--mode", "closed") == (7, "", "")
    assert seen == [(5, 3, "closed", "doc")]
