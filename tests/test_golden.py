"""Golden pins: SHA-256 digests of the chartable, verify, build and export
outputs.

Round trips pass under any rendering drift that the writer and the reader
share; these digests pin the bytes themselves.  They were recorded once from
the outputs below and are compared, never rewritten, by the test:

    PYTHONPATH=src python tests/test_golden.py  # prints the current digests
"""

import hashlib
import json
import sys
from pathlib import Path

import pytest

from unitary_schemes.cli import main

DIGESTS = Path(__file__).with_name("golden_digests.json")
FUSIONS = ("none", "symmetrize", "coarse")
CHARTABLE_N = (*range(2, 13), 40)
VERIFY_N = range(2, 7)
# q > 2, the closed and bruteforce modes, and the pairs-budget note at (6, 3)
VERIFY_CASES = ((2, 3, "both"), (3, 4, "closed"), (3, 2, "bruteforce"), (6, 2, "closed"),
                (6, 3, "both"))
BUILD_NQ = ((2, 2), (2, 4), (4, 3), (3, 9), (8, 5), (10, 9))  # closed mode, doc and csv
EXPORT_NQ = ((2, 3), (4, 2))


def commands():
    for n in CHARTABLE_N:
        for fusion in FUSIONS:
            yield ["chartable", "--n", str(n), "--fusion", fusion]
    for n in VERIFY_N:
        yield ["verify", "--n", str(n), "--q", "2"]
    for n, q, mode in VERIFY_CASES:
        mode_flag = [] if mode == "both" else ["--mode", mode]
        yield ["verify", "--n", str(n), "--q", str(q), *mode_flag]
    for n, q in BUILD_NQ:
        for fmt in ("doc", "csv"):
            yield ["build", "--n", str(n), "--q", str(q), "--mode", "closed", "--format", fmt]
    for n, q in EXPORT_NQ:
        yield ["export", "--n", str(n), "--q", str(q)]


def outputs(argv, run, tmp_path):
    """(key, text) for the stdout of ``argv`` and, for chartable, its --out
    files in both formats; ``run(argv)`` returns (exit code, stdout)."""
    key = " ".join(argv)
    code, out = run(argv)
    assert code == 0, key
    yield "stdout " + key, out
    if argv[0] == "chartable":
        for fmt in ("doc", "csv"):
            path = tmp_path / f"out.{fmt}"
            code, _ = run(argv + ["--format", fmt, "--out", str(path)])
            assert code == 0, key
            yield f"{fmt} {key}", path.read_text()


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.mark.parametrize("argv", list(commands()), ids=" ".join)
def test_output_matches_golden_digest(argv, capsys, tmp_path):
    expected = json.loads(DIGESTS.read_text())

    def run(args):
        code = main(args)
        return code, capsys.readouterr().out

    for key, text in outputs(argv, run, tmp_path):
        assert digest(text) == expected[key], key


if __name__ == "__main__":
    import contextlib
    import io
    import tempfile

    def run(args):
        buffer = io.StringIO()
        with contextlib.redirect_stdout(buffer):
            code = main(args)
        return code, buffer.getvalue()

    with tempfile.TemporaryDirectory() as tmp:
        table = {key: digest(text) for argv in commands()
                 for key, text in outputs(argv, run, Path(tmp))}
    json.dump(table, sys.stdout, indent=1, sort_keys=True)
    sys.stdout.write("\n")
