"""Every subcommand's stdout and written files, byte for byte, against recorded files.

Each case runs ``main`` in a directory holding a copy of
``data/cli_golden/inputs`` and compares its exit code and stdout with
``data/cli_golden/<name>.out``, and the file a case writes with ``--out``
with ``data/cli_golden/<name>.graph``.  The files were recorded from the CLI as it
was before its JSON writer was replaced, so a change to the canonical bytes
(key order, indentation, escapes, number spelling) fails here even where a
rerun would agree with itself.  After a deliberate output change, record them
again with ``PYTHONPATH=src python tests/test_cli_golden.py``.
"""

import contextlib
import io
import os
import shutil
import tempfile
from pathlib import Path

import pytest

from concentrators.cli import main

GOLDEN = Path(__file__).parent / "data" / "cli_golden"

# (name, exit code, argv); paths are relative to a copy of the inputs.
CASES = [
    ("construct-cayley", 0, ["construct", "--kind", "cayley", "--group", "s3.txt",
                             "--S", "s3.txt", "--out", "cay.txt"]),
    ("construct-coset", 0, ["construct", "--kind", "coset", "--group", "s4.txt",
                            "--H", "v4.txt", "--S", "s4.txt", "--out", "coset.txt"]),
    ("construct-bicoset", 0, ["construct", "--kind", "bicoset", "--group", "s3.txt",
                              "--L", "swap01.txt", "--N", "a3.txt", "--S", "s3.txt",
                              "--out", "bc.txt"]),
    # One file for both subgroups: loaded once, one coset partition for both sides.
    ("construct-bicoset-same-LN", 0, ["construct", "--kind", "bicoset", "--group", "s3.txt",
                                      "--L", "swap01.txt", "--N", "swap01.txt",
                                      "--S", "s3.txt", "--out", "bc.txt"]),
    # A non-ASCII path puts a \u escape into "out".
    ("construct-double-cover", 0, ["construct", "--kind", "double-cover", "--graph", "c5.txt",
                                   "--out", "cov\u00e9r.txt"]),
    ("construct-gq22", 0, ["construct", "--kind", "gq22", "--out", "gq.txt"]),
    # Diagonal operators, so that the printed residual is exactly 0 under any LAPACK.
    ("spectrum-loops", 0, ["spectrum", "--graph", "loops3.txt"]),
    ("spectrum-one-vertex", 0, ["spectrum", "--graph", "k1.txt"]),
    ("spectrum-bipartite", 0, ["spectrum", "--graph", "diag23.txt"]),
    ("design-mathieu9", 0, ["design", "--mathieu", "9", "--validate"]),
    ("design-contract", 0, ["design", "--mathieu", "12", "--contract", "11", "--validate"]),
    ("design-fano-invalid", 1, ["design", "--in", "fano.txt", "--t", "2", "--gamma", "2",
                                "--validate"]),
    ("chartable-s4", 0, ["chartable", "--group", "s4.txt", "--subgroup", "v4.txt"]),
    ("chartable-s3", 0, ["chartable", "--group", "s3.txt", "--subgroup", "swap01.txt",
                         "--subgroup", "a3.txt"]),
    ("verify-bsc-pass", 0, ["verify-bsc", "--graph", "bip45.txt", "--alpha", "0.5",
                            "--c", "1.0"]),
    ("verify-bsc-refuted", 1, ["verify-bsc", "--graph", "bip45.txt", "--alpha", "1.0",
                               "--c", "1.3"]),
    ("verify-bsc-sampled", 0, ["verify-bsc", "--graph", "ring4.txt", "--alpha", "0.75",
                               "--c", "1.0", "--mode", "sampled", "--budget", "7",
                               "--seed", "3"]),
    # A sampled scan never stops early: all 4 x 5 draws are read.
    ("verify-bsc-sampled-refuted", 1, ["verify-bsc", "--graph", "bip45.txt", "--alpha", "1.0",
                                       "--c", "1.3", "--mode", "sampled", "--budget", "5",
                                       "--seed", "2"]),
    # 13 to 24 inputs run the cell kernel; the cases above read one row.
    ("verify-bsc-gq22-pass", 0, ["verify-bsc", "--graph", "gq22.txt", "--alpha", "0.5",
                                 "--c", "1.3846153846153846"]),
    ("verify-bsc-gq22-refuted", 1, ["verify-bsc", "--graph", "gq22.txt", "--alpha", "0.5",
                                    "--c", "2.0"]),
    ("verify-magnifier-cayley-s4", 0, ["verify-magnifier", "--graph", "cayley_s4.txt"]),
    ("verify-expander-cover-z20", 0, ["verify-expander", "--graph", "cover_z20.txt",
                                      "--c", "0.5"]),
    ("verify-magnifier", 0, ["verify-magnifier", "--graph", "bowtie6.txt"]),
    ("verify-magnifier-claim", 1, ["verify-magnifier", "--graph", "c5.txt", "--c", "1.5"]),
    ("verify-expander", 0, ["verify-expander", "--graph", "ring4.txt", "--c", "0.5"]),
    ("verify-expander-unrestricted", 1, ["verify-expander", "--graph", "ring4.txt",
                                         "--c", "3.0", "--no-restrict-half"]),
    ("lemma11-c5", 0, ["lemma11", "--graph", "c5.txt"]),
    ("lemma11-p4", 0, ["lemma11", "--graph", "p4.txt"]),
    ("lemma11-bowtie6", 0, ["lemma11", "--graph", "bowtie6.txt"]),
    # Both checks read off one sampled gather.
    ("lemma11-sampled", 0, ["lemma11", "--graph", "bowtie6.txt", "--mode", "sampled",
                            "--budget", "4", "--seed", "1"]),
    ("montecarlo-thm14", 0, ["montecarlo", "--group", "s3.txt", "--k", "3", "--eps", "0.5",
                             "--trials", "12", "--seed", "4", "--variant", "thm14"]),
    ("montecarlo-thm15", 0, ["montecarlo", "--group", "s4.txt", "--L", "v4.txt", "--k", "2",
                             "--eps", "0.3", "--trials", "8", "--seed", "1",
                             "--variant", "thm15"]),
    ("montecarlo-thm18", 0, ["montecarlo", "--group", "s3.txt", "--L", "swap01.txt",
                             "--N", "a3.txt", "--k", "6", "--eps", "0.4", "--trials", "10",
                             "--seed", "11", "--variant", "thm18"]),
    # 2^70: a three-word seed, so each trial's SeedSequence entropy has four words.
    ("montecarlo-seed-2p70", 0, ["montecarlo", "--group", "s3.txt", "--k", "5", "--eps", "0.5",
                                 "--trials", "9", "--seed", "1180591620717411303424",
                                 "--variant", "thm14"]),
    ("pipeline63-s3", 0, ["pipeline63", "--group", "s3.txt", "--L", "swap01.txt",
                          "--S", "s3.txt"]),
]


def _written(argv):
    """The path a case writes with ``--out``, or None."""
    return argv[argv.index("--out") + 1] if "--out" in argv else None


def _run(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = main(argv)
    return code, out.getvalue()


@pytest.mark.parametrize("name, code, argv", CASES, ids=[case[0] for case in CASES])
def test_stdout_matches_the_recorded_bytes(tmp_path, monkeypatch, name, code, argv):
    shutil.copytree(GOLDEN / "inputs", tmp_path, dirs_exist_ok=True)
    monkeypatch.chdir(tmp_path)
    got_code, got = _run(argv)
    assert got_code == code
    assert got.encode() == (GOLDEN / f"{name}.out").read_bytes()
    if _written(argv):
        written = (tmp_path / _written(argv)).read_bytes()
        assert written == (GOLDEN / f"{name}.graph").read_bytes()


if __name__ == "__main__":
    # Record every case's stdout and written file (see the module docstring).
    with tempfile.TemporaryDirectory() as tmp:
        shutil.copytree(GOLDEN / "inputs", tmp, dirs_exist_ok=True)
        os.chdir(tmp)
        for name, code, argv in CASES:
            got_code, got = _run(argv)
            if got_code != code:
                raise SystemExit(f"{name}: exit {got_code}, expected {code}")
            (GOLDEN / f"{name}.out").write_bytes(got.encode())
            if _written(argv):
                shutil.copyfile(_written(argv), GOLDEN / f"{name}.graph")
