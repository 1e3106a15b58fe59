import contextlib
import io
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import concentrators as C
from concentrators import fileio, verify
from concentrators.cli import _canonical_json, _each_distinct, _parse_args, build_parser, main
from concentrators.fileio import save_graph
from test_cli_golden import CASES as GOLDEN_CASES


@pytest.fixture()
def c4_file(tmp_path):
    adj = np.zeros((4, 4), dtype=np.int64)
    for i in range(4):
        adj[i, (i + 1) % 4] = adj[(i + 1) % 4, i] = 1
    p = tmp_path / "c4.txt"
    save_graph(C.Graph(adj), p)
    return str(p)


@pytest.fixture()
def s3_file(tmp_path):
    p = tmp_path / "s3.txt"
    p.write_text("degree 3\n(0 1)\n(0 1 2)\n")
    return str(p)


@pytest.fixture()
def a3_file(tmp_path):
    p = tmp_path / "a3.txt"
    p.write_text("degree 3\n(0 1 2)\n")
    return str(p)


@pytest.fixture()
def swap_file(tmp_path):
    p = tmp_path / "swap01.txt"
    p.write_text("degree 3\n(0 1)\n")
    return str(p)


def run(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, out


def test_spectrum_c4(capsys, c4_file):
    code, out = run(capsys, ["spectrum", "--graph", c4_file])
    assert code == 0
    payload = json.loads(out)
    assert np.allclose(payload["eigenvalues"], [2.0, 0.0, 0.0, -2.0], atol=1e-9)
    assert payload["mu_star"] == pytest.approx(2.0, abs=1e-9)
    assert payload["residual"] <= 1e-9


def test_unknown_flag_exits_2(c4_file):
    with pytest.raises(SystemExit) as err:
        main(["spectrum", "--graph", c4_file, "--bogus"])
    assert err.value.code == 2


def test_missing_subcommand_exits_2():
    with pytest.raises(SystemExit) as err:
        main([])
    assert err.value.code == 2


def test_design_golay_validate(capsys):
    code, out = run(capsys, ["design", "--golay", "--validate"])
    assert code == 0
    payload = json.loads(out)
    assert payload["b"] == 759
    assert payload["valid"] is True
    assert payload["codewords"] == 4096
    assert payload["weight_distribution"] == {
        "0": 1, "8": 759, "12": 2576, "16": 759, "24": 1,
    }


def test_design_mathieu_contract(capsys, tmp_path):
    out_path = str(tmp_path / "d11.txt")
    code, out = run(
        capsys, ["design", "--mathieu", "12", "--contract", "11", "--validate", "--out", out_path]
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["v"] == 11 and payload["b"] == 66 and payload["valid"]
    text = (tmp_path / "d11.txt").read_text()
    assert text.splitlines()[0] == "design 11 66"


def test_design_disputed_tuple_reported(capsys):
    code, out = run(capsys, ["design", "--mathieu", "9", "--validate"])
    assert code == 0
    payload = json.loads(out)
    assert payload["bibd"]["identities_hold"]
    assert payload["disputed_reference_tuple"]["quoted"] == [9, 36, 8, 3, 1]
    assert payload["disputed_reference_tuple"]["derived"] == [9, 12, 4, 3, 1]


def test_design_file_input_validation(capsys, tmp_path):
    bad = tmp_path / "bad.txt"
    bad.write_text("design 5 2\n0 1 2\n0 1 3\n")
    code, out = run(capsys, ["design", "--in", str(bad), "--t", "2", "--gamma", "1", "--validate"])
    assert code == 1
    payload = json.loads(out)
    assert payload["valid"] is False
    assert "witness" in payload


@pytest.mark.parametrize("t, gamma", [(2, -2), (2, 0), (-1, 1), (0, 1)],
                         ids=["gamma-2", "gamma0", "t-1", "t0"])
def test_design_strength_and_count_below_one_exit_2(capsys, tmp_path, t, gamma):
    # Before, gamma -2 printed negative BIBD counts and t -1 failed inside
    # math.comb; both are usage errors.
    path = tmp_path / "d.txt"
    path.write_text("design 6 4\n0 1 2\n0 3 4\n1 3 5\n2 4 5\n")
    argv = ["design", "--in", str(path), "--t", str(t), "--gamma", str(gamma), "--validate"]
    assert _main_exit(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "error: need t >= 1 and gamma >= 1" in captured.err
    assert "Traceback" not in captured.err


def test_chartable(capsys, s3_file, swap_file, a3_file):
    code, out = run(
        capsys,
        ["chartable", "--group", s3_file, "--subgroup", swap_file, "--subgroup", a3_file],
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["degrees"] == [1, 1, 2]
    assert payload["D"] == 4
    by_name = {entry["subgroup"]: entry for entry in payload["DGH"]}
    assert by_name["swap01"]["paper"] == 1
    assert by_name["swap01"]["support"] == 2
    assert by_name["a3"]["paper"] == 2
    assert by_name["a3"]["support"] == 1


@pytest.fixture()
def trivial_file(tmp_path):
    p = tmp_path / "trivial.txt"
    p.write_text("degree 1\n")
    return str(p)


def test_chartable_of_the_one_element_group(capsys, trivial_file):
    code, out = run(capsys, ["chartable", "--group", trivial_file])
    assert code == 0
    payload = json.loads(out)
    assert payload["degrees"] == [1]
    assert payload["D"] == 1


@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_thm14_on_the_one_element_group_exits_2(capsys, trivial_file, fmt):
    argv = ["montecarlo", "--group", trivial_file, "--k", "2", "--eps", "0.5", "--trials", "3",
            "--seed", "1", "--variant", "thm14", "--format", fmt]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and "mu*" in captured.err


def test_construct_and_verify_roundtrip(capsys, tmp_path, s3_file, a3_file, swap_file):
    graph_path = str(tmp_path / "bc.txt")
    code, _ = run(
        capsys,
        [
            "construct", "--kind", "bicoset", "--group", s3_file,
            "--L", swap_file, "--N", a3_file,
            "--S", s3_file, "--out", graph_path,
        ],
    )
    assert code == 0
    code, out = run(capsys, ["verify-bsc", "--graph", graph_path, "--alpha", "1.0", "--c", "0.1"])
    assert code == 0
    assert json.loads(out)["verdict"] is True


def test_construct_gq22_and_double_cover(capsys, tmp_path, c4_file):
    gq_path = str(tmp_path / "gq.txt")
    code, out = run(capsys, ["construct", "--kind", "gq22", "--out", gq_path])
    assert code == 0
    assert json.loads(out) == {"kind": "gq22", "n_in": 15, "n_out": 15, "out": gq_path}
    cover_path = str(tmp_path / "cover.txt")
    code, _ = run(
        capsys, ["construct", "--kind", "double-cover", "--graph", c4_file, "--out", cover_path]
    )
    assert code == 0
    from concentrators.fileio import load_graph

    cover = load_graph(cover_path)
    assert cover.n_in == cover.n_out == 4


def test_construct_cayley(capsys, tmp_path, s3_file):
    out_path = str(tmp_path / "cay.txt")
    code, out = run(
        capsys,
        ["construct", "--kind", "cayley", "--group", s3_file, "--S", s3_file, "--out", out_path],
    )
    assert code == 0
    assert json.loads(out)["n"] == 6


def test_verify_bsc_failure_exit_code(capsys, tmp_path):
    matching = C.BipartiteGraph(np.eye(3, dtype=np.int64))
    p = str(tmp_path / "m.txt")
    save_graph(matching, p)
    code, out = run(capsys, ["verify-bsc", "--graph", p, "--alpha", "1.0", "--c", "2.0"])
    assert code == 1
    assert json.loads(out)["verdict"] is False


def test_verify_magnifier_and_lemma11(capsys, c4_file):
    code, out = run(capsys, ["verify-magnifier", "--graph", c4_file])
    assert code == 0
    assert json.loads(out)["worst_ratio"] == 1.0
    code, out = run(capsys, ["lemma11", "--graph", c4_file])
    assert code == 0
    assert json.loads(out)["passed"] is True


def test_verify_expander(capsys, tmp_path):
    p = str(tmp_path / "k33.txt")
    save_graph(C.BipartiteGraph(np.ones((3, 3), dtype=np.int64)), p)
    code, out = run(capsys, ["verify-expander", "--graph", p, "--c", "1.0"])
    assert code == 0
    code, out = run(
        capsys, ["verify-expander", "--graph", p, "--c", "2.0", "--no-restrict-half"]
    )
    assert code == 1


def test_montecarlo_json_and_csv(capsys, tmp_path, s3_file):
    args = [
        "montecarlo", "--group", s3_file, "--k", "3", "--eps", "0.5",
        "--trials", "10", "--seed", "4", "--variant", "thm14",
    ]
    code, out = run(capsys, args)
    assert code == 0
    payload = json.loads(out)
    assert payload["summary"]["trials"] == 10
    assert len(payload["mu_values"]) == 10

    csv_path = str(tmp_path / "row.csv")
    code, out = run(capsys, args + ["--format", "csv", "--out", csv_path])
    assert code == 0
    lines = (tmp_path / "row.csv").read_text().splitlines()
    assert lines[0].startswith("variant,")
    assert len(lines) == 2


def test_montecarlo_requires_seed(s3_file):
    with pytest.raises(SystemExit) as err:
        main([
            "montecarlo", "--group", s3_file, "--k", "3", "--eps", "0.5",
            "--trials", "10", "--variant", "thm14",
        ])
    assert err.value.code == 2


def test_montecarlo_thm18(capsys, s3_file, swap_file, a3_file):
    code, out = run(
        capsys,
        [
            "montecarlo", "--group", s3_file, "--L", swap_file, "--N", a3_file,
            "--k", "6", "--eps", "0.4", "--trials", "20", "--seed", "11",
            "--variant", "thm18",
        ],
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["summary"]["threshold"] == 0.45
    assert "top_values" in payload


def test_byte_identical_reruns(capsys, s3_file, a3_file):
    args = [
        "montecarlo", "--group", s3_file, "--L", a3_file, "--k", "4",
        "--eps", "0.5", "--trials", "15", "--seed", "9", "--variant", "thm15",
    ]
    _, out1 = run(capsys, args)
    _, out2 = run(capsys, args)
    assert out1 == out2
    _, s1 = run(capsys, ["design", "--mathieu", "9", "--validate"])
    _, s2 = run(capsys, ["design", "--mathieu", "9", "--validate"])
    assert s1 == s2


def test_pipeline63(capsys, tmp_path, s3_file, swap_file):
    s_path = str(tmp_path / "gens.txt")
    (tmp_path / "gens.txt").write_text("degree 3\n(0 1)\n(0 1 2)\n")
    code, out = run(
        capsys,
        ["pipeline63", "--group", s3_file, "--L", swap_file, "--S", s_path],
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["connected"] is True
    assert payload["gram_top"] > payload["gram_second"]
    assert payload["gap_check"] is True
    assert payload["tanner_constant"] is not None


def test_pipeline63_disconnected_warns(capsys, tmp_path, s3_file, swap_file):
    s_path = str(tmp_path / "ident.txt")
    (tmp_path / "ident.txt").write_text("degree 3\n0 1 2\n")
    code, out = run(
        capsys,
        ["pipeline63", "--group", s3_file, "--L", swap_file, "--S", s_path],
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["connected"] is False
    assert any("disconnected" in w for w in payload["warnings"])


def test_error_reported_as_exit_2(capsys, tmp_path):
    missing = str(tmp_path / "nope.txt")
    code = main(["spectrum", "--graph", missing])
    assert code == 2


@pytest.mark.parametrize("kind", ["cayley", "coset", "bicoset"])
@pytest.mark.parametrize(
    "s_text, shown",
    [("degree 3\n(1 2)\n", "(0, 2, 1)"), ("degree 4\n(0 1)\n", "(1, 0, 2, 3)")],
    ids=["outside-z3", "degree-4"],
)
def test_construct_names_the_first_non_element_of_s(capsys, tmp_path, kind, s_text, shown):
    # A connection multiset with a permutation outside G, of G's degree or
    # not, is a usage error naming that permutation and the group file's stem.
    z3, one, S = tmp_path / "z3.txt", tmp_path / "one.txt", tmp_path / "S.txt"
    z3.write_text("degree 3\n(0 1 2)\n")
    one.write_text("degree 3\n")
    S.write_text(s_text)
    subgroups = {"cayley": [], "coset": ["--H", str(one)],
                 "bicoset": ["--L", str(one), "--N", str(one)]}[kind]
    argv = ["construct", "--kind", kind, "--group", str(z3), *subgroups,
            "--S", str(S), "--out", str(tmp_path / "out.txt")]
    assert _main_exit(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"error: {shown} is not an element of z3" in captured.err
    assert "Traceback" not in captured.err


@pytest.mark.parametrize(
    "text",
    [
        "graph 2\n0 5 1\n",
        "graph 3\n-1 0 1\n",
        "graph 3\n0 -1 1\n",
        "bipartite 2 3\n0 3 1\n",
        "bipartite 2 3\n2 0 1\n",
        "bipartite 2 3\n-1 0 1\n",
        "bipartite 2 3\n0 -2 1\n",
    ],
    ids=["graph-high", "graph-negative-i", "graph-negative-j", "bipartite-high-j",
         "bipartite-high-i", "bipartite-negative-i", "bipartite-negative-j"],
)
def test_graph_endpoint_out_of_range_exits_2(capsys, tmp_path, text):
    path = tmp_path / "bad.txt"
    path.write_text(text)
    code = main(["spectrum", "--graph", str(path)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert "error:" in captured.err and "outside" in captured.err


def _strict_json(text):
    def reject(token):
        raise AssertionError(f"{token} is not JSON")

    return json.loads(text, parse_constant=reject)


def _main_exit(argv):
    try:
        return main(argv)
    except SystemExit as exc:
        return exc.code


def test_expander_without_eligible_subset_exits_2(capsys, tmp_path):
    p = tmp_path / "b11.txt"
    p.write_text("bipartite 1 1\n0 0 1\n")
    for extra in ([], ["--no-restrict-half"]):
        code = main(["verify-expander", "--graph", str(p), "--c", "0.5", *extra])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err.startswith("error:")


def test_spectrum_single_vertex_mu_star_null(capsys, tmp_path):
    p = tmp_path / "g1.txt"
    p.write_text("graph 1\n")
    code, out = run(capsys, ["spectrum", "--graph", str(p)])
    assert code == 0
    payload = _strict_json(out)
    assert payload["mu_star"] is None
    assert payload["eigenvalues"] == [0.0]


def test_non_finite_float_exits_2(capsys, c4_file):
    for c in ("inf", "nan"):
        code = main(["verify-magnifier", "--graph", c4_file, "--c", c])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err.startswith("error:")


def test_repeated_main_matches_fresh_processes(capsys, tmp_path, c4_file, s3_file, swap_file):
    spec = tmp_path / "spec.json"
    calls = [
        ["spectrum", "--graph", c4_file, "--out", str(spec)],
        ["spectrum", "--graph", c4_file],
        ["chartable", "--group", s3_file, "--subgroup", swap_file],
        ["chartable", "--group", s3_file],
        ["verify-magnifier", "--graph", c4_file, "--c", "5"],
        ["spectrum", "--graph", c4_file, "--bogus"],
        ["verify-magnifier", "--graph", c4_file],
        ["lemma11", "--graph", c4_file, "--mode", "sampled", "--budget", "4", "--seed", "3"],
        ["lemma11"],
        ["lemma11", "--graph", c4_file],
    ]
    env = dict(os.environ, PYTHONPATH=str(Path(C.__file__).parents[1]))
    codes = []
    for argv in calls:
        fresh = subprocess.run([sys.executable, "-m", "concentrators", *argv],
                               capture_output=True, text=True, env=env, check=False)
        code = _main_exit(argv)
        out = capsys.readouterr().out
        assert (code, out) == (fresh.returncode, fresh.stdout), argv
        codes.append(code)
        if argv[-2:] == ["--out", str(spec)]:
            assert spec.read_text() == out
    assert codes == [0, 0, 0, 0, 1, 2, 0, 0, 2, 0]


@pytest.mark.parametrize(
    "text",
    [
        "graph 3\n0 1 99999999999999999999999\n",
        "graph 3\n0 1 -99999999999999999999999\n",
        "bipartite 2 3\n1 2 99999999999999999999999\n",
        "bipartite 2 3\n0 0 -9223372036854775809\n",
    ],
    ids=["graph-huge", "graph-huge-negative", "bipartite-huge", "bipartite-below-int64"],
)
def test_graph_multiplicity_overflow_exits_2(capsys, tmp_path, text):
    path = tmp_path / "bad.txt"
    path.write_text(text)
    code = main(["spectrum", "--graph", str(path)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert "error:" in captured.err and "int64" in captured.err


@pytest.mark.parametrize(
    "text, argv",
    [
        ("degree 100000000000\n", ["chartable", "--group"]),
        ("degree 100000000000\n", ["montecarlo", "--k", "2", "--eps", "0.5", "--trials", "2",
                                   "--seed", "1", "--variant", "thm14", "--group"]),
        ("graph 10000000\n", ["spectrum", "--graph"]),
    ],
    ids=["chartable", "montecarlo", "spectrum"],
)
def test_size_header_too_large_to_allocate_exits_2(capsys, tmp_path, text, argv):
    # Each of these sizes needs hundreds of GiB or more in one array, so the
    # allocation fails at once instead of filling memory.
    path = tmp_path / "huge.txt"
    path.write_text(text)
    code = main([*argv, str(path)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith("error:") and "allocate" in captured.err


@pytest.mark.parametrize(
    "argv, bad",
    [
        (["verify-bsc", "--graph", "{bip}", "--alpha", "1.0", "--c", "0.1"],
         [["--budget", "0"], ["--seed", "-1"]]),
        (["verify-magnifier", "--graph", "{c4}"], [["--budget", "0"], ["--seed", "-5"]]),
        (["verify-expander", "--graph", "{bip}", "--c", "0.5"],
         [["--budget", "0"], ["--seed", "-1"]]),
        (["lemma11", "--graph", "{c4}"], [["--budget", "-1"], ["--seed", "-2"]]),
        (["montecarlo", "--group", "{s3}", "--k", "2", "--eps", "0.5", "--trials", "2",
          "--variant", "thm14", "--seed", "1"], [["--seed", "-5"]]),
        (["pipeline63", "--group", "{s3}", "--L", "{swap}", "--S", "{s3}"],
         [["--budget", "0"], ["--seed", "-3"], ["--budget", "0", "--seed", "-3"]]),
    ],
    ids=["verify-bsc", "verify-magnifier", "verify-expander", "lemma11", "montecarlo",
         "pipeline63"],
)
def test_bad_budget_or_seed_exits_2_on_every_path(
    capsys, tmp_path, c4_file, s3_file, swap_file, argv, bad
):
    # Exhaustive mode and small groups never read these values, so they are
    # checked when the command line is parsed.
    bip = tmp_path / "bip.txt"
    bip.write_text("bipartite 2 2\n0 0 1\n1 1 1\n")
    files = {"bip": str(bip), "c4": c4_file, "s3": s3_file, "swap": swap_file}
    argv = [a.format(**files) for a in argv]
    assert _main_exit(argv) in (0, 1)
    capsys.readouterr()
    for flags in bad:
        code = _main_exit(argv + flags)
        captured = capsys.readouterr()
        assert code == 2, flags
        assert captured.out == ""
        assert "error:" in captured.err and f"argument {flags[0]}: must be >=" in captured.err


# -- malformed input files ------------------------------------------------------

def _perm_lines(degree):
    perm = st.permutations(range(degree))
    return st.one_of(perm.map(lambda p: " ".join(map(str, p))),
                     perm.map(lambda p: "(" + " ".join(map(str, p)) + ")"))


_BAD_LINES = st.one_of(
    # wrong lengths, repeated and out-of-range images or cycle points
    st.lists(st.integers(-2, 6), max_size=6).map(lambda xs: " ".join(map(str, xs))),
    st.lists(st.lists(st.integers(-1, 6), max_size=4), min_size=1, max_size=3).map(
        lambda cs: "".join("(" + " ".join(map(str, c)) + ")" for c in cs)
    ),
    st.text(alphabet="()0123456789 -,#x", max_size=10),
)
_BAD_HEADERS = st.sampled_from(
    ["", "degree", "degree x", "degree -1", "degree 0", "degree 3 3", "graph 3", "DEGREE 3"]
)
_BAD_BYTES = st.sampled_from(
    [b"", b"\n\n", b"# only a comment\n", b"degree 3\n\xff\xfe(0 1)\n", b"\x80\x81\x82"]
)


@st.composite
def _group_files(draw, degree):
    """A group or multiset file: mostly well formed at ``degree``, else with
    another degree, a bad header, a bad line, or empty or non-UTF-8 bytes."""
    kind = draw(st.sampled_from(
        ["good", "good", "good", "degree", "header", "line", "bytes"]
    ))
    if kind == "bytes":
        return draw(_BAD_BYTES)
    if kind == "degree":
        degree = draw(st.integers(1, 5).filter(lambda d: d != degree))
    head = draw(_BAD_HEADERS) if kind == "header" else f"degree {degree}"
    lines = draw(st.lists(_perm_lines(degree), max_size=3))
    if kind == "line":
        lines.insert(draw(st.integers(0, len(lines))), draw(_BAD_LINES))
    return "\n".join([head, *lines]).encode() + b"\n"


@st.composite
def _group_file_triples(draw):
    degree = draw(st.integers(1, 5))
    return tuple(draw(_group_files(degree)) for _ in range(3))


def _fuzz_argvs(files, out):
    g, h, s = files
    mc = ["montecarlo", "--group", g, "--k", "2", "--eps", "0.5", "--trials", "2", "--seed", "1"]
    return [
        ["construct", "--kind", "cayley", "--group", g, "--S", s, "--out", out],
        ["construct", "--kind", "coset", "--group", g, "--H", h, "--S", s, "--out", out],
        ["construct", "--kind", "bicoset", "--group", g, "--L", h, "--N", h, "--S", s,
         "--out", out],
        ["chartable", "--group", g, "--subgroup", h],
        [*mc, "--variant", "thm14"],
        [*mc, "--variant", "thm15", "--L", h],
        [*mc, "--variant", "thm18", "--L", h, "--N", h],
        ["pipeline63", "--group", g, "--L", h, "--S", s, "--budget", "50", "--seed", "1"],
    ]


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(_group_file_triples())
def test_malformed_group_files_keep_the_exit_code_contract(capsys, tmp_path, contents):
    # Group, subgroup and multiset files of degree at most 5, each valid or
    # malformed: every command exits 0, 1 or 2, exit 2 comes with an
    # ``error:`` line, and no exception escapes.
    files = []
    for name, data in zip(("G", "H", "S"), contents):
        path = tmp_path / f"{name}.txt"
        path.write_bytes(data)
        files.append(str(path))
    for argv in _fuzz_argvs(files, str(tmp_path / "out.txt")):
        code = _main_exit(argv)
        captured = capsys.readouterr()
        assert code in (0, 1, 2), argv
        assert "Traceback" not in captured.err
        if code == 2:
            assert "error:" in captured.err, argv


@pytest.mark.parametrize(
    "argv, flag",
    [
        (["verify-bsc", "--alpha", "0.5", "--graph"], "--c"),
        (["verify-bsc", "--c", "1.0", "--graph"], "--alpha"),
        (["verify-magnifier", "--graph"], "--c"),
        (["verify-expander", "--graph"], "--c"),
        (["spectrum", "--graph"], "--tol"),
        (["chartable", "--group"], "--tol"),
    ],
    ids=["verify-bsc-c", "verify-bsc-alpha", "verify-magnifier", "verify-expander",
         "spectrum-tol", "chartable-tol"],
)
def test_non_finite_c_and_alpha_rejected_before_the_graph_is_read(capsys, tmp_path, argv, flag):
    # The graph or group file does not exist: the finiteness error comes
    # first.  --tol must also be positive.
    missing = str(tmp_path / "missing.txt")
    bad = ("0", "-1") if flag == "--tol" else ()
    for text in ("nan", "inf", "-inf", "NaN", *bad):
        code = _main_exit([*argv, missing, f"{flag}={text}"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err.startswith(f"error: argument {flag}: must be finite")


# -- malformed graph and design files -------------------------------------------


_GRAPH_LINES = st.one_of(
    st.tuples(st.integers(-1, 6), st.integers(-1, 6), st.integers(-2, 3)).map(
        lambda e: " ".join(map(str, e))
    ),
    st.lists(st.integers(-1, 6), max_size=5).map(lambda xs: " ".join(map(str, xs))),
    st.sampled_from(["0 1 99999999999999999999", "0 1 x", "0 1 1.5", "0 0 1", "1 0 1"]),
    st.text(alphabet="0123456789 -.x#", max_size=8),
)


@st.composite
def _graph_files(draw):
    """A graph file of at most 6 vertices or a 6 x 6 bipartite graph: a
    plain or bipartite header (possibly malformed) and edge lines (possibly
    malformed), or empty or non-UTF-8 bytes."""
    kind = draw(st.sampled_from(["graph", "bipartite", "header", "bytes"]))
    if kind == "bytes":
        return draw(st.sampled_from([b"", b"\n", b"# comment\n", b"graph 2\n\xff 1 1\n", b"\x80"]))
    if kind == "graph":
        head = f"graph {draw(st.integers(-1, 6))}"
    elif kind == "bipartite":
        head = f"bipartite {draw(st.integers(-1, 6))} {draw(st.integers(-1, 6))}"
    else:
        head = draw(st.sampled_from(["graph", "bipartite 3", "graph 2 2", "graph x", "GRAPH 2",
                                     "bipartite 2 x", "design 3 1", "graph 1.5"]))
    lines = draw(st.lists(_GRAPH_LINES, max_size=8))
    return "\n".join([head, *lines]).encode() + b"\n"


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(_graph_files())
def test_malformed_graph_files_keep_the_exit_code_contract(capsys, tmp_path, data):
    # Every command that reads a graph file exits 0, 1 or 2, exit 2 comes
    # with an ``error:`` line, and no exception escapes.
    path = tmp_path / "g.txt"
    path.write_bytes(data)
    g = str(path)
    for argv in (
        ["spectrum", "--graph", g],
        ["verify-bsc", "--graph", g, "--alpha", "0.5", "--c", "1.0"],
        ["verify-magnifier", "--graph", g],
        ["verify-magnifier", "--graph", g, "--mode", "sampled", "--budget", "3", "--seed", "1"],
        ["verify-expander", "--graph", g, "--c", "0.5"],
        ["verify-expander", "--graph", g, "--c", "0.5", "--no-restrict-half"],
        ["lemma11", "--graph", g],
        ["construct", "--kind", "double-cover", "--graph", g, "--out", str(tmp_path / "o.txt")],
    ):
        code = _main_exit(argv)
        captured = capsys.readouterr()
        assert code in (0, 1, 2), argv
        assert "Traceback" not in captured.err
        if code == 2:
            assert "error:" in captured.err, argv


@st.composite
def _design_files(draw):
    """A design file on at most 7 points: a header (possibly malformed or with
    the wrong block count) and blocks of any size, with repeated or
    out-of-range points, or empty or non-UTF-8 bytes."""
    kind = draw(st.sampled_from(["design", "design", "header", "bytes"]))
    if kind == "bytes":
        return draw(st.sampled_from([b"", b"\n", b"# comment\n", b"design 3 1\n\xff\n", b"\x80"]))
    blocks = draw(st.lists(st.lists(st.integers(-1, 7), min_size=1, max_size=4), max_size=6))
    if kind == "design":
        head = f"design {draw(st.integers(-1, 7))} {len(blocks) + draw(st.sampled_from([0, 0, 1, -1]))}"
    else:
        head = draw(st.sampled_from(["design", "design 3", "design x 1", "graph 3", "DESIGN 3 1",
                                     "design 3 1 1"]))
    lines = [" ".join(map(str, b)) for b in blocks]
    if draw(st.booleans()):
        lines.insert(draw(st.integers(0, len(lines))), draw(st.sampled_from(["x", "1.5", "0 y"])))
    return "\n".join([head, *lines]).encode() + b"\n"


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(_design_files(), st.integers(-1, 4), st.integers(-1, 3), st.sampled_from([None, 0, 3, 9]))
def test_malformed_design_files_keep_the_exit_code_contract(capsys, tmp_path, data, t, gamma,
                                                             contract):
    path = tmp_path / "d.txt"
    path.write_bytes(data)
    argv = ["design", "--in", str(path), "--t", str(t), "--gamma", str(gamma), "--validate"]
    if contract is not None:
        argv += ["--contract", str(contract)]
    for extra in ([], ["--out", str(tmp_path / "o.txt")]):
        code = _main_exit(argv + extra)
        captured = capsys.readouterr()
        assert code in (0, 1, 2), argv
        assert "Traceback" not in captured.err
        if code == 2:
            assert "error:" in captured.err, argv


# -- the canonical JSON writer against json.dumps --------------------------------

_ODD_STRINGS = ["", "\x00\x01\x1f\x7f", "tab\tnew\nline\r", 'quote" back\\slash /', "café",
                "  ", "\U0001f600", "\ud800", "x" * 40]
_ODD_FLOATS = [0.0, -0.0, 5e-324, -2.2250738585072014e-308, 2.225073858507201e-308, 1e16,
               1e-7, 0.1, 1 / 3, 123456789012.0, 1.7976931348623157e308, -1e300]
_text = st.one_of(st.text(), st.sampled_from(_ODD_STRINGS))
_scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.integers(-(2**200), 2**200),
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from(_ODD_FLOATS),
    _text,
)
_finite = st.floats(allow_nan=False, allow_infinity=False)
# Lists of floats only, Python and numpy, which the writer joins in one call.
_float_lists = st.lists(
    st.one_of(_finite, st.sampled_from(_ODD_FLOATS), _finite.map(np.float64)), min_size=1,
    max_size=200)
# Lists of ints, which the writer joins in one call when every item is an
# exact int; a bool among them takes the per-item path.
_ints = st.one_of(st.integers(), st.integers(-(2**200), 2**200))
_int_lists = st.one_of(
    st.lists(_ints, min_size=1, max_size=200),
    st.lists(st.one_of(_ints, st.booleans()), min_size=1, max_size=200))
_number_keys = st.one_of(st.integers(-5, 5), st.floats(-2.0, 2.0), st.booleans())
_payloads = st.recursive(
    st.one_of(_scalars, _float_lists, _int_lists),
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.lists(children, max_size=4).map(tuple),
        st.dictionaries(_text, children, max_size=5),
        st.dictionaries(_number_keys, children, max_size=3),
    ),
    max_leaves=30,
)


@settings(max_examples=250, deadline=None)
@given(_payloads)
# both zeros, each after the other: 0.0 == -0.0, but they print apart
@example([0.0, -0.0, 1.5, -0.0, np.float64(-0.0), 0.0, 1.5, np.float64(0.0)])
@example([-0.0, 0.0, np.float64(0.0)])
def test_canonical_writer_matches_json_dumps(payload):
    want = json.dumps(payload, sort_keys=True, indent=2, allow_nan=False)
    assert _canonical_json(payload) == want


@settings(max_examples=100, deadline=None)
@given(_payloads, st.sampled_from([math.nan, math.inf, -math.inf]),
       st.sampled_from(["value", "item", "key"]))
def test_canonical_writer_rejects_non_finite_floats(payload, bad, where):
    payload = {"value": {"a": payload, "b": bad}, "item": [payload, [bad]],
               "key": {bad: payload}}[where]
    with pytest.raises(ValueError):
        json.dumps(payload, sort_keys=True, indent=2, allow_nan=False)
    with pytest.raises(ValueError):
        _canonical_json(payload)


@settings(max_examples=100, deadline=None)
@given(_float_lists, st.sampled_from([math.nan, math.inf, -math.inf, np.float64("nan"),
                                      np.float64("-inf")]), st.data())
def test_canonical_writer_rejects_non_finite_floats_in_float_lists(items, bad, data):
    at = data.draw(st.integers(0, len(items)))
    items = items[:at] + [bad] + items[at:]
    with pytest.raises(ValueError):
        json.dumps(items, sort_keys=True, indent=2, allow_nan=False)
    with pytest.raises(ValueError):
        _canonical_json(items)


@pytest.mark.parametrize("values", [[0.1, 0.2, 0.1, 0.1, 0.3, 0.2], [0.0, 0.5, -0.0, 0.0, 0.5],
                                    [-0.0, -0.0], [np.float64(0.25), 0.25, 1e-300]])
def test_each_distinct_calls_once_per_distinct_value(values):
    seen = []

    def spy(x):
        seen.append(float.__repr__(x))
        return float.__repr__(x)

    assert _each_distinct(spy, values) == [float.__repr__(x) for x in values]
    # 0.0 and -0.0 are two values here, as they print apart
    assert sorted(seen) == sorted({float.__repr__(x) for x in values})


@pytest.mark.parametrize(
    "payload",
    [np.int64(3), {"a": np.bool_(True)}, [set()], {"k": object()}, {(1, 2): 3}, {None: 1, "a": 2},
     [1, -(2**70), np.int64(3), 4]],
    ids=["numpy-int", "numpy-bool", "set", "object", "tuple-key", "mixed-keys",
         "numpy-int-in-int-list"],
)
def test_canonical_writer_raises_type_error_like_json(payload):
    with pytest.raises(TypeError):
        json.dumps(payload, sort_keys=True, indent=2, allow_nan=False)
    with pytest.raises(TypeError):
        _canonical_json(payload)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_non_finite_payload_exits_2(capsys, monkeypatch, c4_file, bad):
    # Every float the CLI reads is checked before a scan, so feed the
    # non-finite value through the report the writer receives.
    def report(g, **kwargs):
        return C.ConcentrationReport("exhaustive", bad, (0,), 1, True)

    monkeypatch.setattr(C.verify, "magnifier_constant", report)
    code = main(["verify-magnifier", "--graph", c4_file])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith("error:")


# The options each construct kind needs, as (kind, needed options); every other
# option of the kind is given.
_CONSTRUCT_NEEDS = [
    ("cayley", ["--group", "--S"]),
    ("coset", ["--group", "--H", "--S"]),
    ("bicoset", ["--group", "--L", "--N", "--S"]),
    ("double-cover", ["--graph"]),
]


@pytest.mark.parametrize(
    "kind, option",
    [(kind, option) for kind, needs in _CONSTRUCT_NEEDS for option in needs],
    ids=[f"{kind}-without-{option[2:]}" for kind, needs in _CONSTRUCT_NEEDS for option in needs],
)
def test_construct_without_a_needed_option_exits_2(capsys, tmp_path, kind, option):
    # The other options name files that do not exist, so an error about a
    # missing file would mean that a file was read before the check.
    needs = dict(_CONSTRUCT_NEEDS)[kind]
    argv = ["construct", "--kind", kind, "--out", str(tmp_path / "out.txt")]
    for other in needs:
        if other != option:
            argv += [other, str(tmp_path / f"absent{other[2:]}.txt")]
    code = _main_exit(argv)
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == f"error: construct --kind {kind} needs {option}\n"
    assert not (tmp_path / "out.txt").exists()


def test_construct_names_every_missing_option(capsys, tmp_path):
    code = _main_exit(["construct", "--kind", "bicoset", "--L", str(tmp_path / "absent.txt"),
                       "--out", str(tmp_path / "out.txt")])
    assert code == 2
    assert capsys.readouterr().err == "error: construct --kind bicoset needs --group, --N, --S\n"


_MONTECARLO = ["montecarlo", "--k", "2", "--eps", "0.5", "--trials", "2", "--seed", "1"]


@pytest.mark.parametrize(
    "variant, given, error",
    [
        ("thm14", ["--L"], "montecarlo --variant thm14 does not read --L"),
        ("thm14", ["--N"], "montecarlo --variant thm14 does not read --N"),
        ("thm14", ["--L", "--N"], "montecarlo --variant thm14 does not read --L, --N"),
        ("thm15", ["--L", "--N"], "montecarlo --variant thm15 does not read --N"),
        ("thm15", [], "thm15 needs --L (the subgroup)"),
        ("thm15", ["--N"], "montecarlo --variant thm15 does not read --N"),
        ("thm18", [], "thm18 needs --L and --N"),
        ("thm18", ["--L"], "thm18 needs --L and --N"),
        ("thm18", ["--N"], "thm18 needs --L and --N"),
        ("thm14", ["--L="], "montecarlo --variant thm14 does not read --L"),
    ],
    ids=["thm14-L", "thm14-N", "thm14-L-N", "thm15-L-N", "thm15-none", "thm15-N",
         "thm18-none", "thm18-L", "thm18-N", "thm14-empty-L"],
)
def test_montecarlo_subgroup_options_are_checked_before_any_file(
    capsys, tmp_path, variant, given, error
):
    # Every file named does not exist, so an error about a missing file
    # would mean that a file was read before the check.  An option written
    # "--name=" is given with an empty value.
    argv = [*_MONTECARLO, "--variant", variant, "--group", str(tmp_path / "absent.txt")]
    for option in given:
        argv += [option]
        if not option.endswith("="):
            argv += [str(tmp_path / f"absent{option[2:]}.txt")]
    code = _main_exit(argv)
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == f"error: {error}\n"


def test_design_mathieu_checks_n_before_building_the_chain(capsys, monkeypatch):
    def no_chain():
        raise AssertionError("the 12-point chain was built")

    monkeypatch.setattr(C.designs, "mathieu12_designs", no_chain)
    code = _main_exit(["design", "--mathieu", "8", "--validate"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == "error: --mathieu expects one of 12, 11, 10, 9\n"


@pytest.mark.parametrize(
    "kind, given, unread",
    [
        ("gq22", ["--group", "--L"], "--group, --L"),
        ("gq22", ["--simple"], "--simple"),
        ("cayley", ["--group", "--S", "--H"], "--H"),
        ("cayley", ["--group", "--S", "--simple"], "--simple"),
        ("coset", ["--group", "--H", "--S", "--L", "--N"], "--L, --N"),
        ("bicoset", ["--group", "--L", "--N", "--S", "--H", "--graph"], "--H, --graph"),
        ("double-cover", ["--graph", "--group", "--simple"], "--group, --simple"),
        ("double-cover", ["--S"], "--S"),
        ("gq22", ["--group="], "--group"),
        ("cayley", ["--group", "--S", "--H="], "--H"),
    ],
    ids=["gq22-group-L", "gq22-simple", "cayley-H", "cayley-simple", "coset-L-N",
         "bicoset-H-graph", "double-cover-group-simple", "double-cover-S-only",
         "gq22-empty-group", "cayley-empty-H"],
)
def test_construct_rejects_an_option_its_kind_does_not_read(capsys, tmp_path, kind, given, unread):
    # Every file named does not exist, so an error about a missing file
    # would mean that a file was read before the check.  An option written
    # "--name=" is given with an empty value.
    out = tmp_path / "out.txt"
    argv = ["construct", "--kind", kind, "--out", str(out)]
    for option in given:
        argv += [option]
        if option != "--simple" and not option.endswith("="):
            argv += [str(tmp_path / f"absent{option[2:]}.txt")]
    code = _main_exit(argv)
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == f"error: construct --kind {kind} does not read {unread}\n"
    assert not out.exists()


_ONE_SOURCE = "design reads one source: --golay, --mathieu N, or --in FILE"
_T_GAMMA = "design reads --t and --gamma only with --in"


@pytest.mark.parametrize(
    "options, error",
    [
        (["--golay", "--mathieu", "12"], _ONE_SOURCE),
        (["--golay", "--mathieu", "12", "--t", "3"], _ONE_SOURCE),
        (["--golay", "--in", "{absent}", "--t", "2", "--gamma", "1"], _ONE_SOURCE),
        (["--mathieu", "8", "--in", "{absent}", "--t", "2", "--gamma", "1"], _ONE_SOURCE),
        (["--golay", "--t", "3"], _T_GAMMA),
        (["--mathieu", "12", "--gamma", "1"], _T_GAMMA),
        (["--t", "2", "--gamma", "1"], _T_GAMMA),
    ],
    ids=["golay-mathieu", "golay-mathieu-t", "golay-in", "mathieu-in", "golay-t",
         "mathieu-gamma", "t-gamma-without-source"],
)
def test_design_rejects_a_second_source_and_unread_options(capsys, monkeypatch, tmp_path,
                                                           options, error):
    def no_design(*args):
        raise AssertionError("a design was built or read")

    for name in ("golay_witt_design", "mathieu12_designs"):
        monkeypatch.setattr(C.designs, name, no_design)
    monkeypatch.setattr(C.fileio, "load_design", no_design)
    absent = str(tmp_path / "absent.txt")
    out = tmp_path / "out.txt"
    argv = ["design", *(absent if o == "{absent}" else o for o in options), "--out", str(out)]
    code = _main_exit(argv)
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == f"error: {error}\n"
    assert not out.exists()


@pytest.mark.parametrize(
    "command",
    [
        ["construct", "--kind", "bicoset", "--S", "{s3}"],
        ["montecarlo", "--variant", "thm18", "--k", "4", "--eps", "0.4", "--trials", "12",
         "--seed", "5"],
    ],
    ids=["construct-bicoset", "montecarlo-thm18"],
)
def test_one_subgroup_file_for_l_and_n_matches_two_copies(
    capsys, monkeypatch, tmp_path, s3_file, command
):
    # Both copies have the same file name, so the subgroup's label is the same.
    loads = []
    load_group = fileio.load_group
    monkeypatch.setattr(fileio, "load_group", lambda path: loads.append(path) or load_group(path))
    copies = []
    for folder in ("one", "two"):
        (tmp_path / folder).mkdir()
        copies.append(tmp_path / folder / "swap01.txt")
        copies[-1].write_text("degree 3\n(0 1)\n")
    out = tmp_path / "out.txt"
    runs = []
    for L, N in ((copies[0], copies[0]), (copies[0], copies[1])):
        argv = [*(arg.format(s3=s3_file) for arg in command), "--group", s3_file,
                "--L", str(L), "--N", str(N), "--out", str(out)]
        loads.clear()
        code = _main_exit(argv)
        runs.append((code, capsys.readouterr().out, out.read_bytes()))
        out.unlink()
        # the group file, then each distinct subgroup path once
        assert loads == [s3_file, *dict.fromkeys([str(L), str(N)])]
    assert runs[0] == runs[1]
    assert runs[0][0] == 0


# -- the single-pass parse against the full parser --------------------------------


@pytest.mark.parametrize("argv", [case[2] for case in GOLDEN_CASES],
                         ids=[case[0] for case in GOLDEN_CASES])
def test_single_pass_parse_matches_the_full_parser(argv):
    assert _parse_args(argv) == build_parser().parse_args(argv)


def _parse_outcome(parse, argv):
    """(exit code, stdout, stderr) of a parse that ends the program."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        with pytest.raises(SystemExit) as exc:
            parse(argv)
    return exc.value.code, out.getvalue(), err.getvalue()


@pytest.mark.parametrize(
    "argv",
    [
        [],
        ["bogus"],
        ["bogus", "--graph", "g.txt"],
        ["lemma11", "--graph", "g.txt", "--bogus"],
        ["lemma11", "--graph", "g.txt", "extra"],
        ["lemma11", "--graph", "g.txt", "--", "extra"],
        ["lemma11"],
        ["verify-bsc", "--graph", "g.txt", "--c", "1"],
        ["lemma11", "--graph", "g.txt", "--budget", "0"],
        ["lemma11", "--graph", "g.txt", "--mode", "fast"],
        ["-h"],
        ["--help"],
        ["lemma11", "-h"],
        ["lemma11", "--graph", "g.txt", "--help"],
    ],
    ids=["empty", "unknown-subcommand", "unknown-subcommand-with-options", "unknown-option",
         "extra-positional", "extra-after-dashes", "missing-required", "missing-one-of-two",
         "budget-0", "bad-choice", "top-h", "top-help", "lemma11-h", "lemma11-help"],
)
def test_bad_argv_gives_the_full_parsers_exit_and_text(argv):
    want = _parse_outcome(build_parser().parse_args, argv)
    assert want[0] in (0, 2)
    assert _parse_outcome(_parse_args, argv) == want
    assert _parse_outcome(main, argv) == want


def _loop_graph_file(tmp_path, n):
    """An n-vertex path with a loop at vertex 0."""
    lines = [f"graph {n}", "0 0 1", *(f"{i} {i + 1} 1" for i in range(n - 1))]
    path = tmp_path / f"loop{n}.txt"
    path.write_text("\n".join(lines) + "\n")
    return str(path)


@pytest.mark.parametrize(
    "n, extra, message",
    [
        (24, [], "error: extended double cover needs a simple graph"),
        (24, ["--mode", "sampled", "--seed", "1"],
         "error: extended double cover needs a simple graph"),
        (24, ["--mode", "sampled"], "error: sampled mode requires an explicit seed"),
        (25, [], "error: exhaustive mode capped at 24 inputs, got 25"),
        (1, [], "error: graph on 1 vertices admits no eligible subsets"),
    ],
    ids=["loop24", "loop24-sampled", "loop24-no-seed", "loop25", "one-vertex"],
)
def test_lemma11_rejects_bad_graphs_before_any_scan(capsys, monkeypatch, tmp_path, n, extra,
                                                    message):
    def no_gather(*args):
        raise AssertionError("gathered")

    monkeypatch.setattr(verify, "_gather", no_gather)
    code = main(["lemma11", "--graph", _loop_graph_file(tmp_path, n), *extra])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == message + "\n"
