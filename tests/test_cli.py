import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import concentrators as C
from concentrators.cli import main
from concentrators.fileio import save_graph


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
