import dataclasses
import os
import re
import subprocess
import sys

import pytest

import graphcm
from graphcm import recognition
from graphcm.cli import main
from graphcm.complexes import DEFAULT_FIELDS, is_cm_graph, is_doubly_cm_graph, is_gorenstein_graph
from graphcm.decomposability import is_vertex_decomposable
from graphcm.enumeration import EnumFilter, enumerate_connected_upto
from graphcm.graph import Graph, GraphInputError, cycle_graph, path_graph
from graphcm.graphio import from_edge_list, from_graph6, to_dot, to_edge_list, to_graph6
from graphcm.families import catalog, gen_G
from graphcm.independence import is_w2, is_well_covered


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_analyze_c5(capsys):
    code, out, _ = run(capsys, "analyze", "--g6", to_graph6(cycle_graph(5)))
    assert code == 0
    assert "gorenstein[char0]: true" in out
    assert "gorenstein[char2]: true" in out


def test_analyze_edges_file(capsys, tmp_path):
    path = tmp_path / "c7.txt"
    path.write_text(to_edge_list(cycle_graph(7)))
    code, out, _ = run(capsys, "analyze", "--edges", str(path))
    assert code == 0
    assert "cm[char0]: false" in out and "well_covered: true" in out


def test_analyze_without_input_is_usage_error(capsys):
    code, _, err = run(capsys, "analyze")
    assert code == 2
    assert "error" in err


def test_analyze_bad_graph6(capsys):
    code, _, err = run(capsys, "analyze", "--g6", "D c")
    assert code == 2


def test_analyze_reports_family_planarity_past_12_vertices(capsys):
    # gen_G(6) has 17 vertices; the paper's family is planar at every size
    code, out, _ = run(capsys, "analyze", "--g6", to_graph6(gen_G(6)))
    assert code == 0
    assert "planar: true" in out.splitlines()


def test_check_exit_codes(capsys):
    p4 = to_graph6(path_graph(4))
    code, out, _ = run(capsys, "check", "sqc", "--g6", p4)
    assert code == 0 and "S[" in out
    c4 = to_graph6(cycle_graph(4))
    code, _, _ = run(capsys, "check", "cm", "--g6", c4)
    assert code == 1
    k3 = to_graph6(from_edge_list("3\n0 1\n1 2\n0 2\n"))
    code, _, err = run(capsys, "check", "square-cm", "--g6", k3)
    assert code == 2
    # W2 and CM but not Gorenstein, so the graphs g minus v decide
    for g6, want in (("Fqh~O", 1), ("Bw", 0)):
        code, _, _ = run(capsys, "check", "doubly-cm", "--fields", "0,2,3", "--g6", g6)
        assert code == want, g6


_LIBRARY = {
    "well-covered": is_well_covered,
    "w2": is_w2,
    "gorenstein": lambda g: all(is_gorenstein_graph(g, f) for f in DEFAULT_FIELDS),
    "doubly-cm": lambda g: all(is_doubly_cm_graph(g, f) for f in DEFAULT_FIELDS),
    "t3": recognition.t3_partition_condition,
    "block-cactus": recognition.is_block_cactus,
    "cactus": recognition.is_cactus,
}


@pytest.mark.parametrize("predicate", list(_LIBRARY))
def test_check_matches_library(capsys, predicate):
    verdicts = set()
    for g in (cycle_graph(5), path_graph(4), gen_G(3), catalog("paw")):
        want = _LIBRARY[predicate](g)
        code, out, _ = run(capsys, "check", predicate, "--g6", to_graph6(g))
        assert (code, out) == (0 if want else 1, f"{predicate}: {'true' if want else 'false'}\n"), g
        verdicts.add(want)
    assert verdicts == {True, False}


def _found(certificate):
    return certificate is not None, certificate


# the predicates that print a certificate, take fields, or refuse some graphs
_LIBRARY_WITH_CERTIFICATES = {
    "vd": lambda g: is_vertex_decomposable(g, want_certificate=True),
    "cm": lambda g: (all(is_cm_graph(g, f) for f in DEFAULT_FIELDS), None),
    "sqc": lambda g: _found(recognition.recognize_sqc(g)),
    "sc": lambda g: _found(recognition.recognize_sc(g)),
    "pc": lambda g: _found(recognition.recognize_pc(g)),
    "square-cm": lambda g: (all(recognition.square_cm_criterion(g, f) for f in DEFAULT_FIELDS), None),
}


@pytest.mark.parametrize("predicate", list(_LIBRARY_WITH_CERTIFICATES))
def test_check_prints_the_library_verdict_and_certificate(capsys, predicate):
    verdicts = set()
    for g in (cycle_graph(5), path_graph(4), cycle_graph(4), gen_G(3), catalog("paw")):
        g = from_graph6(to_graph6(g))  # certificates name vertices as the CLI reads them
        code, out, err = run(capsys, "check", predicate, "--g6", to_graph6(g))
        try:
            want, certificate = _LIBRARY_WITH_CERTIFICATES[predicate](g)
        except GraphInputError as e:  # square-cm on the paw, which has a triangle
            assert (code, out, err) == (2, "", f"error: {e}\n"), g
            continue
        text = certificate.to_text().rstrip("\n") + "\n" if certificate else ""
        assert (code, out) == (0 if want else 1, f"{predicate}: {'true' if want else 'false'}\n{text}"), g
        verdicts.add(want)
    assert verdicts == {True, False}


_CHECK_NAMES = ["well-covered", "w2", "vd", "cm", "gorenstein", "doubly-cm", "sqc", "sc", "pc", "t3", "block-cactus", "cactus", "square-cm"]


def test_every_check_predicate_is_compared_with_the_library():
    assert sorted([*_LIBRARY, *_LIBRARY_WITH_CERTIFICATES]) == sorted(_CHECK_NAMES)


def _help(capsys, command):
    code, out, _ = run(capsys, command, "--help")
    assert code == 0
    return out, re.findall(r"^  (-[^\s,]+)", out, flags=re.M)


def test_help_lists_the_choices_and_flags_in_order(capsys):
    out, flags = _help(capsys, "check")
    assert "\n  {" + ",".join(_CHECK_NAMES) + "}\n" in out
    assert flags == ["-h", "--g6", "--edges", "--input", "--fields"]
    out, flags = _help(capsys, "gen")
    assert "\n  --format {g6,edges,dot,human}\n" in out
    assert flags == ["-h", "--format", "--out"]
    out, flags = _help(capsys, "convert")
    assert "\n  --format {g6,edges,dot,human}, --to {g6,edges,dot,human}\n" in out
    assert flags == ["-h", "--g6", "--edges", "--input", "--format", "--out"]
    out, flags = _help(capsys, "enumerate")
    assert "\n  --min-girth MIN_GIRTH\n  --max-girth MAX_GIRTH\n" in out
    assert flags == [
        "-h", "--upto", "--min-girth", "--max-girth", "--forbid-c4", "--forbid-c5",
        "--planar-only", "--block-cactus-only", "--cactus-only", "--out",
    ]


def _human(g):
    lines = [f"n: {g.n}", f"m: {g.m}", f"girth: {g.girth()}"] + [f"edge: {u} {v}" for u, v in g.edges()]
    return "".join(ln + "\n" for ln in lines)


_WRITTEN = {"g6": lambda g: to_graph6(g) + "\n", "edges": to_edge_list, "dot": to_dot, "human": _human}


@pytest.mark.parametrize("fmt", list(_WRITTEN))
def test_gen_and_convert_write_each_format_as_the_library_does(capsys, tmp_path, fmt):
    g = gen_G(3)
    path = tmp_path / "g3.edges"
    path.write_text(to_edge_list(g))
    for argv, read in (
        (["convert", "--edges", str(path), "--to", fmt], g),
        (["convert", "--g6", to_graph6(g), "--format", fmt], from_graph6(to_graph6(g))),
        (["gen", "G", "3", "--format", fmt], g),
    ):
        assert run(capsys, *argv)[:2] == (0, _WRITTEN[fmt](read)), argv


def test_check_reads_the_first_graph_of_an_input_file(capsys, tmp_path):
    path = tmp_path / "two.g6"
    path.write_text(to_graph6(cycle_graph(5)) + "\n" + to_graph6(cycle_graph(4)) + "\n")
    code, out, _ = run(capsys, "check", "cm", "--input", str(path))
    assert (code, out) == (0, "cm: true\n")
    empty = tmp_path / "empty.g6"
    empty.write_text("")
    code, _, err = run(capsys, "check", "cm", "--input", str(empty))
    assert code == 2 and "no graphs" in err


def test_check_vd_prints_certificate(capsys):
    code, out, _ = run(capsys, "check", "vd", "--g6", to_graph6(cycle_graph(5)))
    assert code == 0 and "shed=" in out


def test_gen_g6(capsys):
    code, out, _ = run(capsys, "gen", "G", "3", "--format", "g6")
    assert code == 0
    g = from_graph6(out.strip())
    assert g.n == 8 and g.m == 10
    code, out, _ = run(capsys, "gen", "C7", "--format", "edges")
    assert code == 0 and out.startswith("7\n")
    code, _, _ = run(capsys, "gen", "G")
    assert code == 2  # missing index
    code, _, _ = run(capsys, "gen", "NOPE")
    assert code == 2


def test_gen_and_convert_human(capsys):
    code, out, _ = run(capsys, "gen", "C5", "--format", "human")
    assert code == 0
    assert out == "n: 5\nm: 5\ngirth: 5\n" + "".join(f"edge: {u} {v}\n" for u, v in cycle_graph(5).edges())
    code, out, _ = run(capsys, "convert", "--g6", to_graph6(path_graph(4)), "--format", "human")
    assert code == 0
    assert out == "n: 4\nm: 3\ngirth: infinity\nedge: 0 1\nedge: 1 2\nedge: 2 3\n"


def test_enumerate_stream(capsys):
    code, out, _ = run(capsys, "enumerate", "3")
    assert code == 0
    assert len(out.strip().splitlines()) == 2
    code, out, _ = run(capsys, "enumerate", "3", "--upto")
    assert len(out.strip().splitlines()) == 4


_FILTER_FLAGS = [
    (["--min-girth", "4"], {"min_girth": 4}),
    (["--max-girth", "4"], {"max_girth": 4}),
    (["--forbid-c4"], {"forbid_c4": True}),
    (["--forbid-c5"], {"forbid_c5": True}),
    (["--planar-only"], {"planar_only": True}),
    (["--block-cactus-only"], {"block_cactus_only": True}),
    (["--cactus-only"], {"cactus_only": True}),
]


@pytest.mark.parametrize("flags, field", _FILTER_FLAGS, ids=[flags[0] for flags, _ in _FILTER_FLAGS])
def test_enumerate_flag_sets_its_filter_field(capsys, flags, field):
    code, out, _ = run(capsys, "enumerate", "6", "--upto", *flags)
    want = [to_graph6(g) for g in enumerate_connected_upto(6, EnumFilter(**field))]
    assert (code, out.splitlines()) == (0, want)
    assert len(want) < sum(1 for _ in enumerate_connected_upto(6, EnumFilter()))


def test_every_filter_field_has_a_flag():
    assert [name for _, field in _FILTER_FLAGS for name in field] == [f.name for f in dataclasses.fields(EnumFilter)]


def test_enumerate_output_is_reproducible():
    # two fresh processes, so neither level cache nor hash order is shared
    src = os.path.dirname(os.path.dirname(graphcm.__file__))
    argv = [sys.executable, "-c", "import sys; from graphcm.cli import main; sys.exit(main(sys.argv[1:]))"]
    argv += ["enumerate", "6", "--upto", "--planar-only", "--min-girth", "4"]
    outs = []
    for seed in ("1", "2"):
        env = dict(os.environ, PYTHONPATH=src, PYTHONHASHSEED=seed)
        done = subprocess.run(argv, env=env, capture_output=True, check=True)
        outs.append(done.stdout)
    assert outs[0] == outs[1]
    assert len(outs[0].splitlines()) == 1 + 1 + 1 + 3 + 6 + 18


def test_enumerate_has_no_workers_option(capsys):
    # generation runs in one process, so there is nothing to set
    code, _, _ = run(capsys, "enumerate", "3", "--workers", "2")
    assert code == 2


def test_analyze_has_no_format_option(capsys):
    # analyze has one rendering, already stable and diffable
    code, _, _ = run(capsys, "analyze", "--g6", "Dhc", "--format", "structured")
    assert code == 2


def test_verify_reports(capsys, tmp_path):
    out_path = tmp_path / "t3.txt"
    code, _, _ = run(capsys, "verify", "T3", "--nmax", "6", "--out", str(out_path))
    assert code == 0
    assert "counterexample_count: 0" in out_path.read_text()


def test_verify_eg1_rejects_an_input_stream(capsys, tmp_path):
    # EG1 runs over the family G_k, so a stream given to it is a usage
    # error, whether or not the file exists
    c5 = tmp_path / "c5.g6"
    c5.write_text(to_graph6(cycle_graph(5)) + "\n")
    for path in (c5, tmp_path / "missing.g6"):
        code, _, err = run(capsys, "verify", "EG1", "--input", str(path))
        assert code == 2
        assert "EG1" in err


def test_verify_input_checks_every_graph_unless_bounded(capsys, tmp_path):
    # graphs past the theorem's enumeration size are checked, or counted
    # as skipped when --nmax bounds the stream; so are graphs outside T1's
    # class (connected graphs)
    path = tmp_path / "big.g6"
    big = [cycle_graph(10), path_graph(11), gen_G(4), cycle_graph(12)]
    path.write_text("".join(to_graph6(g) + "\n" for g in big))
    code, out, _ = run(capsys, "verify", "T1", "--input", str(path))
    assert code == 0
    assert "n_max: 12" in out and "graphs_checked: 4" in out and "skipped" not in out
    with path.open("a") as fh:
        fh.write(to_graph6(Graph.empty(11)) + "\n")
    code, out, _ = run(capsys, "verify", "T1", "--input", str(path), "--nmax", "10")
    assert code == 0
    assert "graphs_checked: 1" in out
    assert "note: skipped input graphs outside the theorem's class: 1" in out
    assert "note: skipped input graphs with more than 10 vertices: 3" in out


def test_verify_all_rejects_an_empty_range():
    root = os.path.dirname(os.path.dirname(os.path.dirname(graphcm.__file__)))
    env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))
    argv = [sys.executable, os.path.join(root, "scripts", "verify_all.py"), "--theorems", "T3", "--nmax"]
    done = subprocess.run(argv + ["0"], env=env, capture_output=True, text=True)
    assert done.returncode == 2 and done.stdout == ""
    assert "n_max must be at least 1" in done.stderr
    done = subprocess.run(argv + ["5"], env=env, capture_output=True, text=True)
    assert done.returncode == 0 and done.stdout.startswith("T3       n<=5:     14 graphs, ok")


def test_family_report_rejects_an_index_below_one():
    root = os.path.dirname(os.path.dirname(os.path.dirname(graphcm.__file__)))
    env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))
    argv = [sys.executable, os.path.join(root, "scripts", "family_report.py")]
    done = subprocess.run(argv + ["2", "0"], env=env, capture_output=True, text=True)
    assert done.returncode == 2 and done.stdout == ""
    assert done.stderr.startswith("error: ") and "family index must be at least 1" in done.stderr
    done = subprocess.run(argv + ["2"], env=env, capture_output=True, text=True)
    assert done.returncode == 0 and done.stdout.startswith("=== gen_G(2) ===\n")


def test_girth5_census_rejects_an_empty_range_and_a_size_past_the_cap():
    root = os.path.dirname(os.path.dirname(os.path.dirname(graphcm.__file__)))
    env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))
    argv = [sys.executable, os.path.join(root, "scripts", "girth5_census.py"), "--fields", "2", "--nmax"]
    for nmax, message in (("0", "n_max must be at least 1"), ("-3", "n_max must be at least 1"), ("11", "capped at")):
        done = subprocess.run(argv + [nmax], env=env, capture_output=True, text=True)
        assert done.returncode == 2 and done.stdout == "", nmax
        assert done.stderr.startswith("error: ") and message in done.stderr, nmax
    done = subprocess.run(argv + ["5"], env=env, capture_output=True, text=True)
    assert done.returncode == 0 and "girth>=5 connected graphs with n<=5: 9\n" in done.stdout


@pytest.mark.parametrize(
    "argv",
    [["--nmax", "-2"], ["--nmax", "0", "--workers", "2"], ["--workers", "0"], ["--workers", "-1"]],
    ids=["nmax-2", "nmax0", "workers0", "workers-1"],
)
def test_verify_rejects_an_empty_range_and_a_worker_count_below_one(capsys, monkeypatch, argv):
    # a run over nothing is not a clean run, and no pool may start
    import multiprocessing

    def refuse(*args, **kwargs):
        raise AssertionError("a worker pool was started")

    monkeypatch.setattr(multiprocessing, "get_context", refuse)
    code, out, err = run(capsys, "verify", "T3", *argv)
    assert code == 2 and out == ""
    assert "error" in err


def test_verify_structured_stable(capsys, tmp_path):
    a = tmp_path / "a.txt"
    b = tmp_path / "b.txt"
    for path in (a, b):
        code, _, _ = run(
            capsys, "verify", "COR3", "--nmax", "5", "--format", "structured", "--out", str(path)
        )
        assert code == 0
    strip = lambda p: [ln for ln in p.read_text().splitlines() if not ln.startswith("#")]
    assert strip(a) == strip(b)


def test_convert_round_trip(capsys, tmp_path):
    g = gen_G(3)
    edges_path = tmp_path / "g3.edges"
    edges_path.write_text(to_edge_list(g))
    code, out, _ = run(capsys, "convert", "--edges", str(edges_path), "--to", "dot")
    assert code == 0
    assert out.startswith("graph G {") and '"x1" -- "x2";' in out
    code, out, _ = run(capsys, "convert", "--edges", str(edges_path), "--to", "g6")
    assert code == 0
    assert from_graph6(out.strip()).m == g.m


def test_convert_edge_list_label_round_trip(capsys, tmp_path):
    g = gen_G(3)
    edges_path = tmp_path / "g3.edges"
    edges_path.write_text(to_edge_list(g))
    code, out, _ = run(capsys, "convert", "--edges", str(edges_path), "--to", "edges")
    assert code == 0
    assert from_edge_list(out).labels == g.labels


def test_round_trip_every_catalog_and_family_graph():
    from graphcm.canon import is_isomorphic
    from graphcm.families import catalog, gen_G, gen_H

    zoo = [catalog(k) for k in ("K1", "K2", "K3", "C4", "C5", "C7", "P3", "P4", "G3", "T10", "P10", "P13", "Q13", "P14", "paw")]
    zoo += [gen_G(n) for n in range(1, 6)] + [gen_H(n) for n in range(1, 6)]
    for g in zoo:
        assert is_isomorphic(from_graph6(to_graph6(g)), g)
        back = from_edge_list(to_edge_list(g))
        assert back.labels == g.labels and back.adj == g.adj


def test_complex_subcommand(capsys, tmp_path):
    from graphcm.complexes import independence_complex, to_facet_list

    path = tmp_path / "c5.facets"
    path.write_text(to_facet_list(independence_complex(cycle_graph(5))))
    code, out, _ = run(capsys, "complex", "--facets", str(path))
    assert code == 0
    assert "cm[char0]: true" in out and "betti[char0]: 0,0,1" in out
