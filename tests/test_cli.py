import gc
import json

import pytest

from liesplit import __version__, cli
from liesplit.cli import main
from liesplit.liealg import algebra_to_json, build_sl
from liesplit.rationals import QQ
from liesplit.zalgebra import CaseReport


def run_cli(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, out


REPORT_KEYS = {"case", "params", "seed", "verdicts", "tables", "timings_ms", "version"}


def test_case_json_schema_and_exit_code(capsys):
    code, out = run_cli(capsys, ["case", "sl2n1", "--n", "1", "--format", "json"])
    assert code == 0
    doc = json.loads(out)
    assert set(doc) == REPORT_KEYS
    assert doc["case"] == "sl2n1"
    assert doc["tables"]["restrictions"] == {"P2": "6*c^2", "P3": "-6*c^3"}
    assert all(doc["verdicts"].values())
    # every subcommand prints the same seven fields, and its JSON is a lossless CaseReport
    for argv in (["check-ggs", "--algebra", "sl:3", "--h", "borel"],
                 ["weyl-w0", "--type", "A", "--rank", "3", "--arrows", "1:3"],
                 ["index", "--algebra", "sl:3", "--trials", "3"]):
        code, out = run_cli(capsys, argv)
        assert code == 0
        doc = json.loads(out)
        assert set(doc) == REPORT_KEYS and doc["case"] == argv[0]
        assert doc["version"] == __version__
        assert CaseReport.from_dict(doc).to_dict() == doc
        assert main(argv + ["--format", "markdown"]) == 0
        assert f"- version: {__version__}\n" in capsys.readouterr().out


def test_case_markdown(capsys):
    code, out = run_cli(capsys, ["case", "aks", "--n", "2", "--format", "markdown"])
    assert code == 0
    assert "| verdict | holds |" in out
    assert "side_h_commutes" in out


def test_check_ggs_builders(capsys):
    code, out = run_cli(
        capsys,
        ["check-ggs", "--algebra", "gl:4", "--h", "glblocks:1,3",
         "--basis", "charpoly", "--format", "json"],
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["verdicts"]["is_ggs"] is True
    assert doc["tables"]["sum_m"] == 6 == doc["tables"]["dim_m"]
    assert list(doc["timings_ms"]) == ["build", "basis", "ggs"]


def test_check_ggs_borel_preset(capsys):
    code, out = run_cli(
        capsys,
        ["check-ggs", "--algebra", "sl:3", "--h", "borel", "--format", "json"],
    )
    assert code == 0
    assert json.loads(out)["verdicts"]["is_ggs"] is True


@pytest.mark.parametrize("argv, dim_m, jacobian_rank", [
    (["--algebra", "double:sl:2", "--h", "borel"], 1, 2),
    (["--algebra", "double:sl:3", "--h", "borel", "--seed", "1"], 3, 4),
])
def test_check_ggs_on_a_double_takes_the_base_lifts(capsys, argv, dim_m, jacobian_rank):
    code, out = run_cli(capsys, ["check-ggs", *argv])
    assert code == 0
    doc = json.loads(out)
    assert doc["verdicts"] == {"is_ggs": True, "criterion_consistent": True}
    t = doc["tables"]
    assert (t["sum_m"], t["dim_m"], t["jacobian_rank"]) == (dim_m, dim_m, jacobian_rank)


def test_check_ggs_so8_trace_powers_rows_match_charpoly(capsys):
    argv = ["check-ggs", "--algebra", "so:8", "--h", "borel", "--seed", "1", "--basis"]
    docs = [json.loads(run_cli(capsys, argv + [kind])[1]) for kind in ("charpoly", "trace_powers")]
    rows = [d["tables"]["rows"] for d in docs]
    assert rows[0] == rows[1]
    assert [row["bidegree"] for row in rows[1]] == [[1, 1], [1, 3], [1, 5], [1, 3]]
    verdicts = {"is_ggs": True, "criterion_consistent": True}
    assert docs[0]["verdicts"] == docs[1]["verdicts"] == verdicts


def test_weyl_w0_subcommand(capsys):
    code, out = run_cli(
        capsys,
        ["weyl-w0", "--type", "A", "--rank", "4", "--arrows", "1:4,2:3"],
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["tables"]["orders"] == [120, 8, 4, 2]
    assert doc["tables"]["first_failure_degree"] == 1
    assert set(doc["timings_ms"]) == {"enumerate", "w0", "restriction"}


def test_index_subcommand_with_algebra_file(tmp_path, capsys):
    path = tmp_path / "sl3.json"
    path.write_text(algebra_to_json(build_sl(3)), encoding="utf-8")
    code, out = run_cli(capsys, ["index", "--algebra", str(path), "--trials", "5"])
    assert code == 0
    doc = json.loads(out)
    assert doc["tables"]["claimed_index"] == 2
    assert doc["tables"]["b_value"] == "5"
    assert len(doc["tables"]["witness"]) == 8
    assert list(doc["timings_ms"]) == ["load", "index"]


def test_case_horo_t1_comma_list(capsys):
    code, out = run_cli(capsys, ["case", "horo", "--n", "3", "--t1", "1,0,-1"])
    assert code == 0
    doc = json.loads(out)
    assert doc["params"]["t1"] == "[[1, 0, -1]]"
    assert doc["tables"]["dim_t1"] == 1
    assert all(doc["verdicts"].values())


@pytest.mark.parametrize("t1, message", [
    ("1,x,-1", "'1,x,-1' is not 'full', 'zero' or a comma list of integers"),
    ("half", "'half' is not"),
])
def test_case_horo_t1_rejects_non_integers(capsys, t1, message):
    with pytest.raises(SystemExit) as exc:
        main(["case", "horo", "--n", "3", "--t1", t1])
    assert exc.value.code == 2
    assert message in capsys.readouterr().err


def test_case_horo_t1_rejects_non_traceless_diagonal():
    with pytest.raises(SystemExit) as exc:
        main(["case", "horo", "--n", "3", "--t1", "1,0,-2"])
    assert "[1, 0, -2] is not a traceless diagonal of size 3" in str(exc.value.code)


def test_case_keeps_library_errors(monkeypatch):
    # only a rejected parameter becomes a one-line exit; a library error keeps its traceback
    def broken(*args, **kwargs):
        raise ValueError("variable 3 occurs but is not kept")

    monkeypatch.setattr(cli, "run_case", broken)
    with pytest.raises(ValueError, match="not kept"):
        main(["case", "horo", "--n", "3"])


def test_case_failed_verdict_exits_one_after_printing_the_report(monkeypatch, capsys):
    report = CaseReport("horo", {"n": 3}, 0, {"holds": True, "fails": False}, {"s0": 1}, {})
    monkeypatch.setattr(cli, "run_case", lambda *args, **kwargs: report)
    assert main(["case", "horo", "--n", "3"]) == 1
    out, err = capsys.readouterr()
    assert json.loads(out) == report.to_dict()
    assert err == "FAILED verdict: fails\n"


@pytest.mark.parametrize("argv, message", [
    (["index", "--algebra", "sl:x"], "cannot parse --algebra 'sl:x'"),
    (["index", "--algebra", "foo:3"], "cannot parse --algebra 'foo:3'"),
    (["index", "--algebra", "/missing.json"], "cannot read --algebra '/missing.json'"),
    (["check-ggs", "--algebra", "sl:3", "--h", "indices:a"], "cannot parse --h 'indices:a'"),
    (["check-ggs", "--algebra", "gl:4", "--h", "glblocks:1,"], "cannot parse --h 'glblocks:1,'"),
    (["weyl-w0", "--type", "A", "--rank", "3", "--arrows", "1-3"], "cannot parse --arrows '1-3'"),
    (["weyl-w0", "--type", "A", "--arrows", "1:3"], "--type A needs --rank"),
    (["index", "--algebra", "sl:1"], "--algebra 'sl:1': sl(n) needs n >= 2"),
    (["index", "--algebra", "so:7"], "--algebra 'so:7': only so(2n) is supported"),
    (["index", "--algebra", "sl:3", "--trials", "0"], "index --trials 0: trials >= 1 required"),
    (["weyl-w0", "--type", "A", "--rank", "2", "--arrows", "1:1"],
     "--type A --rank 2 --arrows '1:1': an arrow must join two distinct nodes"),
    (["weyl-w0", "--type", "A", "--rank", "2", "--arrows", "1:9"],
     "--type A --rank 2 --arrows '1:9': arrow (1,9) outside the diagram"),
    (["weyl-w0", "--type", "D", "--rank", "2", "--arrows", "1:2"],
     "--type D --rank 2 --arrows '1:2': D_n needs n >= 3"),
    (["check-ggs", "--algebra", "sl:3", "--h", "indices:0,99"],
     "--h 'indices:0,99': h: 99 is not a basis index in range(8)"),
    (["check-ggs", "--algebra", "sl:3", "--h", "indices:0,1"],
     "--h 'indices:0,1' --side h: sum of complement degrees 5 < dim m = 6 because the "
     "hypothesis ind(h x m^ab) = ind q fails"),
    (["case", "borel", "--n", "1"], "case borel: borel needs n >= 2"),
    (["case", "horo", "--n", "1"], "case horo: horo needs n >= 2"),
    (["case", "aks", "--n", "1"], "case aks: aks needs n >= 2"),
    (["case", "double", "--n", "0"], "case double: double needs n >= 1"),
    (["case", "e6_weyl", "--dmax", "0"], "case e6_weyl: dmax >= 1 required, got 0"),
    (["case", "so2n", "--n", "4", "--dmax", "-1"], "case so2n: dmax >= 1 required, got -1"),
    (["weyl-w0", "--type", "A", "--rank", "3", "--arrows", "1:3", "--dmax", "0"],
     "weyl-w0: dmax >= 1 required, got 0"),
    (["weyl-w0", "--type", "A", "--rank", "3", "--arrows", "1:3", "--dmax", "-1"],
     "weyl-w0: dmax >= 1 required, got -1"),
    (["weyl-w0", "--type", "A", "--rank", "3", "--arrows", "1:3", "--dmax", "256"],
     "weyl-w0: dmax <= 255 required, got 256: exponents are stored in one byte"),
    (["case", "borel", "--n", "2", "--trials", "0"], "case borel: trials >= 1 required"),
    (["case", "horo", "--n", "3", "--t1", "0,0,0"], "case horo: t1 diagonal [0, 0, 0] is zero"),
    (["check-ggs", "--algebra", "gl:4", "--h", "glblocks:3,3"],
     "--h 'glblocks:3,3': block sizes sum to 6 > matrix size 4"),
    (["check-ggs", "--algebra", "double:gl:3", "--h", "glblocks:1,2"],
     "--h 'glblocks:1,2': glblocks needs a matrix builder algebra"),
    (["check-ggs", "--algebra", "sl:3", "--h", "indices:0,0,1,3,4"],
     "check-ggs --h 'indices:0,0,1,3,4': h: 0 is listed twice"),
    (["check-ggs", "--algebra", "gl:4", "--h", "glblocks:1,3", "--side", "r"],
     "side 'r' needs a full splitting"),
    # an option the case or the root system does not take was once ignored
    (["case", "borel", "--n", "2", "--t1", "zero"],
     "case borel: borel does not take 't1'; accepted keys: ['n']"),
    (["case", "e6_weyl", "--n", "5"], "case e6_weyl: e6_weyl does not take 'n'; accepted keys: []"),
    (["weyl-w0", "--type", "E6", "--rank", "4", "--arrows", "1:5,2:4"],
     "weyl-w0: --type E6 takes no --rank, got --rank 4"),
    (["index", "--algebra", "so_even:4"], "cannot parse --algebra 'so_even:4'"),  # so(8) is so:8
    (["index", "--algebra", "so:2"], "--algebra 'so:2': so:N needs an even N >= 4, got 2"),
    (["index", "--algebra", "so:0"], "--algebra 'so:0': so:N needs an even N >= 4, got 0"),
])
def test_malformed_input_exits_with_one_line_naming_it(argv, message):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert isinstance(exc.value.code, str) and "\n" not in exc.value.code
    assert message in exc.value.code


@pytest.mark.parametrize("spec, kind, dim, rank, size", [
    ("gl:2", "gl(2)", 4, 2, 2),
    ("sl:3", "sl(3)", 8, 2, 3),
    ("so:8", "so(8)", 28, 4, 8),  # so:N names so(N), built as so(2n) with n = N/2
    ("double:sl:2", "double[sl(2)]", 4, 2, None),
])
def test_algebra_spec_builds_the_named_algebra(spec, kind, dim, rank, size):
    L = cli._load_algebra(spec)
    assert (L.kind, L.dim, L.rank, L.matrix_size) == (kind, dim, rank, size)


def test_malformed_constants_file_exits_with_one_line_naming_the_entry(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('{"dim": 2, "basis_names": ["a", "b"], "brackets": [[0, 1, [1]]]}',
                    encoding="utf-8")
    with pytest.raises(SystemExit) as exc:
        main(["index", "--algebra", str(path)])
    assert isinstance(exc.value.code, str) and "\n" not in exc.value.code
    assert f"--algebra {str(path)!r}: bracket [0, 1]: entry 1 must be" in exc.value.code


def test_weyl_w0_has_no_cap_option(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["weyl-w0", "--type", "A", "--rank", "2", "--arrows", "1:2", "--cap", "10"])
    assert exc.value.code == 2
    assert "--cap" in capsys.readouterr().err


def test_unknown_case_rejected(capsys):
    with pytest.raises(SystemExit):
        main(["case", "nope"])


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0


def test_main_leaves_no_cyclic_garbage(capsys):
    # markdown output: the json module's indenting encoder builds closures of its own
    argv = ["check-ggs", "--algebra", "sl:3", "--h", "borel", "--format", "markdown"]
    assert main(argv) == 0
    gc.collect()
    gc.disable()
    try:
        assert main(argv) == 0
        assert gc.collect() == 0
    finally:
        gc.enable()
    capsys.readouterr()


def test_json_output_leaves_no_cyclic_garbage(capsys):
    argv = ["index", "--algebra", "sl:3"]
    assert main(argv) == 0
    gc.collect()
    gc.disable()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        assert main(argv) == 0
        assert gc.collect() == 0
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
        gc.enable()
    capsys.readouterr()


@pytest.mark.parametrize("doc", [
    {"case": "x", "params": {"n": 2, "t1": [[1, 0, -1]]}, "seed": 0, "verdicts": {},
     "tables": {"rows": [{"degree": 2, "bidegree": (1, 1)}], "empty": [], "none": None,
                "q": QQ(1, 2), "flag": True, "x": 1.5, "s": "é\n\"", 3: "int key",
                None: (), False: {}}},
    [], {}, "text", 0,
])
def test_json_encoder_matches_json_dumps(doc):
    assert cli._json(doc) == json.dumps(doc, indent=1, default=str)
