import hashlib
import json
from pathlib import Path

from trisupport.cli import CRITERIA, EXIT_INTERNAL, EXIT_INVALID, EXIT_OK, EXIT_UNKNOWN, main
from trisupport.core import support_from_json, tensor_from_json


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, (json.loads(out) if out.strip() else None)


def test_construct_round_trip(tmp_path, capsys):
    out = tmp_path / "tmax5.json"
    code, report = run(capsys, "construct", "t-max", "5", "--out", str(out))
    assert code == EXIT_OK
    s = support_from_json(out.read_text())
    assert len(s) == 19
    # emitted payload parses back to the same object that was reported
    assert json.loads(out.read_text()) == report["result"]["support"]


def test_construct_tensor_round_trip(tmp_path, capsys):
    out = tmp_path / "tstd3.json"
    code, _ = run(capsys, "construct", "t-std", "3", "--out", str(out))
    assert code == EXIT_OK
    t = tensor_from_json(out.read_text())
    assert t.coefficient((0, 0, 0)) == 2


def test_decide_tight_via_cli(tmp_path, capsys):
    support_file = tmp_path / "s.json"
    run(capsys, "construct", "t-max", "5", "--out", str(support_file))
    code, report = run(capsys, "decide", "tight", "--in", str(support_file))
    assert code == EXIT_OK
    assert report["result"]["holds"] is True
    assert set(report["result"]["witness"]) == {"tauA", "tauB", "tauC"}
    assert str(support_file) in report["inputs"]


def test_decide_oblique_unknown_exit_code(tmp_path, capsys):
    support_file = tmp_path / "f4.json"
    run(capsys, "construct", "f-max", "4", "--out", str(support_file))
    code, report = run(capsys, "decide", "oblique", "--in", str(support_file), "--budget", "1")
    assert code == EXIT_UNKNOWN
    assert report["result"]["status"] == "unknown"
    assert report["inputs"] == {str(support_file): hashlib.sha256(support_file.read_bytes()).hexdigest()}


def test_invalid_input_exit_code(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"shape": [0, 1, 1], "entries": []}')
    code = main(["decide", "tight", "--in", str(bad)])
    capsys.readouterr()
    assert code == EXIT_INVALID
    for argv in (["construct", "t-max"], ["construct", "oblique-not-tight-4", "7"]):
        code = main(argv)
        captured = capsys.readouterr()
        assert code == EXIT_INVALID, argv
        assert captured.err.startswith("error:") and captured.out == "", argv
    support_file = tmp_path / "d2.json"
    run(capsys, "construct", "m1-sum", "2", "--out", str(support_file))
    for argv in (
        ["zeta", "--theta", "1/0", "0", "1"],
        ["decide", "oblique", "--budget", "-5"],
        ["compress", "box", "--dims", "-1", "1", "1"],
    ):
        code = main(argv + ["--in", str(support_file)])
        captured = capsys.readouterr()
        assert code == EXIT_INVALID, argv
        assert captured.err.startswith("error:") and "Traceback" not in captured.err
    assert "sizes must lie between 0 and the shape" in captured.err
    # usage errors exit 1 as well (argparse's own code 2 means unknown here), and --help still exits 0;
    # only the oblique search takes a node budget
    for argv in (
        ["decide", "oblique", "--in", "x", "--budget", "abc"],
        ["decide", "tight", "--in", str(support_file), "--budget", "5"],
        ["decide", "tight"],
        ["nope"],
    ):
        code = main(argv)
        captured = capsys.readouterr()
        assert code == EXIT_INVALID, argv
        assert "error:" in captured.err and "Traceback" not in captured.err and captured.out == ""
    assert main(["--help"]) == EXIT_OK and "usage:" in capsys.readouterr().out


def test_unwritable_out_path_is_one_error_line_and_no_report(tmp_path, capsys):
    code = main(["construct", "t-max", "3", "--out", str(tmp_path / "missing" / "x.json")])
    captured = capsys.readouterr()
    assert code == EXIT_INVALID and captured.out == ""
    assert captured.err.startswith("error:") and captured.err.count("\n") == 1, captured.err


def test_group_without_leaf_names_its_leaves(capsys):
    for group, leaves in (
        ("symmetry", "{annihilator,propagate,class-dim,span-stabilizer}"),
        ("compress", "{box,multi,cover}"),
        ("decide", "{tight,oblique,free}"),
    ):
        code = main([group])
        err = capsys.readouterr().err
        assert code == EXIT_INVALID, group
        assert f"required: {leaves}" in err, err
        assert not any(dest in err for dest in ("sym_cmd", "comp_cmd", "property")), err


def test_malformed_json_exits_invalid_without_traceback(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    for text in ("[1, 2]", '{"shape": [1, 1, 1], "entries": [{"idx": [0, 0, 0], "coef": "1/0"}]}'):
        bad.write_text(text)
        code = main(["decide", "tight", "--in", str(bad)])
        captured = capsys.readouterr()
        assert code == EXIT_INVALID
        assert captured.err.startswith("error:") and "Traceback" not in captured.err
        assert captured.out == ""


def test_support_documents_drop_zero_coefficients_and_refuse_bad_entries(tmp_path, capsys):
    path = tmp_path / "s.json"
    kept = {"idx": [0, 1, 1]}

    def zeta_of(entries):
        path.write_text(json.dumps({"shape": [2, 2, 2], "entries": entries}))
        return main(["zeta", "--in", str(path), "--theta", "1/3", "1/3", "1/3"]), capsys.readouterr()

    code, plain = zeta_of([kept])
    assert code == EXIT_OK
    code, dropped = zeta_of([{"idx": [1, 0, 0], "coef": "0"}, kept])
    assert code == EXIT_OK and json.loads(dropped.out)["result"] == json.loads(plain.out)["result"]
    for entries, message in (
        ([{"idx": [1, 0, 0], "coef": "1e2"}, kept], "coefficient must be a string p or p/q, got '1e2'"),
        ([kept, {"idx": [0, 1, 1], "coef": "0"}], "duplicate idx [0, 1, 1]"),
    ):
        code, captured = zeta_of(entries)
        assert code == EXIT_INVALID and captured.out == "", entries
        assert captured.err.startswith("error:") and message in captured.err, captured.err


def test_internal_invariant_exit_code(monkeypatch, capsys):
    import trisupport.cli as cli

    def broken(seed=0):
        raise AssertionError("internal: simulated invariant violation")

    monkeypatch.setattr(cli, "census_m3", broken)
    code = main(["census-m3"])
    err = capsys.readouterr().err
    assert code == 3
    assert "invariant" in err


def test_census_cli(capsys):
    code, report = run(capsys, "census-m3")
    assert code == EXIT_OK
    assert report["result"]["counts"] == {"maximal": 144, "concise": 80, "orbits": 13}
    assert all(rep["tight"] for rep in report["result"]["representatives"])


def test_max_oblique_cli(capsys):
    code, report = run(capsys, "max-oblique", "2", "3", "3")
    assert code == EXIT_OK
    assert report["result"]["bound"] == 5


def test_symmetry_cli(tmp_path, capsys):
    code, report = run(capsys, "symmetry", "class-dim", "Tight", "4")
    assert code == EXIT_OK and report["result"]["dimension"] == 48
    tensor_file = tmp_path / "m2.json"
    run(capsys, "construct", "matmul", "2", "--out", str(tensor_file))
    code, report = run(capsys, "symmetry", "annihilator", "--in", str(tensor_file))
    assert code == EXIT_OK
    assert report["result"]["kernel_dim"] - report["result"]["annihilator_dim"] == 2


def test_compress_cli(tmp_path, capsys):
    support_file = tmp_path / "t.json"
    run(capsys, "construct", "t-max", "5", "--out", str(support_file))
    code, report = run(capsys, "compress", "box", "--in", str(support_file), "--dims", "3", "3", "2")
    assert code == EXIT_OK and report["result"]["found"] is True
    code, report = run(capsys, "compress", "cover", "--in", str(support_file))
    assert code == EXIT_OK
    assert report["result"]["duality_sum"] == 15


def test_zeta_cli(tmp_path, capsys):
    support_file = tmp_path / "d3.json"
    run(capsys, "construct", "m1-sum", "3", "--out", str(support_file))
    code, report = run(capsys, "zeta", "--in", str(support_file), "--theta", "1/3", "1/3", "1/3")
    assert code == EXIT_OK
    assert abs(report["result"]["value"] - 3) < 1e-6
    # every zeta report carries its certificate gap, the order minimum's too
    code, minimized = run(capsys, "zeta", "--in", str(support_file), "--theta", "1/3", "1/3", "1/3", "--min-orders")
    assert code == EXIT_OK and minimized["result"]["minimized_over_axis_orders"]
    for res in (report["result"], minimized["result"]):
        assert 0 <= res["certificate_gap"] < 1e-6
    code = main(["zeta", "--in", str(support_file), "--theta", "1/2", "1/2", "1/2"])
    capsys.readouterr()
    assert code == EXIT_INVALID  # weights must sum to 1
    # scope gate: exhaustive order minimization refuses m=5 axes
    big = tmp_path / "d5.json"
    run(capsys, "construct", "m1-sum", "5", "--out", str(big))
    code, report = run(capsys, "zeta", "--in", str(big), "--theta", "1/3", "1/3", "1/3", "--min-orders")
    assert code == EXIT_UNKNOWN


def test_arrange_cli(tmp_path, capsys):
    witness_file = tmp_path / "w.json"
    witness_file.write_text('{"tauA": [-1, 0, 1], "tauB": [-1, 0, 1], "tauC": [-1, 0, 1]}')
    svg = tmp_path / "arr.svg"
    code, report = run(
        capsys, "arrange", "--witness", str(witness_file), "--svg", str(svg), "--dims", "2", "2", "1"
    )
    assert code == EXIT_OK
    joints = [((-1, 0), (0, 1, 2)), ((-1, 1), (0, 2, 1)), ((0, -1), (1, 0, 2)), ((0, 0), (1, 1, 1)),
              ((0, 1), (1, 2, 0)), ((1, -1), (2, 0, 1)), ((1, 0), (2, 1, 0))]
    assert report["result"] == {
        "lines": {"x": [-1, 0, 1], "y": [-1, 0, 1], "z": [-1, 0, 1]},
        "joints": [{"point": list(p), "triple": list(t)} for p, t in joints],
        "joint_free_subarrangement": {"x": [-1, 1], "y": [-1, 1], "z": [-1]},
        "svg": str(svg),
    }
    assert svg.read_bytes() == (Path(__file__).parent / "golden" / "arrangement_tmax3.svg").read_bytes()


def test_arrange_refuses_malformed_witness(tmp_path, capsys):
    witness_file = tmp_path / "w.json"
    for doc, field in (
        ("[1, 2]", "witness"),
        ('{"tauA": [0, 1], "tauB": [0, 1]}', "tauC"),
        ('{"tauA": [0.5, 1.7], "tauB": [0, 1], "tauC": [0, -1]}', "tauA"),
        ('{"tauA": [true, false], "tauB": [0, 1], "tauC": [0, -1]}', "tauA"),
    ):
        witness_file.write_text(doc)
        code = main(["arrange", "--witness", str(witness_file)])
        captured = capsys.readouterr()
        assert code == EXIT_INVALID, doc
        assert captured.err.startswith("error:") and field in captured.err, captured.err
        assert "Traceback" not in captured.err and captured.out == ""


def test_reproduce_runs_and_is_deterministic(capsys):
    code, rep1 = run(capsys, "reproduce")
    assert code == EXIT_OK
    assert rep1["result"]["all_ok"] is True
    names = [c["name"] for c in rep1["result"]["checks"]]
    assert names == [name for name, _ in CRITERIA] and len(set(names)) == len(names)
    code, rep2 = run(capsys, "reproduce")
    assert rep2["result"] == rep1["result"]


def test_reproduce_reports_a_failed_criterion_and_runs_the_rest(monkeypatch, capsys):
    import trisupport.cli as cli

    ran = []

    def entry(name, fails=False):
        def run_entry(seed):
            ran.append(name)
            if fails:
                raise cli.CriterionFailed("simulated failed claim")
            return {"seed": seed}

        return name, run_entry

    monkeypatch.setattr(cli, "CRITERIA", (entry("a"), entry("b", fails=True), entry("c")))
    code = main(["reproduce", "--seed", "5"])
    captured = capsys.readouterr()
    assert code == EXIT_INTERNAL
    assert ran == ["a", "b", "c"]
    assert json.loads(captured.out)["result"] == {
        "checks": [
            {"name": "a", "ok": True, "seed": 5},
            {"name": "b", "ok": False, "failed": "simulated failed claim"},
            {"name": "c", "ok": True, "seed": 5},
        ],
        "all_ok": False,
    }
    assert "[FAIL] b" in captured.err and "Traceback" not in captured.err


def test_main_builds_the_parser_at_most_once(monkeypatch, capsys):
    import argparse

    trees = []
    init = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        if kwargs.get("prog") == "trisupport":
            trees.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    for _ in range(2):
        assert main(["max-oblique", "2", "3", "3"]) == EXIT_OK
    capsys.readouterr()
    assert len(trees) <= 1


def test_report_shape_and_determinism(tmp_path, capsys):
    support_file = tmp_path / "s.json"
    run(capsys, "construct", "t-max", "3", "--out", str(support_file))
    code, rep1 = run(capsys, "decide", "tight", "--in", str(support_file), "--seed", "7")
    _, rep2 = run(capsys, "decide", "tight", "--in", str(support_file), "--seed", "7")
    assert code == EXIT_OK
    assert rep1["result"] == rep2["result"]
    assert rep1["version"] == rep2["version"]
    assert rep1["seed"] == 7
