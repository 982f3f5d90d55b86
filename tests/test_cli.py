import json
import math
import os
import runpy
import sys

import mpmath as mp
import pytest

from invspec import cli, workbench
from invspec.cli import main
from invspec import ConstantPotential, CosinePotential, GridPotential, Spectrum
from invspec.fileio import emit_potential, emit_spectrum, parse_report, parse_spectrum
from oracles import mp_dhat


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def test_eigen_writes_spectrum(tmp_path, capsys):
    pot = write(tmp_path, "q.json", emit_potential(ConstantPotential(0.0)))
    out = tmp_path / "spec.json"
    assert main(["eigen", "--potential", pot, "--count", "3", "--out", str(out)]) == 0
    spec = parse_spectrum(out.read_text())
    assert len(spec) == 3
    assert abs(spec.values[1].real - math.pi**2) <= 1e-8


def test_det_roots_then_reconstruct(tmp_path):
    roots = tmp_path / "roots.json"
    rc = main(
        ["det-roots", "--coeffs", "1,2", "--box", "-8,8,-30,30", "--out", str(roots)]
    )
    assert rc == 0
    rec_out = tmp_path / "rec.json"
    rc = main(["reconstruct", "--degree", "1", "--eigs", str(roots), "--out", str(rec_out)])
    assert rc == 0
    doc = json.loads(rec_out.read_text())
    recovered = [c if isinstance(c, (int, float)) else complex(c["re"], c["im"]) for c in doc["recovered"]]
    assert abs(recovered[0] - 1.0) <= 1e-7
    assert abs(recovered[1] - 2.0) <= 1e-7


def test_roundtrip_single_and_seeded(tmp_path):
    out = tmp_path / "report.json"
    assert main(["roundtrip", "--coeffs", "-0.5,1.25", "--out", str(out)]) == 0
    report = parse_report(out.read_text())
    assert report.max_coeff_error <= 1e-7

    arr = tmp_path / "suite.json"
    csv_path = tmp_path / "suite.csv"
    rc = main(
        ["roundtrip", "--seed", "7", "--degree", "2", "--trials", "2",
         "--out", str(arr), "--csv", str(csv_path)]
    )
    assert rc == 0
    docs = json.loads(arr.read_text())
    assert len(docs) == 2
    lines = csv_path.read_text().strip().splitlines()
    assert len(lines) == 3 and lines[0].startswith("trial,")


def test_det_roots_empty_box(tmp_path, capsys):
    out = tmp_path / "roots.json"
    # roots an earlier run left at --out must not survive an empty result
    assert main(["det-roots", "--coeffs", "1,2", "--box", "-8,8,-30,30", "--out", str(out)]) == 0
    assert out.exists()
    capsys.readouterr()
    rc = main(["det-roots", "--coeffs", "0", "--box", "0.5,1.5,0.5,1.5", "--out", str(out)])
    assert rc == 1
    captured = capsys.readouterr()
    assert "no output written" in captured.err
    assert captured.out == ""
    assert not out.exists()


def test_det_roots_far_left_root_passes_residual_check(tmp_path):
    # |e^-z| is about 2e4 at the root near -9.88, so a residual bound that
    # ignores that growth rejects a root located to working accuracy
    coeffs = (0.22089843280147337, -1.4927828656269049, 1.1439869738448398, 0.13134087934371497)
    out = tmp_path / "roots.json"
    rc = main(["det-roots", "--coeffs", ",".join(map(repr, coeffs)),
               "--box", "-10,10,-80,80", "--out", str(out)])
    assert rc == 0
    root = min(parse_spectrum(out.read_text()).values, key=lambda z: abs(z + 9.88))
    want = mp.findroot(lambda z: mp_dhat(coeffs, z), mp.mpf(-9.88))
    assert abs(root - complex(want)) <= 1e-9
    # the file carries the two real roots without an imaginary part
    entries = json.loads(out.read_text())["entries"]
    real = [e for e in entries if e["re"] in (-9.881438853445527, 1.483795050545004)]
    assert len(real) == 2 and not any("im" in e for e in real)


@pytest.mark.parametrize(
    "argv",
    [
        ["det-roots", "--coeffs", "1,2", "--box", "-8,8,-30,30"],
        ["roundtrip", "--coeffs", "-0.5,1.25"],
        ["roundtrip", "--seed", "7", "--degree", "1", "--trials", "2"],
        ["uniqueness", "--coeffs-a", "1", "--coeffs-b", "2"],
    ],
)
def test_stdout_is_json_without_out(argv, capsys):
    assert main(argv) == 0
    captured = capsys.readouterr()
    json.loads(captured.out)
    assert captured.err.strip()


def test_eigen_and_reconstruct_stdout_is_json(tmp_path, capsys):
    pot = write(tmp_path, "q.json", emit_potential(ConstantPotential(0.0)))
    assert main(["eigen", "--potential", pot, "--count", "3"]) == 0
    assert len(parse_spectrum(capsys.readouterr().out)) == 3
    roots = tmp_path / "roots.json"
    assert main(["det-roots", "--coeffs", "1,2", "--box", "-8,8,-30,30",
                 "--out", str(roots)]) == 0
    capsys.readouterr()
    assert main(["reconstruct", "--degree", "1", "--eigs", str(roots)]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert len(doc["recovered"]) == 2


def test_roundtrip_argument_validation(tmp_path, capsys):
    assert main(["roundtrip"]) == 2
    assert main(["roundtrip", "--coeffs", "1", "--seed", "4"]) == 2
    assert main(["roundtrip", "--seed", "4"]) == 2
    for argv, flag in (
        (["roundtrip", "--coeffs", "1", "--trials", "0"], "--trials"),
        (["roundtrip", "--coeffs", "1", "--degree", "2"], "--degree"),
    ):
        assert main(argv) == 2
        assert flag in capsys.readouterr().err


def test_uniqueness_exit_code(tmp_path, monkeypatch):
    out = tmp_path / "probe.json"
    rc = main(["uniqueness", "--coeffs-a", "1", "--coeffs-b", "2", "--out", str(out)])
    assert rc == 0
    doc = json.loads(out.read_text())
    assert doc["passed"] is True
    assert doc["spectra_matched"] is False
    assert doc["shared_zeros"] == 0
    # two distinct constants may share no zero
    monkeypatch.setattr(workbench, "_shared_zeros", lambda *args: 1)
    assert main(["uniqueness", "--coeffs-a", "1", "--coeffs-b", "2", "--out", str(out)]) == 1
    assert json.loads(out.read_text())["passed"] is False


def test_compare_command(tmp_path, capsys):
    pa = write(tmp_path, "a.json", emit_potential(ConstantPotential(0.0)))
    pb = write(tmp_path, "b.json", emit_potential(ConstantPotential(0.0)))
    assert main(["compare", "--potential-a", pa, "--potential-b", pb,
                 "--count", "3", "--tol", "1e-6"]) == 0
    captured = capsys.readouterr()
    doc = json.loads(captured.out)
    assert doc["matched"] is True and doc["zero_potential_flag"] is True
    assert doc["free_spectrum_a"] is True and doc["free_spectrum_b"] is True
    assert len(doc["gaps"]) == 3 and max(doc["gaps"]) <= 1e-6
    assert "spectra match: True" in captured.err
    assert "vanish identically" in captured.err


def test_malformed_file_gives_exit_two(tmp_path, capsys):
    bad = write(tmp_path, "bad.json", '{"kind": "grid", "nodes": [0.0, 0.7, 0.4, 1.0], "values": [1, 2, 3, 4]}')
    rc = main(["eigen", "--potential", bad, "--count", "2"])
    assert rc == 2
    assert "nodes[2]" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv, path",
    [
        pytest.param(["eigen", "--potential", "{dir}/nope.json", "--count", "2"],
                     "{dir}/nope.json", id="missing"),
        pytest.param(["eigen", "--potential", "{dir}", "--count", "2"], "{dir}",
                     id="potential-is-a-directory"),
        pytest.param(["eigen", "--potential", "{q}", "--count", "2", "--out", "{dir}"], "{dir}",
                     id="out-is-a-directory"),
        pytest.param(["eigen", "--potential", "{bin}", "--count", "2"], "{bin}", id="not-utf8"),
        pytest.param(["reconstruct", "--degree", "0", "--eigs", "{bin}"], "{bin}",
                     id="spectrum-not-utf8"),
        # an empty result deletes --out, and a directory there cannot be deleted
        pytest.param(["det-roots", "--coeffs", "0", "--box", "0.5,1.5,0.5,1.5", "--out", "{dir}"],
                     "{dir}", id="empty-result-out-is-a-directory"),
        # the run's own input error is kept over the output it cannot remove
        pytest.param(["eigen", "--potential", "{dir}/nope.json", "--count", "3", "--out", "{dir}"],
                     "{dir}/nope.json", id="missing-input-out-is-a-directory"),
    ],
)
def test_bad_path_gives_exit_two(tmp_path, capsys, argv, path):
    names = {
        "dir": str(tmp_path),
        "q": write(tmp_path, "q.json", emit_potential(ConstantPotential(0.0))),
        "bin": str(tmp_path / "bin.json"),
    }
    (tmp_path / "bin.json").write_bytes(b"\xff\xfe")
    assert main([a.format(**names) for a in argv]) == 2
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1
    assert path.format(**names) in err
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "argv",
    [
        pytest.param(["eigen", "--potential", "{q}", "--count", "2", "--out", "{dir}"], id="eigen"),
        pytest.param(["det-roots", "--coeffs", "1,2", "--box", "-8,8,-30,30", "--out", "{dir}"],
                     id="det-roots"),
        pytest.param(["reconstruct", "--degree", "1", "--eigs", "{eigs}", "--out", "{dir}"],
                     id="reconstruct"),
        pytest.param(["roundtrip", "--coeffs", "-0.5,1.25", "--out", "{dir}"],
                     id="roundtrip-coeffs-out"),
        pytest.param(["roundtrip", "--coeffs", "-0.5,1.25", "--csv", "{dir}"],
                     id="roundtrip-coeffs-csv"),
        pytest.param(["roundtrip", "--seed", "7", "--degree", "1", "--out", "{dir}"],
                     id="roundtrip-seed-out"),
        pytest.param(["roundtrip", "--seed", "7", "--degree", "1", "--csv", "{dir}"],
                     id="roundtrip-seed-csv"),
        pytest.param(["uniqueness", "--coeffs-a", "1", "--coeffs-b", "2", "--out", "{dir}"],
                     id="uniqueness"),
    ],
)
def test_unwritable_output_leaves_stdout_empty(tmp_path, capsys, argv):
    # no document and no success summary may come before a write that fails
    names = {
        "dir": str(tmp_path),
        "q": write(tmp_path, "q.json", emit_potential(ConstantPotential(0.0))),
        "eigs": write(tmp_path, "eigs.json", emit_spectrum(Spectrum(((-0.5, 1), (1.0, 1))))),
    }
    assert main([a.format(**names) for a in argv]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1
    assert lines[0].startswith("error: ") and lines[0].endswith(str(tmp_path))


@pytest.mark.parametrize(
    "success, failure, code",
    [
        pytest.param(["eigen", "--potential", "{q}", "--count", "3", "--out", "{out}"],
                     ["eigen", "--potential", "{q}", "--count", "0", "--out", "{out}"], 2,
                     id="eigen"),
        pytest.param(["det-roots", "--coeffs", "1,2", "--box", "-8,8,-30,30", "--out", "{out}"],
                     ["det-roots", "--coeffs", "3,4", "--box", "-8,8,-3000,3000", "--out", "{out}"],
                     1, id="det-roots-max-roots"),
        pytest.param(["reconstruct", "--degree", "1", "--eigs", "{eigs}", "--out", "{out}"],
                     ["reconstruct", "--degree", "99", "--eigs", "{eigs}", "--out", "{out}"], 2,
                     id="reconstruct"),
        pytest.param(["roundtrip", "--coeffs", "-0.5,1.25", "--out", "{out}", "--csv", "{csv}"],
                     ["roundtrip", "--coeffs", "1,2", "--box", "-800,-790,-1,1",
                      "--out", "{out}", "--csv", "{csv}"], 1, id="roundtrip-coeffs"),
        pytest.param(["roundtrip", "--seed", "7", "--degree", "1", "--out", "{out}", "--csv", "{csv}"],
                     ["roundtrip", "--seed", "7", "--degree", "1", "--trials", "0",
                      "--out", "{out}", "--csv", "{csv}"], 2, id="roundtrip-seed"),
        pytest.param(["uniqueness", "--coeffs-a", "1", "--coeffs-b", "2", "--out", "{out}"],
                     ["uniqueness", "--coeffs-a", "1", "--coeffs-b", "1,2", "--out", "{out}"], 2,
                     id="uniqueness-unequal-degrees"),
    ],
)
def test_failed_run_leaves_no_output_file(tmp_path, capsys, success, failure, code):
    # a file a successful run left must not pass for the result of a failed one
    out, csv = tmp_path / "out", tmp_path / "out.csv"
    names = {
        "out": str(out),
        "csv": str(csv),
        "q": write(tmp_path, "q.json", emit_potential(ConstantPotential(0.0))),
        "eigs": write(tmp_path, "eigs.json", emit_spectrum(Spectrum(((-0.5, 1), (1.0, 1))))),
    }
    assert main([a.format(**names) for a in success]) == 0
    named = [p for p, key in ((out, "{out}"), (csv, "{csv}")) if key in success]
    assert named and all(p.exists() for p in named)
    capsys.readouterr()
    assert main([a.format(**names) for a in failure]) == code
    captured = capsys.readouterr()
    assert captured.out == ""
    assert len(captured.err.splitlines()) == 1
    assert not any(p.exists() for p in named)


@pytest.mark.parametrize("out, csv", [("dir", "r.csv"), ("r.json", "dir")])
def test_failed_write_removes_the_other_output(tmp_path, capsys, out, csv):
    names = {"dir": str(tmp_path), "r.json": str(tmp_path / "r.json"),
             "r.csv": str(tmp_path / "r.csv")}
    argv = ["roundtrip", "--coeffs", "-0.5,1.25"]
    assert main(argv + ["--out", names["r.json"], "--csv", names["r.csv"]]) == 0
    capsys.readouterr()
    assert main(argv + ["--out", names[out], "--csv", names[csv]]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [f"error: Is a directory: {tmp_path}"]
    # the output that could be written, or was left by the earlier run, is gone
    assert not (tmp_path / (csv if out == "dir" else out)).exists()


@pytest.mark.parametrize(
    "argv, text",
    [
        pytest.param(["reconstruct", "--degree", "99", "--eigs", "{path}", "--out", "{same}"],
                     emit_spectrum(Spectrum(((-0.5, 1), (1.0, 1)))), id="reconstruct"),
        pytest.param(["eigen", "--potential", "{path}", "--count", "0", "--out", "{same}"],
                     emit_potential(ConstantPotential(0.0)), id="eigen"),
    ],
)
def test_failed_run_keeps_an_input_named_as_output(tmp_path, capsys, argv, text):
    path = tmp_path / "in.json"
    path.write_text(text)
    before = path.read_bytes()
    names = {"path": str(path), "same": f"{tmp_path}/./in.json"}
    assert main([a.format(**names) for a in argv]) == 2
    assert capsys.readouterr().err.startswith("error: ")
    assert path.read_bytes() == before


@pytest.mark.parametrize("kind", ["fifo", "symlink"])
def test_failed_run_keeps_an_output_that_is_not_a_regular_file(tmp_path, capsys, kind):
    # stands in for --out /dev/null or /dev/stdout: removing it would not remove a result
    target = tmp_path / "target.json"
    target.write_text("{}")
    out = tmp_path / "out"
    if kind == "fifo":
        os.mkfifo(out)
    else:
        out.symlink_to(target)
    # the empty box fails before --out is opened, so the FIFO is never written
    argv = ["det-roots", "--coeffs", "0", "--box", "0.5,1.5,0.5,1.5", "--out", str(out)]
    assert main(argv) == 1
    assert capsys.readouterr().err.startswith("numerical failure: ")
    assert os.path.lexists(out) and target.read_text() == "{}"


@pytest.mark.parametrize("out", ["file", "dir"])
def test_interrupt_is_kept_over_a_failed_removal(tmp_path, monkeypatch, out):
    def interrupt(*args, **kwargs):
        raise KeyboardInterrupt

    monkeypatch.setattr(cli, "find_det_eigenvalues", interrupt)
    path = tmp_path / "out.json" if out == "file" else tmp_path
    if out == "file":
        path.write_text("{}")
    with pytest.raises(KeyboardInterrupt):
        main(["det-roots", "--coeffs", "1,2", "--box", "-8,8,-30,30", "--out", str(path)])
    assert path.exists() == (out == "dir")


def test_empty_spectrum_file_gives_exit_two(tmp_path, capsys):
    empty = write(tmp_path, "empty.json", '{"entries": []}')
    rc = main(["reconstruct", "--degree", "0", "--eigs", empty])
    assert rc == 2
    assert "entries" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [
        ["eigen", "--potential", "{c}", "--count", "2", "--tol", "0"],
        ["eigen", "--potential", "{c}", "--count", "2", "--tol", "nan"],
        ["compare", "--potential-a", "{cos}", "--potential-b", "{c}", "--count", "3", "--tol", "nan"],
        ["compare", "--potential-a", "{c}", "--potential-b", "{c}", "--count", "3", "--tol", "-1"],
    ],
)
def test_tolerance_must_be_finite_and_positive(tmp_path, argv, capsys):
    paths = {
        "c": write(tmp_path, "c.json", emit_potential(ConstantPotential(5.0))),
        "cos": write(tmp_path, "cos.json", emit_potential(CosinePotential(1.0, 1))),
    }
    assert main([a.format(**paths) for a in argv]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "tol" in captured.err


def test_eigen_loose_tolerance_gives_loose_answer(tmp_path, capsys):
    # the residual floor on y'(1) widens with --tol, so a loose stop width
    # is a loose answer rather than an exit 1
    pot = write(tmp_path, "grid.json",
                emit_potential(GridPotential((0.0, 0.4, 1.0), (1.0, -2.0, 0.5))))
    assert main(["eigen", "--potential", pot, "--count", "4"]) == 0
    exact = parse_spectrum(capsys.readouterr().out).values
    for tol in (1e-2, 1e-4):
        assert main(["eigen", "--potential", pot, "--count", "4", "--tol", str(tol)]) == 0
        loose = parse_spectrum(capsys.readouterr().out).values
        assert len(loose) == 4
        for got, want in zip(loose, exact):
            assert abs(got - want) <= tol * max(1.0, abs(want))


def test_repeated_spectrum_entry_gives_exit_two(tmp_path, capsys):
    dup = write(tmp_path, "dup.json",
                '{"entries": [{"re": 1.0, "multiplicity": 1}, {"re": 1.0, "multiplicity": 1}]}')
    assert main(["reconstruct", "--degree", "1", "--eigs", dup]) == 2
    assert "$.entries" in capsys.readouterr().err


def test_bad_subcommand_arguments(capsys):
    for argv, message in (
        (["det-roots", "--coeffs", "1,2", "--box", "1,2,3"], "re0,re1,im0,im1"),
        (["det-roots", "--coeffs", "1,2", "--box", "a,b,c,d"], "must be numbers"),
        (["det-roots", "--coeffs", "x,y", "--box", "-1,1,-1,1"], "coefficient #0"),
        (["det-roots", "--coeffs", "", "--box", "-1,1,-1,1"], "empty coefficient list"),
        (["no-such-command"], "invalid choice"),
    ):
        assert main(argv) == 2
        assert message in capsys.readouterr().err


def test_roundtrip_coeffs_writes_csv(tmp_path):
    csv_path = tmp_path / "one.csv"
    assert main(["roundtrip", "--coeffs", "-0.5,1.25", "--out", str(tmp_path / "r.json"),
                 "--csv", str(csv_path)]) == 0
    lines = csv_path.read_text().strip().splitlines()
    assert len(lines) == 2 and lines[1].startswith("0,")


@pytest.mark.parametrize(
    "argv",
    [
        ["reconstruct", "--degree", "0", "--eigs", "{far}"],
        ["det-roots", "--coeffs", "1,2", "--box", "-800,-790,-1,1"],
    ],
)
def test_overflow_left_of_minus_709_exits_one(tmp_path, argv, capsys):
    far = write(tmp_path, "far.json", '{"entries": [{"re": -800.0, "multiplicity": 1}]}')
    assert main([a.format(far=far) for a in argv]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1
    assert lines[0].startswith("numerical failure: e^(-lam) overflows at lam = (-800")


@pytest.mark.filterwarnings("ignore:'invspec.cli' found in sys.modules:RuntimeWarning")
@pytest.mark.parametrize("module", ["invspec", "invspec.cli"])
def test_python_dash_m_entry_points(module, monkeypatch, capsys):
    argv = ["invspec", "det-roots", "--coeffs", "1,2", "--box", "-8,8,-30,30"]
    monkeypatch.setattr(sys, "argv", argv)
    with pytest.raises(SystemExit) as done:
        runpy.run_module(module, run_name="__main__")
    assert done.value.code == 0
    assert len(parse_spectrum(capsys.readouterr().out)) == 10
