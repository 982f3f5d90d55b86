import json
import math

import mpmath as mp
import pytest

from invspec.cli import main
from invspec import ConstantPotential, CosinePotential, GridPotential
from invspec.fileio import emit_potential, parse_report, parse_spectrum
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


def test_uniqueness_exit_code(tmp_path):
    out = tmp_path / "probe.json"
    rc = main(["uniqueness", "--coeffs-a", "1", "--coeffs-b", "2", "--out", str(out)])
    assert rc == 0
    doc = json.loads(out.read_text())
    assert doc["passed"] is True
    assert doc["spectra_matched"] is False


def test_compare_command(tmp_path, capsys):
    pa = write(tmp_path, "a.json", emit_potential(ConstantPotential(0.0)))
    pb = write(tmp_path, "b.json", emit_potential(ConstantPotential(0.0)))
    assert main(["compare", "--potential-a", pa, "--potential-b", pb,
                 "--count", "3", "--tol", "1e-6"]) == 0
    text = capsys.readouterr().out
    assert "spectra match: True" in text
    assert "vanish identically" in text


def test_malformed_file_gives_exit_two(tmp_path, capsys):
    bad = write(tmp_path, "bad.json", '{"kind": "grid", "nodes": [0.0, 0.7, 0.4, 1.0], "values": [1, 2, 3, 4]}')
    rc = main(["eigen", "--potential", bad, "--count", "2"])
    assert rc == 2
    assert "nodes[2]" in capsys.readouterr().err


def test_missing_file_gives_exit_two(tmp_path):
    assert main(["eigen", "--potential", str(tmp_path / "nope.json"), "--count", "2"]) == 2


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


def test_bad_subcommand_arguments():
    assert main(["det-roots", "--coeffs", "1,2", "--box", "1,2,3"]) == 2
    assert main(["det-roots", "--coeffs", "x,y", "--box", "-1,1,-1,1"]) == 2
    assert main(["no-such-command"]) == 2
