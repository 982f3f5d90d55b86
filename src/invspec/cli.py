"""Command-line surface.

Each command writes its JSON document to --out, or to stdout when --out is
not given (`compare` has no --out), and its summary to stderr, so stdout
always parses as JSON.

Exit codes: 0 success, 1 numerical failure or empty result (with
diagnostic), 2 invalid input (bad arguments or malformed files).
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import sys
from pathlib import Path

from .char_det import BoundaryPolynomialProblem, SearchBox, find_det_eigenvalues
from .core import Polynomial
from .errors import InputError, NumericalError
from .fileio import (
    _complex_out,
    dump_json,
    emit_report,
    emit_spectrum,
    load_potential,
    load_spectrum,
    reports_to_csv,
    save_text,
)
from .reconstruct import reconstruct_coeffs, select_reconstruction_nodes
from .sl_forward import EIG_TOL, neumann_eigenvalues
from .workbench import (
    DEFAULT_BOX,
    MAX_ROOTS,
    ExperimentConfig,
    compare_neumann,
    roundtrip,
    run_seeded_suite,
    uniqueness_probe,
)


def _parse_coeffs(text: str) -> Polynomial:
    parts = [p.strip() for p in text.split(",")]
    if not parts or parts == [""]:
        raise InputError("empty coefficient list")
    coeffs = []
    for i, part in enumerate(parts):
        try:
            coeffs.append(complex(part))
        except ValueError as exc:
            raise InputError(f"coefficient #{i} is not a number: {part!r}") from exc
    return Polynomial(tuple(coeffs))


def _parse_box(text: str) -> SearchBox:
    parts = [p.strip() for p in text.split(",")]
    if len(parts) != 4:
        raise InputError(f"--box needs re0,re1,im0,im1 (got {len(parts)} fields)")
    try:
        vals = [float(p) for p in parts]
    except ValueError as exc:
        raise InputError(f"--box fields must be numbers: {text!r}") from exc
    return SearchBox(*vals)


def _write(path, text: str) -> None:
    """A command's document: to the file at path, or to stdout without one."""
    if path:
        save_text(path, text)
    else:
        sys.stdout.write(text)


def _cmd_eigen(args) -> int:
    q = load_potential(args.potential)
    spec = neumann_eigenvalues(q, args.count, args.tol)
    _write(args.out, emit_spectrum(spec))
    print(f"computed {len(spec)} eigenvalues; lowest {spec.values[0]:.12g}", file=sys.stderr)
    return 0


def _cmd_det_roots(args) -> int:
    poly = _parse_coeffs(args.coeffs)
    box = _parse_box(args.box)
    roots = find_det_eigenvalues(BoundaryPolynomialProblem(poly), box, args.max_roots)
    if not roots:
        # an empty spectrum has no valid file form (schema requires >= 1 entry);
        # a file an earlier run left at --out must not pass for this result
        if args.out:
            Path(args.out).unlink(missing_ok=True)
        print("no determinant zeros inside the box; no output written", file=sys.stderr)
        return 1
    _write(args.out, emit_spectrum(roots))
    print(
        f"found {len(roots)} zeros, multiplicity sum {sum(roots.multiplicities)}",
        file=sys.stderr,
    )
    return 0


def _cmd_reconstruct(args) -> int:
    spectrum = load_spectrum(args.eigs)
    nodes = select_reconstruction_nodes(spectrum, args.degree)
    rec = reconstruct_coeffs(nodes)
    doc = dump_json(
        {
            "recovered": [_complex_out(c) for c in rec.coefficients.coeffs],
            "condition": rec.vandermonde_condition,
            "node_residuals": list(rec.node_residuals),
            "nodes": [{"re": z.real, "im": z.imag} for z in nodes],
        }
    )
    _write(args.out, doc)
    print(
        f"recovered degree-{args.degree} coefficients; condition {rec.vandermonde_condition:.3e}",
        file=sys.stderr,
    )
    return 0


def _make_config(args, degree_range, seed: int = 0, trials: int = 1) -> ExperimentConfig:
    box = _parse_box(args.box) if args.box else DEFAULT_BOX
    return ExperimentConfig(seed=seed, degree_range=degree_range, search_box=box, trials=trials)


def _cmd_roundtrip(args) -> int:
    if bool(args.coeffs) == bool(args.seed is not None):
        raise InputError("use exactly one of --coeffs or --seed")
    if args.coeffs:
        for flag, value in (("--degree", args.degree), ("--trials", args.trials)):
            if value is not None:
                raise InputError(f"{flag} belongs to --seed mode, not --coeffs")
        poly = _parse_coeffs(args.coeffs)
        cfg = _make_config(args, (0, max(3, poly.degree)))
        report = roundtrip(poly, cfg)
        _write(args.out, emit_report(report))
        print(
            f"round trip: max coefficient error {report.max_coeff_error:.3e}, "
            f"condition {report.condition:.3e}",
            file=sys.stderr,
        )
        if args.csv:
            save_text(args.csv, reports_to_csv([report]))
        return 0
    if args.degree is None:
        raise InputError("--seed mode needs --degree")
    trials = 1 if args.trials is None else args.trials
    cfg = _make_config(args, (args.degree, args.degree), args.seed, trials)
    reports = run_seeded_suite(cfg)
    _write(args.out, "[" + ",".join(emit_report(r).rstrip("\n") for r in reports) + "]\n")
    if args.csv:
        save_text(args.csv, reports_to_csv(reports))
    worst = max(r.max_coeff_error for r in reports)
    print(f"{len(reports)} trials, worst coefficient error {worst:.3e}", file=sys.stderr)
    return 0


def _cmd_uniqueness(args) -> int:
    pa = _parse_coeffs(args.coeffs_a)
    pb = _parse_coeffs(args.coeffs_b)
    cfg = _make_config(args, (0, max(3, pa.degree, pb.degree)))
    report = uniqueness_probe(pa, pb, cfg)
    _write(args.out, dump_json(dataclasses.asdict(report)))
    print(f"uniqueness probe: {'PASS' if report.passed else 'FAIL'}", file=sys.stderr)
    return 0 if report.passed else 1


def _cmd_compare(args) -> int:
    qa = load_potential(args.potential_a)
    qb = load_potential(args.potential_b)
    report = compare_neumann(qa, qb, args.count, args.tol)
    sys.stdout.write(dump_json(dataclasses.asdict(report)))
    for i, gap in enumerate(report.gaps):
        print(f"index {i}: gap {gap:.6e}", file=sys.stderr)
    print("spectra match:", report.matched, file=sys.stderr)
    print("free-spectrum flags:", report.free_spectrum_a, report.free_spectrum_b, file=sys.stderr)
    if report.zero_potential_flag:
        print("both spectra are free: the potentials must vanish identically", file=sys.stderr)
    return 0


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="invspec",
        description="Neumann eigenvalues, determinant zeros, and boundary-polynomial recovery",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("eigen", help="Neumann eigenvalues of a potential file")
    p.add_argument("--potential", required=True)
    p.add_argument("--count", type=int, required=True)
    p.add_argument("--tol", type=float, default=EIG_TOL)
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_eigen)

    p = sub.add_parser("det-roots", help="determinant zeros inside a box")
    p.add_argument("--coeffs", required=True, help="c0,c1,...")
    p.add_argument("--box", required=True, help="re0,re1,im0,im1")
    p.add_argument("--max-roots", type=int, default=MAX_ROOTS, dest="max_roots")
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_det_roots)

    p = sub.add_parser("reconstruct", help="recover coefficients from an eigenvalue file")
    p.add_argument("--degree", type=int, required=True)
    p.add_argument("--eigs", required=True)
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_reconstruct)

    p = sub.add_parser("roundtrip", help="spectrum generation followed by reconstruction")
    p.add_argument("--coeffs", default=None)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--degree", type=int, default=None)
    p.add_argument("--trials", type=int, default=None)
    p.add_argument("--box", default=None)
    p.add_argument("--out", default=None)
    p.add_argument("--csv", default=None)
    p.set_defaults(func=_cmd_roundtrip)

    p = sub.add_parser("uniqueness", help="injectivity probe on a pair of polynomials")
    p.add_argument("--coeffs-a", required=True, dest="coeffs_a")
    p.add_argument("--coeffs-b", required=True, dest="coeffs_b")
    p.add_argument("--box", default=None)
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_uniqueness)

    p = sub.add_parser("compare", help="compare Neumann spectra of two potential files")
    p.add_argument("--potential-a", required=True, dest="potential_a")
    p.add_argument("--potential-b", required=True, dest="potential_b")
    p.add_argument("--count", type=int, required=True)
    p.add_argument("--tol", type=float, required=True)
    p.set_defaults(func=_cmd_compare)

    return parser


_VALUE_OPTIONS = ("--box", "--coeffs", "--coeffs-a", "--coeffs-b")


def _merge_negative_values(argv):
    """Join ``--box -8,8,...`` into ``--box=-8,8,...`` so argparse accepts it."""
    out = []
    i = 0
    while i < len(argv):
        tok = argv[i]
        if tok in _VALUE_OPTIONS and i + 1 < len(argv) and argv[i + 1].startswith("-"):
            out.append(f"{tok}={argv[i + 1]}")
            i += 2
            continue
        out.append(tok)
        i += 1
    return out


def main(argv=None) -> int:
    parser = _build_parser()
    if argv is None:
        argv = sys.argv[1:]
    try:
        args = parser.parse_args(_merge_negative_values(list(argv)))
    except SystemExit as exc:
        # argparse exits with 2 on bad arguments, matching our input-error code
        return int(exc.code or 0)
    try:
        return args.func(args)
    except FileNotFoundError as exc:
        print(f"error: file not found: {exc.filename}", file=sys.stderr)
        return 2
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
