"""Command-line surface.

Each `_cmd_*` writes its side files (`roundtrip --csv`) and returns
(document, summary, exit code), or raises.  `main` then writes the document
to --out, or to stdout without one, and last the summary to stderr, so
stdout always parses as JSON.  A `uniqueness` FAIL returns its report with
exit code 1, so it is still written.

A run that raises leaves none of its output files: `main` removes each
--out and --csv the run was given (a file an earlier run left there would
pass for this result), prints one stderr line and no summary, and exits.
Only a regular file is removed, and never a path the run also reads
(--potential, --eigs).  A usage error from argparse comes before the run
and touches no file.  An empty
`det-roots` box is a NumericalError: an empty spectrum has no file form.

Exit codes: 0 success, 1 numerical failure or failed probe (with
diagnostic), 2 invalid input (bad arguments, malformed files, or a path
that cannot be read, written or removed).
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
    dump_json,
    emit_reconstruction,
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


def _cmd_eigen(args):
    q = load_potential(args.potential)
    spec = neumann_eigenvalues(q, args.count, args.tol)
    summary = f"computed {len(spec)} eigenvalues; lowest {spec.values[0]:.12g}"
    return emit_spectrum(spec), summary, 0


def _cmd_det_roots(args):
    poly = _parse_coeffs(args.coeffs)
    box = _parse_box(args.box)
    roots = find_det_eigenvalues(BoundaryPolynomialProblem(poly), box, args.max_roots)
    if not roots:
        # an empty spectrum has no valid file form (schema requires >= 1 entry)
        raise NumericalError("no determinant zeros inside the box; no output written")
    summary = f"found {len(roots)} zeros, multiplicity sum {sum(roots.multiplicities)}"
    return emit_spectrum(roots), summary, 0


def _cmd_reconstruct(args):
    spectrum = load_spectrum(args.eigs)
    nodes = select_reconstruction_nodes(spectrum, args.degree)
    rec = reconstruct_coeffs(nodes)
    cond = rec.vandermonde_condition
    summary = f"recovered degree-{args.degree} coefficients; condition {cond:.3e}"
    return emit_reconstruction(rec, nodes), summary, 0


def _make_config(args, degree_range, seed: int = 0, trials: int = 1) -> ExperimentConfig:
    box = _parse_box(args.box) if args.box else DEFAULT_BOX
    return ExperimentConfig(seed=seed, degree_range=degree_range, search_box=box, trials=trials)


def _cmd_roundtrip(args):
    if bool(args.coeffs) == bool(args.seed is not None):
        raise InputError("use exactly one of --coeffs or --seed")
    if args.coeffs:
        for flag, value in (("--degree", args.degree), ("--trials", args.trials)):
            if value is not None:
                raise InputError(f"{flag} belongs to --seed mode, not --coeffs")
        poly = _parse_coeffs(args.coeffs)
        report = roundtrip(poly, _make_config(args, (0, max(3, poly.degree))))
        reports = [report]
        doc = emit_report(report)
        summary = (
            f"round trip: max coefficient error {report.max_coeff_error:.3e}, "
            f"condition {report.condition:.3e}"
        )
    else:
        if args.degree is None:
            raise InputError("--seed mode needs --degree")
        trials = 1 if args.trials is None else args.trials
        cfg = _make_config(args, (args.degree, args.degree), args.seed, trials)
        reports = run_seeded_suite(cfg)
        doc = "[" + ",".join(emit_report(r).rstrip("\n") for r in reports) + "]\n"
        worst = max(r.max_coeff_error for r in reports)
        summary = f"{len(reports)} trials, worst coefficient error {worst:.3e}"
    if args.csv:
        save_text(args.csv, reports_to_csv(reports))
    return doc, summary, 0


def _cmd_uniqueness(args):
    pa = _parse_coeffs(args.coeffs_a)
    pb = _parse_coeffs(args.coeffs_b)
    report = uniqueness_probe(pa, pb, _make_config(args, (0, max(3, pa.degree, pb.degree))))
    summary = f"uniqueness probe: {'PASS' if report.passed else 'FAIL'}"
    return dump_json(dataclasses.asdict(report)), summary, 0 if report.passed else 1


def _cmd_compare(args):
    qa = load_potential(args.potential_a)
    qb = load_potential(args.potential_b)
    report = compare_neumann(qa, qb, args.count, args.tol)
    lines = [f"index {i}: gap {gap:.6e}" for i, gap in enumerate(report.gaps)]
    lines.append(f"spectra match: {report.matched}")
    lines.append(f"free-spectrum flags: {report.free_spectrum_a} {report.free_spectrum_b}")
    if report.zero_potential_flag:
        lines.append("both spectra are free: the potentials must vanish identically")
    return dump_json(dataclasses.asdict(report)), "\n".join(lines), 0


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
    p.set_defaults(func=_cmd_compare, out=None)

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


def _remove_outputs(args, error: BaseException) -> None:
    """Remove each --out and --csv of a failed run, except a path it also reads.

    Only a regular file is removed: a device or FIFO cannot pass for a
    result, and removing a link (/dev/stdout is one) would not remove what
    it points at.  Every path is tried.  A path that cannot
    be removed is raised in place of a NumericalError, since exit 1 would not
    say that a file is left; an input error, an OSError or an interrupt is
    kept, as it names the run's own cause.
    """
    reads = (getattr(args, "potential", None), getattr(args, "eigs", None))
    inputs = {Path(p).resolve() for p in reads if p}
    failed = None
    for path in (args.out, getattr(args, "csv", None)):
        if not path:
            continue
        p = Path(path)
        special = p.is_symlink() or (p.exists() and not (p.is_file() or p.is_dir()))
        if special or p.resolve() in inputs:
            continue
        try:
            p.unlink(missing_ok=True)
        except OSError as exc:
            failed = failed or exc
    if failed and isinstance(error, NumericalError):
        raise failed


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
        try:
            doc, summary, code = args.func(args)
            if args.out:
                save_text(args.out, doc)
            else:
                sys.stdout.write(doc)
        except BaseException as exc:
            _remove_outputs(args, exc)
            raise
    except OSError as exc:
        reason = "file not found" if isinstance(exc, FileNotFoundError) else exc.strerror
        print(f"error: {reason}: {exc.filename}", file=sys.stderr)
        return 2
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 1
    print(summary, file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
