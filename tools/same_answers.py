"""Check that this checkout's `src/` gives the same answers as a git revision.

    python3 tools/same_answers.py --against REV [--tol T]

REV's `src/` is extracted with `git archive` into a temporary directory, and
each tree answers one fixed set in its own subprocess, with its own `src/`
first on the import path. Three groups are compared:

* `det_roots`: the determinant zeros of 2,700 searches. The coefficients are
  perfbench's `coefficient_params` draws for seeds 1, 2 and 7, items 0-299;
  each is searched on perfbench's `DET_BOX` whole, on `DEFAULT_BOX` with
  `nearest = degree + 1`, and on -10,10,-80,80 whole.
* `det_files`: the `det-roots` and `reconstruct` files, exit codes, stdout
  and stderr of perfbench's `det_files` items, seed 1, items 0-149, run
  through `cli.main` in process, with every `wall_time_ms` masked.
* `complex_roots`: the determinant zeros of 900 searches of complex A: 300
  polynomials of degree 0-3 whose real and imaginary parts are uniform in
  [-2, 2], drawn from a fixed generator here, each searched whole on
  `DET_BOX`, on -8,8,-5,30 and on -8,8,-30,5.

For each group it prints how many entries are bit-identical and the largest
move, and it lists the entries that moved. A move is the largest
|a - b| / max(1, |b|) over the numbers of an entry, b being REV's; a change
in anything else (a count, an error, a string) is an infinite move. It exits
1 when any move exceeds `--tol` (default 0: every entry bit-identical).
Searches that needed more than one search attempt are counted per tree,
where the tree has `char_det._collect_roots`.

This is a development check, not a test: the two trees take about 16 s each
on two cores.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEEDS = (1, 2, 7)
ITEMS = 300
FILE_ITEMS = 150
WIDE_BOX = (-10.0, 10.0, -80.0, 80.0)
COMPLEX_ITEMS = 300
COMPLEX_BOXES = ((-8.0, 8.0, -5.0, 30.0), (-8.0, 8.0, -30.0, 5.0))


def answer_set() -> dict:
    """The fixed inputs, drawn once here and sent to both trees."""
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests"), str(ROOT / "perfbench")]
    import numpy as np
    from workloads import DET_BOX, coefficient_params
    from invspec.workbench import DEFAULT_BOX

    default = (DEFAULT_BOX.re_min, DEFAULT_BOX.re_max, DEFAULT_BOX.im_min, DEFAULT_BOX.im_max)
    searches = []
    for seed in SEEDS:
        for index in range(ITEMS):
            p = coefficient_params(seed, index)
            for name, box, nearest in (
                ("det_box", DET_BOX, None),
                ("default_nearest", default, p["degree"] + 1),
                ("wide_box", WIDE_BOX, None),
            ):
                searches.append({"id": f"seed {seed} item {index} {name}", "coeffs": p["coeffs"],
                                 "box": list(box), "nearest": nearest})
    # complex coefficients travel as [re, im] pairs
    rng = np.random.default_rng(20261021)
    complex_searches = []
    for index in range(COMPLEX_ITEMS):
        coeffs = rng.uniform(-2.0, 2.0, (int(rng.integers(0, 4)) + 1, 2)).tolist()
        for box in (DET_BOX, *COMPLEX_BOXES):
            complex_searches.append({"id": f"item {index} box {','.join(f'{v:g}' for v in box)}",
                                     "coeffs": coeffs, "box": list(box), "nearest": None})
    files = []
    for index in range(FILE_ITEMS):
        p = coefficient_params(1, index)
        files.append({
            "id": f"seed 1 item {index}",
            "coeffs": ",".join(repr(c) for c in p["coeffs"]),
            "box": ",".join(f"{v:g}" for v in DET_BOX),
            "degree": p["degree"],
        })
    return {"det_roots": searches, "complex_roots": complex_searches, "files": files}


def _mask(doc):
    if isinstance(doc, dict):
        return {k: "masked" if k == "wall_time_ms" else _mask(v) for k, v in doc.items()}
    if isinstance(doc, list):
        return [_mask(v) for v in doc]
    return doc


def _read(path: str):
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    except FileNotFoundError:
        return None
    try:
        return _mask(json.loads(text))
    except ValueError:
        return text


def answer(inputs: dict) -> dict:
    """Runs in the subprocess, with one tree's `src/` first on the path."""
    from invspec import BoundaryPolynomialProblem, Polynomial, SearchBox, char_det, cli
    from invspec import find_det_eigenvalues

    attempts = []
    collect = getattr(char_det, "_collect_roots", None)
    if collect is not None:
        def counted(*args):
            attempts[-1] += 1
            return collect(*args)

        char_det._collect_roots = counted

    groups, retried = {"det_roots": {}, "complex_roots": {}}, 0
    for group, searches in groups.items():
        for s in inputs[group]:
            attempts.append(0)
            coeffs = tuple(complex(*c) if isinstance(c, list) else c for c in s["coeffs"])
            prob = BoundaryPolynomialProblem(Polynomial(coeffs))
            try:
                spec = find_det_eigenvalues(prob, SearchBox(*s["box"]), 80, nearest=s["nearest"])
                searches[s["id"]] = [[z.real, z.imag, m] for z, m in spec]
            except Exception as err:  # an error is an answer too
                searches[s["id"]] = f"{type(err).__name__}: {err}"
            retried += attempts[-1] > 1

    files = {}
    with tempfile.TemporaryDirectory() as work:
        roots, rec = os.path.join(work, "roots.json"), os.path.join(work, "rec.json")
        for f in inputs["files"]:
            runs = []
            for argv in (
                ["det-roots", "--coeffs", f["coeffs"], "--box", f["box"], "--out", roots],
                ["reconstruct", "--degree", str(f["degree"]), "--eigs", roots, "--out", rec],
            ):
                out, err = io.StringIO(), io.StringIO()
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                    code = cli.main(argv)
                runs.append([code, out.getvalue(), err.getvalue()])
            files[f["id"]] = {"runs": runs, "roots": _read(roots), "rec": _read(rec)}
            for path in (roots, rec):
                with contextlib.suppress(FileNotFoundError):
                    os.remove(path)
    return {**groups, "det_files": files, "retried": retried if collect is not None else None}


def _move(a, b) -> float:
    """Largest relative move between two answers of the same shape; inf where they differ otherwise."""
    if isinstance(a, bool) or isinstance(b, bool) or not (
            isinstance(a, (int, float)) and isinstance(b, (int, float))):
        if isinstance(a, dict) and isinstance(b, dict) and a.keys() == b.keys():
            return max((_move(a[k], b[k]) for k in a), default=0.0)
        if isinstance(a, list) and isinstance(b, list) and len(a) == len(b):
            return max((_move(x, y) for x, y in zip(a, b)), default=0.0)
        return 0.0 if a == b else math.inf
    if a == b:
        return 0.0
    return abs(a - b) / max(1.0, abs(b))


def run_tree(src: Path, inputs: dict) -> dict:
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--worker", str(src)],
        input=json.dumps(inputs), capture_output=True, text=True, check=False,
    )
    if proc.returncode != 0:
        sys.exit(f"the tree at {src} failed:\n{proc.stderr}")
    return json.loads(proc.stdout)


def compare(this: dict, rev: dict, tol: float) -> bool:
    ok = True
    for group in ("det_roots", "det_files", "complex_roots"):
        mine, theirs = this[group], rev[group]
        moves = {key: _move(mine[key], theirs[key]) for key in theirs}
        same = sum(m == 0.0 and mine[k] == theirs[k] for k, m in moves.items())
        worst = max(moves.values(), default=0.0)
        print(f"{group}: {same} of {len(moves)} bit-identical, largest move {worst:.3g}")
        moved = [k for k, m in moves.items() if m > 0.0 or mine[k] != theirs[k]]
        for key in moved[:20]:
            print(f"  moved {moves[key]:.3g}: {key}")
        if len(moved) > 20:
            print(f"  ... and {len(moved) - 20} more")
        ok &= worst <= tol
    return ok


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--against", metavar="REV", help="the git revision to compare with")
    ap.add_argument("--tol", type=float, default=0.0,
                    help="largest move allowed in any group (default 0)")
    ap.add_argument("--worker", metavar="SRC", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.worker:
        sys.path.insert(0, args.worker)
        json.dump(answer(json.load(sys.stdin)), sys.stdout)
        return 0
    if not args.against:
        ap.error("--against REV is required")
    inputs = answer_set()
    with tempfile.TemporaryDirectory() as tmp:
        archive = subprocess.run(["git", "-C", str(ROOT), "archive", args.against, "src"],
                                 capture_output=True, check=False)
        if archive.returncode != 0:
            sys.exit(archive.stderr.decode(errors="replace").strip())
        subprocess.run(["tar", "-x", "-C", tmp], input=archive.stdout, check=True)
        rev = run_tree(Path(tmp) / "src", inputs)
    this = run_tree(ROOT / "src", inputs)
    print(f"searches that needed a retry: {args.against} {rev['retried']}, "
          f"this tree {this['retried']}")
    return 0 if compare(this, rev, args.tol) else 1


if __name__ == "__main__":
    sys.exit(main())
