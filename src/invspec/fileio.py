"""Parsing and emission of potential, spectrum, report and reconstruction documents.

Documents are JSON with normative field names.  Reals are emitted with
shortest round-trip representation (at most 17 significant digits), so
parse-then-emit is the identity on canonical documents and emit-then-parse
recovers every value bit-exactly.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

from .core import Polynomial, RoundTripReport, Spectrum
from .errors import InputError, SchemaError
from .potentials import (
    ConstantPotential,
    CosinePotential,
    GridPotential,
    PolyPotential,
    Potential,
)

__all__ = [
    "dump_json",
    "parse_potential",
    "emit_potential",
    "parse_spectrum",
    "emit_spectrum",
    "parse_report",
    "emit_report",
    "emit_reconstruction",
    "load_potential",
    "load_spectrum",
    "save_text",
    "reports_to_csv",
]


def _load_json(text: str):
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise SchemaError("$", f"not valid JSON (line {exc.lineno}, col {exc.colno})") from exc


def dump_json(doc) -> str:
    """The canonical text of a document: indented, keys sorted, newline-ended."""
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def _real(value, path: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise SchemaError(path, f"expected a number, got {value!r}")
    if not math.isfinite(value):
        raise SchemaError(path, f"expected a finite number, got {value!r}")
    return float(value)


def _require(doc: dict, field: str, path: str):
    if field not in doc:
        raise SchemaError(f"{path}.{field}", "missing required field")
    return doc[field]


def _real_list(value, path: str) -> tuple[float, ...]:
    if not isinstance(value, list):
        raise SchemaError(path, f"expected a list, got {type(value).__name__}")
    return tuple(_real(v, f"{path}[{i}]") for i, v in enumerate(value))


def _complex_in(value, path: str) -> complex:
    if isinstance(value, dict):
        re = _real(_require(value, "re", path), f"{path}.re")
        im = _real(value.get("im", 0.0), f"{path}.im")
        return complex(re, im)
    return complex(_real(value, path))


def _complex_list(doc: dict, field: str, nonempty: bool = True) -> tuple[complex, ...]:
    value = _require(doc, field, "$")
    if not isinstance(value, list) or (nonempty and not value):
        raise SchemaError(f"$.{field}", f"expected a {'nonempty ' if nonempty else ''}list")
    return tuple(_complex_in(v, f"$.{field}[{i}]") for i, v in enumerate(value))


def _complex_out(z: complex):
    """A complex number in document form: a bare real, or {"re", "im"} off the real axis."""
    if z.imag == 0.0:
        return z.real
    return {"re": z.real, "im": z.imag}


# -- potential documents ------------------------------------------------

def parse_potential(text: str) -> Potential:
    doc = _load_json(text)
    if not isinstance(doc, dict):
        raise SchemaError("$", "potential document must be an object")
    kind = _require(doc, "kind", "$")
    try:
        if kind == "constant":
            return ConstantPotential(_real(_require(doc, "c", "$"), "$.c"))
        if kind == "grid":
            nodes = _real_list(_require(doc, "nodes", "$"), "$.nodes")
            values = _real_list(_require(doc, "values", "$"), "$.values")
            return GridPotential(nodes, values)
        if kind == "cosine":
            amp = _real(_require(doc, "amplitude", "$"), "$.amplitude")
            freq = _require(doc, "frequency", "$")
            if isinstance(freq, bool) or not isinstance(freq, int):
                raise SchemaError("$.frequency", f"expected an integer, got {freq!r}")
            return CosinePotential(amp, freq)
        if kind == "poly_in_x":
            return PolyPotential(_real_list(_require(doc, "coeffs", "$"), "$.coeffs"))
    except SchemaError:
        raise
    except InputError as exc:
        raise SchemaError("$", str(exc)) from exc
    raise SchemaError("$.kind", f"unknown potential kind {kind!r}")


def emit_potential(q: Potential) -> str:
    if isinstance(q, ConstantPotential):
        return dump_json({"kind": "constant", "c": q.value})
    if isinstance(q, GridPotential):
        return dump_json({"kind": "grid", "nodes": list(q.nodes), "values": list(q.values)})
    if isinstance(q, CosinePotential):
        return dump_json({"kind": "cosine", "amplitude": q.amplitude, "frequency": q.frequency})
    if isinstance(q, PolyPotential):
        return dump_json({"kind": "poly_in_x", "coeffs": list(q.coeffs)})
    raise InputError(f"potential kind {q.kind!r} has no file representation")


# -- spectrum documents -------------------------------------------------

def parse_spectrum(text: str) -> Spectrum:
    doc = _load_json(text)
    if not isinstance(doc, dict):
        raise SchemaError("$", "spectrum document must be an object")
    entries = _require(doc, "entries", "$")
    if not isinstance(entries, list):
        raise SchemaError("$.entries", "expected a list")
    if not entries:
        raise SchemaError("$.entries", "a spectrum needs at least one entry")
    parsed = []
    for i, entry in enumerate(entries):
        path = f"$.entries[{i}]"
        if not isinstance(entry, dict):
            raise SchemaError(path, "expected an object")
        z = _complex_in(entry, path)
        mult = _require(entry, "multiplicity", path)
        if isinstance(mult, bool) or not isinstance(mult, int) or mult < 1:
            raise SchemaError(f"{path}.multiplicity", f"expected a positive integer, got {mult!r}")
        parsed.append((z, mult))
    try:
        return Spectrum(tuple(parsed))
    except InputError as exc:
        raise SchemaError("$.entries", str(exc)) from exc


def emit_spectrum(spectrum: Spectrum) -> str:
    entries = []
    for z, m in spectrum:
        entry = {"re": z.real, "multiplicity": m}
        if z.imag != 0.0:
            entry["im"] = z.imag
        entries.append(entry)
    return dump_json({"entries": entries})


# -- round-trip report documents ----------------------------------------

def parse_report(text: str) -> RoundTripReport:
    doc = _load_json(text)
    if not isinstance(doc, dict):
        raise SchemaError("$", "report document must be an object")
    true_coeffs = Polynomial(_complex_list(doc, "true_coeffs"))
    recovered = Polynomial(_complex_list(doc, "recovered"))
    nodes = _complex_list(doc, "nodes", nonempty=False)
    max_coeff_error = _real(_require(doc, "max_coeff_error", "$"), "$.max_coeff_error")
    condition = _real(_require(doc, "condition", "$"), "$.condition")
    wall_time_ms = _real(_require(doc, "wall_time_ms", "$"), "$.wall_time_ms")
    try:
        return RoundTripReport(
            true_coeffs, recovered, max_coeff_error, condition, nodes, wall_time_ms
        )
    except InputError as exc:
        raise SchemaError("$.max_coeff_error", str(exc)) from exc


def emit_report(report: RoundTripReport) -> str:
    return dump_json(
        {
            "true_coeffs": [_complex_out(c) for c in report.true_coeffs.coeffs],
            "recovered": [_complex_out(c) for c in report.recovered.coeffs],
            "max_coeff_error": report.max_coeff_error,
            "condition": report.condition,
            "nodes": [_complex_out(z) for z in report.nodes_used],
            "wall_time_ms": report.wall_time_ms,
        }
    )


# -- reconstruction documents -------------------------------------------

def emit_reconstruction(rec, nodes) -> str:
    """A ReconstructionResult and its nodes; every node keeps its im, even 0."""
    return dump_json(
        {
            "recovered": [_complex_out(c) for c in rec.coefficients.coeffs],
            "condition": rec.vandermonde_condition,
            "node_residuals": list(rec.node_residuals),
            "nodes": [{"re": z.real, "im": z.imag} for z in nodes],
        }
    )


# -- path helpers and CSV -----------------------------------------------

def _read_text(path) -> str:
    try:
        return Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise InputError(f"{path}: not UTF-8 text (byte {exc.start})") from exc


def load_potential(path) -> Potential:
    return parse_potential(_read_text(path))


def load_spectrum(path) -> Spectrum:
    return parse_spectrum(_read_text(path))


def save_text(path, text: str) -> None:
    Path(path).write_text(text, encoding="utf-8")


def _complex_cell(values) -> str:
    return ";".join(repr(complex(z)) for z in values)


def reports_to_csv(reports) -> str:
    """One row per trial, mirroring the report fields.  Header row included."""
    import csv
    import io

    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(
        ["trial", "true_coeffs", "recovered", "max_coeff_error", "condition",
         "nodes", "wall_time_ms"]
    )
    for i, report in enumerate(reports):
        writer.writerow(
            [
                i,
                _complex_cell(report.true_coeffs.coeffs),
                _complex_cell(report.recovered.coeffs),
                repr(report.max_coeff_error),
                repr(report.condition),
                _complex_cell(report.nodes_used),
                repr(report.wall_time_ms),
            ]
        )
    return buf.getvalue()
