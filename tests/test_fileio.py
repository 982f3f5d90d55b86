import json

import pytest

from invspec import (
    ConstantPotential,
    InputError,
    Polynomial,
    Potential,
    ReconstructionResult,
    RoundTripReport,
    SchemaError,
    Spectrum,
)
from invspec.fileio import (
    emit_potential,
    emit_reconstruction,
    emit_report,
    emit_spectrum,
    parse_potential,
    parse_report,
    parse_spectrum,
    reports_to_csv,
)
from invspec.core import CLUSTER_RADIUS
from conftest import seeded_potential_mix
from oracles import union_find_clusters


def seeded_spectrum(rng):
    n = int(rng.integers(1, 7))
    pts = [complex(a, b) for a, b in rng.uniform(-9, 9, (n, 2))]
    mults = [int(m) for m in rng.integers(1, 3, n)]
    return Spectrum(tuple(union_find_clusters(pts, mults, CLUSTER_RADIUS)))


def seeded_report(rng):
    s = int(rng.integers(0, 4))
    true_coeffs = Polynomial(tuple(float(c) for c in rng.uniform(-2, 2, s + 1)))
    recovered = Polynomial(
        tuple(c + complex(*rng.uniform(-1e-9, 1e-9, 2)) for c in true_coeffs.coeffs)
    )
    from invspec import poly_max_abs_diff

    nodes = tuple(complex(a, b) for a, b in rng.uniform(-8, 8, (s + 1, 2)))
    return RoundTripReport(
        true_coeffs=true_coeffs,
        recovered=recovered,
        max_coeff_error=poly_max_abs_diff(true_coeffs, recovered),
        condition=float(rng.uniform(1, 1e4)),
        nodes_used=nodes,
        wall_time_ms=float(rng.uniform(0.1, 100.0)),
    )


def test_potential_documents_round_trip(rng):
    for _ in range(20):
        q = seeded_potential_mix(rng)
        text = emit_potential(q)
        back = parse_potential(text)
        assert back == q
        assert emit_potential(back) == text


def test_spectrum_documents_round_trip(rng):
    for _ in range(20):
        s = seeded_spectrum(rng)
        text = emit_spectrum(s)
        back = parse_spectrum(text)
        assert back == s
        assert emit_spectrum(back) == text


def test_report_documents_round_trip(rng):
    for _ in range(20):
        r = seeded_report(rng)
        text = emit_report(r)
        back = parse_report(text)
        assert back == r
        assert emit_report(back) == text


def test_report_with_inconsistent_error_rejected(rng):
    doc = json.loads(emit_report(seeded_report(rng)))
    doc["max_coeff_error"] += 1.0
    with pytest.raises(SchemaError, match=r"^\$\.max_coeff_error: ") as info:
        parse_report(json.dumps(doc))
    assert info.value.field == "$.max_coeff_error"


def test_neumann_spectrum_omits_imaginary_part():
    text = emit_spectrum(Spectrum(((2.5 + 0j, 1),)))
    assert '"im"' not in text
    assert parse_spectrum(text).values == (2.5 + 0j,)


def test_empty_spectrum_rejected():
    with pytest.raises(SchemaError, match="entries"):
        parse_spectrum('{"entries": []}')


def test_unsorted_grid_names_offending_index():
    doc = '{"kind": "grid", "nodes": [0.0, 0.7, 0.4, 1.0], "values": [1, 2, 3, 4]}'
    with pytest.raises(SchemaError, match=r"nodes\[2\]"):
        parse_potential(doc)


def test_malformed_documents():
    with pytest.raises(SchemaError, match="kind"):
        parse_potential('{"c": 1.0}')
    with pytest.raises(SchemaError, match="not valid JSON"):
        parse_potential("{nope")
    with pytest.raises(SchemaError, match="frequency"):
        parse_potential('{"kind": "cosine", "amplitude": 1.0, "frequency": 1.5}')
    with pytest.raises(SchemaError, match="multiplicity"):
        parse_spectrum('{"entries": [{"re": 1.0, "multiplicity": 0}]}')
    with pytest.raises(SchemaError, match="re"):
        parse_spectrum('{"entries": [{"multiplicity": 1}]}')
    with pytest.raises(SchemaError, match="true_coeffs"):
        parse_report('{"recovered": [1.0]}')
    with pytest.raises(SchemaError, match="finite"):
        parse_potential('{"kind": "constant", "c": Infinity}')


def test_reconstruction_document_gives_every_node_re_and_im():
    # a reader may take z["im"] of any node without a default, even a real one
    nodes = (-0.7331889155010706 + 0j, 0.6936165924948101 - 6.284327472275979j)
    coeffs = (1.0 + 0j, 0.1 + 0.2j, -1 / 3 + 2.3869795029440866e-14j)
    rec = ReconstructionResult(Polynomial(coeffs), (2.220446049250313e-16, 1e-17), 592.35)
    doc = json.loads(emit_reconstruction(rec, nodes))
    assert doc["nodes"] == [{"re": z.real, "im": z.imag} for z in nodes]
    assert doc["recovered"][0] == 1.0
    recovered = tuple(complex(c["re"], c["im"]) if isinstance(c, dict) else complex(c)
                      for c in doc["recovered"])
    assert recovered == coeffs
    assert doc["condition"] == rec.vandermonde_condition
    assert tuple(doc["node_residuals"]) == rec.node_residuals


def test_round_trip_is_bit_exact_for_doubles():
    q = ConstantPotential(0.1 + 0.2)  # a value with no short decimal form
    assert parse_potential(emit_potential(q)).value == q.value


def test_csv_export_has_header_and_rows(rng):
    reports = [seeded_report(rng) for _ in range(3)]
    text = reports_to_csv(reports)
    lines = text.strip().splitlines()
    assert lines[0].startswith("trial,true_coeffs,recovered,max_coeff_error,condition")
    assert len(lines) == 4
    assert lines[1].split(",")[0] == "0"


@pytest.mark.parametrize(
    "parse,text,field",
    [
        (parse_potential, '{"kind": "constant", "c": "1"}', "$.c"),
        (parse_potential, '{"kind": "grid", "nodes": 3, "values": [1, 2]}', "$.nodes"),
        (parse_potential, "[1, 2]", "$"),
        (parse_potential, '{"kind": "spline"}', "$.kind"),
        (parse_spectrum, "[]", "$"),
        (parse_spectrum, '{"entries": {}}', "$.entries"),
        (parse_spectrum, '{"entries": [1.0]}', "$.entries[0]"),
        (parse_report, '"report"', "$"),
        (parse_report, '{"true_coeffs": [], "recovered": [1.0]}', "$.true_coeffs"),
    ],
)
def test_schema_checks_name_the_field(parse, text, field):
    with pytest.raises(SchemaError) as err:
        parse(text)
    assert err.value.field == field


def test_unknown_potential_kind_has_no_file_form():
    class Spline(Potential):
        kind = "spline"

    with pytest.raises(InputError, match="spline"):
        emit_potential(Spline())
