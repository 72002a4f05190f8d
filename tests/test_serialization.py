import json
import math

import pytest

from ghdist import (
    BoundRecord,
    Correspondence,
    GridParams,
    MetricGraph,
    certificate,
    circle_space,
    full_product,
    nonlinearity_degree_upper,
    segment_space,
    sweep,
)
from ghdist.correspondences import PLCorrespondence
from ghdist.errors import InputError
from ghdist.serialization import (
    SWEEP_HEADER,
    bound_record_to_dict,
    certificate_to_json,
    correspondence_pairs_from_json,
    correspondence_to_json,
    fmt12,
    graph_from_json,
    graph_to_json,
    load_space,
    pl_from_json,
    pl_to_json,
    round12,
    space_from_csv,
    space_from_json,
    space_to_csv,
    space_to_json,
    sweep_to_csv,
    witness_from_json,
    witness_to_json,
)
from ghdist.testing import random_euclidean_space

COARSE = GridParams(n_circle=180, m_grid=180, pl_step=math.pi / 180)


class TestRounding:
    def test_round12_trims_noise(self):
        assert round12(math.pi) == 3.14159265359
        assert round12(1.0) == 1.0
        assert round12(0.1 + 0.2) == 0.3

    def test_fmt12_is_stable_under_reparse(self):
        for v in (math.pi, 1 / 3, 2.0, 1e-7, 123456789.123456789):
            assert fmt12(float(fmt12(v))) == fmt12(v)


class TestSpaceRoundTrips:
    def test_json_is_byte_idempotent(self):
        space = random_euclidean_space(5, seed=7)
        once = space_to_json(space)
        again = space_to_json(space_from_json(once))
        assert once == again

    def test_csv_is_byte_idempotent(self):
        space = random_euclidean_space(4, seed=8)
        once = space_to_csv(space)
        again = space_to_csv(space_from_csv(once))
        assert once == again

    def test_labels_survive(self):
        space = segment_space(1.0, 3)
        loaded = space_from_json(space_to_json(space))
        assert loaded.labels == space.labels

    def test_malformed_json_reports_input_error(self):
        with pytest.raises(InputError):
            space_from_json("{not json")
        with pytest.raises(InputError):
            space_from_json('{"labels": ["a"]}')

    def test_malformed_csv_reports_input_error(self):
        with pytest.raises(InputError):
            space_from_csv("")
        with pytest.raises(InputError):
            space_from_csv("a,b\n0,x\nx,0\n")
        with pytest.raises(InputError):
            space_from_csv("a,b\n0,1\n")

    def test_load_space_dispatches_on_extension(self, tmp_path):
        space = random_euclidean_space(3, seed=9)
        j = tmp_path / "s.json"
        c = tmp_path / "s.csv"
        j.write_text(space_to_json(space))
        c.write_text(space_to_csv(space))
        assert space_to_json(load_space(j)) == space_to_json(space)
        assert space_to_csv(load_space(c)) == space_to_csv(space)

    def test_load_space_missing_file(self, tmp_path):
        with pytest.raises(InputError):
            load_space(tmp_path / "absent.json")


class TestGraphRoundTrip:
    def test_byte_idempotent(self):
        graph = MetricGraph(4, ((0, 1, 1.0), (1, 2, 2.0), (2, 3, 0.5), (3, 0, 1.25)))
        once = graph_to_json(graph)
        again = graph_to_json(graph_from_json(once))
        assert once == again

    def test_malformed(self):
        with pytest.raises(InputError):
            graph_from_json('{"vertices": 3}')


class TestRelationRoundTrips:
    def test_correspondence_pairs(self):
        corr = full_product(segment_space(1.0, 2), segment_space(2.0, 3))
        once = correspondence_to_json(corr)
        pairs = correspondence_pairs_from_json(once)
        rebuilt = Correspondence(corr.left, corr.right, pairs)
        assert correspondence_to_json(rebuilt) == once

    def test_correspondence_malformed(self):
        with pytest.raises(InputError):
            correspondence_pairs_from_json('{"pairs": [[0]]}')

    def test_pl_byte_idempotent(self):
        pl = PLCorrespondence(2 * math.pi, [((-math.pi, -math.pi), (math.pi, math.pi))])
        once = pl_to_json(pl)
        again = pl_to_json(pl_from_json(once))
        assert once == again

    def test_pl_malformed(self):
        with pytest.raises(InputError):
            pl_from_json('{"lambda": 1.0}')


class TestWitnessRoundTrip:
    def test_byte_idempotent(self):
        _, wit = nonlinearity_degree_upper(circle_space(5), restarts=8, seed=1)
        once = witness_to_json(wit)
        again = witness_to_json(witness_from_json(once))
        assert once == again

    def test_malformed(self):
        with pytest.raises(InputError):
            witness_from_json('{"values": [0, 1]}')


class TestBoundRecordDict:
    def test_fields_and_rounding(self):
        rec = BoundRecord("lower", 0.123456789012345, "unit-test",
                          flags=("vacuous",), slack=0.25)
        doc = bound_record_to_dict(rec)
        assert doc == {
            "kind": "lower",
            "value": 0.123456789012,
            "source": "unit-test",
            "flags": ["vacuous"],
            "slack": 0.25,
            "has_certificate": False,
        }


class TestCertificateJson:
    def test_pl_relation_schema(self):
        cert = certificate(4.8, COARSE)
        doc = json.loads(certificate_to_json(cert))
        assert doc["relation"]["type"] == "piecewise-linear"
        assert doc["half"] == round12(cert.half)
        assert doc["regime"] == "B2"

    def test_pairs_relation_schema(self):
        # only lam = 0 (and lengths below grid resolution) certify with pairs
        cert = certificate(0.0, COARSE)
        doc = json.loads(certificate_to_json(cert))
        assert doc["relation"]["type"] == "pairs"
        assert all(len(p) == 2 for p in doc["relation"]["pairs"])

    def test_deterministic_output(self):
        a = certificate_to_json(certificate(3.0, COARSE))
        b = certificate_to_json(certificate(3.0, COARSE))
        assert a == b


class TestSweepCsv:
    def test_header_is_frozen(self):
        assert SWEEP_HEADER == ["lambda", "formula", "lower", "upper",
                                "regime", "slack"]
        text = sweep_to_csv(sweep(1.0, 2.0, 2, COARSE))
        assert text.splitlines()[0] == "lambda,formula,lower,upper,regime,slack"

    def test_rows_match_the_reports(self):
        reports = sweep(0.5, 6.5, 4, COARSE)
        lines = sweep_to_csv(reports).splitlines()
        assert len(lines) == 1 + len(reports)
        for rep, line in zip(reports, lines[1:]):
            cells = line.split(",")
            assert cells[0] == fmt12(rep.lam)
            assert cells[1] == fmt12(rep.formula_value)
            assert cells[4] == rep.regime
