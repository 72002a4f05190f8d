import json
import math

import pytest

from ghdist.cli import build_parser, main
from ghdist.serialization import round12

COARSE_FLAGS = ["--n-circle", "240", "--m-grid", "240",
                "--pl-step", str(math.pi / 240)]


def run(argv):
    """Invoke the CLI in-process, folding argparse's SystemExit into a code."""
    try:
        return main(argv)
    except SystemExit as exc:
        return exc.code


def make_segment(tmp_path, name, lam, m):
    out = tmp_path / name
    assert run(["make-space", "--kind", "segment", "--lambda", str(lam),
                "--m-grid", str(m), "--out", str(out)]) == 0
    return out


def make_circle(tmp_path, name, n):
    out = tmp_path / name
    assert run(["make-space", "--kind", "circle", "--n-circle", str(n),
                "--out", str(out)]) == 0
    return out


class TestMakeSpace:
    def test_segment_to_stdout(self, capsys):
        assert run(["make-space", "--kind", "segment", "--lambda", "1.0",
                    "--m-grid", "3"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert len(doc["labels"]) == 3
        assert doc["dist"][0][2] == 1.0

    def test_deterministic_output(self, tmp_path):
        a = make_circle(tmp_path, "a.json", 12)
        b = make_circle(tmp_path, "b.json", 12)
        assert a.read_bytes() == b.read_bytes()

    def test_csv_by_extension(self, tmp_path):
        out = tmp_path / "c.csv"
        assert run(["make-space", "--kind", "circle", "--n-circle", "6",
                    "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert len(lines) == 7  # label row plus six matrix rows

    def test_whisker_space(self, tmp_path, capsys):
        assert run(["make-space", "--kind", "whisker", "--lambda", "7.0",
                    "--n-circle", "60"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert len(doc["labels"]) > 60

    @pytest.mark.parametrize("value", ["nan", "inf", "1e308"])
    def test_whisker_length_out_of_range_is_an_input_error(self, capsys, value):
        assert run(["make-space", "--kind", "whisker", "--lambda", value]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert "Traceback" not in err

    def test_graph_kind(self, tmp_path, capsys):
        graph = tmp_path / "g.json"
        graph.write_text(json.dumps(
            {"vertices": 3, "edges": [[0, 1, 1.0], [1, 2, 1.0]]}
        ))
        assert run(["make-space", "--kind", "graph", "--graph", str(graph)]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["dist"][0][2] == 2.0

    def test_segment_requires_lambda(self, capsys):
        assert run(["make-space", "--kind", "segment"]) == 1
        assert "error" in capsys.readouterr().err


class TestExactAndDistortion:
    def test_identical_spaces_give_zero(self, tmp_path, capsys):
        seg = make_segment(tmp_path, "s.json", 2.0, 4)
        capsys.readouterr()
        assert run(["exact", "--x", str(seg), "--y", str(seg)]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["value"] == 0.0
        assert doc["status"] == "optimal"

    def test_distortion_replays_the_witness(self, tmp_path, capsys):
        seg = make_segment(tmp_path, "s.json", 2.0, 4)
        circ = make_circle(tmp_path, "c.json", 4)
        capsys.readouterr()
        assert run(["exact", "--x", str(seg), "--y", str(circ)]) == 0
        doc = json.loads(capsys.readouterr().out)
        pairs = tmp_path / "pairs.json"
        pairs.write_text(json.dumps({"pairs": doc["pairs"]}))
        assert run(["distortion", "--x", str(seg), "--y", str(circ),
                    "--pairs", str(pairs)]) == 0
        replay = json.loads(capsys.readouterr().out)
        assert replay["distortion"] == round12(2 * doc["value"])

    def test_pl_distortion(self, tmp_path, capsys):
        pl = tmp_path / "pl.json"
        pl.write_text(json.dumps({
            "lambda": round12(2 * math.pi),
            "segments": [[[-math.pi, -math.pi], [math.pi, math.pi]]],
        }))
        assert run(["distortion", "--pl", str(pl)]) == 0
        doc = json.loads(capsys.readouterr().out)
        # identity embedding of a cut circle: the two cut ends are 2*pi apart
        assert doc == {"distortion": round12(2 * math.pi)}

    def test_pl_relation_with_a_coverage_gap_is_an_input_error(self, tmp_path, capsys):
        pl = tmp_path / "pl.json"
        pl.write_text(json.dumps({
            "lambda": round12(2 * math.pi),
            "segments": [[[0.0, 0.0], [math.pi, math.pi / 2]]],
        }))
        assert run(["distortion", "--pl", str(pl)]) == 1
        assert capsys.readouterr().err.startswith("error:")

    def test_missing_inputs_rejected(self, tmp_path, capsys):
        seg = make_segment(tmp_path, "s.json", 1.0, 3)
        capsys.readouterr()
        assert run(["distortion", "--x", str(seg)]) == 1


class TestBounds:
    def test_emits_parseable_json_lines(self, tmp_path, capsys):
        seg = make_segment(tmp_path, "s.json", 1.0, 5)
        circ = make_circle(tmp_path, "c.json", 6)
        capsys.readouterr()
        assert run(["bounds", "--x", str(circ), "--y", str(seg)]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines
        records = [json.loads(line) for line in lines]
        kinds = {r["kind"] for r in records}
        assert kinds <= {"lower", "exact", "upper"}
        assert "upper" in kinds

    def test_auto_involution_adds_the_route(self, tmp_path, capsys):
        seg = make_segment(tmp_path, "s.json", 1.0, 5)
        circ = make_circle(tmp_path, "c.json", 6)
        capsys.readouterr()
        assert run(["bounds", "--x", str(circ), "--y", str(seg),
                    "--involution", "auto"]) == 0
        records = [json.loads(line)
                   for line in capsys.readouterr().out.splitlines()]
        assert any(r["source"].startswith("diametral-involution")
                   for r in records)

    def test_stale_witness_exits_two(self, tmp_path, capsys):
        seg = make_segment(tmp_path, "s.json", 1.0, 5)
        circ = make_circle(tmp_path, "c.json", 6)
        stale = tmp_path / "w.json"
        stale.write_text(json.dumps(
            {"values": [0.0] * 5, "objective": 0.0}
        ))
        capsys.readouterr()
        assert run(["bounds", "--x", str(circ), "--y", str(seg),
                    "--involution", "auto", "--c-witness", str(stale)]) == 2
        assert "verification failed" in capsys.readouterr().err


class TestCx:
    def test_exact_square_grid(self, tmp_path, capsys):
        circ = make_circle(tmp_path, "c4.json", 4)
        witness = tmp_path / "w.json"
        capsys.readouterr()
        assert run(["cx", "--x", str(circ), "--exact",
                    "--out", str(witness)]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["status"] == "exact"
        # the file holds 12-digit distances, so allow that much noise
        assert abs(doc["value"] - math.pi / 2) <= 1e-9
        saved = json.loads(witness.read_text())
        assert saved["objective"] == doc["value"]

    def test_heuristic_is_deterministic(self, tmp_path, capsys):
        circ = make_circle(tmp_path, "c.json", 8)
        capsys.readouterr()
        assert run(["cx", "--x", str(circ), "--restarts", "8",
                    "--seed", "4"]) == 0
        first = capsys.readouterr().out
        assert run(["cx", "--x", str(circ), "--restarts", "8",
                    "--seed", "4"]) == 0
        assert capsys.readouterr().out == first


class TestCertify:
    def test_plateau_length(self, tmp_path, capsys):
        cert_file = tmp_path / "cert.json"
        assert run(["certify", "--lambda", "3.1416", *COARSE_FLAGS,
                    "--out", str(cert_file)]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["regime"] == "B1"
        assert doc["formula"] == round12(math.pi / 3)
        assert abs(doc["half"] - math.pi / 3) <= doc["slack"]
        saved = json.loads(cert_file.read_text())
        assert saved["half"] == doc["half"]

    def test_deterministic_bytes(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        for out in (a, b):
            assert run(["certify", "--lambda", "1.2", *COARSE_FLAGS,
                        "--out", str(out)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_negative_lambda_is_an_input_error(self, capsys):
        assert run(["certify", "--lambda", "-1.0"]) == 1
        assert "error" in capsys.readouterr().err

    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_non_finite_lambda_is_an_input_error(self, capsys, value):
        assert run(["certify", "--lambda", value]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert "Traceback" not in err

    @pytest.mark.parametrize("flags", [["--n-circle", "7"], ["--m-grid", "0"],
                                       ["--pl-step", "-1"]])
    def test_bad_grid_is_an_input_error(self, capsys, flags):
        assert run(["certify", "--lambda", "1.0", *flags]) == 1
        assert capsys.readouterr().err.startswith("error:")


class TestSweep:
    def test_csv_to_file(self, tmp_path):
        out = tmp_path / "sweep.csv"
        assert run(["sweep", "--from", "1.0", "--to", "7.0", "--steps", "3",
                    *COARSE_FLAGS, "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "lambda,formula,lower,upper,regime,slack"
        assert len(lines) == 4
        assert lines[1].split(",")[4] == "A"
        assert lines[3].split(",")[4] == "C2"

    def test_backwards_range_rejected(self, capsys):
        assert run(["sweep", "--from", "2.0", "--to", "1.0",
                    "--steps", "3"]) == 1

    def test_non_finite_end_is_an_input_error(self, capsys):
        assert run(["sweep", "--from", "0", "--to", "nan", "--steps", "3"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert "Traceback" not in err


class TestExitCodes:
    def test_unknown_flag_is_one_not_two(self):
        assert run(["certify", "--lambda", "1.0", "--bogus"]) == 1

    def test_missing_subcommand(self):
        assert run([]) == 1

    def test_missing_file(self, capsys):
        assert run(["exact", "--x", "/nonexistent.json",
                    "--y", "/nonexistent.json"]) == 1
        assert "error" in capsys.readouterr().err


def test_verify_all_is_wired():
    # the full run is exercised by the acceptance suite; here only the wiring
    parser = build_parser()
    actions = [a for a in parser._subparsers._group_actions][0]
    assert "verify-all" in actions.choices
