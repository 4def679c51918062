import csv
import inspect
import itertools
import json
import logging
import stat
from pathlib import Path

import numpy as np
import pytest

from madcap.capacity import certify_capacity
from madcap.channel import TransitionMatrix
from madcap import cli
from madcap.cli import _fmt, _instantiate, _parse_sweep_spec, main
from madcap.errors import MadcapError


def write_channel(path, dim, decays):
    tm = TransitionMatrix(dim, decays)
    path.write_text(tm.to_json())
    return path


class TestAnalyze:
    def test_identity_d4(self, tmp_path, capsys):
        ch = write_channel(tmp_path / "ch.json", 4, {})
        assert main(["analyze", str(ch)]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["dim"] == 4
        assert report["classification"]["degradable"] == "yes"
        assert report["certificate"]["kind"] == "ExactDegradable"
        assert report["certificate"]["value"] == pytest.approx(2.0, abs=1e-6)

    def test_antidegradable_adc(self, tmp_path, capsys):
        ch = write_channel(tmp_path / "ch.json", 2, {(1, 0): 0.6})
        assert main(["analyze", str(ch)]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["certificate"]["kind"] == "Zero"
        assert report["classification"]["antidegradable"] is True

    def test_unit_capacity_example_point(self, tmp_path, capsys):
        # gamma_11 = 0.3 and gamma_33 = 0.3: both below 1/2, capacity 1 bit
        ch = write_channel(tmp_path / "ch.json", 4,
                           {(1, 0): 0.7, (3, 2): 0.35, (3, 0): 0.35})
        assert main(["analyze", str(ch)]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["certificate"]["kind"].startswith("Exact")
        assert report["certificate"]["value"] == pytest.approx(1.0, abs=1e-6)

    def test_out_file(self, tmp_path):
        ch = write_channel(tmp_path / "ch.json", 2, {(1, 0): 0.2})
        out = tmp_path / "report.json"
        assert main(["analyze", str(ch), "--out", str(out)]) == 0
        assert json.loads(out.read_text())["certificate"]["kind"] == \
            "ExactDegradable"

    def test_malformed_json_exits_2(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert main(["analyze", str(bad)]) == 2
        bad.write_bytes(b"\xff{")  # not UTF-8
        assert main(["analyze", str(bad)]) == 2

    def test_invalid_channel_exits_2(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(
            {"dim": 2, "decays": [{"from": 1, "to": 0, "p": 1.7}]}))
        assert main(["analyze", str(bad)]) == 2

    def test_missing_file_exits_2(self, tmp_path, capsys):
        assert main(["analyze", str(tmp_path / "absent.json")]) == 2
        assert capsys.readouterr().err.startswith("error: cannot read")

    @pytest.mark.parametrize("text", [
        '{"dim": 3, "decays": [{"from": 1, "to": 0, "p": NaN}, '
        '{"from": 2, "to": 0, "p": 0.2}]}',
        '{"dim": 2.7, "decays": [{"from": 1, "to": 0, "p": 0.2}]}',
        '{"dim": 3, "decays": [{"from": 2.9, "to": 0.5, "p": 0.2}]}',
        # the last entry does not silently win
        '{"dim": 2, "decays": [{"from": 1, "to": 0, "p": 0.2}, '
        '{"from": 1, "to": 0, "p": 0.7}]}',
        # JSON booleans and numeric strings are not numbers
        '{"dim": 2, "decays": [{"from": true, "to": false, "p": 0.3}]}',
        '{"dim": 2, "decays": [{"from": 1, "to": 0, "p": true}]}',
        '{"dim": "3", "decays": [{"from": "2", "to": 0, "p": "0.3"}]}',
        # beyond channel.MAX_DIM: refused before any dim² list is built
        '{"dim": 10000000000, "decays": []}',
    ], ids=["nan-p", "fractional-dim", "fractional-level", "duplicate-decay",
            "bool-levels", "bool-p", "string-numbers", "dim-beyond-the-cap"])
    def test_nan_or_fractional_channel_exits_2(self, tmp_path, capsys, text):
        bad = tmp_path / "bad.json"
        bad.write_text(text)
        assert main(["analyze", str(bad)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ")


def adc_sweep_spec(step=0.05):
    return {
        "dim": 2,
        "decays": [{"from": 1, "to": 0, "p": "g"}],
        "slots": {"g": {"min": 0.0, "max": 1.0, "step": step}},
        "analyses": ["classify"],
    }


# the 726 valid points of the 1/10 lattice in (g10, g20, g21)
D3_LATTICE = {
    "dim": 3,
    "decays": [{"from": 1, "to": 0, "p": "g10"},
               {"from": 2, "to": 0, "p": "g20"},
               {"from": 2, "to": 1, "p": "g21"}],
    "slots": {s: {"min": 0.0, "max": 1.0, "step": 0.1}
              for s in ("g10", "g20", "g21")},
    "analyses": ["capacity"],
}
D3_REFERENCE = (Path(__file__).resolve().parents[1] / "bench" / "data"
                / "sweep_d3_reference.csv")


def csv_rows(path, columns):
    with open(path, newline="") as fh:
        return [tuple(r[c] for c in columns) for r in csv.DictReader(fh)]


class TestSweep:
    def test_adc_classification_sweep(self, tmp_path):
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps(adc_sweep_spec()))
        out = tmp_path / "sweep.csv"
        assert main(["sweep", str(spec), "--out", str(out)]) == 0
        lines = out.read_text().strip().split("\n")
        assert lines[0] == ("g,degradable,antidegradable,min_eig,"
                            "cert_kind,cert_value")
        assert len(lines) == 22  # header + 21 grid points
        for line in lines[1:]:
            cells = line.split(",")
            g = float(cells[0])
            if g < 0.5:
                assert cells[1] == "1"
                assert cells[2] == "0"
            elif abs(g - 0.5) < 1e-9:
                assert cells[1] in ("1", "boundary")
                assert cells[2] == "1"
            elif g < 1.0:
                assert cells[1] == "0"
                assert cells[2] == "1"
            else:
                assert cells[1] == "unknown"

    def test_capacity_sweep_values(self, tmp_path):
        from madcap.capacity import adc_capacity
        payload = adc_sweep_spec(step=0.25)
        payload["analyses"] = ["capacity"]
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps(payload))
        out = tmp_path / "sweep.csv"
        assert main(["sweep", str(spec), "--out", str(out)]) == 0
        rows = out.read_text().strip().split("\n")[1:]
        for row in rows:
            cells = row.split(",")
            g = float(cells[0])
            if cells[5]:
                assert float(cells[5]) == pytest.approx(adc_capacity(g),
                                                        abs=1e-6)

    def test_monotonicity_sweep(self, tmp_path):
        payload = {
            "dim": 4,
            "decays": [{"from": 1, "to": 0, "p": "a"},
                       {"from": 2, "to": 0, "p": "b"},
                       {"from": 2, "to": 1, "p": 0.1}],
            "slots": {"a": {"min": 0.0, "max": 0.4, "step": 0.4},
                      "b": {"min": 0.0, "max": 0.4, "step": 0.4}},
            "analyses": ["monotonicity"],
            "monotonicity": {"from": 2, "to": 1, "epsilon": 0.05},
        }
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps(payload))
        out = tmp_path / "sweep.csv"
        assert main(["sweep", str(spec), "--out", str(out)]) == 0
        rows = {}
        for line in out.read_text().strip().split("\n")[1:]:
            cells = line.split(",")
            rows[(float(cells[0]), float(cells[1]))] = cells[5]
        # the left map is a channel (gamma_32 = 0); the right one is CP iff
        # gamma_20 >= gamma_10
        assert rows == {(0.0, 0.0): "mono|left:yes|right:yes",
                        (0.0, 0.4): "mono|left:yes|right:yes",
                        (0.4, 0.0): "mono|left:yes|right:no",
                        (0.4, 0.4): "mono|left:yes|right:yes"}

    def test_undefined_inverse_writes_error_rows(self, tmp_path):
        # gamma_33 = 0: no inverse, so neither connecting map exists
        payload = {
            "dim": 4,
            "decays": [{"from": 1, "to": 0, "p": 0.2},
                       {"from": 3, "to": 0, "p": 1.0},
                       {"from": 2, "to": 1, "p": "g"}],
            "slots": {"g": {"min": 0.0, "max": 0.4, "step": 0.2}},
            "analyses": ["monotonicity"],
            "monotonicity": {"from": 2, "to": 1, "epsilon": 0.05},
        }
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps(payload))
        out = tmp_path / "sweep.csv"
        assert main(["sweep", str(spec), "--out", str(out)]) == 0
        rows = [line.split(",")
                for line in out.read_text().strip().split("\n")[1:]]
        assert [r[0] for r in rows] == ["0", "0.2", "0.4"]
        assert all(r[4:] == ["mono|left:error|right:error", ""] for r in rows)

    def test_one_conditioning_warning_per_certificate(self, tmp_path, caplog,
                                                      capsys):
        # gamma_11 = 1e-7: both connecting maps share one inverse, which
        # warns once per point
        payload = {
            "dim": 3,
            "decays": [{"from": 1, "to": 0, "p": 0.9999999},
                       {"from": 2, "to": 0, "p": 0.2},
                       {"from": 2, "to": 1, "p": "g"}],
            "slots": {"g": {"min": 0.0, "max": 0.4, "step": 0.2}},
            "analyses": ["monotonicity"],
            "monotonicity": {"from": 2, "to": 1, "epsilon": 0.05},
        }
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps(payload))
        with caplog.at_level(logging.WARNING, logger="madcap"):
            assert main(["sweep", str(spec), "--out",
                         str(tmp_path / "sweep.csv")]) == 0
        warned = [r.getMessage() for r in caplog.records
                  if "poorly conditioned" in r.getMessage()]
        assert len(warned) == 3

    def test_malformed_spec_exits_2(self, tmp_path):
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({"slots": {}}))
        assert main(["sweep", str(spec), "--out",
                     str(tmp_path / "x.csv")]) == 2

    @pytest.mark.parametrize("change", [
        {"slots": {"g": {"min": 0.0, "max": 1.0, "step": 0}}},
        {"slots": {"g": {"min": 0.0, "max": 1.0}}},
        {"decays": [{"from": 1, "to": 0, "p": "h"}]},
        {"dim": "two"},
        {"slots": ["g"]},
        {"analyses": ["monotonicity"], "monotonicity": {"from": 1}},
        {"analyses": ["monotonicity"], "monotonicity": 1},
        {"analyses": 5},
        {"analyses": ["monotonicity"], "monotonicity": {"from": 5, "to": 0}},
        # fractional levels are malformed, not truncated to a 3-level
        # channel's (2 -> 0) decay
        {"dim": 3.7, "decays": [{"from": 2.9, "to": 0.5, "p": "g"}]},
        {"dim": 2.5},
        {"decays": [{"from": 1, "to": 0.5, "p": "g"}]},
        {"analyses": ["monotonicity"],
         "monotonicity": {"from": 1.5, "to": 0}},
        # analyses the sweep cannot run are refused, not left blank
        {"analyses": ["capcity"]},
        {"analyses": ["monotonicity"]},
        {"analyses": ["monotonicity"], "monotonicity": None},
        {"analyses": ["monotonicity"], "monotonicity": {}},
        {"analyses": ["capacity", "monotonicity"],
         "monotonicity": {"from": 1, "to": 0}},
        # decays no grid point can satisfy are refused before any point
        {"dim": 3, "decays": [{"from": 5, "to": 0, "p": "g"}]},
        {"decays": [{"from": 0, "to": 1, "p": "g"}]},
        {"dim": 0},
        {"dim": 3, "decays": [{"from": 1, "to": 0, "p": "g"},
                              {"from": 2, "to": 1, "p": 0.7},
                              {"from": 2, "to": 0, "p": 0.7}]},
        {"decays": [{"from": 1, "to": 0, "p": "g"},
                    {"from": 1, "to": 0, "p": 0.2}]},
        {"dim": 3, "analyses": ["monotonicity"],
         "monotonicity": {"from": 2, "to": 1, "epsilon": -0.1}},
        {"dim": 3, "analyses": ["monotonicity"],
         "monotonicity": {"from": 2, "to": 1, "epsilon": 0}},
        # JSON booleans and numeric strings are not numbers
        {"slots": {"g": {"min": "0", "max": True, "step": "0.5"}}},
        {"decays": [{"from": True, "to": 0, "p": "g"}]},
        {"dim": "2"},
        {"dim": 10 ** 400},
        {"dim": 10 ** 10},
    ], ids=["zero-step", "missing-step", "unknown-slot", "dim", "slot-list",
            "monotonicity", "monotonicity-number", "analyses-number",
            "monotonicity-level", "fractional-dim-and-levels",
            "fractional-dim", "fractional-level",
            "fractional-monotonicity-level", "unknown-analysis",
            "monotonicity-missing", "monotonicity-null",
            "monotonicity-empty", "capacity-and-monotonicity",
            "level-outside-dim", "upward-decay", "dim-0", "fixed-row-above-1",
            "duplicate-decay", "epsilon-negative", "epsilon-zero",
            "string-and-bool-slot", "bool-level", "string-dim",
            "dim-beyond-float", "dim-beyond-the-cap"])
    def test_malformed_spec_field_exits_2(self, tmp_path, capsys, change):
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({**adc_sweep_spec(), **change}))
        out = tmp_path / "x.csv"
        assert main(["sweep", str(spec), "--out", str(out)]) == 2
        assert capsys.readouterr().err.startswith("error: malformed sweep spec")
        assert not out.exists()

    @pytest.mark.parametrize("spec", [
        adc_sweep_spec(step=1e-300),
        {**D3_LATTICE, "slots": {s: {"min": 0.0, "max": 1.0, "step": 1e-4}
                                 for s in ("g10", "g20", "g21")}},
    ], ids=["tiny-step", "large-product"])
    def test_oversized_grid_exits_2_unbuilt(self, tmp_path, capsys,
                                            monkeypatch, spec):
        # 1e300 points in one slot, and 10001^3 over three slots: refused
        # from the slot counts, before np.arange builds any slot
        def build(*args, **kwargs):
            raise AssertionError("sweep grid built")

        monkeypatch.setattr(cli.np, "arange", build)
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(spec))
        out = tmp_path / "x.csv"
        assert main(["sweep", str(path), "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == ("error: malformed sweep spec: more than "
                                f"{cli._MAX_SWEEP_POINTS} grid points\n")
        assert not out.exists()

    def test_unused_monotonicity_block_is_not_checked(self, tmp_path):
        # the block is read only when the monotonicity analysis is asked for
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({**adc_sweep_spec(), "monotonicity": 1}))
        assert main(["sweep", str(spec), "--out",
                     str(tmp_path / "x.csv")]) == 0

    def test_threads_option_exits_2(self, tmp_path):
        # sweeps are serial; the removed --threads option is malformed input
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps(adc_sweep_spec()))
        with pytest.raises(SystemExit) as exc:
            main(["--threads", "2", "sweep", str(spec),
                  "--out", str(tmp_path / "a.csv")])
        assert exc.value.code == 2
        assert not (tmp_path / "a.csv").exists()


    def test_long_sweep_logs_progress(self, tmp_path, caplog, capsys):
        payload = adc_sweep_spec(step=0.002)  # 501 points
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps(payload))
        out = tmp_path / "sweep.csv"
        with caplog.at_level(logging.INFO, logger="madcap.cli"):
            assert main(["sweep", str(spec), "--out", str(out)]) == 0
        progress = [r.getMessage() for r in caplog.records
                    if r.name == "madcap.cli"]
        assert progress == ["progress: 500/501"]
        err = capsys.readouterr().err
        assert err.startswith("progress: 500/501\n")
        assert len(out.read_text().strip().split("\n")) == 502

    def test_d3_lattice_matches_the_reference(self, tmp_path, capsys,
                                              fresh_stores):
        # min_eig is left out, it differs from the reference by rounding
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps(D3_LATTICE))
        out = tmp_path / "sweep.csv"
        assert main(["sweep", str(spec), "--out", str(out)]) == 0
        # progress, then the skipped points in grid order, then the summary
        err = capsys.readouterr().err.splitlines()
        assert err[:2] == ["progress: 500/1331", "progress: 1000/1331"]
        _, _, _, ranges, _, _ = _parse_sweep_spec(D3_LATTICE)
        over = [c for c in itertools.product(*ranges) if c[1] + c[2] > 1.0]
        assert len(over) == 605
        assert [line.split(": ")[0] for line in err[2:-1]] == [
            str(c) for c in over]
        assert all(": skipped: " in line for line in err[2:-1])
        assert err[-1] == f"wrote 726 rows (605 skipped) to {out}"
        columns = ("g10", "g20", "g21", "degradable", "antidegradable",
                   "cert_kind", "cert_value")
        got, want = csv_rows(out, columns), csv_rows(D3_REFERENCE, columns)
        assert len(want) == 726
        assert [g for g, w in zip(got, want) if g != w] == []
        assert len(got) == len(want)

    @pytest.mark.parametrize("order", ["reversed", "shuffled"])
    def test_d3_lattice_does_not_depend_on_call_order(self, order,
                                                      fresh_stores):
        # one process certifying the lattice in another order than the
        # sweep's gives the reference's kinds and values
        dim, decays, names, ranges, _, _ = _parse_sweep_spec(D3_LATTICE)
        points = []
        for coords in itertools.product(*ranges):
            try:
                points.append((coords, _instantiate(dim, decays, names, coords)))
            except MadcapError:
                continue
        if order == "reversed":
            points.reverse()
        else:
            points = [points[k] for k in
                      np.random.default_rng(14).permutation(len(points))]
        got = {}
        for coords, tm in points:
            cert = certify_capacity(tm)
            got[tuple(_fmt(c) for c in coords)] = (cert.kind, _fmt(cert.value))
        want = {row[:3]: row[3:] for row in csv_rows(
            D3_REFERENCE, ("g10", "g20", "g21", "cert_kind", "cert_value"))}
        assert len(got) == len(want) == 726
        assert {c: g for c, g in got.items() if g != want[c]} == {}


class TestMad3:
    def test_summary_and_csv(self, tmp_path, capsys):
        out = tmp_path / "mad3.csv"
        code = main(["mad3", "--gamma10", "0.2", "--iterations", "2",
                     "--out", str(out)])
        assert code == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["total_mismatches"] == 0
        assert summary["crosscheck_matches"] is True
        assert summary["certified_omega_max"] == pytest.approx(1 - 2.0 ** -3)
        lines = out.read_text().strip().split("\n")
        assert lines[0] == "n,k,analytic_bound,mismatches"
        assert len(lines) == 1 + 3 * 10  # n in {0,1,2} x 10 k values

    def test_invalid_gamma10_exits_2(self):
        assert main(["mad3", "--gamma10", "0.7"]) == 2

    @pytest.mark.parametrize("gamma10", ["0.0", "0.2"])
    def test_tol_psd_reaches_every_choi_test(self, capsys, gamma10):
        # at 0.1, one connecting Choi beyond the analytic bound per k of
        # step 0 passes the rule (lambda_min about -0.1 at k = 1)
        assert main(["--tol-psd", "0.1", "mad3", "--gamma10", gamma10]) == 0
        assert json.loads(capsys.readouterr().out)["total_mismatches"] == 6

    def test_one_conditioning_warning_per_step(self, caplog, capsys):
        # gamma_22 = 2^-(n+1) is below 1e-6 at steps 19 and 20 only
        with caplog.at_level(logging.WARNING, logger="madcap"):
            assert main(["mad3", "--gamma10", "0.2", "--iterations", "20"]) == 0
        warned = [r.getMessage() for r in caplog.records
                  if "poorly conditioned" in r.getMessage()]
        assert len(warned) == 2
        assert warned[0].startswith("mad3 step n=19:")

    def test_iterations_beyond_the_limit_exit_2(self, capsys):
        assert main(["mad3", "--gamma10", "0.2", "--iterations", "53"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: iterations=53 must be at "
                                       "most 52")


class TestSelftest:
    def test_passes(self, capsys):
        assert main(["selftest"]) == 0
        out = capsys.readouterr().out
        assert "FAIL" not in out


def command_args(tmp_path, command):
    """Arguments of a quick run of ``command`` that takes ``--out``."""
    if command == "analyze":
        return ["analyze", str(write_channel(tmp_path / "ch.json", 2,
                                             {(1, 0): 0.2}))]
    if command == "sweep":
        (tmp_path / "spec.json").write_text(json.dumps(adc_sweep_spec()))
        return ["sweep", str(tmp_path / "spec.json")]
    return ["--grid-step", "0.5", "mad3", "--gamma10", "0.2",
            "--iterations", "0"]


class TestOptions:
    def test_tolerance_defaults_are_the_library_ones(self):
        # the library's defaults and the CLI's are one value each
        from madcap.capacity import TOL_BORDER
        from madcap.linalg import TOL_PSD
        args = cli.build_parser().parse_args(["selftest"])
        assert (args.tol_psd, args.tol_border) == (TOL_PSD, TOL_BORDER)
        defaults = inspect.signature(certify_capacity).parameters
        assert defaults["tol_psd"].default == TOL_PSD
        assert defaults["tol_border"].default == TOL_BORDER

    @pytest.mark.parametrize("command", ["analyze", "sweep", "mad3"])
    def test_unwritable_out_exits_1(self, tmp_path, capsys, command):
        out = str(tmp_path / "missing" / "out")
        assert main(command_args(tmp_path, command) + ["--out", out]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        # the path given, not the temporary file written next to it
        assert repr(out) in err
        assert ".madcap-" not in err

    @pytest.mark.parametrize("command", ["analyze", "sweep", "mad3"])
    def test_out_file_gets_the_mode_open_gives(self, tmp_path, command):
        plain = tmp_path / "plain"
        plain.write_text("")
        out = tmp_path / "out"
        assert main(command_args(tmp_path, command) + ["--out", str(out)]) == 0
        assert stat.S_IMODE(out.stat().st_mode) == \
            stat.S_IMODE(plain.stat().st_mode)

    @pytest.mark.parametrize("args", [
        ["--grid-step", "0", "mad3", "--gamma10", "0.2"],
        ["--grid-step", "-0.1", "mad3", "--gamma10", "0.2"],
        ["--grid-step", "nan", "mad3", "--gamma10", "0.2"],
        ["--grid-step", "inf", "mad3", "--gamma10", "0.2"],
        ["--tol-psd", "-1", "selftest"],
        ["--tol-psd", "nan", "selftest"],
        ["--tol-border", "-1", "selftest"],
        ["--tol-border", "inf", "selftest"],
        ["--tol-border", "x", "selftest"],
        ["mad3", "--gamma10", "0.2", "--iterations", "-1"],
        ["mad3", "--gamma10", "0.2", "--iterations", "1.5"],
        ["--seed", "-1", "selftest"],
    ], ids=["step-zero", "step-negative", "step-nan", "step-inf",
            "psd-negative", "psd-nan", "border-negative", "border-inf",
            "border-text", "iterations-negative", "iterations-float",
            "seed-negative"])
    def test_bad_number_exits_2(self, capsys, args):
        with pytest.raises(SystemExit) as exc:
            main(args)
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "error: argument --" in captured.err

    @pytest.mark.parametrize("step", ["1e-300", "1e-7"])
    def test_grid_step_beyond_the_omega_limit_exits_2(self, capsys, step):
        # finite and positive, so the parser takes it; mad3 refuses the
        # omega grid before it builds it
        assert main(["--grid-step", step, "mad3", "--gamma10", "0.2"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: grid_step={float(step)} ")
        assert "Traceback" not in captured.err

    def test_zero_tolerances_are_accepted(self, tmp_path, capsys):
        # gamma = 0.25 has lambda_min = -5.55e-17: PSD at --tol-psd 0 only
        # by the 1e-12 floor of the PSD rule
        for gamma in (0.2, 0.25):
            ch = write_channel(tmp_path / "ch.json", 2, {(1, 0): gamma})
            assert main(["--tol-psd", "0", "--tol-border", "0", "analyze",
                         str(ch)]) == 0
            report = json.loads(capsys.readouterr().out)
            assert report["certificate"]["kind"] == "ExactDegradable"
