import contextlib
import io
import json
import os
import subprocess
import sys
import warnings
from importlib import resources
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qpmdesign
from qpmdesign import InteractionSpec, WaveguideGeometry, cli, config, errors
from qpmdesign.cli import EXIT_CONFIG, EXIT_OK, EXIT_PHYSICS, MAX_SPECTRUM_SAMPLES, _fmt, main
from qpmdesign.pipeline import Material, design_point


PACKAGED_SELLMEIER = json.loads(resources.files("qpmdesign.data").joinpath(
    "linbo3_sellmeier.json").read_text())
# The paper's four design-table geometries as a sweep config.
DESIGN_TABLE = Path(__file__).resolve().parents[1] / "scripts" / "design_table.json"


def write_config(tmp_path, name="config.json", **overrides):
    doc = {
        "lambda_p_nm": 519.0,
        "lambda_s_nm": 780.0,
        "lambda_i_nm": 1551.0,
        "temperature_c": 25.0,
        "length_mm": 10.0,
        "width_um": 10.0,
        "depth_um": 10.0,
    }
    doc.update(overrides)
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


class TestDesign:
    def test_default_design_point(self, tmp_path, capsys):
        out = tmp_path / "run"
        assert main(["design", "--out", str(out)]) == EXIT_OK
        doc = json.loads((out / "design.json").read_text())
        assert doc["gamma"] == pytest.approx(0.9957, abs=0.02)
        assert doc["grating"]["Lambda1_um"] == pytest.approx(4.580, rel=0.02)
        assert doc["grating"]["Lambda2_um"] == pytest.approx(3.653, rel=0.02)
        assert doc["grating"]["Lambdap_um"] > doc["grating"]["Lambda0_um"]
        assert doc["units"]["wavelength"] == "nm"

    def test_deterministic_output(self, tmp_path):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert main(["design", "--out", str(out1)]) == EXIT_OK
        assert main(["design", "--out", str(out2)]) == EXIT_OK
        assert (out1 / "design.json").read_bytes() == (out2 / "design.json").read_bytes()

    def test_stdout_when_no_out_dir(self, capsys):
        assert main(["design"]) == EXIT_OK
        doc = json.loads(capsys.readouterr().out)
        assert "gamma" in doc


class TestExitCodes:
    def test_energy_violation_is_config_error(self, tmp_path, capsys):
        cfg = write_config(tmp_path, lambda_i_nm=1600.0)
        assert main(["design", "--config", cfg]) == EXIT_CONFIG
        assert "config error" in capsys.readouterr().err

    @pytest.mark.parametrize("key, overrides", [
        ("typo_key", {"typo_key": 1.0}),
        ("cover_index", {"cover_index": 1.8}),
        ("solver", {"solver": {"grid_points": 16}}),
    ], ids=["typo_key", "cover_index", "solver.grid_points"])
    def test_unknown_key_is_config_error(self, tmp_path, capsys, key, overrides):
        cfg = write_config(tmp_path, **overrides)
        assert main(["design", "--config", cfg]) == EXIT_CONFIG
        assert key in capsys.readouterr().err

    @pytest.mark.parametrize("overrides", [
        {"width_um": "abc"},
        {"width_um": None},
        {"lambda_p_nm": "x"},
        {"length_mm": float("nan")},
    ], ids=["width_um=abc", "width_um=null", "lambda_p_nm=x", "length_mm=NaN"])
    def test_non_numeric_value_is_config_error(self, tmp_path, capsys, overrides):
        cfg = write_config(tmp_path, **overrides)
        assert main(["design", "--config", cfg]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("config error:")
        assert next(iter(overrides)) in err

    @pytest.mark.parametrize("extra", [[], ["--dump-config"]], ids=["design", "dump-config"])
    @pytest.mark.parametrize("size", [1e300, 1e200, 1e-300])
    def test_geometry_outside_physical_range(self, tmp_path, capsys, recwarn, size, extra):
        """Widths and depths outside GEOMETRY_RANGE_UM exit 1 with one
        line: no traceback from overflow, no numpy warning from underflow."""
        cfg = write_config(tmp_path, width_um=size, depth_um=size)
        assert main(["design", "--config", cfg, *extra]) == EXIT_CONFIG
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("config error: waveguide width and depth must lie in")
        assert err.count("\n") == 1
        assert not recwarn.list

    def test_missing_config_file(self, capsys):
        assert main(["design", "--config", "/nonexistent.json"]) == EXIT_CONFIG

    @pytest.mark.parametrize("content", [
        None,
        "not json {",
        json.dumps({k: v for k, v in PACKAGED_SELLMEIER.items() if k != "sets"}),
        json.dumps({k: v for k, v in PACKAGED_SELLMEIER.items() if k != "t0_c"}),
        json.dumps([PACKAGED_SELLMEIER]),
        json.dumps({**PACKAGED_SELLMEIER, "sets": {
            pol: {**entry, "coefficients": entry["coefficients"][:6]}
            for pol, entry in PACKAGED_SELLMEIER["sets"].items()}}),
        json.dumps({**PACKAGED_SELLMEIER, "wavelength_range_nm": [400.0]}),
        json.dumps({**PACKAGED_SELLMEIER, "sets": {
            "ordinary": PACKAGED_SELLMEIER["sets"]["ordinary"]}}),
        json.dumps({**PACKAGED_SELLMEIER, "sets": {
            **PACKAGED_SELLMEIER["sets"],
            "o": {"coefficients": [9.0, *PACKAGED_SELLMEIER["sets"]["ordinary"][
                "coefficients"][1:]]}}}),
    ], ids=["missing", "not_json", "no_sets", "no_t0_c", "not_an_object",
            "six_coefficients", "one_element_range", "one_polarization",
            "polarization_twice"])
    def test_bad_sellmeier_file_is_config_error(self, tmp_path, capsys, content):
        table = tmp_path / "sellmeier.json"
        if content is not None:
            table.write_text(content)
        cfg = write_config(tmp_path, sellmeier_file=str(table))
        for extra in ([], ["--dump-config"]):
            assert main(["design", "--config", cfg, *extra]) == EXIT_CONFIG
            err = capsys.readouterr().err
            assert err.startswith("config error:")
            assert str(table) in err
            assert err.count("\n") == 1

    @pytest.mark.parametrize("text, message", [
        pytest.param("not json {", "is not valid JSON", id="not-json"),
        pytest.param(b'{"width_um": 1\xff}', "is not valid JSON", id="not-utf-8"),
        pytest.param("[]", "config root must be a JSON object", id="list-root"),
        pytest.param(json.dumps({"index_increments": [[519.0, 0.0038, 0.0037],
                                                      [780.0, 0.0034, 0.01]]}),
                     "must lie in [0, 0.01)", id="increment=0.01"),
        pytest.param(json.dumps({"index_increments": [[519.0, -1e-4, 0.0037],
                                                      [780.0, 0.0034, 0.003]]}),
                     "must lie in [0, 0.01)", id="increment<0"),
        pytest.param(json.dumps({"index_increments": [[519.0, 0.0038],
                                                      [780.0, 0.0034, 0.003]]}),
                     "entries must be (wavelength_nm, dn_o, dn_e) rows", id="two-number-row"),
        pytest.param(json.dumps({"index_increments": 5}),
                     "entries must be (wavelength_nm, dn_o, dn_e) rows, got 5",
                     id="table=5"),
        pytest.param(json.dumps({"index_increments": "abc"}),
                     "entries must be (wavelength_nm, dn_o, dn_e) rows, got 'abc'",
                     id="table=abc"),
        pytest.param(json.dumps({"index_increments": [[519.0, None, 0.0037],
                                                      [780.0, 0.0034, 0.003]]}),
                     "increment table entry must be a finite number, got None",
                     id="null-entry"),
    ])
    def test_bad_config_file_exits_1_in_one_line(self, tmp_path, capsys, text, message):
        path = tmp_path / "config.json"
        path.write_bytes(text if isinstance(text, bytes) else text.encode())
        for extra in ([], ["--dump-config"]):
            assert main(["design", "--config", str(path), *extra]) == EXIT_CONFIG
            out, err = capsys.readouterr()
            assert out == ""
            assert err.startswith("config error:") and message in err
            assert err.count("\n") == 1

    @pytest.mark.parametrize("command", ["design", "sweep", "spectrum", "grating"])
    def test_unwritable_out_is_config_error(self, tmp_path, capsys, command):
        """An ``--out`` that is an existing file, or lies below one, exits 1
        in one line naming the path, before or after some files are written."""
        taken = tmp_path / "taken"
        taken.write_text("kept\n")
        extra = ["--samples", "401", "--half-range-nm", "8"] if command == "spectrum" else []
        for out in (taken, taken / "run"):
            assert main([command, "--out", str(out), *extra]) == EXIT_CONFIG
            stdout, err = capsys.readouterr()
            assert stdout == ""
            assert err.startswith(f"config error: cannot write to {out}:")
            assert err.count("\n") == 1
        assert taken.read_text() == "kept\n"

    def test_temperature_outside_sellmeier_range(self, tmp_path, capsys):
        """--dump-config and design reject the same temperature with the
        same message."""
        cfg = write_config(tmp_path, temperature_c=500.0)
        errors = []
        for extra in ([], ["--dump-config"]):
            assert main(["design", "--config", cfg, *extra]) == EXIT_CONFIG
            out, err = capsys.readouterr()
            assert out == ""
            errors.append(err)
        assert errors[0] == errors[1]
        assert "temperature 500.0 C outside validated range" in errors[0]

    def test_zeroed_increments_is_physics_error(self, tmp_path, capsys):
        cfg = write_config(tmp_path, index_increments=[
            [519.0, 0.0, 0.0], [780.0, 0.0, 0.0], [1550.0, 0.0, 0.0]])
        assert main(["design", "--config", cfg]) == EXIT_PHYSICS
        assert "NoGuidedMode" in capsys.readouterr().err

    def test_cutoff_names_first_failing_mode(self, tmp_path, capsys):
        """The ordinary idler past cutoff is named, not the extraordinary
        idler after it, which has no index increment."""
        cfg = write_config(tmp_path, depth_um=4.0, width_um=4.5, index_increments=[
            [519.0, 0.0038, 0.0037], [780.0, 0.0034, 0.0030], [1550.0, 0.0025, 0.0]])
        assert main(["design", "--config", cfg]) == EXIT_PHYSICS
        assert capsys.readouterr().err == (
            "infeasible design: NoGuidedMode: no interior maximum of n_eff^2 at "
            "1551.0344827586207 nm (w=4.5 um, h=4.0 um, dn=0.0025)\n")

    @pytest.mark.parametrize("digits", [401, 5001])
    @pytest.mark.parametrize("where", ["width_um", "increment", "sellmeier_t0_c"])
    def test_integer_of_any_size_exits_1_in_one_line(self, tmp_path, capsys, recwarn,
                                                      where, digits):
        """An integer beyond the float range, or too long for ``json`` to
        parse, is a config error wherever a number belongs."""
        literal = "1" + "0" * (digits - 1)  # written raw: json.dumps cannot write 5001 digits
        table = tmp_path / "sellmeier.json"
        doc = {
            "width_um": {"width_um": "N"},
            "increment": {"index_increments": [[519.0, 0.0038, 0.0037], [780.0, "N", 0.003]]},
            "sellmeier_t0_c": {"sellmeier_file": str(table)},
        }[where]
        table.write_text(json.dumps({**PACKAGED_SELLMEIER, "t0_c": "N"}).replace('"N"', literal))
        path = tmp_path / "config.json"
        path.write_text(json.dumps(doc).replace('"N"', literal))
        assert main(["design", "--config", str(path)]) == EXIT_CONFIG
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("config error:")
        assert err.count("\n") == 1
        assert not recwarn.list

    def test_fit_without_an_index_exits_1_in_one_line(self, tmp_path, capsys, recwarn):
        """A Sellmeier file whose ordinary n^2 is negative at the pump exits 1
        naming the fit, with no NumPy warning and before any mode is solved."""
        doc = json.loads(json.dumps(PACKAGED_SELLMEIER))
        doc["sets"]["ordinary"]["coefficients"][0] = -10.0
        table = tmp_path / "sellmeier.json"
        table.write_text(json.dumps(doc))
        cfg = write_config(tmp_path, sellmeier_file=str(table))
        assert main(["design", "--config", cfg]) == EXIT_CONFIG
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("error: the ordinary fit gives no index at 519.0 nm: n^2 = -9.4")
        assert err.count("\n") == 1
        assert not recwarn.list

    def test_out_of_range_idler_is_config_error_before_cutoff(self, tmp_path, capsys):
        """All five modes' indices are looked up before any solve: the
        2007 nm idler outside the Sellmeier range exits 1, although the pump
        mode of this 1 x 1 um guide is past cutoff too."""
        cfg = write_config(tmp_path, depth_um=1.0, width_um=1.0, lambda_s_nm=700.0,
                           lambda_i_nm=None)
        assert main(["design", "--config", cfg]) == EXIT_CONFIG
        assert "2007.18" in capsys.readouterr().err


ERROR_CLASSES = [cls for cls in vars(errors).values()
                 if isinstance(cls, type) and issubclass(cls, errors.QpmDesignError)]


@pytest.mark.parametrize("error", ERROR_CLASSES, ids=lambda cls: cls.__name__)
def test_exit_status_follows_the_error_type(monkeypatch, capsys, error):
    """An ``Infeasible`` error from a design point exits 2, and is a sweep
    row's status; any other toolkit error exits 1. Each error exit writes one
    stderr line."""
    def design_point(*args):
        raise error("raised here")

    monkeypatch.setattr(cli, "design_point", design_point)
    infeasible = issubclass(error, errors.Infeasible)
    assert main(["design"]) == (EXIT_PHYSICS if infeasible else EXIT_CONFIG)
    out, err = capsys.readouterr()
    assert out == ""
    assert err.count("\n") == 1
    if infeasible:
        assert err == f"infeasible design: {error.__name__}: raised here\n"
    code = main(["sweep"])
    out, err = capsys.readouterr()
    if infeasible:
        assert code == EXIT_OK and err == ""
        assert out.splitlines()[-1] == f"10,10,,,,{error.__name__}"
    else:
        assert code == EXIT_CONFIG and out == "" and err.count("\n") == 1


def test_design_request_validates_and_loads_once(monkeypatch, capsys):
    calls = {"load_sellmeier_sets": 0, "validate": 0}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(config, "load_sellmeier_sets",
                        counted("load_sellmeier_sets", config.load_sellmeier_sets))
    monkeypatch.setattr(config.DesignConfig, "validate",
                        counted("validate", config.DesignConfig.validate))
    assert main(["design", "--temperature", "30"]) == EXIT_OK
    assert calls == {"load_sellmeier_sets": 1, "validate": 1}


def test_rewritten_sellmeier_file_changes_the_output(tmp_path, capsys):
    """A config's ``sellmeier_file`` is read on every request: a copy of the
    packaged fit gives the packaged output byte for byte, and the same path
    rewritten with another T0 gives another design."""
    fit = tmp_path / "fit.json"
    fit.write_text(json.dumps(PACKAGED_SELLMEIER))
    cfg = write_config(tmp_path, sellmeier_file=str(fit))
    assert main(["design"]) == EXIT_OK
    packaged = capsys.readouterr().out
    assert main(["design", "--config", cfg]) == EXIT_OK
    assert capsys.readouterr().out == packaged
    fit.write_text(json.dumps({**PACKAGED_SELLMEIER, "t0_c": 30.0}))
    assert main(["design", "--config", cfg]) == EXIT_OK
    rewritten = capsys.readouterr().out
    assert rewritten != packaged
    assert json.loads(rewritten)["gamma"] != json.loads(packaged)["gamma"]


def test_parser_built_once_without_state_between_calls(monkeypatch, capsys):
    """``main`` reuses one parser per process. Calls with other subcommands
    and flags, a flag given once and then left out, print exactly what a
    freshly built parser gives."""
    runs = (["design", "--dump-config", "--temperature", "30"], ["design"],
            ["grating", "--length-mm", "12"], ["design", "--dump-config"],
            ["spectrum", "--samples", "101", "--half-range-nm", "8"], ["grating"])
    assert cli.build_parser() is cli.build_parser()
    reused = []
    for argv in runs:
        assert main(argv) == EXIT_OK
        reused.append(capsys.readouterr())
    monkeypatch.setattr(cli, "build_parser", cli.build_parser.__wrapped__)
    for argv, seen in zip(runs, reused):
        assert main(argv) == EXIT_OK
        assert capsys.readouterr() == seen, argv


def test_design_request_loads_no_scipy():
    """The package runs on numpy alone: a design request in a fresh
    interpreter leaves no scipy module loaded."""
    code = ("import sys\n"
            "from qpmdesign.cli import main\n"
            "assert main(['design']) == 0\n"
            "print([m for m in sys.modules if m.split('.')[0] == 'scipy'], file=sys.stderr)\n")
    src = str(Path(qpmdesign.__file__).parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, check=False)
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr.strip() == "[]"


class TestDumpConfig:
    def test_round_trip(self, tmp_path, capsys):
        assert main(["design", "--dump-config"]) == EXIT_OK
        first = capsys.readouterr().out
        path = tmp_path / "dumped.json"
        path.write_text(first)
        assert main(["design", "--config", str(path), "--dump-config"]) == EXIT_OK
        assert capsys.readouterr().out == first

    def test_bad_increment_table_exits_1(self, tmp_path, capsys):
        cfg = write_config(tmp_path, index_increments=[
            [519.0, 0.0038, 0.0037], [500.0, 0.0034, 0.0030]])
        assert main(["design", "--config", cfg, "--dump-config"]) == EXIT_CONFIG
        assert capsys.readouterr().err.startswith("config error:")

    def test_overrides_take_effect(self, capsys):
        assert main(["design", "--dump-config", "--temperature", "40",
                     "--length-mm", "20"]) == EXIT_OK
        doc = json.loads(capsys.readouterr().out)
        assert doc["temperature_c"] == 40.0
        assert doc["length_mm"] == 20.0


class TestSweep:
    def test_single_point_matches_design(self, tmp_path):
        out = tmp_path / "run"
        assert main(["design", "--out", str(out)]) == EXIT_OK
        gamma_design = json.loads((out / "design.json").read_text())["gamma"]
        assert main(["sweep", "--out", str(out)]) == EXIT_OK
        rows = [l for l in (out / "sweep.csv").read_text().splitlines()
                if l and not l.startswith("#")]
        assert rows[0] == "depth_um,width_um,gamma,Lambda1_um,Lambda2_um,status"
        depth, width, g, l1, l2, status = rows[1].split(",")
        assert status == "ok"
        assert float(g) == pytest.approx(gamma_design, rel=1e-5)

    def test_design_table_config_gives_the_paper_rows(self, capsys):
        """The checked-in design-table config zips into the paper's four
        geometries, in table order, each row the design point's figures."""
        assert main(["sweep", "--config", str(DESIGN_TABLE)]) == EXIT_OK
        rows = capsys.readouterr().out.splitlines()[2:]
        geometries = [(6.5, 6.0), (8.0, 8.0), (10.0, 10.0), (12.0, 12.0)]
        assert len(rows) == len(geometries)
        spec = InteractionSpec(519.0, 780.0, 1551.0, 25.0, 10.0)
        for row, (depth, width) in zip(rows, geometries):
            result = design_point(spec, WaveguideGeometry(width_w=width, depth_h=depth),
                                  Material.default())
            assert row.split(",") == [
                _fmt(depth), _fmt(width), _fmt(result.gamma), _fmt(result.design.Lambda1),
                _fmt(result.design.Lambda2), "ok"]

    def test_infeasible_row_reported_not_fatal(self, tmp_path):
        cfg = write_config(tmp_path, width_um=[10.0, 0.8], depth_um=[10.0, 0.8])
        out = tmp_path / "run"
        assert main(["sweep", "--config", cfg, "--out", str(out)]) == EXIT_OK
        rows = [l for l in (out / "sweep.csv").read_text().splitlines()
                if l and not l.startswith("#")][1:]
        assert len(rows) == 2
        assert rows[0].endswith(",ok")
        assert rows[1].endswith(",NoGuidedMode")


class TestSpectrum:
    def test_csv_shape_and_peak(self, tmp_path):
        out = tmp_path / "run"
        assert main(["spectrum", "--out", str(out), "--samples", "201"]) == EXIT_OK
        lines = (out / "spectrum.csv").read_text().splitlines()
        comments = [l for l in lines if l.startswith("#")]
        assert any("FWHM_oe_nm" in l for l in comments)
        assert any("FWHM_eo_nm" in l for l in comments)
        data = [l for l in lines if not l.startswith("#")]
        assert data[0] == "lambda_s_nm,intensity_oe,intensity_eo"
        assert len(data) == 1 + 201
        values = [tuple(map(float, l.split(","))) for l in data[1:]]
        peak_oe = max(v[1] for v in values)
        peak_eo = max(v[2] for v in values)
        assert peak_oe == pytest.approx(1.0, abs=1e-6)
        assert peak_eo == pytest.approx(1.0, abs=1e-6)
        assert all(0.0 <= v[1] <= 1.0 and 0.0 <= v[2] <= 1.0 for v in values)

    def test_samples_above_half_reported(self, tmp_path, capsys):
        out = tmp_path / "run"
        assert main(["spectrum", "--out", str(out)]) == EXIT_OK
        assert "warning" not in capsys.readouterr().err
        comments = [l for l in (out / "spectrum.csv").read_text().splitlines()
                    if l.startswith("# samples_above_half_")]
        counts = dict(l[2:].split(" = ") for l in comments)
        assert set(counts) == {"samples_above_half_oe", "samples_above_half_eo"}
        assert all(int(n) >= 5 for n in counts.values())

    def test_under_resolved_peak_warns(self, tmp_path, capsys):
        out = tmp_path / "run"
        assert main(["spectrum", "--out", str(out), "--half-range-nm", "4",
                     "--samples", "41"]) == EXIT_OK
        err = capsys.readouterr().err
        assert "warning: the oe peak" in err
        assert "the eo peak" not in err
        enough = int(err.split("--samples ")[1].split()[0])
        assert main(["spectrum", "--out", str(out), "--half-range-nm", "4",
                     "--samples", str(enough)]) == EXIT_OK
        assert "warning" not in capsys.readouterr().err

    def test_advised_sample_count_resolves_both_peaks(self, tmp_path, capsys):
        # 101 samples over a 200 mm guide's spectra leave one sample above
        # half maximum on each peak; the advice from the first-order
        # bandwidths resolves both in one rerun
        args = ["spectrum", "--out", str(tmp_path), "--length-mm", "200",
                "--half-range-nm", "10"]
        assert main([*args, "--samples", "101"]) == EXIT_OK
        err = capsys.readouterr().err
        advised = [int(part.split()[0]) for part in err.split("--samples ")[1:]]
        assert len(advised) == 2
        assert main([*args, "--samples", str(max(advised))]) == EXIT_OK
        assert "warning" not in capsys.readouterr().err

    def test_under_resolved_warning_respects_sample_cap(self, tmp_path, capsys,
                                                        monkeypatch):
        # the count that would resolve the oe peak here is above 100
        monkeypatch.setattr(cli, "MAX_SPECTRUM_SAMPLES", 100)
        assert main(["spectrum", "--out", str(tmp_path), "--half-range-nm", "4",
                     "--samples", "41"]) == EXIT_OK
        err = capsys.readouterr().err
        assert "warning: the oe peak" in err
        assert "--samples" not in err and "narrow --half-range-nm" in err

    @pytest.mark.parametrize("command, args", [
        pytest.param("spectrum", ["--samples", "0"], id="samples=0"),
        pytest.param("spectrum", ["--samples", "1"], id="samples=1"),
        pytest.param("spectrum", ["--samples", "2"], id="samples=2"),
        # more samples than the spectrum's memory allows
        pytest.param("spectrum", ["--samples", str(MAX_SPECTRUM_SAMPLES + 1)],
                     id="samples=max+1"),
        pytest.param("spectrum", ["--half-range-nm", "0"], id="half-range=0"),
        pytest.param("spectrum", ["--half-range-nm", "-2"], id="half-range=-2"),
        # valid arguments, but the window misses both half-maximum crossings
        pytest.param("spectrum", ["--half-range-nm", "1", "--samples", "21"],
                     id="half-range=1,samples=21"),
        # the window reaches down to or past the pump wavelength
        pytest.param("spectrum", ["--half-range-nm", "1000"], id="half-range=1000"),
        pytest.param("spectrum", ["--half-range-nm", "300", "--samples", "11"],
                     id="half-range=300,samples=11"),
        # a poling pattern too long to allocate
        pytest.param("grating", ["--length-mm", "1e12"], id="grating,length=1e12"),
    ])
    def test_bad_arguments_are_config_errors(self, tmp_path, capsys, recwarn,
                                             command, args):
        out = tmp_path / "run"
        assert main([command, "--out", str(out), *args]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert "Warning" not in err and not recwarn.list
        assert err.startswith(("config error:", "error:"))
        assert not any(out.glob("*.csv"))


@pytest.mark.parametrize("argv", [
    pytest.param(["spectrum", "--samples", "3.5"], id="samples=3.5"),
    pytest.param(["design", "--temperature", "abc"], id="temperature=abc"),
    pytest.param(["design", "--no-such-flag"], id="unknown-flag"),
    # "--" as a flag's value, which argparse may read as no value at all
    pytest.param(["spectrum", "--samples=--"], id="samples=--"),
    pytest.param(["design", "--config=--"], id="config=--"),
    pytest.param([], id="no-subcommand"),
])
def test_usage_errors_are_config_errors(capsys, argv):
    """argparse's usage errors exit 1 with one stderr line, not 2 (the code
    of an infeasible design) with the usage text."""
    assert main(argv) == EXIT_CONFIG
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("config error:")
    assert err.count("\n") == 1


@pytest.mark.parametrize("argv", [["--help"], ["spectrum", "--help"]])
def test_help_exits_0(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 0
    assert capsys.readouterr().out.startswith("usage: qpmdesign")


class TestGrating:
    def test_outputs_and_fourier_check(self, tmp_path):
        out = tmp_path / "run"
        assert main(["grating", "--out", str(out)]) == EXIT_OK
        check = json.loads((out / "fourier_check.json").read_text())
        assert abs(check["abs_c_K1_rel_dev"]) < 1e-3
        assert abs(check["abs_c_K2_rel_dev"]) < 1e-3
        assert check["Lambdap_um"] > check["Lambda0_um"]
        pattern_lines = (out / "poling_pattern.csv").read_text().splitlines()
        assert check["n_domain_boundaries"] == sum(
            1 for l in pattern_lines if l and not l.startswith("#")) - 1


# Config values: mostly typical ones, else any number in a wide range, the
# edges of every check or a value of the wrong type. Lengths stay small, so
# no draw allocates a long pattern.
EDGE_NUMBERS = [0.0, -1.0, 1e-300, 1e300, float("nan"), float("inf")]
EDGES = [*EDGE_NUMBERS, 10**400, "abc", None, True, [], {}]


def numbers(lo, hi):
    return st.one_of(st.floats(lo, hi), st.integers(int(lo), int(hi)))


def mostly(typical, *others):
    """``typical`` in three draws of four, else one of ``others``."""
    return st.sampled_from([typical] * (3 * len(others)) + list(others)).flatmap(
        lambda strategy: strategy)


def value(typical, lo, hi, edges=EDGES):
    return mostly(typical, numbers(lo, hi), st.sampled_from(edges))


def with_increment(row, column, bad):
    """The default increment table with one increment replaced by ``bad``."""
    table = [list(r) for r in config.DEFAULT_INCREMENTS]
    table[row][column] = bad
    return table


SIZE = value(st.floats(2.0, 20.0), 0.05, 2000.0)
GEOMETRY = mostly(SIZE, st.lists(SIZE, max_size=3))
# The nine config keys, each present or not, except the idler: its default
# of 1551 nm fits only the default pump and signal.
CONFIGS = st.fixed_dictionaries({
    "lambda_i_nm": value(st.none(), 900.0, 2500.0),
}, optional={
    "lambda_p_nm": value(st.floats(500.0, 540.0), 300.0, 900.0),
    "lambda_s_nm": value(st.floats(740.0, 820.0), 500.0, 1200.0),
    "temperature_c": value(st.floats(20.0, 200.0), -50.0, 300.0),
    "length_mm": value(st.floats(1.0, 60.0), 0.01, 60.0),
    "width_um": GEOMETRY,
    "depth_um": GEOMETRY,
    "sellmeier_file": mostly(st.just("packaged"), st.sampled_from(
        ["missing", "not_json", "no_sets", "six_coefficients"]), st.sampled_from(EDGES)),
    "index_increments": mostly(
        st.just([list(row) for row in config.DEFAULT_INCREMENTS]),
        st.lists(st.lists(numbers(-0.001, 2000.0), min_size=2, max_size=4), max_size=4),
        st.builds(with_increment, st.integers(0, 2), st.integers(1, 2),
                  st.one_of(st.floats(0.01, 1.0), st.floats(-1.0, -1e-9))),
        st.sampled_from(EDGES)),
})
# How the config file holds the drawn config: mostly as a JSON object, else
# as text that is not JSON or as a JSON list.
LAYOUTS = st.sampled_from(["object"] * 8 + ["not_json", "list_root"])
# Flag values of the flag's type, which argparse converts, and tokens that
# it cannot convert to some or all of those types.
WRONG_TYPE = st.sampled_from(["abc", "", "3.5", "1,5", "0x10", "--"])
FLAGS = {
    "--temperature": value(st.floats(20.0, 200.0), -50.0, 300.0, EDGE_NUMBERS),
    "--length-mm": value(st.floats(1.0, 60.0), 0.01, 60.0, EDGE_NUMBERS),
    "--half-range-nm": value(st.floats(4.0, 12.0), 0.01, 1000.0, EDGE_NUMBERS),
    "--samples": mostly(st.integers(3, 60), st.integers(-2, 60),
                        st.just(MAX_SPECTRUM_SAMPLES + 1)),
}


@st.composite
def invocations(draw):
    command = draw(st.sampled_from(["design", "sweep", "spectrum", "grating"]))
    argv = [command]
    if draw(st.booleans()):
        argv.append("--dump-config")
    flags = ["--temperature", "--length-mm"]
    if command == "spectrum":
        flags += ["--half-range-nm", "--samples"]
    for flag in flags:
        if draw(st.booleans()):
            # --flag=value: a value such as -1.0 is not read as a flag
            argv.append(f"{flag}={draw(mostly(FLAGS[flag].map(repr), WRONG_TYPE))}")
    return argv


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    """A directory with the Sellmeier files the fuzz configs name."""
    path = tmp_path_factory.mktemp("fuzz")
    files = {
        "packaged": json.dumps(PACKAGED_SELLMEIER),
        "not_json": "not json {",
        "no_sets": json.dumps({k: v for k, v in PACKAGED_SELLMEIER.items() if k != "sets"}),
        "six_coefficients": json.dumps({**PACKAGED_SELLMEIER, "sets": {
            pol: {**entry, "coefficients": entry["coefficients"][:6]}
            for pol, entry in PACKAGED_SELLMEIER["sets"].items()}}),
    }
    for name, text in files.items():
        (path / f"{name}.json").write_text(text)
    return path


@settings(max_examples=300, deadline=None)
@given(doc=CONFIGS, layout=LAYOUTS, argv=invocations())
def test_any_input_exits_cleanly(fuzz_dir, doc, layout, argv):
    """Every config file and argument list ends in exit 0, 1 or 2, never in
    an uncaught exception or a warning, and an error exit writes one stderr
    line."""
    if isinstance(doc.get("sellmeier_file"), str):
        doc["sellmeier_file"] = str(fuzz_dir / f"{doc['sellmeier_file']}.json")
    path = fuzz_dir / "config.json"
    text = json.dumps([doc] if layout == "list_root" else doc)
    path.write_text(text[:-1] if layout == "not_json" else text)
    out, err = io.StringIO(), io.StringIO()
    with (contextlib.redirect_stdout(out), contextlib.redirect_stderr(err),
          warnings.catch_warnings(record=True) as caught):
        warnings.simplefilter("always")
        code = main([*argv, "--config", str(path)])
    assert code in (EXIT_OK, EXIT_CONFIG, EXIT_PHYSICS)
    assert not caught, [str(w.message) for w in caught]
    if code != EXIT_OK:
        assert len(err.getvalue().splitlines()) == 1, err.getvalue()
