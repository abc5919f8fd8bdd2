"""The CLI's `design` JSON on the four design-table rows and the default
`grating` check JSON, against outputs stored under tests/golden/.

Numbers must match within GOLDEN_RTOL relative, so the goldens hold across
numpy releases, whose libm and SIMD paths may round a few ulp apart. The
design point's zero mismatches `delta_k_*` compare within GOLDEN_ATOL_DK
absolute, and each `*_rel_dev`, a ratio minus 1, within GOLDEN_RTOL of that
ratio. Strings and integers must match exactly.

`sweep_cutoff.csv` is the CLI's `sweep` over the SWEEP_CUTOFF grid, with
rows on both sides of mode cutoff; it must match byte for byte.

`spectrum_10x10.json` holds `DesignResult.spectra(8, 401)` and
`filtered_gamma(0.1)` at d = w = 10 um as the cold-started solver gave them,
at full precision. The spectrum path re-solves its modes from the design
point's, and these tolerances are what a change of start may move:
SPECTRUM_ATOL on intensities, SPECTRUM_FWHM_RTOL on the FWHMs and
GOLDEN_RTOL on the grid and the filtered gamma. The CLI's spectrum CSV,
printed to six significant digits, matches the same golden within
CSV_RTOL relative plus CSV_ATOL.

None of these tests needs scipy or hypothesis: they also run against a
numpy-only install of the package.
"""

import json
from pathlib import Path

import numpy as np
import pytest

from qpmdesign import WaveguideGeometry
from qpmdesign.cli import EXIT_OK, main
from qpmdesign.pipeline import design_point

GOLDEN = Path(__file__).parent / "golden"
GOLDEN_RTOL = 1e-12
GOLDEN_ATOL_DK = 1e-15  # rad/um
SPECTRUM_ATOL = 1e-9
SPECTRUM_FWHM_RTOL = 1e-9
CSV_RTOL = 5e-6
CSV_ATOL = 1e-9
# depth and width lists (um) of `sweep_cutoff.csv`: 110 geometries, 60 of
# them past the model cutoff
SWEEP_CUTOFF = {"depth_um": [3.0, 3.5, 4.0, 4.5, 5.0, 6.0, 7.0, 8.0, 10.0, 12.0, 14.0],
                "width_um": [3.0, 4.0, 4.5, 5.0, 5.5, 6.0, 8.0, 10.0, 12.0, 14.0]}


def assert_matches(got, want, key=""):
    if isinstance(want, dict):
        assert sorted(got) == sorted(want), key
        for name in want:
            assert_matches(got[name], want[name], f"{key}.{name}")
    elif isinstance(want, float):
        assert isinstance(got, float), key
        if key.split(".")[-1].startswith("delta_k_"):
            assert abs(got - want) <= GOLDEN_ATOL_DK, (key, got, want)
        elif key.endswith("_rel_dev"):
            assert abs(got - want) <= GOLDEN_RTOL * abs(1.0 + want), (key, got, want)
        else:
            assert abs(got - want) <= GOLDEN_RTOL * abs(want), (key, got, want)
    else:
        assert type(got) is type(want) and got == want, (key, got, want)


@pytest.mark.parametrize("depth, width, name", [
    (6.5, 6.0, "design_6.5x6.json"),
    (8.0, 8.0, "design_8x8.json"),
    (10.0, 10.0, "design_10x10.json"),
    (12.0, 12.0, "design_12x12.json"),
])
def test_design_matches_golden(tmp_path, capsys, depth, width, name):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"depth_um": depth, "width_um": width}))
    assert main(["design", "--config", str(config)]) == EXIT_OK
    out, err = capsys.readouterr()
    assert err == ""
    assert_matches(json.loads(out), json.loads((GOLDEN / name).read_text()))


def test_grating_matches_golden(capsys):
    assert main(["grating"]) == EXIT_OK
    out, err = capsys.readouterr()
    assert err == ""
    assert_matches(json.loads(out), json.loads((GOLDEN / "grating.json").read_text()))


def test_sweep_across_the_cutoff_matches_golden(tmp_path, capsys):
    config = tmp_path / "config.json"
    config.write_text(json.dumps(SWEEP_CUTOFF))
    assert main(["sweep", "--config", str(config)]) == EXIT_OK
    out, err = capsys.readouterr()
    assert err == ""
    assert out == (GOLDEN / "sweep_cutoff.csv").read_text()


def test_spectrum_matches_golden(spec, material):
    want = json.loads((GOLDEN / "spectrum_10x10.json").read_text())
    result = design_point(spec, WaveguideGeometry(want["width_um"], want["depth_um"]), material)
    grid, i_oe, i_eo, f_oe, f_eo = result.spectra(want["half_range_nm"], want["samples"])
    np.testing.assert_allclose(grid, want["lambda_s_nm"], rtol=GOLDEN_RTOL, atol=0.0)
    np.testing.assert_allclose(i_oe, want["intensity_oe"], rtol=0.0, atol=SPECTRUM_ATOL)
    np.testing.assert_allclose(i_eo, want["intensity_eo"], rtol=0.0, atol=SPECTRUM_ATOL)
    assert f_oe == pytest.approx(want["fwhm_oe_nm"], rel=SPECTRUM_FWHM_RTOL, abs=0.0)
    assert f_eo == pytest.approx(want["fwhm_eo_nm"], rel=SPECTRUM_FWHM_RTOL, abs=0.0)
    assert result.filtered_gamma(want["filter_fwhm_nm"]) == pytest.approx(
        want["filtered_gamma"], rel=GOLDEN_RTOL, abs=0.0)


def test_spectrum_csv_matches_golden(tmp_path, capsys):
    """`spectrum` prints the golden spectrum: its FWHM header lines and
    every data row, within the CLI's print precision."""
    want = json.loads((GOLDEN / "spectrum_10x10.json").read_text())
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"depth_um": want["depth_um"], "width_um": want["width_um"]}))
    assert main(["spectrum", "--config", str(config), "--samples", str(want["samples"]),
                 "--half-range-nm", str(want["half_range_nm"])]) == EXIT_OK
    out, err = capsys.readouterr()
    assert err == ""
    lines = out.splitlines()

    def close(text, value):
        return abs(float(text) - value) <= CSV_RTOL * abs(value) + CSV_ATOL

    header = dict(line[2:].split(" = ") for line in lines if " = " in line)
    assert close(header["FWHM_oe_nm"], want["fwhm_oe_nm"]), header
    assert close(header["FWHM_eo_nm"], want["fwhm_eo_nm"]), header
    rows = [line.split(",") for line in lines if not line.startswith("#")][1:]
    assert len(rows) == want["samples"]
    for row, *values in zip(rows, want["lambda_s_nm"], want["intensity_oe"],
                            want["intensity_eo"]):
        assert len(row) == 3 and all(close(t, v) for t, v in zip(row, values)), (row, values)
