"""The CLI's `design` JSON on the four design-table rows and the default
`grating` check JSON, against outputs stored under tests/golden/.

Numbers must match within GOLDEN_RTOL relative, so the goldens hold across
numpy releases, whose libm and SIMD paths may round a few ulp apart. The
design point's zero mismatches `delta_k_*` compare within GOLDEN_ATOL_DK
absolute, and each `*_rel_dev`, a ratio minus 1, within GOLDEN_RTOL of that
ratio. Strings and integers must match exactly.
"""

import json
from pathlib import Path

import pytest

from qpmdesign.cli import EXIT_OK, main

GOLDEN = Path(__file__).parent / "golden"
GOLDEN_RTOL = 1e-12
GOLDEN_ATOL_DK = 1e-15  # rad/um


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
