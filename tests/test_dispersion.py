import dataclasses
import math

import numpy as np
import pytest

from qpmdesign import ConfigError, OutOfRange, WaveguideGeometry, dispersion
from qpmdesign.dispersion import (DEFAULT_INCREMENTS, IndexIncrementTable, load_sellmeier_sets,
                                  normalize_polarization)

from oracles import index_profile

SELLMEIER = load_sellmeier_sets()

# Frozen regression value of the packaged coefficient set.
N_E_1550_25C = 2.1380823495927244


def test_pinned_extraordinary_index():
    n = SELLMEIER.index("extraordinary", 1550.0, 25.0)
    assert 2.1 < n < 2.2
    assert n == pytest.approx(N_E_1550_25C, abs=0.0)


def test_negative_uniaxial_ordering():
    assert (SELLMEIER.index("ordinary", 780.0, 25.0)
            > SELLMEIER.index("extraordinary", 780.0, 25.0))


def test_polarization_aliases_look_up_the_same_set():
    for short, pol in (("o", "ordinary"), ("E", "extraordinary")):
        assert SELLMEIER.index(short, 780.0, 80.0) == SELLMEIER.index(pol, 780.0, 80.0)
    with pytest.raises(ConfigError, match="unknown polarization 'x'"):
        SELLMEIER.index("x", 780.0, 25.0)


def test_normal_dispersion_locally():
    assert SELLMEIER.index("ordinary", 780.0, 25.0) > SELLMEIER.index("ordinary", 781.0, 25.0)


@pytest.mark.parametrize("pol", ["ordinary", "extraordinary"])
def test_index_physical_over_domain(pol):
    for lam in np.linspace(400.0, 2000.0, 33):
        for temp in (20.0, 25.0, 110.0, 200.0):
            n = SELLMEIER.index(pol, lam, temp)
            assert n > 1.0
            assert math.isfinite(n)


def test_ordering_and_monotonicity_over_domain():
    lams = np.linspace(500.0, 1600.0, 111)
    for temp in (20.0, 25.0, 200.0):
        for pol in ("ordinary", "extraordinary"):
            ns = [SELLMEIER.index(pol, lam, temp) for lam in lams]
            assert all(a > b for a, b in zip(ns, ns[1:]))
        assert all(
            SELLMEIER.index("ordinary", lam, temp)
            > SELLMEIER.index("extraordinary", lam, temp)
            for lam in lams[:: 10]
        )


@pytest.mark.parametrize("lam,temp", [(300.0, 25.0), (2500.0, 25.0),
                                      (780.0, 10.0), (780.0, 300.0)])
def test_out_of_range(lam, temp):
    with pytest.raises(OutOfRange):
        SELLMEIER.index("ordinary", lam, temp)


TABLE = IndexIncrementTable(DEFAULT_INCREMENTS)


@pytest.mark.parametrize("pol,lam,expected", [
    ("ordinary", 519.0, 0.0038),
    ("extraordinary", 519.0, 0.0037),
    ("ordinary", 780.0, 0.0034),
    ("extraordinary", 780.0, 0.0030),
    ("ordinary", 1550.0, 0.0025),
    ("extraordinary", 1550.0, 0.0025),
])
def test_increment_table_exact_rows(pol, lam, expected):
    assert TABLE.increment(pol, lam) == expected


def test_increment_linear_interpolation():
    mid = 0.5 * (519.0 + 780.0)
    assert TABLE.increment("ordinary", mid) == pytest.approx(
        0.5 * (0.0038 + 0.0034), rel=1e-12)


@pytest.mark.parametrize("entries", [
    ((math.nan, 0.003, 0.003), (780.0, 0.003, 0.003)),
    ((519.0, 0.003, 0.003), (math.inf, 0.003, 0.003)),
    ((519.0, "0.003", 0.003), (780.0, 0.003, 0.003)),
], ids=["nan_wavelength", "inf_wavelength", "string_increment"])
def test_increment_table_refuses_entries_that_are_not_finite_numbers(entries):
    with pytest.raises(ConfigError, match="^increment table entry must be a finite number"):
        IndexIncrementTable(entries)


@pytest.mark.parametrize("entries", [
    ((519.0, 0.003), (780.0, 0.003)),
    ((519.0, 0.003, 0.003, 0.0), (780.0, 0.003, 0.003, 0.0)),
    None,
    "abc",
    5.0,
    (None, (780.0, 0.003, 0.003)),
], ids=["two_number_rows", "four_number_rows", "none", "string", "number", "none_row"])
def test_increment_table_refuses_malformed_entries(entries):
    with pytest.raises(ConfigError, match="^increment table entries must be "
                                          r"\(wavelength_nm, dn_o, dn_e\) rows"):
        IndexIncrementTable(entries)


@pytest.mark.parametrize("field, value", [
    ("ordinary", None), ("extraordinary", 2.2), ("extraordinary", "abcdefg"),
    ("wavelength_range_nm", None), ("temperature_range_c", 20.0),
])
def test_sellmeier_set_refuses_malformed_fields(field, value):
    with pytest.raises(ConfigError, match=f"^{field} .*must be"):
        dataclasses.replace(SELLMEIER, **{field: value})


def test_packaged_fit_is_parsed_once_per_process(monkeypatch):
    """Without a path the packaged file is read and parsed on the first
    call; later calls return that same frozen object."""
    reads = []
    read = dispersion._read_sellmeier

    def counted(path):
        reads.append(path)
        return read(path)

    monkeypatch.setattr(dispersion, "_read_sellmeier", counted)
    dispersion._packaged_sellmeier.cache_clear()
    first = load_sellmeier_sets()
    assert load_sellmeier_sets() is first
    assert load_sellmeier_sets(None) is first
    assert reads == [None]
    assert first == SELLMEIER


def test_fit_without_an_index_is_out_of_range(recwarn):
    """A fit whose n^2 is not positive gives no index: OutOfRange names the
    first such wavelength, with no NumPy warning from the square root."""
    broken = dataclasses.replace(SELLMEIER, ordinary=(-10.0, *SELLMEIER.ordinary[1:]))
    with pytest.raises(OutOfRange, match=r"^the ordinary fit gives no index at 780\.0 nm: "
                                         r"n\^2 = -9\.8"):
        broken.index("o", np.array([780.0, 519.0]), 25.0)
    assert broken.index("e", 519.0, 25.0) == SELLMEIER.index("e", 519.0, 25.0)
    assert not recwarn.list


def test_increment_out_of_span_and_clamp():
    assert TABLE.increment("ordinary", 1551.0) == 0.0025
    assert TABLE.increment("extraordinary", 400.0) == 0.0037


GEOM = WaveguideGeometry(width_w=8.0, depth_h=6.0)
NB, DN = 2.2, 0.003


def test_profile_peak_and_cover():
    assert index_profile(GEOM, NB, DN, 0.0, -1e-12) == pytest.approx(
        NB**2 + 2 * NB * DN, rel=1e-9)
    assert index_profile(GEOM, NB, DN, 0.0, 1.0) == 1.0


def test_profile_one_efolding_each_axis():
    val = index_profile(GEOM, NB, DN, GEOM.width_w, -GEOM.depth_h)
    assert val == pytest.approx(NB**2 + 2 * NB * DN * math.exp(-2.0), rel=1e-12)


def test_profile_far_field_limit():
    far = index_profile(GEOM, NB, DN, 8.5 * GEOM.width_w, -1.0)
    assert abs(far - NB**2) / NB**2 < 1e-12


def test_profile_even_in_y():
    ys = np.linspace(0.1, 30.0, 17)
    left = index_profile(GEOM, NB, DN, -ys, np.full_like(ys, -2.0))
    right = index_profile(GEOM, NB, DN, ys, np.full_like(ys, -2.0))
    np.testing.assert_allclose(left, right, rtol=0.0, atol=0.0)


def test_unknown_polarization_rejected():
    with pytest.raises(ConfigError, match="unknown polarization 'x'"):
        normalize_polarization("x")


@pytest.mark.parametrize("width", ["a", None, True])
def test_non_numeric_geometry_rejected(width):
    with pytest.raises(ConfigError, match=f"^waveguide width and depth must lie in .* "
                                          f"got w = {width} um"):
        WaveguideGeometry(width, 10.0)
