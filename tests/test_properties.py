import dataclasses
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qpmdesign import (
    InteractionSpec,
    QpmDesignError,
    WaveguideGeometry,
    bandwidth_approx,
    design_point,
    fourier_component,
    gamma,
    periods_from_frequencies,
    synthesize_pattern,
)
from qpmdesign.dispersion import IndexIncrementTable
from qpmdesign.modesolver import TrialField
from qpmdesign.spdc import ProcessAmplitudes

from oracles import amplitude, gauss_legendre_box, index_profile

finite = st.floats(allow_nan=False, allow_infinity=False)


@given(st.complex_numbers(max_magnitude=1e6, allow_nan=False, allow_infinity=False),
       st.complex_numbers(max_magnitude=1e6, allow_nan=False, allow_infinity=False))
def test_gamma_bounded(c_oe, c_eo):
    if abs(c_oe) == 0.0 and abs(c_eo) == 0.0:
        return
    g = gamma(ProcessAmplitudes(1.0, 1.0, c_oe, c_eo, 0.0, 0.0))
    assert 0.0 <= g <= 1.0


@given(st.complex_numbers(min_magnitude=1e-3, max_magnitude=1e3,
                          allow_nan=False, allow_infinity=False),
       st.floats(min_value=0.0, max_value=2 * math.pi))
def test_gamma_unity_when_magnitudes_match(c, phase):
    # equal magnitudes with arbitrary relative phase: maximally entangled
    g = gamma(ProcessAmplitudes(1.0, 1.0, c, c * complex(math.cos(phase),
                                                         math.sin(phase)), 0.0, 0.0))
    assert g == pytest.approx(1.0, rel=1e-12)


@settings(max_examples=20, deadline=None)
@given(st.floats(min_value=0.3, max_value=4.0),
       st.floats(min_value=0.3, max_value=4.0),
       st.floats(min_value=4.0, max_value=14.0),
       st.floats(min_value=4.0, max_value=14.0))
def test_trial_field_unit_norm(ay, az, w, h):
    # a 100-node rule per axis integrates these Gaussians to ~1e-14;
    # test_trial_field_normalized keeps adaptive quadrature as the cross-check
    field = TrialField(ay, az, w, h)
    val = gauss_legendre_box(lambda y, z: amplitude(field, y, z) ** 2,
                             10.0 * w / ay, 10.0 * h / az, 100)
    assert val == pytest.approx(1.0, abs=1e-7)


@given(st.floats(min_value=0.01, max_value=50.0),
       st.floats(min_value=0.01, max_value=10.0))
def test_index_profile_even_in_y(y, z):
    geom = WaveguideGeometry(8.0, 6.0)
    left = index_profile(geom, 2.2, 0.003, -y, -z)
    right = index_profile(geom, 2.2, 0.003, y, -z)
    assert left == right


@settings(max_examples=25, deadline=None)
@given(st.floats(min_value=1.5, max_value=8.0),
       st.floats(min_value=1.05, max_value=20.0),
       st.floats(min_value=3.0, max_value=30.0))
def test_pattern_boundaries_strictly_increasing(lambda0, ratio, n_periods):
    lambdap = lambda0 * ratio
    k0 = 2 * math.pi / lambda0
    kp = 2 * math.pi / lambdap
    design = periods_from_frequencies(k0 + kp, k0 - kp)
    pattern = synthesize_pattern(design, n_periods * lambdap * 1e-3)
    b = np.asarray(pattern.domain_boundaries)
    assert np.all(np.diff(b) > 0)
    assert b[0] > 0.0 and b[-1] < pattern.length_um


@settings(max_examples=25, deadline=None)
@given(st.floats(min_value=2.2, max_value=2.4),
       st.floats(min_value=0.001, max_value=0.1),
       st.floats(min_value=0.001, max_value=0.1),
       st.floats(min_value=0.001, max_value=0.1))
def test_bandwidth_ratio_length_invariant(n_so, d1, d2, d3):
    # distinct group indices built from positive offsets
    n_se = n_so + d1
    n_io = n_se + d2
    n_ie = n_io + d3
    ratios = []
    for length in (5.0, 10.0, 20.0):
        bw_oe, bw_eo = bandwidth_approx(n_so, n_se, n_io, n_ie, 780.0, length)
        ratios.append(bw_eo / bw_oe)
    assert ratios[0] == pytest.approx(ratios[1], rel=1e-6)
    assert ratios[1] == pytest.approx(ratios[2], rel=1e-6)


def test_design_bandwidth_ratio_length_invariant(reference_result):
    """End-to-end version at the reference design: only L varies."""
    g = reference_result.group_indices
    base = None
    for length in (5.0, 10.0, 20.0):
        bw_oe, bw_eo = bandwidth_approx(g["N_so"], g["N_se"], g["N_io"],
                                        g["N_ie"], 780.0, length)
        ratio = bw_eo / bw_oe
        if base is None:
            base = ratio
        assert ratio == pytest.approx(base, rel=1e-6)


# An argument of a public entry point: typical in three draws of four, else
# NaN, +-inf, 0, a negative number, a finite number at the ends of the float
# range (largest, subnormal), a bool or a string.
EDGES = st.sampled_from([math.nan, math.inf, -math.inf, 0.0, 0, -1.0, -1e300,
                         1e308, -1e308, 1.7976931348623157e308, 5e-324, -5e-324,
                         1e-310, True, False, "a", ""])


def arg(typical):
    return st.sampled_from([typical] * 3 + [EDGES]).flatmap(lambda strategy: strategy)


K = arg(st.floats(1.3, 1.8))  # rad/um, around the design's K1 and K2
CALLS = st.one_of(
    st.tuples(st.just("design_point"), arg(st.floats(500.0, 540.0)),
              arg(st.floats(740.0, 820.0)), arg(st.floats(20.0, 200.0)),
              arg(st.floats(1.0, 60.0)), arg(st.floats(4.0, 14.0)), arg(st.floats(4.0, 14.0))),
    st.tuples(st.just("spectra"), arg(st.floats(4.0, 12.0)), arg(st.integers(3, 60))),
    st.tuples(st.just("filtered_gamma"), arg(st.floats(0.0, 0.4))),
    st.tuples(st.just("amplitudes_at"), arg(st.floats(760.0, 800.0))),
    st.tuples(st.just("periods_from_frequencies"), K, K),
    st.tuples(st.just("synthesize_pattern"), arg(st.floats(1.0, 50.0))),
    st.tuples(st.just("fourier_component"), K),
    st.tuples(st.just("IndexIncrementTable"), st.one_of(
        EDGES, st.none(),
        st.lists(st.one_of(EDGES, st.none(),
                           st.lists(arg(st.floats(0.0, 0.009)), min_size=2, max_size=4)
                           .map(tuple)), max_size=4).map(tuple))),
    st.tuples(st.just("SellmeierSet"),
              st.sampled_from(["ordinary", "extraordinary", "t0_c", "t_offset_c",
                               "wavelength_range_nm", "temperature_range_c"]),
              st.one_of(EDGES, st.none(),
                        st.lists(arg(st.floats(-10.0, 10.0)), max_size=8).map(tuple))),
)
ENTRY_POINTS = {
    "design_point": lambda result, lp, ls, temperature, length, depth, width: design_point(
        InteractionSpec(lp, ls, temperature_c=temperature, length_mm=length),
        WaveguideGeometry(width, depth), result.context.material),
    "spectra": lambda result, half_range, n_samples: result.spectra(half_range, n_samples),
    "filtered_gamma": lambda result, width: result.filtered_gamma(width),
    "amplitudes_at": lambda result, lam: result.amplitudes_at(lam),
    "periods_from_frequencies": lambda result, k1, k2: periods_from_frequencies(k1, k2),
    "synthesize_pattern": lambda result, length: synthesize_pattern(result.design, length),
    "fourier_component": lambda result, k: fourier_component(
        synthesize_pattern(result.design, 10.0), k),
    "IndexIncrementTable": lambda result, entries: IndexIncrementTable(entries),
    "SellmeierSet": lambda result, name, value: dataclasses.replace(
        result.context.material.sellmeier, **{name: value}),
}


@settings(max_examples=300, deadline=None)
@given(call=CALLS)
def test_api_ends_in_result_or_design_error(reference_result, call):
    """The public Python entry points, like the CLI, end in a result or a
    QpmDesignError, never in another exception or a warning."""
    name, *args = call
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            ENTRY_POINTS[name](reference_result, *args)
        except QpmDesignError:
            pass
    assert not caught, [str(w.message) for w in caught]
