"""The model cutoff V_c of the closed form and ``solve_mode``'s pre-test.

``modesolver.model_cutoff`` against the folds recorded by bisection and
against the stationarity and det H = 0 conditions it solves; ``_newton``
never accepting a point at or below V_c; and ``solve_mode``, which refuses
a batch with such a point before any Newton step and otherwise matches
``newton_only_solve``, in which Newton alone decides existence.
"""

import math
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from qpmdesign import NoGuidedMode, WaveguideGeometry, modesolver, solve_mode
from qpmdesign.dispersion import GEOMETRY_RANGE_UM
from qpmdesign.modesolver import model_cutoff
from qpmdesign.pipeline import Material, ModeContext, design_point

from oracles import newton_only_solve


def strength(width_w, n_b, delta_n, wavelength_nm):
    """V = 8 n_b dn (k0 w)^2."""
    k0 = 2.0 * math.pi / (np.asarray(wavelength_nm) * 1e-3)
    return 8.0 * n_b * delta_n * (k0 * width_w) ** 2


def test_model_cutoff_of_the_square_channel():
    """At h/w = 1 the fold sits at V_c = 27 with alpha_y = alpha_z = 1/2."""
    v_c, alpha_y, alpha_z = model_cutoff(7.0, 7.0)
    assert v_c == pytest.approx(27.0, rel=1e-15, abs=0.0)
    assert alpha_y == pytest.approx(0.5, rel=1e-15, abs=0.0)
    assert alpha_z == pytest.approx(0.5, rel=1e-15, abs=0.0)


@pytest.mark.parametrize("aspect, v_c, bisected", [
    (6.5 / 6.0, 23.9669675, 23.9669716),
    (2.0, 10.2182424, 10.2182438),
    (0.5, 81.4488750, 81.4488895),
])
def test_model_cutoff_below_the_bisected_folds(aspect, v_c, bisected):
    """V_c at three aspect ratios h/w, and the strength from which
    ``_newton`` accepts, found by bisection, just above it."""
    got = model_cutoff(6.0, 6.0 * aspect)[0]
    assert got == pytest.approx(v_c, rel=0.0, abs=5e-8)
    assert 1.3e-7 < bisected / got - 1.0 < 1.8e-7


@pytest.mark.parametrize("q", np.logspace(math.log10(3e-8), math.log10(3e8), 33))
def test_fold_alphas_are_a_degenerate_stationary_point(q):
    """At V = V_c the fold alphas make the gradient of the bracket
    -a_y^2 - q a_z^2 + V f(a_y) g(a_z) vanish and its Hessian singular
    (f = a / sqrt(2a^2 + 1), g = a^3 / (2a^2 + 1)^(3/2))."""
    v_c, ay, az = model_cutoff(1.0, math.sqrt(3.0 / q))
    sy, sz = 2.0 * ay**2 + 1.0, 2.0 * az**2 + 1.0
    f, f1, f2 = ay / math.sqrt(sy), sy**-1.5, -6.0 * ay * sy**-2.5
    g, g1, g2 = az**3 * sz**-1.5, 3.0 * az**2 * sz**-2.5, 6.0 * az * (1.0 - 3.0 * az**2) * sz**-3.5
    grad = (-2.0 * ay + v_c * f1 * g, -2.0 * q * az + v_c * f * g1)
    h_yy, h_zz, h_yz = -2.0 + v_c * f2 * g, -2.0 * q + v_c * f * g2, v_c * f1 * g1
    # each within rounding of the terms that cancel in it
    assert abs(grad[0]) <= 1e-13 * 2.0 * ay
    assert abs(grad[1]) <= 1e-13 * 2.0 * q * az
    assert abs(h_yy * h_zz - h_yz**2) <= 1e-13 * (abs(h_yy) * 2.0 * q + h_yz**2)


def test_model_cutoff_finite_at_the_ends_of_the_geometry_range():
    """q = 3 (w/h)^2 runs from 3e-8 to 3e8 over GEOMETRY_RANGE_UM."""
    lo, hi = GEOMETRY_RANGE_UM
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for width, depth in ((lo, hi), (hi, lo), (lo, lo), (hi, hi)):
            v_c, alpha_y, alpha_z = model_cutoff(width, depth)
            assert all(math.isfinite(x) and x > 0.0 for x in (v_c, alpha_y, alpha_z))


@pytest.mark.parametrize("aspect", np.logspace(-1.0, 1.0, 9))
def test_newton_never_accepts_at_or_below_the_cutoff(aspect):
    """Started at (1, 1) or at random alphas in [0.05, 5], ``_newton``
    accepts no point with V <= V_c."""
    width, depth, n_b, lam = 8.0, 8.0 * aspect, 2.2, 1000.0
    ratio = np.concatenate([[1.0], 1.0 - np.logspace(-12.0, -0.3, 40)])
    dn = ratio * model_cutoff(width, depth)[0] / strength(width, n_b, 1.0, lam)
    rng = np.random.default_rng(7)
    starts = [np.ones((2, ratio.size))] + [rng.uniform(0.05, 5.0, (2, ratio.size))
                                           for _ in range(20)]
    for ay0, az0 in starts:
        assert not modesolver._newton(width, depth, n_b, dn, lam, ay0, az0)[2].any()


POINT_KINDS = ("below", "at", "band", "above", "no increment")
PAST_KINDS = ("below", "at", "no increment")
# V / V_c of each kind, placed by t in [0, 1]. "band" lies within 1e-5 above
# V_c, where det H -> 0 and Newton converges slowly. The kinds at and past
# the cutoff stay 1e-12 below it and the others 1e-12 above: at V = V_c the
# V formed here and the one ``solve_mode`` forms round to either side.
RATIOS = {"below": lambda t: (1.0 - 1e-12) * (0.2 + 0.8 * (1.0 - t)),
          "at": lambda t: 1.0 - 1e-12,
          "band": lambda t: 1.0 + 1e-12 + 1e-5 * t,
          "above": lambda t: 1.0001 * 200.0**t}


def batch_inputs(material, width, depth, points):
    """(n_b, delta_n, wavelength) arrays for (kind, t, wavelength,
    polarization) points: a V / V_c of the kind, placed by t in [0, 1]."""
    v_c = model_cutoff(width, depth)[0]
    n_b, dn, lam = [], [], []
    for kind, t, wavelength, pol in points:
        nb = float(material.sellmeier.index(pol, wavelength, 25.0))
        n_b.append(nb)
        dn.append(-1e-3 * t if kind == "no increment"
                  else RATIOS[kind](t) * v_c / strength(width, nb, 1.0, wavelength))
        lam.append(wavelength)
    return np.array(n_b), np.array(dn), np.array(lam)


def batches(test):
    """Batches of points of every kind in any order, with the chunk size
    ``solve_mode`` refines them in."""
    test = given(
        depth=st.floats(2.0, 20.0), width=st.floats(2.0, 20.0),
        points=st.lists(st.tuples(st.sampled_from(POINT_KINDS), st.floats(0.0, 1.0),
                                  st.floats(500.0, 1700.0),
                                  st.sampled_from(["ordinary", "extraordinary"])),
                        min_size=1, max_size=12),
        chunk=st.sampled_from([2, 3, modesolver.NEWTON_CHUNK]))(test)
    for points, chunk in (
            # a band point before the first point past the cutoff
            ([("above", 0.5, 780.0, "ordinary"), ("band", 0.5, 1551.0, "extraordinary"),
              ("below", 0.5, 1551.0, "ordinary")], modesolver.NEWTON_CHUNK),
            # delta_n = 0 is refused as "no index increment", in the first
            # chunk of two
            ([("above", 0.3, 780.0, "ordinary"), ("no increment", 0.0, 1551.0, "ordinary"),
              ("below", 0.5, 1600.0, "extraordinary")], 2),
            # the only point past the cutoff is in the second chunk
            ([("above", 0.3, 780.0, "ordinary"), ("band", 0.5, 1551.0, "extraordinary"),
              ("below", 0.5, 1600.0, "ordinary")], 2)):
        test = example(depth=6.0, width=6.0, points=points, chunk=chunk)(test)
    return settings(max_examples=200, deadline=None)(test)


def counting_steps(monkeypatch):
    """A one-element list that counts ``_ascent_direction`` calls, one per
    Newton step of a chunk."""
    steps = [0]
    ascent_direction = modesolver._ascent_direction

    def counted(*args):
        steps[0] += 1
        return ascent_direction(*args)

    monkeypatch.setattr(modesolver, "_ascent_direction", counted)
    return steps


@batches
def test_cutoff_pretest_matches_newton_alone(material, depth, width, points, chunk):
    """With the points past the cutoff left out, the rest, within 1e-5
    above and well above V_c in any order, give the NoGuidedMode text of
    ``newton_only_solve`` or its modes bit for bit, whatever the chunk
    size."""
    points = [point for point in points if point[0] not in PAST_KINDS]
    assume(points)
    geom = WaveguideGeometry(width, depth)
    n_b, dn, lam = batch_inputs(material, width, depth, points)
    with mock.patch.object(modesolver, "NEWTON_CHUNK", chunk):
        try:
            want = newton_only_solve(geom, n_b, dn, lam)
        except NoGuidedMode as exc:
            with pytest.raises(NoGuidedMode) as got:
                solve_mode(geom, n_b, dn, lam)
            assert str(got.value) == str(exc)
            return
        got = solve_mode(geom, n_b, dn, lam)
    np.testing.assert_array_equal(got.field.alpha_y, want[0])
    np.testing.assert_array_equal(got.field.alpha_z, want[1])
    np.testing.assert_array_equal(got.n_eff, want[2])


@batches
def test_first_point_past_the_cutoff_is_named_before_any_newton_step(
        material, depth, width, points, chunk):
    """A batch with points at or below V_c or with delta_n <= 0 raises
    NoGuidedMode for the first of them, in any chunk, without a Newton
    step."""
    kinds = [point[0] for point in points]
    assume(any(kind in PAST_KINDS for kind in kinds))
    k = next(i for i, kind in enumerate(kinds) if kind in PAST_KINDS)
    geom = WaveguideGeometry(width, depth)
    n_b, dn, lam = batch_inputs(material, width, depth, points)
    reason = "no index increment" if kinds[k] == "no increment" else "no interior maximum of n_eff^2"
    with pytest.MonkeyPatch.context() as patch:
        steps = counting_steps(patch)
        patch.setattr(modesolver, "NEWTON_CHUNK", chunk)
        with pytest.raises(NoGuidedMode) as got:
            solve_mode(geom, n_b, dn, lam)
    assert str(got.value) == (f"{reason} at {lam[k]} nm (w={width} um, h={depth} um, "
                              f"dn={dn[k]})")
    assert steps[0] == 0


def test_newton_rejection_above_the_cutoff_is_named_as_such():
    """At h/w = 1e4, Newton from (1, 1) fails to settle on the maximum the
    closed form has at V = 64.9 V_c: NoGuidedMode says so."""
    ctx = ModeContext(Material.default(), WaveguideGeometry(0.1, 1000.0))
    with pytest.raises(NoGuidedMode, match="^Newton did not settle on the interior maximum "
                                           "at 519.0 nm"):
        ctx.solve("ordinary", 519.0)


def test_cutoff_design_point_takes_no_newton_step(spec, material, monkeypatch):
    """A design point whose idler is past the model cutoff is refused
    before any Newton step; a guided one takes the steps it took before
    the pre-test."""
    steps = counting_steps(monkeypatch)
    with pytest.raises(NoGuidedMode, match="no interior maximum of n_eff.2 at 1551.03"):
        design_point(spec, WaveguideGeometry(4.5, 4.0), material)
    assert steps[0] == 0
    design_point(spec, WaveguideGeometry(10.0, 10.0), material)
    assert steps[0] == 7
