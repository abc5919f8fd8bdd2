import math

import numpy as np
import pytest
from scipy import integrate

from qpmdesign import NoGuidedMode, WaveguideGeometry, solve_mode
from qpmdesign import modesolver
from qpmdesign.modesolver import TrialField, group_index, neff_closed_form
from qpmdesign.pipeline import ModeContext, design_point

from conftest import DESIGN_TABLE, strength
from oracles import (amplitude, gauss_legendre_neff2, index_profile, neff_quadrature,
                     per_mode_group_index, reference_group_index)

GEOM = WaveguideGeometry(10.0, 10.0)
NB, DN, LAM = 2.2112, 0.0025, 1551.0


def profile(y, z):
    return index_profile(GEOM, NB, DN, y, z)


def test_closed_form_matches_quadrature_reference_point():
    field = TrialField(1.0, 1.0, 10.0, 10.0)
    q = neff_quadrature(field, profile, LAM)
    c = neff_closed_form(1.0, 1.0, 10.0, 10.0, NB, DN, LAM)
    assert q == pytest.approx(c, rel=1e-6)


def test_closed_form_matches_quadrature_random_params():
    rng = np.random.default_rng(42)
    for _ in range(20):
        ay, az = rng.uniform(0.3, 5.0, size=2)
        field = TrialField(ay, az, 10.0, 10.0)
        q = gauss_legendre_neff2(field, GEOM, NB, DN, LAM, 200)
        c = neff_closed_form(ay, az, 10.0, 10.0, NB, DN, LAM)
        assert q == pytest.approx(c, rel=1e-6)


def test_quadrature_self_convergence():
    field = TrialField(1.3, 0.8, 10.0, 10.0)
    coarse = gauss_legendre_neff2(field, GEOM, NB, DN, LAM, 200)
    fine = gauss_legendre_neff2(field, GEOM, NB, DN, LAM, 400)
    assert abs(fine - coarse) < 1e-9


def test_no_increment_gives_kinetic_only():
    field = TrialField(1.0, 2.0, 10.0, 10.0)
    q = neff_quadrature(field, lambda y, z: index_profile(GEOM, NB, 0.0, y, z), LAM)
    c = neff_closed_form(1.0, 2.0, 10.0, 10.0, NB, 0.0, LAM)
    assert q == pytest.approx(c, rel=1e-9)
    assert c < NB**2


def test_kinetic_term_dominates_at_large_alpha():
    small = neff_closed_form(1.0, 1.0, 10.0, 10.0, NB, DN, LAM)
    large = neff_closed_form(500.0, 1.0, 10.0, 10.0, NB, DN, LAM)
    assert large < small
    assert large < 0.0


def test_trial_field_normalized():
    field = TrialField(0.7, 2.3, 6.0, 9.0)
    ylim = 10.0 * field.width_w / field.alpha_y
    zlim = 10.0 * field.depth_h / field.alpha_z
    val, _ = integrate.dblquad(lambda z, y: amplitude(field, y, z) ** 2,
                               -ylim, ylim, -zlim, 0.0, epsabs=1e-11)
    assert val == pytest.approx(1.0, abs=1e-8)


def test_trial_field_vanishes_in_cover():
    field = TrialField(1.0, 1.0, 10.0, 10.0)
    assert amplitude(field, 0.0, 0.0) == 0.0
    assert amplitude(field, 3.0, 2.0) == 0.0
    assert amplitude(field, 0.0, -5.0) > 0.0


def test_trial_field_needs_positive_alphas():
    """Every alpha > 0; NaN fails the check, alone or in an array."""
    for alpha_y, alpha_z in [(0.0, 1.0), (math.nan, 1.0), (1.0, math.nan),
                             (1.0, np.array([1.0, math.nan, 2.0]))]:
        with pytest.raises(ValueError, match="must be positive"):
            TrialField(alpha_y, alpha_z, 10.0, 10.0)


def test_solve_mode_bracket():
    sol = solve_mode(GEOM, NB, DN, LAM)
    assert NB < sol.n_eff < NB + 0.005
    assert sol.guided


def test_solve_mode_stationarity():
    sol = solve_mode(GEOM, NB, DN, LAM)
    ay, az = sol.field.alpha_y, sol.field.alpha_z
    eps = 1e-6
    gy = (neff_closed_form(ay + eps, az, 10, 10, NB, DN, LAM)
          - neff_closed_form(ay - eps, az, 10, 10, NB, DN, LAM)) / (2 * eps)
    gz = (neff_closed_form(ay, az + eps, 10, 10, NB, DN, LAM)
          - neff_closed_form(ay, az - eps, 10, 10, NB, DN, LAM)) / (2 * eps)
    assert math.hypot(gy, gz) < 1e-8


def test_zero_increment_raises():
    with pytest.raises(NoGuidedMode):
        solve_mode(GEOM, NB, 0.0, LAM)


def test_tiny_geometry_raises():
    with pytest.raises(NoGuidedMode):
        solve_mode(WaveguideGeometry(0.8, 0.8), NB, DN, LAM)


@pytest.mark.parametrize("pol, lam", [
    ("ordinary", 1576.0), ("ordinary", 1585.0), ("ordinary", 1590.0),
    ("ordinary", 1599.0), ("extraordinary", 1552.0),
    ("extraordinary", 1560.0), ("extraordinary", 1574.0),
])
def test_plane_wave_limit_is_no_mode(material, pol, lam):
    """Past the model cutoff of a 3.06 x 8.66 um guide the closed form has
    no interior maximum, only the alpha -> 0 boundary, the plane-wave limit
    with n_eff == n_b: no mode."""
    ctx = ModeContext(material, WaveguideGeometry(3.06, 8.66))
    with pytest.raises(NoGuidedMode, match="no interior maximum"):
        ctx.solve(pol, lam)


@pytest.mark.parametrize("width, depth, pol, lam", [
    (10.0, 10.0, "ordinary", 780.0),
    (6.0, 6.5, "extraordinary", 1570.0),
    (3.06, 8.66, "extraordinary", 1560.0),  # past cutoff
    (8.25, 3.0, "ordinary", 1600.0),  # past cutoff
    # h/w = 10: up to 1.74 V_c the start falls back to the bracket top
    (2.0, 20.0, "extraordinary", 1551.0),
])
def test_newton_keeps_alphas_positive(material, monkeypatch, width, depth, pol, lam):
    """The point, guided or past cutoff, and its geometry at 40 strengths
    from 1e-9 above V_c to 100 V_c: every returned alpha is positive,
    exactly the points above V_c are accepted, and every iterate of such a
    point stays inside its bracket [a_c, (V/16)^(1/4)], a_c the fold
    alpha_y of ``model_cutoff``."""
    n_b = material.sellmeier.index(pol, lam, 25.0)
    v_c, a_c, _ = modesolver.model_cutoff(width, depth)
    unit = strength(width, n_b, 1.0, lam)  # V per unit delta_n
    dn = np.append(material.increments.increment(pol, lam),
                   v_c * (1.0 + np.logspace(-9.0, 2.0, 40)) / unit)
    iterates = []

    def recorded(alpha_y, aspect2):
        iterates.append(alpha_y)
        return curve(alpha_y, aspect2)

    curve = modesolver._stationary_curve
    monkeypatch.setattr(modesolver, "_stationary_curve", recorded)
    ay, az, accepted = modesolver._newton(width, depth, n_b, dn, lam)
    assert np.all(ay > 0.0) and np.all(az > 0.0)
    v = unit * dn
    np.testing.assert_array_equal(accepted, v > v_c)
    assert len(iterates) > 2
    for alpha_y in iterates:
        inside = (alpha_y >= a_c) & (alpha_y <= (v / 16.0) ** 0.25 * (1.0 + 1e-15))
        assert np.all(inside | (v <= v_c))


def test_variational_bound():
    sol = solve_mode(GEOM, NB, DN, LAM)
    best = sol.n_eff**2
    rng = np.random.default_rng(7)
    for _ in range(200):
        ay, az = rng.uniform(0.1, 8.0, size=2)
        assert neff_closed_form(ay, az, 10, 10, NB, DN, LAM) <= best + 1e-14


def test_scaling_invariance():
    sol1 = solve_mode(GEOM, NB, DN, LAM)
    scaled = WaveguideGeometry(2 * GEOM.width_w, 2 * GEOM.depth_h)
    sol2 = solve_mode(scaled, NB, DN, 2 * LAM)
    assert sol2.field.alpha_y == pytest.approx(sol1.field.alpha_y, abs=1e-6)
    assert sol2.field.alpha_z == pytest.approx(sol1.field.alpha_z, abs=1e-6)


def test_monotone_in_increment():
    lo = solve_mode(GEOM, NB, 0.002, LAM)
    hi = solve_mode(GEOM, NB, 0.003, LAM)
    assert hi.n_eff > lo.n_eff


def n_eff_at_fixed_material(lams):
    # frozen n_b and dn: tests only the differentiation machinery
    return np.array([solve_mode(GEOM, NB, 0.0030, lam).n_eff
                     for lam in lams])


def test_group_index_exceeds_phase_index(material):
    ctx = ModeContext(material, WaveguideGeometry(10.0, 10.0), 25.0)
    mode = ctx.solve("extraordinary", 780.0)
    (n_group,) = group_index([mode], ctx.indices)
    assert n_group > mode.n_eff


@pytest.mark.parametrize("depth, width", [row[:2] for row in DESIGN_TABLE])
def test_group_index_matches_re_solving_reference(table_results, depth, width):
    """The closed form at the solved alphas against re-solving the mode at
    lambda +- step (envelope theorem), for signal and idler, both
    polarizations."""
    result = table_results[(depth, width)]
    ctx = result.context
    keys = ("so", "se", "io", "ie")
    n_group = group_index([result.modes[key] for key in keys], ctx.indices)
    for key, n in zip(keys, n_group):
        mode = result.modes[key]
        ref = reference_group_index(
            mode, lambda lams: ctx.solve(mode.polarization, lams).n_eff)
        assert abs(n - ref) <= 1e-7
        assert abs(result.group_indices[f"N_{key}"] - ref) <= 1e-7


def assert_group_indices_match_per_mode_lookup(result):
    keys = ("so", "se", "io", "ie")
    indices = result.context.indices
    assert [result.group_indices[f"N_{key}"].hex() for key in keys] == [
        per_mode_group_index(result.modes[key], indices).hex() for key in keys]


def test_group_index_matches_per_mode_lookup_on_the_table(table_results):
    """``design_point``'s group indices are those of the oracle's own
    per-mode lookup, bit for bit, on the four table rows."""
    for result in table_results.values():
        assert_group_indices_match_per_mode_lookup(result)


def test_group_index_matches_per_mode_lookup_on_random_geometries(spec, material):
    """The same on 200 seeded geometries, d, w in [3, 20] um; those past
    cutoff raise NoGuidedMode in ``design_point`` and are skipped."""
    rng = np.random.default_rng(26)
    guided = 0
    for depth, width in rng.uniform(3.0, 20.0, size=(200, 2)):
        try:
            result = design_point(spec, WaveguideGeometry(width, depth), material)
        except NoGuidedMode:
            continue
        guided += 1
        assert_group_indices_match_per_mode_lookup(result)
    assert guided > 150


def test_group_index_richardson_step_halving(monkeypatch):
    mode = solve_mode(GEOM, NB, 0.0030, 780.0)
    monkeypatch.setattr(modesolver, "GROUP_INDEX_STEP_NM", 0.2)
    n1 = reference_group_index(mode, n_eff_at_fixed_material)
    monkeypatch.setattr(modesolver, "GROUP_INDEX_STEP_NM", 0.1)
    n2 = reference_group_index(mode, n_eff_at_fixed_material)
    assert abs(n1 - n2) < 1e-7
