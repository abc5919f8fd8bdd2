import math

import numpy as np
import pytest
from scipy import integrate

from qpmdesign import NoGuidedMode, WaveguideGeometry, solve_mode
from qpmdesign import modesolver
from qpmdesign.modesolver import TrialField, group_index, neff_closed_form
from qpmdesign.pipeline import ModeContext, design_point

from conftest import DESIGN_TABLE
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


@pytest.mark.parametrize("start", [0.0, -1.0, math.nan])
def test_solve_mode_needs_positive_start_alphas(start):
    with pytest.raises(ValueError, match="^start alphas must be positive$"):
        solve_mode(GEOM, NB, DN, LAM, alpha_y0=start)
    with pytest.raises(ValueError, match="^start alphas must be positive$"):
        solve_mode(GEOM, NB, DN, [LAM, LAM], alpha_z0=[1.0, start])


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
    """Past cutoff of a 3.06 x 8.66 um guide the steps from (1, 1), each
    cut so that no alpha more than halves, slide toward the alpha -> 0
    boundary, the plane-wave limit with n_eff == n_b, and never settle: no
    mode."""
    ctx = ModeContext(material, WaveguideGeometry(3.06, 8.66))
    with pytest.raises(NoGuidedMode, match="no interior maximum"):
        ctx.solve(pol, lam)


def test_abs_hessian_step_matches_eigh():
    """The closed-form |H|^-1 grad against |H| from an eigendecomposition,
    for random symmetric 2x2 Hessians with det H <= 0 and concave ones
    (where it is the Newton step -H^-1 grad). The smaller eigenvalue's
    magnitude reaches 1e-3 of the larger one's: both computations lose
    about eps times that ratio's inverse."""
    rng = np.random.default_rng(19)
    n = 20_000
    mag = 10.0 ** rng.uniform(-3.0, 3.0, n)
    ratio = 10.0 ** rng.uniform(-3.0, 0.0, n)
    sign = rng.choice([-1.0, 1.0], n)
    saddle = rng.random(n) < 0.75  # eigenvalues of opposite signs, else both negative
    big = np.where(saddle, sign, -1.0) * mag
    small = np.where(saddle, -sign, -1.0) * ratio * mag
    theta = rng.uniform(0.0, np.pi, n)
    cos, sin = np.cos(theta), np.sin(theta)
    h_yy = cos * cos * big + sin * sin * small
    h_zz = sin * sin * big + cos * cos * small
    h_yz = cos * sin * (big - small)
    grad = rng.normal(size=(n, 2))
    step_y, step_z, det = modesolver._ascent_direction(
        grad[:, 0], grad[:, 1], h_yy, h_zz, h_yz)
    hess = np.stack([np.stack([h_yy, h_yz], -1), np.stack([h_yz, h_zz], -1)], -2)
    values, vectors = np.linalg.eigh(hess)
    along = np.einsum("nji,nj->ni", vectors, grad) / np.abs(values)
    ref = np.einsum("nij,nj->ni", vectors, along)
    np.testing.assert_array_equal(det <= 0.0, saddle)
    err = np.hypot(step_y - ref[:, 0], step_z - ref[:, 1]) / np.hypot(*ref.T)
    assert err.max() <= 1e-12


@pytest.mark.parametrize("width, depth, pol, lam", [
    (10.0, 10.0, "ordinary", 780.0),
    (6.0, 6.5, "extraordinary", 1570.0),
    (3.06, 8.66, "extraordinary", 1560.0),  # past cutoff
    (8.25, 3.0, "ordinary", 1600.0),  # past cutoff
])
def test_newton_keeps_alphas_positive(material, monkeypatch, width, depth, pol, lam):
    """From seeds spread over [0.05, 12]^2, guided or past cutoff, the
    halving cap keeps every alpha positive, through steps with det H <= 0
    too."""
    n_b = material.sellmeier.index(pol, lam, 25.0)
    dn = material.increments.increment(pol, lam)
    seeds = np.linspace(0.05, 12.0, 40)
    ay0, az0 = (a.ravel() for a in np.meshgrid(seeds, seeds, indexing="ij"))
    saddle_steps = []

    def counted(*args):
        step_y, step_z, det = direction(*args)
        saddle_steps.append(np.count_nonzero(det <= 0.0))
        return step_y, step_z, det

    direction = modesolver._ascent_direction
    monkeypatch.setattr(modesolver, "_ascent_direction", counted)
    ay, az, _ = modesolver._newton(width, depth, n_b, dn, lam, ay0, az0)
    assert np.all(ay > 0.0) and np.all(az > 0.0)
    assert sum(saddle_steps) > 0


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
