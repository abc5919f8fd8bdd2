"""Acceptance gate: one pass/fail line per criterion.

Each criterion prints a single line (bypassing capture so it always shows in
logs) and asserts. Criterion 8 records results that are excluded by design.
"""

import math
import sys

import numpy as np
import pytest
from scipy import integrate, optimize

from qpmdesign import (
    WaveguideGeometry,
    fourier_component,
    grating_scheme_efficiency_ratio,
    neff_closed_form,
    periods_from_frequencies,
    solve_mode,
    synthesize_pattern,
)
from qpmdesign.modesolver import TrialField
from qpmdesign.spdc import ProcessAmplitudes, gamma

from conftest import DESIGN_TABLE
from oracles import amplitude, amplitude_ratio_closed_form, gauss_legendre_neff2


@pytest.fixture(autouse=True)
def _uncaptured(request):
    """Expose a writer that bypasses pytest's output capture."""
    global _emit_line
    capman = request.config.pluginmanager.getplugin("capturemanager")

    def emit(line):
        if capman is not None:
            with capman.global_and_fixture_disabled():
                sys.stdout.write(line + "\n")
                sys.stdout.flush()
        else:
            sys.stdout.write(line + "\n")

    _emit_line = emit
    yield
    _emit_line = None


_emit_line = None


def report(num, name, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    line = f"ACCEPTANCE {num} [{name}]: {status}"
    if detail:
        line += f"  ({detail})"
    if _emit_line is not None:
        _emit_line(line)
    assert ok, line


def test_criterion_1_design_table_gamma(table_results):
    devs = []
    for depth, width, gamma_ref, *_ in DESIGN_TABLE:
        devs.append(abs(table_results[(depth, width)].gamma - gamma_ref))
    report(1, "design-table gamma within 0.02", max(devs) <= 0.02,
           f"max |dev| = {max(devs):.2e}")


def test_criterion_2_design_table_periods(table_results):
    rel_devs = []
    lambda1s = []
    for depth, width, _, l1_ref, l2_ref in DESIGN_TABLE:
        d = table_results[(depth, width)].design
        rel_devs.append(abs(d.Lambda1 / l1_ref - 1.0))
        rel_devs.append(abs(d.Lambda2 / l2_ref - 1.0))
        lambda1s.append(d.Lambda1)
    trend_ok = all(b > a for a, b in zip(lambda1s, lambda1s[1:]))
    ok = max(rel_devs) <= 0.02 and trend_ok
    report(2, "grating periods within 2% with increasing trend", ok,
           f"max rel dev = {max(rel_devs):.2e}, trend increasing = {trend_ok}")


def test_criterion_3_emission_bandwidths(reference_result):
    _, _, _, f_oe, f_eo = reference_result.spectra(half_range_nm=8.0,
                                                   n_samples=801)
    ratio = f_eo / f_oe
    ok = 0.22 <= f_oe <= 0.36 and 4.8 <= f_eo <= 7.9 and 17.0 <= ratio <= 27.0
    report(3, "sinc^2 FWHMs and their ratio in band", ok,
           f"FWHM_oe = {f_oe:.4f} nm, FWHM_eo = {f_eo:.3f} nm, ratio = {ratio:.2f}")


def test_criterion_4_fourier_engineering():
    design = periods_from_frequencies(2 * math.pi / 4.580, 2 * math.pi / 3.653)
    pattern = synthesize_pattern(design, 100 * design.Lambdap * 1e-3)
    ideal = 4.0 / math.pi**2
    c1 = fourier_component(pattern, design.K1)
    c2 = fourier_component(pattern, design.K2)
    dev = max(abs(abs(c1) / ideal - 1.0), abs(abs(c2) / ideal - 1.0))

    # FFT oracle vs piecewise-exact integral at the nearest FFT bins
    n = 2**20
    length = pattern.length_um
    xs = (np.arange(n) + 0.5) * (length / n)
    edges = np.concatenate([[0.0], pattern.domain_boundaries, [length]])
    signs = (-1.0) ** np.searchsorted(edges[1:-1], xs, side="right")
    spectrum = np.fft.fft(signs) / n
    freqs = 2 * math.pi * np.fft.fftfreq(n, d=length / n)
    fft_dev = 0.0
    for k_target in (design.K1, design.K2):
        idx = int(np.argmin(np.abs(freqs - k_target)))
        exact = fourier_component(pattern, float(freqs[idx]))
        fft_dev = max(fft_dev, abs(abs(spectrum[idx]) / abs(exact) - 1.0))

    ok = dev <= 1e-3 and fft_dev <= 1e-3
    report(4, "first-order Fourier amplitude 4/pi^2 and FFT oracle", ok,
           f"coeff rel dev = {dev:.2e}, FFT vs exact rel dev = {fft_dev:.2e}")


def _grid_oracle_neff(geom, n_b, dn, lam_nm):
    """400x400 grid search plus simplex refinement, independent of solve_mode."""
    alphas = np.linspace(0.1, 10.0, 400)
    ay, az = np.meshgrid(alphas, alphas, indexing="ij")
    vals = neff_closed_form(ay, az, geom.width_w, geom.depth_h, n_b, dn, lam_nm)
    i, j = np.unravel_index(np.argmax(vals), vals.shape)
    res = optimize.minimize(
        lambda p: -neff_closed_form(p[0], p[1], geom.width_w, geom.depth_h,
                                    n_b, dn, lam_nm),
        x0=[alphas[i], alphas[j]], method="Nelder-Mead",
        options={"xatol": 1e-10, "fatol": 1e-14, "maxiter": 4000})
    return math.sqrt(-res.fun)


def test_criterion_5_variational_solver(material):
    # 5a: solver vs grid-search oracle on five well-guided geometries
    cases = [
        (WaveguideGeometry(10.0, 10.0), "ordinary", 519.0),
        (WaveguideGeometry(10.0, 10.0), "extraordinary", 780.0),
        (WaveguideGeometry(8.0, 8.0), "ordinary", 780.0),
        (WaveguideGeometry(12.0, 12.0), "extraordinary", 519.0),
        (WaveguideGeometry(6.0, 7.0), "ordinary", 780.0),
    ]
    grid_dev = 0.0
    for geom, pol, lam in cases:
        n_b = material.sellmeier.index(pol, lam, 25.0)
        dn = material.increments.increment(pol, lam)
        sol = solve_mode(geom, n_b, dn, lam, polarization=pol)
        oracle = _grid_oracle_neff(geom, n_b, dn, lam)
        grid_dev = max(grid_dev, abs(sol.n_eff - oracle))

    # 5b: closed form vs quadrature on 20 random parameter sets
    rng = np.random.default_rng(2024)
    quad_dev = 0.0
    for _ in range(20):
        ay, az = rng.uniform(0.3, 5.0, size=2)
        w, h = rng.uniform(6.0, 12.0, size=2)
        n_b = rng.uniform(2.1, 2.3)
        dn = rng.uniform(0.001, 0.005)
        lam = rng.uniform(500.0, 1600.0)
        q = gauss_legendre_neff2(TrialField(ay, az, w, h), WaveguideGeometry(w, h),
                                 n_b, dn, lam, 200)
        c = neff_closed_form(ay, az, w, h, n_b, dn, lam)
        quad_dev = max(quad_dev, abs(q / c - 1.0))

    # 5c: trial-field normalization
    field = TrialField(1.2, 0.9, 10.0, 10.0)
    norm, _ = integrate.dblquad(lambda z, y: amplitude(field, y, z) ** 2,
                                -80.0, 80.0, -110.0, 0.0, epsabs=1e-11)
    norm_dev = abs(norm - 1.0)

    ok = grid_dev < 1e-9 and quad_dev < 1e-6 and norm_dev < 1e-8
    report(5, "variational solver oracles", ok,
           f"grid dev = {grid_dev:.2e}, quadrature rel dev = {quad_dev:.2e}, "
           f"norm dev = {norm_dev:.2e}")


def test_criterion_6_efficiency_ratio():
    exact = grating_scheme_efficiency_ratio() == 16.0 / math.pi**2
    design = periods_from_frequencies(2 * math.pi / 4.580, 2 * math.pi / 3.653)
    pattern = synthesize_pattern(design, 100 * design.Lambdap * 1e-3)
    c1 = abs(fourier_component(pattern, design.K1))
    length = pattern.length_um
    measured = (c1 * length) ** 2 / ((2.0 / math.pi) * (length / 2.0)) ** 2
    fourier_dev = abs(measured / grating_scheme_efficiency_ratio() - 1.0)
    ok = exact and fourier_dev < 1e-3
    report(6, "compound-grating efficiency ratio 16/pi^2", ok,
           f"exact = {exact}, Fourier-construction rel dev = {fourier_dev:.2e}")


def test_criterion_7_property_suite(reference_result):
    # gamma in [0, 1] on randomized inputs
    rng = np.random.default_rng(11)
    gammas_ok = True
    for _ in range(500):
        c_oe = complex(*rng.normal(size=2)) * 10.0 ** rng.uniform(-3, 3)
        c_eo = complex(*rng.normal(size=2)) * 10.0 ** rng.uniform(-3, 3)
        g = gamma(ProcessAmplitudes(1.0, 1.0, c_oe, c_eo, 0.0, 0.0))
        gammas_ok &= 0.0 <= g <= 1.0

    # gamma = 1 under forced amplitude symmetry
    c = complex(0.3, -0.4)
    sym_ok = gamma(ProcessAmplitudes(1.0, 1.0, c, c * 1j, 0.0, 0.0)) == 1.0

    # closed-form amplitude-ratio path agrees with the direct overlap path
    path_dev = 0.0
    m = reference_result.modes
    direct = (abs(reference_result.amplitudes.C_oe_rel)
              / abs(reference_result.amplitudes.C_eo_rel))
    closed = amplitude_ratio_closed_form(m["po"], m["so"], m["se"],
                                         m["io"], m["ie"])
    path_dev = abs(direct / closed - 1.0)

    # both phase mismatches vanish at the design wavelengths
    dk_max = max(abs(reference_result.amplitudes.delta_k_oe),
                 abs(reference_result.amplitudes.delta_k_eo))

    # bandwidth ratio invariant under interaction length
    from qpmdesign import bandwidth_approx
    g_idx = reference_result.group_indices
    ratios = []
    for length in (5.0, 10.0, 20.0):
        bw_oe, bw_eo = bandwidth_approx(g_idx["N_so"], g_idx["N_se"],
                                        g_idx["N_io"], g_idx["N_ie"],
                                        780.0, length)
        ratios.append(bw_eo / bw_oe)
    ratio_dev = max(abs(r / ratios[0] - 1.0) for r in ratios)

    ok = (gammas_ok and sym_ok and path_dev < 1e-10 and dk_max < 1e-10
          and ratio_dev < 1e-6)
    report(7, "property suite", ok,
           f"gamma bounded = {gammas_ok}, symmetric gamma = {sym_ok}, "
           f"amplitude-path dev = {path_dev:.2e}, |dk| max = {dk_max:.2e} rad/um, "
           f"ratio L-invariance dev = {ratio_dev:.2e}")


def test_criterion_8_excluded_results():
    # Absolute pair brightness (~1e5 pairs/s/mW/GHz) and the entanglement
    # visibilities of prior experiments are literature-quoted figures that
    # this model does not compute; they are excluded by design.
    report(8, "absolute brightness / experimental visibilities", True,
           "excluded by design, nothing to compute")
