import math
import re

import numpy as np
import pytest

from qpmdesign import (
    ConfigError,
    DegenerateGroupIndices,
    FilterTooWide,
    OutOfRange,
    UndefinedGamma,
    bandwidth_approx,
    fwhm,
    gamma,
    grating_scheme_efficiency_ratio,
    overlap_integral,
    relative_amplitudes,
    spectrum,
)
from qpmdesign.modesolver import TrialField
from qpmdesign.qpm import fourier_component, periods_from_frequencies, synthesize_pattern
from qpmdesign.spdc import ProcessAmplitudes, filtered_gamma, sinc

from oracles import (amplitude_ratio_closed_form, overlap_integral_gauss,
                     overlap_integral_quadrature)


def amps(c_oe, c_eo, dk_oe=0.0, dk_eo=0.0):
    return ProcessAmplitudes(I_oe_per_um=1.0, I_eo_per_um=1.0,
                             C_oe_rel=c_oe, C_eo_rel=c_eo,
                             delta_k_oe=dk_oe, delta_k_eo=dk_eo)


class TestOverlap:
    def test_closed_form_vs_quadrature_random(self):
        rng = np.random.default_rng(3)
        for _ in range(5):
            fields = [TrialField(*rng.uniform(0.4, 3.0, size=2), 9.0, 7.0)
                      for _ in range(3)]
            closed = overlap_integral(*fields)
            quad = overlap_integral_gauss(*fields)
            assert quad == pytest.approx(closed, rel=1e-8)

    def test_gauss_rule_vs_adaptive_quadrature(self):
        """The tensor Gauss oracle against adaptive dblquad, on one triple of
        unequal fields."""
        fields = [TrialField(ay, az, 9.0, 7.0)
                  for ay, az in ((2.1, 1.3), (0.7, 2.6), (1.6, 0.5))]
        gauss = overlap_integral_gauss(*fields)
        assert gauss == pytest.approx(overlap_integral_quadrature(*fields), rel=1e-8)
        assert overlap_integral_gauss(*fields, n_nodes=64) == pytest.approx(gauss, rel=1e-13)

    def test_self_overlap_analytic(self):
        ay, az, w, h = 1.4, 0.9, 10.0, 8.0
        f = TrialField(ay, az, w, h)
        expected = (32.0 * (math.sqrt(ay) * az**1.5) ** 3
                    / (math.pi * math.sqrt(w * h) * math.sqrt(3 * ay**2)
                       * (3 * az**2) ** 2))
        val = overlap_integral(f, f, f)
        assert val == pytest.approx(expected, rel=1e-14)
        assert val > 0.0

    def test_symmetric_in_signal_idler(self):
        """Swapping signal and idler keeps every bit, on 20,000 seeded triples."""
        rng = np.random.default_rng(20)
        p, a, b = (TrialField(*rng.uniform(0.05, 12.0, size=(2, 20_000)), 10.0, 10.0)
                   for _ in range(3))
        assert overlap_integral(p, a, b).tobytes() == overlap_integral(p, b, a).tobytes()

    def test_mixed_geometry_rejected(self):
        p = TrialField(1.0, 1.0, 10.0, 10.0)
        q = TrialField(1.0, 1.0, 9.0, 10.0)
        with pytest.raises(ValueError):
            overlap_integral(p, p, q)


class TestAmplitudes:
    def test_two_paths_agree_at_design(self, reference_result):
        m = reference_result.modes
        ratio_direct = (abs(reference_result.amplitudes.C_oe_rel)
                        / abs(reference_result.amplitudes.C_eo_rel))
        ratio_closed = amplitude_ratio_closed_form(
            m["po"], m["so"], m["se"], m["io"], m["ie"])
        assert ratio_direct == pytest.approx(ratio_closed, rel=1e-10)

    def test_two_paths_agree_all_table_rows(self, table_results):
        for result in table_results.values():
            m = result.modes
            ratio_direct = (abs(result.amplitudes.C_oe_rel)
                            / abs(result.amplitudes.C_eo_rel))
            ratio_closed = amplitude_ratio_closed_form(
                m["po"], m["so"], m["se"], m["io"], m["ie"])
            assert ratio_direct == pytest.approx(ratio_closed, rel=1e-10)

    def test_closed_form_ratio_unity_under_symmetry(self):
        po = _fake_mode(2.0, 2.1, 2.33)
        s = _fake_mode(1.5, 1.6, 2.25)
        i = _fake_mode(1.1, 1.2, 2.20)
        assert amplitude_ratio_closed_form(po, s, s, i, i) == pytest.approx(1.0, rel=1e-14)

    def test_amplitude_vanishes_at_sinc_null(self, reference_result):
        spec = reference_result.spec
        # first zero of the oe process sits one group-delay bandwidth away
        lam_null = spec.lambda_s_nm + reference_result.bandwidth_oe_nm
        a = reference_result.amplitudes_at(lam_null)
        assert abs(a.C_oe_rel) < 0.05 * abs(a.C_eo_rel)

    def test_mismatch_at_the_modes_own_wavelengths(self, reference_result):
        """An idler solved off the energy-conservation curve enters with its
        own wavelength: delta_k = K - 2 pi (n_p/lp - n_s/ls - n_i/li)."""
        design, po = reference_result.design, reference_result.modes["po"]
        lam_i = np.array([1540.0, 1560.0])
        so, se, io, ie = reference_result.context.solve_many([("ordinary", np.full(2, 780.0)),
                                         ("extraordinary", np.full(2, 780.0)),
                                         ("ordinary", lam_i), ("extraordinary", lam_i)])
        a = relative_amplitudes(po, so, se, io, ie, design, 10.0)

        def k(p, s, i):
            return 2 * math.pi * (p.n_eff / (1e-3 * p.wavelength_nm)
                                  - s.n_eff / 0.78 - i.n_eff / (1e-3 * lam_i))

        np.testing.assert_allclose(a.delta_k_oe, design.K1 - k(po, so, ie), rtol=1e-12, atol=1e-12)
        np.testing.assert_allclose(a.delta_k_eo, design.K2 - k(po, se, io), rtol=1e-12, atol=1e-12)
        assert np.all(np.abs(a.delta_k_oe) > 1e-3)  # off the design: not phase-matched

    def test_phase_tracked(self, reference_result):
        a = reference_result.amplitudes_at(reference_result.spec.lambda_s_nm + 0.05)
        assert abs(a.C_oe_rel.imag) > 0.0


def _fake_mode(ay, az, neff):
    from qpmdesign.modesolver import ModalSolution
    return ModalSolution(wavelength_nm=780.0, polarization="ordinary",
                         n_eff=neff, n_bulk=neff - 0.002, delta_n=0.003,
                         field=TrialField(ay, az, 10.0, 10.0))


class TestGamma:
    def test_equal_amplitudes(self):
        assert gamma(amps(0.3, 0.3)) == 1.0

    def test_one_zero(self):
        assert gamma(amps(0.0, 0.4)) == 0.0

    def test_both_zero(self):
        with pytest.raises(UndefinedGamma):
            gamma(amps(0.0, 0.0))

    def test_scale_invariant(self):
        a = gamma(amps(0.2, 0.25))
        b = gamma(amps(0.2 * 7.3, 0.25 * 7.3))
        assert a == pytest.approx(b, rel=1e-15)


class TestBandwidth:
    def test_inverse_length_scaling(self):
        bw5 = bandwidth_approx(2.37, 2.275, 2.266, 2.185, 780.0, 5.0)
        bw10 = bandwidth_approx(2.37, 2.275, 2.266, 2.185, 780.0, 10.0)
        assert bw5[0] == pytest.approx(2 * bw10[0], rel=1e-12)
        assert bw5[1] == pytest.approx(2 * bw10[1], rel=1e-12)
        assert bw5[1] / bw5[0] == pytest.approx(bw10[1] / bw10[0], rel=1e-12)

    def test_degenerate_group_indices(self):
        with pytest.raises(DegenerateGroupIndices):
            bandwidth_approx(2.3, 2.275, 2.275 + 1e-8, 2.2, 780.0, 10.0)


class TestSpectrum:
    def test_analytic_sinc_curve_fwhm(self):
        # linear mismatch: FWHM of sinc^2 is 2*1.39156 / (slope * L/2)
        slope = 0.5  # rad/um per nm
        length_mm = 10.0
        half_l = 0.5 * length_mm * 1e3
        grid = np.linspace(-0.1, 0.1, 4001)
        curve = spectrum(slope * grid, length_mm)
        expected = 2.0 * 1.3915574 / (slope * half_l)
        assert fwhm(grid, curve) == pytest.approx(expected, rel=1e-3)
        assert curve.max() == 1.0

    def test_peak_at_design(self, reference_result):
        grid = np.linspace(779.0, 781.0, 201)
        curve = spectrum(_delta_k_oe(reference_result, grid),
                         reference_result.spec.length_mm)
        assert curve[100] == pytest.approx(1.0, abs=1e-6)

    def test_local_symmetry(self, reference_result):
        d = 0.03  # well inside the 0.29 nm width
        lam0 = reference_result.spec.lambda_s_nm
        grid = [lam0 - d, lam0, lam0 + d]
        curve = spectrum(_delta_k_oe(reference_result, grid),
                         reference_result.spec.length_mm)
        assert curve[0] == pytest.approx(curve[2], rel=0.05)

    @pytest.mark.parametrize("half_range_nm, n_samples", [
        (10.0, 0), (10.0, 2), (-5.0, 11), (0.0, 11), (math.nan, 11), (math.inf, 11),
        # not a sample count or not a number
        (10.0, 3.5), (10.0, math.nan), (10.0, True), ("a", 11)])
    def test_unsampleable_window_rejected(self, reference_result, half_range_nm, n_samples):
        with pytest.raises(ConfigError, match="at least 3 samples and a positive, finite"):
            reference_result.spectra(half_range_nm, n_samples)

    def test_crossing_outside_window_names_window(self):
        grid = np.linspace(-0.01, 0.01, 21)
        with pytest.raises(OutOfRange, match=re.escape("window [-0.01, 0.01] nm")):
            fwhm(grid, spectrum(1e-3 * grid, 10.0))

    def test_spectrum_that_underflows_everywhere_raises(self):
        """At a mismatch of 1e200 rad/um sinc^2 underflows to exactly 0 at
        every sample: UndefinedGamma, not a curve of NaN."""
        with pytest.raises(UndefinedGamma):
            spectrum([1e200, -1e200, 1e200], 10.0)


def _delta_k_oe(result, grid):
    return [result.amplitudes_at(float(lam)).delta_k_oe for lam in grid]


class TestFilteredGamma:
    def test_zero_width_limit(self, reference_result):
        g0 = reference_result.gamma
        assert reference_result.filtered_gamma(0.0) == pytest.approx(g0, rel=1e-12)

    @pytest.mark.parametrize("width", [1e-12, 1e-13, 1e-300, 5e-324])
    def test_very_narrow_filter_is_unfiltered(self, reference_result, width):
        """Below about 1e-13 nm the signal window rounds to lambda_s itself
        (5e-324 nm to a zero width): gamma, as at 1e-12 nm, where the
        window still spans a few ulps."""
        g = reference_result.filtered_gamma(width)
        assert g == pytest.approx(reference_result.gamma, rel=0.0, abs=1e-15)

    def test_narrow_filter_close_to_unfiltered(self, reference_result):
        g = reference_result.filtered_gamma(0.1)
        assert g == pytest.approx(reference_result.gamma, abs=1e-3)

    def test_one_vanishing_process_gives_zero(self):
        """Only both processes vanishing leaves gamma undefined; one
        vanishing gives 0."""
        grid = np.array([779.95, 780.0, 780.05])
        zero, half = np.zeros(3), np.full(3, 0.5)
        assert filtered_gamma(grid, amps(zero, half)) == 0.0
        assert filtered_gamma(grid, amps(half, zero)) == 0.0
        with pytest.raises(UndefinedGamma, match="both filtered amplitudes vanish"):
            filtered_gamma(grid, amps(zero, zero))

    def test_filter_as_wide_as_narrow_band_rejected(self, reference_result):
        with pytest.raises(FilterTooWide):
            reference_result.filtered_gamma(reference_result.bandwidth_oe_nm)

    @pytest.mark.parametrize("width", [-0.5, -1e9, -math.inf, math.nan, math.inf,
                                       "a", None, True])
    def test_bad_filter_width_rejected(self, reference_result, width):
        with pytest.raises(ConfigError, match=f"^filter width {re.escape(str(width))} nm"):
            reference_result.filtered_gamma(width)


def test_non_numeric_signal_rejected(reference_result):
    with pytest.raises(ConfigError, match="^signal wavelength 'a' is not a number$"):
        reference_result.amplitudes_at("a")


class TestEfficiencyRatio:
    def test_analytic_value(self):
        assert grating_scheme_efficiency_ratio() == 16.0 / math.pi**2
        assert grating_scheme_efficiency_ratio() == pytest.approx(1.6211, abs=1e-4)

    def test_length_cancels(self):
        for length in (1.0, 2.0, 10.0):
            compound = (4.0 / math.pi**2) * length
            separate = (2.0 / math.pi) * (length / 2.0)
            assert (compound / separate) ** 2 == pytest.approx(
                grating_scheme_efficiency_ratio(), rel=1e-14)

    def test_consistent_with_fourier_construction(self):
        design = periods_from_frequencies(2 * math.pi / 4.580, 2 * math.pi / 3.653)
        pattern = synthesize_pattern(design, 100 * design.Lambdap * 1e-3)
        c1 = abs(fourier_component(pattern, design.K1))
        length = pattern.length_um
        measured = (c1 * length) ** 2 / ((2.0 / math.pi) * (length / 2.0)) ** 2
        assert measured == pytest.approx(grating_scheme_efficiency_ratio(), rel=1e-3)


def test_sinc_convention():
    assert sinc(0.0) == 1.0
    assert float(sinc(math.pi)) == pytest.approx(0.0, abs=1e-15)
    assert float(sinc(1.0)) == pytest.approx(math.sin(1.0), rel=1e-12)
