import csv
import math
import re
import warnings

import numpy as np
import pytest

from qpmdesign import (
    ConfigError,
    DegenerateModulation,
    InteractionSpec,
    NonPositiveFrequency,
    fourier_component,
    periods_from_frequencies,
    phase_matching_k,
    required_frequencies,
    synthesize_pattern,
)
from qpmdesign.modesolver import ModalSolution, TrialField
from qpmdesign.qpm import LENGTH_RANGE_MM, MAX_PATTERN_FLIPS, export_pattern_csv

from oracles import (domain_sum_fourier_component, reference_boundaries,
                     reference_fourier_component, sign_at)

TWO_PI = 2.0 * math.pi


class TestInteractionSpec:
    def test_default_length_is_one_centimetre(self):
        assert InteractionSpec(519.0, 780.0).length_mm == 10.0

    def test_idler_derived_and_energy_conserving(self):
        spec = InteractionSpec(519.0, 780.0)
        lhs = 1.0 / spec.lambda_p_nm
        rhs = 1.0 / spec.lambda_s_nm + 1.0 / spec.lambda_i_nm
        assert abs(lhs - rhs) / lhs < 1e-12

    def test_nearby_idler_snapped(self):
        spec = InteractionSpec(519.0, 780.0, lambda_i_nm=1551.0)
        assert spec.lambda_i_nm == pytest.approx(1551.0345, abs=1e-3)
        lhs = 1.0 / spec.lambda_p_nm
        rhs = 1.0 / spec.lambda_s_nm + 1.0 / spec.lambda_i_nm
        assert abs(lhs - rhs) / lhs < 1e-9

    def test_far_idler_rejected(self):
        with pytest.raises(ConfigError):
            InteractionSpec(519.0, 780.0, lambda_i_nm=1600.0)

    def test_bad_ordering_rejected(self):
        for pump, signal in ((780.0, 519.0), (519.0, 519.0)):
            with pytest.raises(ConfigError, match=re.escape(
                    f"signal {signal} nm incompatible with pump {pump} nm: "
                    "the signal must be longer than the pump")):
                InteractionSpec(pump, signal)
        with pytest.raises(ConfigError):
            InteractionSpec(519.0, 780.0, length_mm=0.0)

    @pytest.mark.parametrize("field, value", [
        ("length_mm", math.nan), ("length_mm", math.inf), ("temperature_c", math.nan)])
    def test_non_finite_number_rejected(self, field, value):
        with pytest.raises(ConfigError, match=f"^{field} must be a finite number, got {value}$"):
            InteractionSpec(519.0, 780.0, **{field: value})

    @pytest.mark.parametrize("length_mm", [1e308, 5e-324, 1e-310, 0.0, -1.0])
    def test_length_outside_range_rejected(self, length_mm):
        """Lengths outside LENGTH_RANGE_MM, at which design_point warned
        of overflow in the bandwidths and sinc factors, are ConfigErrors."""
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ConfigError, match=re.escape(
                    f"interaction length must lie in [0.001, 10000.0] mm, got {length_mm} mm")):
                InteractionSpec(519.0, 780.0, length_mm=length_mm)
        for length_mm in LENGTH_RANGE_MM:
            assert InteractionSpec(519.0, 780.0, length_mm=length_mm).length_mm == length_mm

    @pytest.mark.parametrize("pump, signal", [(1e308, 1.7976931348623157e308),
                                              (5e-324, 1e-310)])
    def test_idler_beyond_float_range_rejected(self, pump, signal):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ConfigError, match=re.escape(
                    f"signal {signal} nm incompatible with pump {pump} nm")):
                InteractionSpec(pump, signal)

    def test_signal_grid(self):
        spec = InteractionSpec(519.0, 780.0)
        np.testing.assert_array_equal(spec.signal_grid(10.0, 5),
                                      np.linspace(770.0, 790.0, 5), strict=True)
        with pytest.raises(ConfigError, match=re.escape("lower edge at 480.0 nm")):
            spec.signal_grid(300.0, 11)

    def test_idler_for_tracks_signal(self):
        spec = InteractionSpec(519.0, 780.0)
        li = spec.idler_for(770.0)
        assert 1.0 / spec.lambda_p_nm == pytest.approx(1.0 / 770.0 + 1.0 / li, rel=1e-12)

    def test_idler_for_names_first_bad_signal(self):
        spec = InteractionSpec(519.0, 780.0)
        with pytest.raises(ConfigError, match=r"^signal 500\.0 nm incompatible") as info:
            spec.idler_for(np.array([700.0, 500.0, 0.0, -20.0]))
        assert "[" not in str(info.value)


def _mode(wavelength_nm, n_eff):
    return ModalSolution(wavelength_nm=wavelength_nm, polarization="ordinary",
                         n_eff=n_eff, n_bulk=n_eff, delta_n=0.0,
                         field=TrialField(1.0, 1.0, 10.0, 10.0))


class TestRequiredFrequencies:
    def test_isotropic_symmetry(self):
        spec = InteractionSpec(519.0, 780.0)
        p, s, i = (_mode(spec.lambda_p_nm, 2.33), _mode(spec.lambda_s_nm, 2.26),
                   _mode(spec.lambda_i_nm, 2.21))
        k1, k2 = required_frequencies(p, s, s, i, i)
        assert k1 == pytest.approx(k2, rel=1e-15)

    def test_infeasible_combination(self):
        spec = InteractionSpec(519.0, 780.0)
        modes = [_mode(lam, n) for lam, n in (
            (spec.lambda_p_nm, 2.2), (spec.lambda_s_nm, 2.26), (spec.lambda_s_nm, 2.18),
            (spec.lambda_i_nm, 2.21), (spec.lambda_i_nm, 2.14))]
        with pytest.raises(NonPositiveFrequency, match="first-order QPM infeasible$"):
            periods_from_frequencies(*required_frequencies(*modes))

    def test_phase_matching_k_broadcasts_over_signal(self):
        spec = InteractionSpec(519.0, 780.0)
        lams = np.array([776.0, 780.0, 784.5])
        lams_i = spec.idler_for(lams)
        n_s = np.array([2.261, 2.26, 2.259])
        n_i = np.array([2.209, 2.21, 2.211])
        pump = _mode(519.0, 2.33)
        batch = phase_matching_k(pump, _mode(lams, n_s), _mode(lams_i, n_i))
        single = [phase_matching_k(pump, _mode(lam, s), _mode(lam_i, i))
                  for lam, s, lam_i, i in zip(lams, n_s, lams_i, n_i)]
        np.testing.assert_array_equal(batch, single)
        assert batch[1] == phase_matching_k(pump, _mode(780.0, 2.26),
                                            _mode(spec.lambda_i_nm, 2.21))
        expected = TWO_PI * (2.33 / 0.519 - 2.261 / 0.776 - 2.209 / (1e-3 * lams_i[0]))
        assert batch[0] == pytest.approx(expected, rel=1e-14)


class TestPeriods:
    def test_table_style_inversion(self):
        k1 = TWO_PI / 4.580
        k2 = TWO_PI / 3.653
        design = periods_from_frequencies(k1, k2)
        expected_l0 = 2 * 4.580 * 3.653 / (4.580 + 3.653)
        assert design.Lambda0 == pytest.approx(expected_l0, rel=1e-12)
        assert design.Lambda0 == pytest.approx(4.064, abs=2e-3)
        assert design.Lambdap == pytest.approx(36.1, abs=0.2)
        assert design.Lambdap > design.Lambda0 > 0

    def test_round_trip(self):
        k1, k2 = 1.372, 1.720
        design = periods_from_frequencies(k1, k2)
        k0 = TWO_PI / design.Lambda0
        kp = TWO_PI / design.Lambdap
        assert sorted([k0 + kp, k0 - kp]) == pytest.approx(sorted([k1, k2]), rel=1e-12)

    def test_degenerate(self):
        with pytest.raises(DegenerateModulation):
            periods_from_frequencies(1.5, 1.5)

    @pytest.mark.parametrize("k1", [math.nan, math.inf])
    def test_non_finite_frequency_rejected(self, k1):
        with pytest.raises(ConfigError, match=f"^K1 must be a finite number, got {k1}$"):
            periods_from_frequencies(k1, 1.0)

    def test_float_range_ends(self):
        """Finite, positive periods or a QpmDesignError at both ends of the
        float range, where Kp underflowed (ZeroDivisionError), K1 + K2
        overflowed (Lambda0 = 0) or every period overflowed (inf)."""
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DegenerateModulation, match="too close"):
                periods_from_frequencies(5e-324, 1e-323)
            with pytest.raises(ConfigError, match=re.escape(
                    "K1 = 1e-310, K2 = 3e-310 rad/um: a period 2 pi/K overflows")):
                periods_from_frequencies(1e-310, 3e-310)
            design = periods_from_frequencies(1e308, 1.7e308)
            periods = (design.Lambda1, design.Lambda2, design.Lambda0, design.Lambdap)
            assert all(0.0 < period < math.inf for period in periods)
            assert design.Lambda0 == TWO_PI / 1.35e308
            with pytest.raises(ConfigError, match="domain flips"):
                synthesize_pattern(design, 10.0)


def commensurate_design(lambda0=2.0, lambdap=6.0):
    k0 = TWO_PI / lambda0
    kp = TWO_PI / lambdap
    return periods_from_frequencies(k0 + kp, k0 - kp)


def flip_reference_cases():
    """(design, length_mm) pairs: 60 seeded designs, and the commensurate
    Lambdap/Lambda0 = 9 and 71/8 at 10 and 50 mm."""
    rng = np.random.default_rng(2024)
    cases = [(commensurate_design(lambda0, lambda0 * ratio), length)
             for lambda0, ratio, length in zip(rng.uniform(3.5, 4.5, 60),
                                               rng.uniform(4.0, 20.0, 60),
                                               rng.uniform(1.0, 50.0, 60))]
    commensurate = [(commensurate_design(4.1, 4.1 * ratio), length)
                    for ratio in (9.0, 71.0 / 8.0) for length in (10.0, 50.0)]
    return cases, commensurate


def bench_shaped_requests():
    """(design, length_mm, K values) shaped like the benchmark's grating
    requests: the reference periods scaled together by up to +-1 %, a whole
    number of modulation periods 10-50 mm long, and a 32-point K-scan (each
    peak and 15 seeded offsets within 4 lobes of it), plus K = 0 and K < 0."""
    rng = np.random.default_rng(14)
    for _ in range(12):
        scale = 1.0 + rng.uniform(-0.01, 0.01)
        design = periods_from_frequencies(TWO_PI / 4.579 * scale, TWO_PI / 3.652 * scale)
        periods = rng.integers(math.ceil(1e4 / design.Lambdap),
                               math.floor(5e4 / design.Lambdap) + 1)
        length_um = periods * design.Lambdap
        lobe = TWO_PI / length_um
        scan = [k + 4.0 * lobe * x for k in (design.K1, design.K2)
                for x in (0.0, *rng.uniform(-1.0, 1.0, 15))]
        yield design, length_um * 1e-3, scan + [0.0, -design.K1, -scan[5]]


class TestPattern:
    def test_signs_near_origin_and_first_carrier_flip(self):
        design = commensurate_design()
        pattern = synthesize_pattern(design, length_mm=0.06)  # 10 Lambdap
        eps = 1e-6
        assert sign_at(pattern, eps) == 1
        # first carrier flip at Lambda0/2 = 1 um, modulation not yet flipped
        assert sign_at(pattern, design.Lambda0 / 2 + eps) == -1

    def test_coincident_flips_cancel(self):
        # Lambda0/2 = 1, Lambdap/2 = 3: flips coincide at x = 3, 6, 9, ...
        design = commensurate_design()
        pattern = synthesize_pattern(design, length_mm=0.06)
        assert not any(abs(b - 3.0) < 1e-9 for b in pattern.domain_boundaries)
        # f1 flips odd->even at 3 while f2 flips too: product stays put
        assert sign_at(pattern, 3.0 - 1e-6) == sign_at(pattern, 3.0 + 1e-6)

    def test_matches_flip_by_flip_reference(self):
        """Equal boundaries on seeded designs and on the commensurate
        Lambdap/Lambda0 = 9 and 71/8 (near the design table's ratio), where
        flip pairs coincide and are dropped."""
        cases, commensurate = flip_reference_cases()
        for design, length in cases + commensurate:
            pattern = synthesize_pattern(design, length)
            np.testing.assert_array_equal(pattern.domain_boundaries,
                                          reference_boundaries(design, length),
                                          strict=True)
        for design, length in commensurate:
            flips = (length * 1e3 / (design.Lambda0 / 2.0)
                     + length * 1e3 / (design.Lambdap / 2.0))
            assert len(synthesize_pattern(design, length).domain_boundaries) < flips - 2

    def test_boundaries_strictly_increasing(self):
        """Read-only, strictly increasing and inside (0, L) on the designs of
        test_matches_flip_by_flip_reference, dropped pairs included."""
        cases, commensurate = flip_reference_cases()
        for design, length in cases + commensurate:
            pattern = synthesize_pattern(design, length)
            b = pattern.domain_boundaries
            assert b.dtype == np.float64 and not b.flags.writeable
            assert np.all(np.diff(b) > 0.0)
            assert b[0] > 0.0 and b[-1] < pattern.length_um

    def test_flip_blocks_hold_every_kept_flip(self):
        """On bench-shaped and commensurate designs, the jumps of
        ``flip_blocks`` total 2 per boundary, and start + offset +
        (W delta)/W of each nonzero jump gives back ``domain_boundaries``."""
        _, commensurate = flip_reference_cases()
        designs = [(design, length_mm) for design, length_mm, _ in bench_shaped_requests()]
        for design, length_mm in designs + commensurate:
            pattern = synthesize_pattern(design, length_mm)
            starts_hi, starts_lo, offsets, grids = pattern.flip_blocks
            starts = starts_hi + starts_lo
            first, flips, jumps = 0, [], 0.0
            for steps, weights in grids:
                w, w_delta = np.split(weights, 2)
                block_starts = starts[first:first + len(w)]
                first += len(w)
                jumps += np.abs(w).sum()
                kept = w != 0.0
                x = block_starts[:, None] + offsets[steps] + w_delta / np.where(kept, w, 1.0)
                flips.append(x[kept])
            assert first == len(starts)
            assert jumps == 2 * len(pattern.domain_boundaries)
            flips = np.sort(np.concatenate(flips))
            assert len(flips) == len(pattern.domain_boundaries)
            np.testing.assert_allclose(flips, pattern.domain_boundaries, rtol=0.0, atol=1e-9)

    def test_too_short_length_rejected(self):
        design = commensurate_design()
        with pytest.raises(ConfigError):
            synthesize_pattern(design, length_mm=0.004)

    def test_too_many_flips_rejected(self):
        design = periods_from_frequencies(TWO_PI / 4.579, TWO_PI / 3.652)
        flips = 2e6 * (2.0 / design.Lambda0 + 2.0 / design.Lambdap)
        with pytest.raises(ConfigError, match=re.escape(f"needs {flips:.3g} domain flips")):
            synthesize_pattern(design, length_mm=2e3)


class TestFourier:
    def setup_method(self):
        # incommensurate, table-style periods; L = 100 modulation periods
        self.design = periods_from_frequencies(TWO_PI / 4.580, TWO_PI / 3.653)
        self.pattern = synthesize_pattern(self.design, 100 * self.design.Lambdap * 1e-3)

    def test_first_order_magnitudes(self):
        ideal = 4.0 / math.pi**2
        c1 = fourier_component(self.pattern, self.design.K1)
        c2 = fourier_component(self.pattern, self.design.K2)
        assert abs(c1) == pytest.approx(ideal, rel=1e-3)
        assert abs(c2) == pytest.approx(ideal, rel=1e-3)

    def test_opposite_signs(self):
        c1 = fourier_component(self.pattern, self.design.K1)
        c2 = fourier_component(self.pattern, self.design.K2)
        assert c1.real * c2.real < 0

    @pytest.mark.parametrize("k", [math.nan, math.inf])
    def test_non_finite_frequency_rejected(self, k):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ConfigError, match=f"^K must be a finite number, got {k}$"):
                fourier_component(self.pattern, k)

    def test_every_finite_frequency_gives_a_number_or_config_error(self):
        """|K| L beyond 2^52 is a ConfigError (K L overflowed to NaN with
        warnings); |K| L up to 2^-52 gives the mean sign as its real part and
        the exact per-domain sum's imaginary part (a subnormal K overflowed
        the final division); K in between gives a finite complex."""
        length = self.pattern.length_um
        mean = fourier_component(self.pattern, 0.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for k in (1e305, -1e305, 1e308, -1e308, 1.7976931348623157e308,
                      2.0**52 / length * 1.0000001):
                with pytest.raises(ConfigError, match=r"\|K\| L = .* is beyond 2\^52"):
                    fourier_component(self.pattern, k)
            for k in (5e-324, -5e-324, 1e-310, 2.0**-52 / length):
                c = fourier_component(self.pattern, k)
                assert c.real == mean.real
                assert abs(c.imag - domain_sum_fourier_component(self.pattern, k).imag) < 1e-15
            for k in (2.0**52 / length, -(2.0**52) / length, 2.0**-51 / length, 1e-9):
                c = fourier_component(self.pattern, k)
                assert math.isfinite(c.real) and math.isfinite(c.imag)

    @pytest.mark.parametrize("length_mm", [10.0, 50.0])
    def test_matches_exact_domain_sum_from_small_to_large_frequency(self, length_mm):
        """On the reference grating, within 1e-15 of the exact per-domain sum
        where |K| L <= 1 (the by-parts sum lost up to 2.4e-7 at |K| L = 3e-8
        there) and within 1e-12 above, K = 0 and both signs of K included."""
        design = periods_from_frequencies(TWO_PI / 4.579, TWO_PI / 3.652)
        pattern = synthesize_pattern(design, length_mm)
        length = pattern.length_um
        for i, phase in enumerate([0.0, *np.logspace(-15, 2, 18), 0.5, 1.0, 1.0000001, 2.0]):
            k = (-1.0) ** i * phase / length
            bound = 1e-15 if abs(k) * length <= 1.0 else 1e-12
            exact = domain_sum_fourier_component(pattern, k)
            assert abs(fourier_component(pattern, k) - exact) < bound, phase

    def test_zero_frequency_vanishes(self):
        assert abs(fourier_component(self.pattern, 0.0)) < 1e-3

    def test_fft_oracle(self):
        n = 2**20
        length = self.pattern.length_um
        xs = (np.arange(n) + 0.5) * (length / n)
        edges = np.concatenate([[0.0], self.pattern.domain_boundaries, [length]])
        signs = (-1.0) ** np.searchsorted(edges[1:-1], xs, side="right")
        spectrum = np.fft.fft(signs) / n
        freqs = TWO_PI * np.fft.fftfreq(n, d=length / n)
        for k_target in (self.design.K1, self.design.K2):
            idx = int(np.argmin(np.abs(freqs - k_target)))
            exact = fourier_component(self.pattern, float(freqs[idx]))
            assert abs(spectrum[idx]) == pytest.approx(abs(exact), rel=1e-3)

    def test_matches_per_edge_reference(self):
        """The closed-form sum agrees with the per-edge sum on the designs of
        test_matches_flip_by_flip_reference, at K = 0, the carrier harmonics
        K0, 2 K0 and 3 K0 (r = 1 at the odd ones), K0 +- Kp and a seeded
        spread of K on both sides of zero."""
        rng = np.random.default_rng(8)
        cases, commensurate = flip_reference_cases()
        for design, length in cases + commensurate:
            pattern = synthesize_pattern(design, length)
            k0 = TWO_PI / design.Lambda0
            kp = TWO_PI / design.Lambdap
            spread = rng.uniform(-4.0 * k0, 4.0 * k0, 4)
            for k in (0.0, k0, 2.0 * k0, 3.0 * k0, k0 + kp, k0 - kp, *spread):
                exact = reference_fourier_component(pattern, float(k))
                assert abs(fourier_component(pattern, float(k)) - exact) < 1e-12

    def test_matches_exact_phase_reference(self):
        """Within 1e-14 of the per-edge sum with exact phases on the designs
        of test_matches_flip_by_flip_reference: each flip is summed at its
        own arange position, not at start + j h of its block, which the
        rounding of the positions would bias by up to 3e-13."""
        rng = np.random.default_rng(9)
        cases, commensurate = flip_reference_cases()
        for design, length in cases + commensurate:
            pattern = synthesize_pattern(design, length)
            k0 = TWO_PI / design.Lambda0
            kp = TWO_PI / design.Lambdap
            for k in (k0 + kp, k0 - kp, 3.0 * k0, *rng.uniform(-4.0 * k0, 4.0 * k0, 4)):
                exact = reference_fourier_component(pattern, float(k), exact_phases=True)
                assert abs(fourier_component(pattern, float(k)) - exact) < 1e-14

    def test_matches_per_edge_reference_on_bench_shapes(self):
        for design, length_mm, scan in bench_shaped_requests():
            pattern = synthesize_pattern(design, length_mm)
            for k in scan:
                exact = reference_fourier_component(pattern, float(k))
                assert abs(fourier_component(pattern, float(k)) - exact) < 1e-12

    def test_longest_pattern(self):
        """Just under MAX_PATTERN_FLIPS (about 1.8 m): a peak at 4/pi^2, and
        the per-edge sums matched where rounding one phase per block of
        ~1000 flips would miss by up to 3.6e-12."""
        design = periods_from_frequencies(TWO_PI / 4.579, TWO_PI / 3.652)
        flips_per_period = 2.0 + 2.0 * design.Lambdap / design.Lambda0
        periods = math.floor(0.999 * MAX_PATTERN_FLIPS / flips_per_period)
        pattern = synthesize_pattern(design, periods * design.Lambdap * 1e-3)
        assert len(pattern.domain_boundaries) > 0.99 * MAX_PATTERN_FLIPS
        assert abs(abs(fourier_component(pattern, design.K1)) - 4.0 / math.pi**2) < 1e-3
        lobe = TWO_PI / pattern.length_um
        rng = np.random.default_rng(5)
        for k in (design.K1, -design.K2, *(design.K1 + 4.0 * lobe * rng.uniform(-1, 1, 6))):
            c = fourier_component(pattern, float(k))
            assert abs(c - reference_fourier_component(pattern, float(k))) < 1e-12
            exact = reference_fourier_component(pattern, float(k), exact_phases=True)
            assert abs(c - exact) < 1e-14

    def test_spectral_support_odd_orders_only(self):
        # commensurate case with K0 = 4 Kp: components n K0 + m Kp (n, m odd)
        # land on odd multiples of Kp, so every even multiple must vanish
        design = commensurate_design(2.0, 8.0)
        pattern = synthesize_pattern(design, length_mm=0.08)  # 10 Lambdap
        kp = TWO_PI / design.Lambdap
        for mult in (0, 2, 4, 6, 8, 10):  # includes K0 = 4 Kp and 2 K0
            assert abs(fourier_component(pattern, mult * kp)) < 1e-10
        assert abs(fourier_component(pattern, 5 * kp)) > 0.3  # K0 + Kp
        assert abs(fourier_component(pattern, 3 * kp)) > 0.3  # K0 - Kp


def test_export_pattern_csv(tmp_path):
    cases = [
        (commensurate_design(), 0.06),
        # reference periods: at 6 significant digits the boundaries of this
        # pattern came back duplicated or out of order
        (periods_from_frequencies(TWO_PI / 4.579, TWO_PI / 3.652), 10.0),
    ]
    for design, length_mm in cases:
        pattern = synthesize_pattern(design, length_mm=length_mm)
        path = tmp_path / "pattern.csv"
        export_pattern_csv(pattern, path)
        lines = path.read_text().splitlines()
        assert lines[0].startswith("# Lambda0_um")
        header_idx = next(i for i, l in enumerate(lines) if not l.startswith("#"))
        assert lines[header_idx] == "boundary_index,x_um,sign_after_boundary"
        assert len(lines) == header_idx + 1 + len(pattern.domain_boundaries)
        header = dict(l[2:].split(" = ") for l in lines[:header_idx])
        assert float(header["Lambda0_um"]) == design.Lambda0
        assert float(header["Lambdap_um"]) == design.Lambdap
        assert float(header["length_um"]) == pattern.length_um
        rows = list(csv.reader(lines[header_idx + 1:]))
        xs = np.array([float(row[1]) for row in rows])
        np.testing.assert_array_equal(xs, pattern.domain_boundaries, strict=True)
        assert all(b > a for a, b in zip(xs, xs[1:]))
        assert [int(row[2]) for row in rows] == [(-1) ** (i + 1) for i in range(len(rows))]
