"""Dual-period quasi-phase-matching grating engineering.

Turns the two phase-matching requirements into spatial frequencies K1, K2,
inverts them into a carrier period (Lambda0) sign-modulated by a slower
period (Lambdap), synthesizes the resulting +-1 poling pattern, and checks
its Fourier content. The product of two 50%-duty square waves carries
first-order components of magnitude 4/pi^2 at K0 +- Kp.

Units: wavelengths in nm, spatial frequencies in rad/um, periods and
positions in um, interaction lengths in mm.
"""

from __future__ import annotations

import csv
import math
import numbers
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    ConfigError,
    DegenerateModulation,
    NonPositiveFrequency,
    check_number,
    is_number,
)

TWO_PI = 2.0 * math.pi

# Relative tolerance for snapping a user-supplied idler wavelength onto the
# energy-conservation curve; larger discrepancies are treated as config errors.
ENERGY_SNAP_RTOL = 1e-4
# Flips of the two square waves closer than this (um) coincide and cancel.
COINCIDENCE_TOL_UM = 1e-9
# Most flips a synthesized pattern may have. 10^6 flips are about 1.8 m of
# the reference grating (Lambda0 = 4.06 um, Lambdap = 36.1 um) and some
# 40 MB of boundaries; a longer pattern is refused before it is allocated.
MAX_PATTERN_FLIPS = 10**6
# Interaction lengths (mm) a spec may have. Waveguide gratings are mm to cm
# long; far outside this range the bandwidth and sinc arithmetic over- or
# underflows.
LENGTH_RANGE_MM = (1e-3, 1e4)


@dataclass(frozen=True)
class InteractionSpec:
    """Pump/signal/idler wavelengths, temperature and interaction length.

    Energy conservation (1/lp = 1/ls + 1/li) is enforced exactly: a supplied
    idler wavelength within ENERGY_SNAP_RTOL of the conserving value is
    snapped onto it, anything farther off raises ConfigError. Omit
    ``lambda_i_nm`` to have it derived. Every number must be finite, and
    ``length_mm`` within LENGTH_RANGE_MM.
    """

    lambda_p_nm: float
    lambda_s_nm: float
    lambda_i_nm: float | None = None
    temperature_c: float = 25.0
    length_mm: float = 10.0

    def __post_init__(self):
        for name in ("lambda_p_nm", "lambda_s_nm", "temperature_c", "length_mm"):
            check_number(name, getattr(self, name))
        if self.lambda_i_nm is not None:
            check_number("lambda_i_nm", self.lambda_i_nm)
        if self.lambda_p_nm <= 0 or self.lambda_s_nm <= 0:
            raise ConfigError("wavelengths must be positive")
        lo, hi = LENGTH_RANGE_MM
        if not lo <= self.length_mm <= hi:
            raise ConfigError(f"interaction length must lie in [{lo}, {hi}] mm, "
                              f"got {self.length_mm} mm")
        exact = self.idler_for(self.lambda_s_nm)
        if self.lambda_i_nm is not None:
            rel = abs(self.lambda_i_nm - exact) / exact
            if rel > ENERGY_SNAP_RTOL:
                raise ConfigError(
                    f"energy conservation violated: idler {self.lambda_i_nm} nm "
                    f"vs 1/(1/lambda_p - 1/lambda_s) = {exact:.4f} nm "
                    f"(relative error {rel:.2e})"
                )
        object.__setattr__(self, "lambda_i_nm", exact)
        if not self.lambda_p_nm < self.lambda_s_nm < self.lambda_i_nm:
            raise ConfigError("expected lambda_p < lambda_s < lambda_i")

    def idler_for(self, lambda_s_nm):
        """Idler wavelength slaved to a signal wavelength at fixed pump.

        Broadcasts over an array of signal wavelengths. ConfigError names
        the first signal that is not longer than the pump or whose idler
        is not a finite positive number, as at the ends of the float range.
        """
        try:
            lam_s = np.asarray(lambda_s_nm, dtype=float)
        except (TypeError, ValueError):
            raise ConfigError(f"signal wavelength {lambda_s_nm!r} is not a number") from None
        with np.errstate(all="ignore"):  # what over- or underflows is refused below
            idler = 1.0 / (1.0 / self.lambda_p_nm - 1.0 / lam_s)
        bad = ~((lam_s > self.lambda_p_nm) & (idler > 0.0) & (idler < math.inf))
        if np.any(bad):
            raise ConfigError(
                f"signal {float(lam_s[bad].flat[0])} nm incompatible with pump "
                f"{self.lambda_p_nm} nm: the signal must be longer than the pump "
                f"and give a finite idler"
            )
        return idler

    def signal_grid(self, half_range_nm, n_samples: int) -> np.ndarray:
        """The ``n_samples`` evenly spaced signal wavelengths over lambda_s
        +- ``half_range_nm``, the one window rule: ConfigError unless the
        count is an integer >= 3 and the half-range a positive, finite number
        that keeps the lower edge above the pump (no idler there)."""
        if not (isinstance(n_samples, numbers.Integral) and n_samples >= 3
                and is_number(half_range_nm) and half_range_nm > 0.0):
            raise ConfigError(f"a signal window needs at least 3 samples and a positive, "
                              f"finite half-range, got {n_samples} and {half_range_nm} nm")
        lower = self.lambda_s_nm - half_range_nm
        if lower <= self.lambda_p_nm:
            raise ConfigError(f"a half-range of {half_range_nm} nm puts the window's lower "
                              f"edge at {lower} nm, not above the pump wavelength "
                              f"{self.lambda_p_nm} nm")
        return np.linspace(lower, self.lambda_s_nm + half_range_nm, n_samples)


@dataclass(frozen=True)
class GratingDesign:
    """Target spatial frequencies and the dual poling periods.

    K1 = K0 + Kp and K2 = K0 - K p up to labeling: K1 belongs to the
    (signal-o, idler-e) process and K2 to (signal-e, idler-o), whichever is
    larger. Lambda0 is the carrier period, Lambdap the modulation period.
    """

    K1: float  # rad/um
    K2: float  # rad/um
    Lambda1: float  # um
    Lambda2: float  # um
    Lambda0: float  # um
    Lambdap: float  # um


@dataclass(frozen=True, eq=False)
class PolingPattern:
    """Piecewise-constant +-1 sign pattern over [0, L], as built by
    ``synthesize_pattern``: the product of two 50%-duty square waves of half
    periods ``half_periods_um`` = (Lambda0/2, Lambdap/2), sign +1 at x = 0.

    ``domain_boundaries`` is a read-only float64 array of the positions where
    the sign flips, strictly increasing within (0, length_um). Each flip lies
    on its square wave's grid ``np.arange(h, L, h)``; its jump is 2 s(x+),
    or 0 where a coincident pair is dropped. ``flip_blocks`` lays out these
    jumps for ``fourier_component``: each grid's flips in blocks of
    B = isqrt(n), flip j of a block at start + fl(j h) + delta. It is one
    tuple ``(starts_hi, starts_lo, offsets, grids)``: both grids' block
    starts, concatenated (carrier first) and split by ``_split``; both
    grids' baby offsets fl(j h), j < B, concatenated; and per grid a pair
    ``(steps, weights)``, the slice of ``offsets`` that grid's (2 blocks, B)
    array [W; W delta] multiplies. Patterns compare by identity.
    """

    domain_boundaries: np.ndarray
    length_um: float
    half_periods_um: tuple[float, float]
    flip_blocks: tuple = field(repr=False)


def _split(a):
    """a = hi + lo (float or array), each part with 26 significant bits."""
    c = 134217729.0 * a  # 2^27 + 1
    return c - (c - a), a - (c - (c - a))


def _blocks(flips, jumps, half):
    """One grid's blocks of B = isqrt(n) flips: their starts, the offsets
    fl(j h) for j < B and the (2 blocks, B) array [W; W delta]."""
    width = math.isqrt(len(flips))
    pad = np.zeros(-len(flips) % width)
    x, w = (np.concatenate([v, pad]).reshape(-1, width) for v in (flips, jumps))
    offsets = half * np.arange(width)
    return x[:, 0], offsets, np.concatenate([w, w * ((x - x[:, :1]) - offsets)])


def phase_matching_k(pump, signal, idler):
    """Grating frequency 2 pi (n_p/lp - n_s/ls - n_i/li) (rad/um) that
    phase-matches one process, from three solved modes.

    Each mode enters with its own ``n_eff`` and ``wavelength_nm``, so the
    modes must satisfy energy conservation where they were solved. Signal
    and idler may be batches over signal wavelength. The residual mismatch
    of a process is its grating frequency minus this value.
    """
    return TWO_PI * (pump.n_eff / (pump.wavelength_nm * 1e-3)
                     - signal.n_eff / (signal.wavelength_nm * 1e-3)
                     - idler.n_eff / (idler.wavelength_nm * 1e-3))


def required_frequencies(po, so, se, io, ie) -> tuple[float, float]:
    """QPM spatial frequencies (rad/um) of the two processes from five modes.

    K1 phase-matches (signal-o, idler-e), K2 (signal-e, idler-o); see
    ``phase_matching_k``. Either may come out non-positive: the sign is
    decided once, by ``periods_from_frequencies``.
    """
    return phase_matching_k(po, so, ie), phase_matching_k(po, se, io)


def periods_from_frequencies(K1: float, K2: float) -> GratingDesign:
    """Invert (K1, K2) into carrier and modulation periods.

    K0 = (K1 + K2)/2, Kp = |K1 - K2|/2; works for either ordering of the two
    frequencies. Every period 2 pi/K comes out finite and positive: raises
    NonPositiveFrequency when K1 or K2 <= 0 (first-order QPM infeasible),
    DegenerateModulation when K1 = K2 (to 1e-12) or Kp underflows to 0, and
    ConfigError when a frequency is so small that its period overflows.
    """
    check_number("K1", K1)
    check_number("K2", K2)
    if K1 <= 0.0 or K2 <= 0.0:
        raise NonPositiveFrequency(
            f"K1 = {K1:.6g}, K2 = {K2:.6g} rad/um: first-order QPM infeasible")
    k0 = 0.5 * K1 + 0.5 * K2  # K1 + K2 can overflow
    kp = 0.5 * abs(K1 - K2)
    if kp == 0.0 or math.isclose(K1, K2, rel_tol=1e-12, abs_tol=0.0):
        raise DegenerateModulation(
            f"K1 = {K1}, K2 = {K2} rad/um too close: modulation period diverges, "
            "use a single-period grating"
        )
    periods = [TWO_PI / k for k in (K1, K2, k0, kp)]
    if not all(math.isfinite(period) for period in periods):
        raise ConfigError(f"K1 = {K1}, K2 = {K2} rad/um: a period 2 pi/K overflows")
    lambda1, lambda2, lambda0, lambdap = periods
    return GratingDesign(K1=K1, K2=K2, Lambda1=lambda1, Lambda2=lambda2,
                         Lambda0=lambda0, Lambdap=lambdap)


def synthesize_pattern(design: GratingDesign, length_mm: float) -> PolingPattern:
    """Sign pattern of the product of the two 50%-duty square waves.

    Each square wave flips at integer multiples of its half period; a
    coincident flip of both waves (within COINCIDENCE_TOL_UM) leaves the
    product sign unchanged and is dropped. A pattern of more than
    MAX_PATTERN_FLIPS flips is refused with ConfigError.
    """
    check_number("length_mm", length_mm)
    length_um = length_mm * 1e3
    if length_um <= design.Lambdap:
        raise ConfigError(
            f"interaction length {length_mm} mm must exceed one modulation "
            f"period ({design.Lambdap * 1e-3:.4g} mm)"
        )
    half0 = design.Lambda0 / 2.0
    halfp = design.Lambdap / 2.0
    n_flips = length_um / half0 + length_um / halfp
    if not n_flips <= MAX_PATTERN_FLIPS:
        raise ConfigError(
            f"interaction length {length_mm} mm needs {n_flips:.3g} domain flips, "
            f"more than the {MAX_PATTERN_FLIPS} a pattern may have"
        )
    # a flip at (or within tolerance of) the end facet has no effect;
    # np.arange can also emit the stop value itself through rounding
    end = length_um - COINCIDENCE_TOL_UM
    flips0 = np.arange(half0, length_um, half0)
    flips0 = flips0[flips0 < end]
    flipsp = np.arange(halfp, length_um, halfp)
    flipsp = flipsp[flipsp < end]
    # a simultaneous flip of both waves leaves the sign unchanged: drop both
    # flips of each coincident pair. Both half periods are far above the
    # tolerance, so a modulation flip can only pair with the carrier flips
    # on either side of it; first[m] indexes the one at or after flipsp[m].
    n0 = len(flips0)
    first = np.searchsorted(flips0, flipsp)
    pair_after = (first < n0) & (flips0[np.minimum(first, n0 - 1)] - flipsp
                                 <= COINCIDENCE_TOL_UM)
    pair_before = (first > 0) & (flipsp - flips0[first - 1] <= COINCIDENCE_TOL_UM)
    keep0 = np.ones(n0, dtype=bool)
    keep0[first[pair_after]] = False
    keep0[first[pair_before] - 1] = False
    keepp = ~(pair_after | pair_before)
    # two sorted runs, which the stable sort (timsort) merges in one pass
    boundaries = np.sort(np.concatenate([flips0[keep0], flipsp[keepp]]), kind="stable")
    boundaries.flags.writeable = False
    # A jump is 2 s(x+) = 2 (-1)^(flips up to x), a dropped pair counting
    # twice: carrier flip i ends i + 1 carrier flips and the modulation flips
    # m with first[m] <= i; modulation flip m ends first[m] + m + 1 flips.
    flips_to0 = np.cumsum(np.bincount(first, minlength=n0)[:n0] + 1)
    jumps0 = keep0 * (2.0 - 4.0 * (flips_to0 & 1))
    jumpsp = keepp * (2.0 - 4.0 * ((first + np.arange(1, len(first) + 1)) & 1))
    (starts0, offsets0, weights0), (startsp, offsetsp, weightsp) = (
        _blocks(flips0, jumps0, half0), _blocks(flipsp, jumpsp, halfp))
    b0 = len(offsets0)
    flip_blocks = (*_split(np.concatenate([starts0, startsp])),
                   np.concatenate([offsets0, offsetsp]),
                   ((slice(0, b0), weights0), (slice(b0, None), weightsp)))
    return PolingPattern(domain_boundaries=boundaries, length_um=length_um,
                         half_periods_um=(half0, halfp), flip_blocks=flip_blocks)


def fourier_component(pattern: PolingPattern, K: float) -> complex:
    """Normalized Fourier amplitude (1/L) int_0^L sign(x) exp(-iKx) dx.

    Exact, no sampling. By parts the integral is (1/(iK)) sum_j w_j
    exp(-iK x_j) over the sign jumps w_j at x_j: s(0+) at 0, -s(L-) at L and
    the flips, laid out in blocks by ``PolingPattern.flip_blocks``. The flips
    sum to giant @ ([W; W delta] @ baby) in one pass over both grids: one
    exponential over the B0 + Bp baby steps exp(-iK fl(j h)), one product
    per grid, delta to first order (|K delta| < 1e-9), two exponentials over
    all block starts for the exact giant steps exp(-iK start) and one dot.
    So one K costs O(sqrt(L/Lambda0)) exponentials. At K = K1 or K2 over an
    integer number of modulation periods the magnitude approaches 4/pi^2,
    with opposite signs for the two components.

    Every finite K gives a finite complex or a ConfigError, and no warning.
    Where |K| L <= 1, K = 0 included, dividing by K would cost digits, so the
    domains are summed instead, one exponential each: (1/L) sum_m s_m w_m
    sinc(K w_m / 2) exp(-iK c_m) over their signs, widths and centres. Its
    real and imaginary parts are float sums, so K = 0 gives the mean sign
    exactly. Where |K| L > 2^52 it is a ConfigError: there one ulp of a flip
    near the far facet turns its phase by up to a radian, so the stored
    positions no longer fix the sum.
    """
    check_number("K", K)
    length = pattern.length_um
    phase = abs(K) * length
    if not phase <= 2.0**52:
        raise ConfigError(f"K = {K} rad/um over {length} um: |K| L = {phase:.3g} rad "
                          f"is beyond 2^52, where the flip positions no longer fix the sum")
    if phase <= 1.0:  # the domains alternate +1, -1 from x = 0
        edges = np.concatenate(([0.0], pattern.domain_boundaries, [length]))
        widths = np.diff(edges)
        t = widths * np.sinc(K * widths / TWO_PI) * np.exp(-1j * K * (edges[:-1] + 0.5 * widths))
        return complex(*((p[::2].sum() - p[1::2].sum()) / length for p in (t.real, t.imag)))
    # K start = k_hi starts_hi (exact) + a rest < 2^-25 K start; one rounded
    # product would err alike on a block's B flips (3.6e-12 at 10^6 flips)
    k_hi, k_lo = _split(K)
    starts_hi, starts_lo, offsets, grids = pattern.flip_blocks
    baby = np.exp(-1j * K * offsets).view(float).reshape(-1, 2)
    jumps, moments = np.concatenate(
        [(weights @ baby[steps]).view(complex).reshape(2, -1) for steps, weights in grids],
        axis=1)
    giant = (np.exp(-1j * (k_hi * starts_hi))
             * np.exp(-1j * (k_hi * starts_lo + k_lo * (starts_hi + starts_lo))))
    total = (1.0 - (-1.0) ** len(pattern.domain_boundaries) * np.exp(-1j * K * length)
             + giant @ (jumps - 1j * K * moments))
    return complex(total / (1j * K * length))


def export_pattern_csv(pattern: PolingPattern, path) -> None:
    """CSV export: (boundary_index, x_um, sign_after_boundary).

    Header comments record the carrier/modulation periods and total length.
    Positions and lengths are written at round-trip precision (``repr``).
    """
    half0, halfp = pattern.half_periods_um
    with open(path, "w", newline="") as fh:
        fh.write(f"# Lambda0_um = {float(2.0 * half0)!r}\n")
        fh.write(f"# Lambdap_um = {float(2.0 * halfp)!r}\n")
        fh.write(f"# length_um = {float(pattern.length_um)!r}\n")
        fh.write("# initial_sign = 1\n")
        writer = csv.writer(fh)
        writer.writerow(["boundary_index", "x_um", "sign_after_boundary"])
        for i, x in enumerate(pattern.domain_boundaries.tolist()):
            writer.writerow([i, repr(x), -1 if i % 2 == 0 else 1])
