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
from dataclasses import dataclass

import numpy as np

from .errors import (
    ConfigError,
    DegenerateModulation,
    NonPositiveFrequency,
)

TWO_PI = 2.0 * math.pi

# Relative tolerance for snapping a user-supplied idler wavelength onto the
# energy-conservation curve; larger discrepancies are treated as config errors.
ENERGY_SNAP_RTOL = 1e-4
# Flips of the two square waves closer than this (um) coincide and cancel.
COINCIDENCE_TOL_UM = 1e-9


@dataclass(frozen=True)
class InteractionSpec:
    """Pump/signal/idler wavelengths, temperature and interaction length.

    Energy conservation (1/lp = 1/ls + 1/li) is enforced exactly: a supplied
    idler wavelength within ENERGY_SNAP_RTOL of the conserving value is
    snapped onto it, anything farther off raises ConfigError. Omit
    ``lambda_i_nm`` to have it derived.
    """

    lambda_p_nm: float
    lambda_s_nm: float
    lambda_i_nm: float | None = None
    temperature_c: float = 25.0
    length_mm: float = 10.0

    def __post_init__(self):
        if self.lambda_p_nm <= 0 or self.lambda_s_nm <= 0:
            raise ConfigError("wavelengths must be positive")
        if self.length_mm <= 0:
            raise ConfigError("interaction length must be positive")
        if self.lambda_s_nm <= self.lambda_p_nm:
            raise ConfigError("signal wavelength must exceed pump wavelength")
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

        Broadcasts over an array of signal wavelengths.
        """
        lam_s = np.asarray(lambda_s_nm, dtype=float)
        bad = ~(lam_s > self.lambda_p_nm)
        if np.any(bad):
            raise ConfigError(
                f"signal {float(lam_s[bad].flat[0])} nm incompatible with pump "
                f"{self.lambda_p_nm} nm: the signal must be longer than the pump"
            )
        out = 1.0 / (1.0 / self.lambda_p_nm - 1.0 / lam_s)
        return float(out) if out.ndim == 0 else out


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


@dataclass(frozen=True)
class PolingPattern:
    """Piecewise-constant +-1 sign pattern over [0, L].

    ``domain_boundaries`` lists the positions where the sign flips, strictly
    increasing within (0, length_um).
    """

    domain_boundaries: tuple[float, ...]
    length_um: float
    initial_sign: int = 1

    def __post_init__(self):
        b = self.domain_boundaries
        if np.any(np.diff(b) <= 0.0):
            raise ConfigError("domain boundaries must be strictly increasing")
        if b and (b[0] <= 0.0 or b[-1] >= self.length_um):
            raise ConfigError("domain boundaries must lie inside (0, L)")
        if self.initial_sign not in (-1, 1):
            raise ConfigError("initial sign must be +-1")


def phase_matching_k(spec: InteractionSpec, n_p, n_s, n_i, lambda_s_nm=None):
    """Grating frequency 2 pi (n_p/lp - n_s/ls - n_i/li) (rad/um) that
    phase-matches one process.

    The idler is slaved to ``lambda_s_nm`` (default: the design signal) by
    energy conservation at fixed pump. Broadcasts over numpy arrays of
    indices and signal wavelengths. The residual mismatch of a process is
    its grating frequency minus this value.
    """
    ls_nm = spec.lambda_s_nm if lambda_s_nm is None else lambda_s_nm
    li_nm = spec.idler_for(ls_nm)
    return TWO_PI * (n_p / (spec.lambda_p_nm * 1e-3) - n_s / (ls_nm * 1e-3)
                     - n_i / (li_nm * 1e-3))


def required_frequencies(spec: InteractionSpec, n_po: float, n_so: float,
                         n_se: float, n_io: float, n_ie: float) -> tuple[float, float]:
    """QPM spatial frequencies for the two processes (rad/um).

    K1 phase-matches (signal-o, idler-e), K2 (signal-e, idler-o); see
    ``phase_matching_k``.
    """
    k1 = phase_matching_k(spec, n_po, n_so, n_ie)
    k2 = phase_matching_k(spec, n_po, n_se, n_io)
    if k1 <= 0.0 or k2 <= 0.0:
        raise NonPositiveFrequency(
            f"K1 = {k1:.6g}, K2 = {k2:.6g} rad/um: first-order QPM infeasible"
        )
    return k1, k2


def periods_from_frequencies(K1: float, K2: float) -> GratingDesign:
    """Invert (K1, K2) into carrier and modulation periods.

    K0 = (K1 + K2)/2, Kp = |K1 - K2|/2; works for either ordering of the two
    frequencies. Raises DegenerateModulation when K1 = K2.
    """
    if K1 <= 0.0 or K2 <= 0.0:
        raise NonPositiveFrequency("spatial frequencies must be positive")
    if math.isclose(K1, K2, rel_tol=1e-12, abs_tol=0.0):
        raise DegenerateModulation(
            "K1 = K2: modulation period diverges, use a single-period grating"
        )
    k0 = 0.5 * (K1 + K2)
    kp = 0.5 * abs(K1 - K2)
    return GratingDesign(
        K1=K1,
        K2=K2,
        Lambda1=TWO_PI / K1,
        Lambda2=TWO_PI / K2,
        Lambda0=TWO_PI / k0,
        Lambdap=TWO_PI / kp,
    )


def synthesize_pattern(design: GratingDesign, length_mm: float) -> PolingPattern:
    """Sign pattern of the product of the two 50%-duty square waves.

    Each square wave flips at integer multiples of its half period; a
    coincident flip of both waves (within COINCIDENCE_TOL_UM) leaves the
    product sign unchanged and is dropped.
    """
    length_um = length_mm * 1e3
    if length_um <= design.Lambdap:
        raise ConfigError(
            f"interaction length {length_mm} mm must exceed one modulation "
            f"period ({design.Lambdap * 1e-3:.4g} mm)"
        )
    half0 = design.Lambda0 / 2.0
    halfp = design.Lambdap / 2.0
    flips0 = np.arange(half0, length_um, half0)
    flipsp = np.arange(halfp, length_um, halfp)
    merged = np.sort(np.concatenate([flips0, flipsp]))
    # a flip at (or within tolerance of) the end facet has no effect;
    # np.arange can also emit the stop value itself through rounding
    merged = merged[merged < length_um - COINCIDENCE_TOL_UM]
    # a simultaneous flip of both waves leaves the sign unchanged: drop both
    # flips of each coincident pair (both half periods are far above the
    # tolerance, so pairs cannot chain)
    pair = np.diff(merged) <= COINCIDENCE_TOL_UM
    drop = np.zeros(len(merged), dtype=bool)
    drop[:-1] |= pair
    drop[1:] |= pair
    return PolingPattern(domain_boundaries=tuple(merged[~drop].tolist()),
                         length_um=length_um)


def fourier_component(pattern: PolingPattern, K: float) -> complex:
    """Normalized Fourier amplitude (1/L) int_0^L sign(x) exp(-iKx) dx.

    Evaluated exactly piecewise over the constant-sign domains, no sampling.
    At K = K1 or K2 over an integer number of modulation periods the
    magnitude approaches 4/pi^2, with opposite signs for the two components.
    """
    edges = np.concatenate([[0.0], pattern.domain_boundaries, [pattern.length_um]])
    signs = pattern.initial_sign * (-1.0) ** np.arange(len(edges) - 1)
    if K == 0.0:
        return complex(np.sum(signs * np.diff(edges)) / pattern.length_um)
    phase = np.exp(-1j * K * edges)
    segments = signs * (phase[:-1] - phase[1:]) / (1j * K)
    return complex(np.sum(segments) / pattern.length_um)


def export_pattern_csv(pattern: PolingPattern, design: GratingDesign, path) -> None:
    """CSV export: (boundary_index, x_um, sign_after_boundary).

    Header comments record the carrier/modulation periods and total length.
    """
    with open(path, "w", newline="") as fh:
        fh.write(f"# Lambda0_um = {design.Lambda0:.6g}\n")
        fh.write(f"# Lambdap_um = {design.Lambdap:.6g}\n")
        fh.write(f"# length_um = {pattern.length_um:.6g}\n")
        fh.write(f"# initial_sign = {pattern.initial_sign}\n")
        writer = csv.writer(fh)
        writer.writerow(["boundary_index", "x_um", "sign_after_boundary"])
        sign = pattern.initial_sign
        for i, x in enumerate(pattern.domain_boundaries):
            sign = -sign
            writer.writerow([i, f"{x:.6g}", sign])
