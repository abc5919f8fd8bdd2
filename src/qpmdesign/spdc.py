"""Pair-generation observables: overlaps, amplitudes, entanglement degree,
bandwidths and emission spectra for the two simultaneous down-conversion
processes.

Only amplitude *ratios* are physical outputs here: the prefactor shared by
both processes (nonlinear coefficient, pump field, hbar, sqrt(ws wi), pi^2,
interaction time) cancels in the entanglement degree and in normalized
spectra, and absolute pair brightness is out of scope.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import DegenerateGroupIndices, OutOfRange, UndefinedGamma
from .modesolver import ModalSolution, TrialField
from .qpm import GratingDesign, phase_matching_k

# Samples of the filter window that DesignResult.filtered_gamma averages over.
FILTER_SAMPLES = 33


def sinc(x):
    """Unnormalized sinc: sin(x)/x with sinc(0) = 1."""
    return np.sinc(np.asarray(x) / np.pi)


def overlap_integral(pump: TrialField, a: TrialField, b: TrialField):
    """Transverse overlap iint psi_p psi_a psi_b dy dz (1/um), closed form.

    For three members of the trial family on the same (w, h) the integral of
    the triple product (Gaussians times z^3 over the half-line) is
    elementary:

        I = 32 prod_j sqrt(a_yj) a_zj^(3/2)
            / (pi sqrt(w h) sqrt(sum_j a_yj^2) (sum_j a_zj^2)^2).

    Positive for fundamental-mode triples (the three fields share the same
    positive-lobe sign convention). Broadcasts over fields whose alphas are
    arrays.
    """
    fields = (pump, a, b)
    w, h = pump.width_w, pump.depth_h
    for f in fields:
        if f.width_w != w or f.depth_h != h:
            raise ValueError("all three fields must share the same geometry")
    # x * x and sqrt, not **: numpy's scalar and array powers may round apart.
    # The signal-idler pair combines first, so swapping a and b is exact.
    sum_y = pump.alpha_y * pump.alpha_y + (a.alpha_y * a.alpha_y + b.alpha_y * b.alpha_y)
    sum_z = pump.alpha_z * pump.alpha_z + (a.alpha_z * a.alpha_z + b.alpha_z * b.alpha_z)
    lobe_p, lobe_a, lobe_b = (np.sqrt(f.alpha_y) * f.alpha_z * np.sqrt(f.alpha_z) for f in fields)
    prod = lobe_p * (lobe_a * lobe_b)
    return 32.0 * prod / (math.pi * math.sqrt(w * h) * np.sqrt(sum_y) * (sum_z * sum_z))


@dataclass(frozen=True)
class ProcessAmplitudes:
    """Relative two-photon amplitudes of the two processes.

    C_rel = (I / (n_s n_i)) exp(-i dk L/2) sinc(dk L/2), per process, with the
    prefactor common to both processes omitted (it cancels in every reported
    ratio; absolute scale is undefined by construction). Every field holds
    an array over signal wavelength when the amplitudes come from batched
    modes.
    """

    I_oe_per_um: float
    I_eo_per_um: float
    C_oe_rel: complex
    C_eo_rel: complex
    delta_k_oe: float  # rad/um
    delta_k_eo: float  # rad/um


def relative_amplitudes(po: ModalSolution, so: ModalSolution, se: ModalSolution,
                        io: ModalSolution, ie: ModalSolution,
                        design: GratingDesign, length_mm: float) -> ProcessAmplitudes:
    """Amplitudes from five mode solutions, the grating design and the
    interaction length. Each mismatch is taken at the modes' own wavelengths
    (``phase_matching_k``); signal and idler modes may be batches.
    """
    dk_oe = design.K1 - phase_matching_k(po, so, ie)
    dk_eo = design.K2 - phase_matching_k(po, se, io)
    i_oe = overlap_integral(po.field, so.field, ie.field)
    i_eo = overlap_integral(po.field, se.field, io.field)
    half_l = 0.5 * length_mm * 1e3  # um
    c_oe = (i_oe / (so.n_eff * ie.n_eff)) * np.exp(-1j * dk_oe * half_l) * sinc(dk_oe * half_l)
    c_eo = (i_eo / (se.n_eff * io.n_eff)) * np.exp(-1j * dk_eo * half_l) * sinc(dk_eo * half_l)
    return ProcessAmplitudes(
        I_oe_per_um=i_oe,
        I_eo_per_um=i_eo,
        C_oe_rel=c_oe,
        C_eo_rel=c_eo,
        delta_k_oe=dk_oe,
        delta_k_eo=dk_eo,
    )


def gamma(amplitudes: ProcessAmplitudes) -> float:
    """Entanglement degree: min/max of the two amplitude magnitudes, in [0, 1]."""
    a = abs(amplitudes.C_oe_rel)
    b = abs(amplitudes.C_eo_rel)
    if a == 0.0 and b == 0.0:
        raise UndefinedGamma("both process amplitudes vanish")
    return min(a, b) / max(a, b)


def bandwidth_approx(N_so: float, N_se: float, N_io: float, N_ie: float,
                     lambda_s_nm: float, length_mm: float) -> tuple[float, float]:
    """First-order signal bandwidths (nm) of the two processes.

    dl_oe = ls^2 / (L |N_ie - N_so|) and dl_eo = ls^2 / (L |N_io - N_se|);
    this is the half-width to the first sinc zero (the numeric FWHM of the
    sinc^2 spectrum is 0.886x this value). Absolute values are used since
    the sign of the group-index difference is irrelevant to the width.
    """
    length_nm = length_mm * 1e6
    d_oe = abs(N_ie - N_so)
    d_eo = abs(N_io - N_se)
    if d_oe < 1e-6 or d_eo < 1e-6:
        raise DegenerateGroupIndices(
            f"group-index differences |N_ie-N_so| = {d_oe:.2e}, "
            f"|N_io-N_se| = {d_eo:.2e}: bandwidth formally unbounded"
        )
    return (lambda_s_nm**2 / (length_nm * d_oe),
            lambda_s_nm**2 / (length_nm * d_eo))


def spectrum(delta_k, length_mm: float) -> np.ndarray:
    """Normalized sinc^2 emission spectrum from sampled mismatches.

    ``delta_k`` holds one process's Delta-k (rad/um) at each sampled signal
    wavelength; the curve is normalized to peak 1.
    """
    vals = sinc(np.asarray(delta_k, dtype=float) * (0.5 * length_mm * 1e3)) ** 2
    peak = vals.max()
    if peak <= 0.0:
        raise UndefinedGamma("spectrum vanishes over the requested range")
    return vals / peak


def fwhm(lambda_grid_nm: Sequence[float], intensity: Sequence[float]) -> float:
    """Full width at half maximum by linear interpolation of the crossings."""
    lam = np.asarray(lambda_grid_nm, dtype=float)
    y = np.asarray(intensity, dtype=float)
    half = 0.5 * y.max()
    ipk = int(np.argmax(y))
    above = y >= half

    def cross(i0: int, step: int) -> float:
        i = i0
        while 0 <= i + step < len(y) and above[i + step]:
            i += step
        j = i + step
        if j < 0 or j >= len(y):
            raise OutOfRange(
                f"half-maximum crossing outside the sampled window "
                f"[{lam[0]:.6g}, {lam[-1]:.6g}] nm; widen the window"
            )
        frac = (y[i] - half) / (y[i] - y[j])
        return lam[i] + frac * (lam[j] - lam[i])

    return abs(cross(ipk, +1) - cross(ipk, -1))


def filtered_gamma(lambda_s_nm, amplitudes: ProcessAmplitudes) -> float:
    """Min/max ratio of the two processes' trapezoid integrals of amplitude
    magnitude over the signal wavelengths ``lambda_s_nm`` (``amplitudes``
    holds arrays over them); the window's width cancels in the ratio."""
    int_oe = float(np.trapezoid(np.abs(amplitudes.C_oe_rel), lambda_s_nm))
    int_eo = float(np.trapezoid(np.abs(amplitudes.C_eo_rel), lambda_s_nm))
    if int_oe == 0.0 and int_eo == 0.0:
        raise UndefinedGamma("both filtered amplitudes vanish")
    return min(int_oe, int_eo) / max(int_oe, int_eo)


def grating_scheme_efficiency_ratio() -> float:
    """Pair-rate advantage of the compound grating over two separate gratings.

    Compound scheme: each process sees amplitude (4/pi^2) L over the full
    length. Separate gratings on the same substrate: amplitude (2/pi)(L/2)
    per process. The rate ratio ((4/pi^2) L)^2 / ((2/pi) L/2)^2 simplifies to
    16/pi^2 ~ 1.62, independent of L.
    """
    return 16.0 / math.pi**2
