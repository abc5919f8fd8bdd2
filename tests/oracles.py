"""Independent numerical oracles for the closed forms in ``qpmdesign``.

Adaptive 2-D quadrature of the variational functional and of the overlap
integral, the zero-mismatch amplitude ratio written directly in the
variational parameters, and a per-sample loop of cold mode solves that the
batched spectra and filtered gamma are checked against. They exist only to
check the package's closed forms and fast paths.
"""

from __future__ import annotations

import math
from typing import Callable

import numpy as np
from scipy import integrate

from qpmdesign.errors import QuadratureFailure
from qpmdesign.modesolver import ModalSolution, TrialField
from qpmdesign.spdc import ProcessAmplitudes, fwhm, relative_amplitudes, spectrum


def neff_quadrature(field: TrialField, profile: Callable[[float, float], float],
                    wavelength_nm: float, tol: float = 1e-10) -> float:
    """n_eff^2 from adaptive 2-D quadrature of the variational functional.

    n_eff^2 = -(1/k0^2) iint |grad psi|^2 + iint n^2(y,z) |psi|^2
    over y in R, z < 0. ``profile`` evaluates n^2(y, z). Used as the oracle
    for the closed form; raises QuadratureFailure if the error estimate
    exceeds ``tol``.
    """
    k0 = 2.0 * math.pi / (wavelength_nm * 1e-3)

    def integrand(z: float, y: float) -> float:
        psi = field.amplitude(y, z)
        gy, gz = field.grad(y, z)
        return -(gy**2 + gz**2) / k0**2 + profile(y, z) * psi**2

    ylim = 8.0 * field.width_w / field.alpha_y
    zlim = 8.0 * field.depth_h / field.alpha_z
    val, err = integrate.dblquad(
        integrand, -ylim, ylim, -zlim, 0.0, epsabs=tol * 1e-2, epsrel=1e-12
    )
    if err > tol:
        raise QuadratureFailure(
            f"quadrature error estimate {err:.2e} above tolerance {tol:.2e}"
        )
    return val


def overlap_integral_quadrature(pump: TrialField, a: TrialField, b: TrialField,
                                tol: float = 1e-10) -> float:
    """Adaptive-quadrature oracle for ``overlap_integral``."""

    def integrand(z: float, y: float) -> float:
        return pump.amplitude(y, z) * a.amplitude(y, z) * b.amplitude(y, z)

    ymax = 8.0 * pump.width_w / min(f.alpha_y for f in (pump, a, b))
    zmax = 8.0 * pump.depth_h / min(f.alpha_z for f in (pump, a, b))
    val, err = integrate.dblquad(integrand, -ymax, ymax, -zmax, 0.0,
                                 epsabs=tol * 1e-2, epsrel=1e-12)
    if err > tol:
        raise QuadratureFailure(
            f"overlap quadrature error {err:.2e} above tolerance {tol:.2e}"
        )
    return val


def amplitude_ratio_closed_form(po: ModalSolution, so: ModalSolution,
                                se: ModalSolution, io: ModalSolution,
                                ie: ModalSolution) -> float:
    """C_oe/C_eo at zero mismatch directly from the variational parameters.

    Equivalent to the ratio of ``relative_amplitudes`` magnitudes when both
    processes are exactly phase-matched; kept as an independent code path.
    """
    num = (
        math.sqrt(so.field.alpha_y) * so.field.alpha_z**1.5
        * math.sqrt(ie.field.alpha_y) * ie.field.alpha_z**1.5
        * math.sqrt(po.field.alpha_y**2 + se.field.alpha_y**2 + io.field.alpha_y**2)
        * (po.field.alpha_z**2 + se.field.alpha_z**2 + io.field.alpha_z**2) ** 2
        * se.n_eff * io.n_eff
    )
    den = (
        math.sqrt(se.field.alpha_y) * se.field.alpha_z**1.5
        * math.sqrt(io.field.alpha_y) * io.field.alpha_z**1.5
        * math.sqrt(po.field.alpha_y**2 + so.field.alpha_y**2 + ie.field.alpha_y**2)
        * (po.field.alpha_z**2 + so.field.alpha_z**2 + ie.field.alpha_z**2) ** 2
        * so.n_eff * ie.n_eff
    )
    return num / den


def reference_amplitudes(result, lambda_s_nm: float) -> ProcessAmplitudes:
    """``DesignResult.amplitudes_at`` one sample at a time: four cold
    ``ModeContext.solve`` calls and ``relative_amplitudes``."""
    ctx = result.context
    lam_i = result.spec.idler_for(lambda_s_nm)
    return relative_amplitudes(
        result.modes["po"],
        ctx.solve("ordinary", lambda_s_nm),
        ctx.solve("extraordinary", lambda_s_nm),
        ctx.solve("ordinary", lam_i),
        ctx.solve("extraordinary", lam_i),
        result.design, result.spec, lambda_s_nm,
    )


def reference_spectra(result, half_range_nm: float, n_samples: int):
    """Per-sample reference for ``DesignResult.spectra``."""
    lam0 = result.spec.lambda_s_nm
    grid = np.linspace(lam0 - half_range_nm, lam0 + half_range_nm, n_samples)
    amps = [reference_amplitudes(result, float(lam)) for lam in grid]
    length = result.spec.length_mm
    i_oe = spectrum([a.delta_k_oe for a in amps], length)
    i_eo = spectrum([a.delta_k_eo for a in amps], length)
    return grid, i_oe, i_eo, fwhm(grid, i_oe), fwhm(grid, i_eo)


def reference_filtered_gamma(result, filter_fwhm_nm: float, n_samples: int = 33) -> float:
    """Per-sample reference for ``DesignResult.filtered_gamma`` (filter on the
    idler arm, mapped onto the conjugate signal window)."""
    spec = result.spec
    window = filter_fwhm_nm * (spec.lambda_s_nm / spec.lambda_i_nm) ** 2
    grid = np.linspace(spec.lambda_s_nm - 0.5 * window,
                       spec.lambda_s_nm + 0.5 * window, n_samples)
    mags_oe, mags_eo = [], []
    for lam in grid:
        amps = reference_amplitudes(result, float(lam))
        mags_oe.append(abs(amps.C_oe_rel))
        mags_eo.append(abs(amps.C_eo_rel))
    avg_oe = np.trapezoid(mags_oe, grid)
    avg_eo = np.trapezoid(mags_eo, grid)
    return float(min(avg_oe, avg_eo) / max(avg_oe, avg_eo))
