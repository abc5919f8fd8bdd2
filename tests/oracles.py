"""Independent numerical oracles for the closed forms in ``qpmdesign``.

The trial field and the index profile in (y, z), adaptive 2-D quadrature of
the variational functional and of the overlap integral, tensor Gauss
rules for both, a strict-peak grid
search and a Nelder-Mead maximization of the closed form that the mode
solver's existence verdict and Newton refinement are checked against, the
gradient and Hessian of the closed form's bracket term by term, a mode
solve in which Newton alone decides existence, which the model-cutoff
pre-test is checked against, the
zero-mismatch amplitude ratio written directly in the variational
parameters, a group index that re-solves the mode around its
wavelength, a design point that solves its five modes one at a time, a
per-sample loop of cold mode solves that the batched spectra
and filtered gamma are checked against, a flip-by-flip poling-pattern
synthesis, and a Fourier component summed one domain edge at a time or,
exactly, one domain at a time in closed form. They
exist only to check the package's closed forms and fast paths.
"""

from __future__ import annotations

import math
from typing import Callable

import numpy as np
from scipy import integrate, optimize

from qpmdesign import modesolver, spdc
from qpmdesign.dispersion import WaveguideGeometry
from qpmdesign.errors import NoGuidedMode
from qpmdesign.modesolver import ModalSolution, TrialField, neff_closed_form
from qpmdesign.pipeline import ModeContext
from qpmdesign.qpm import (COINCIDENCE_TOL_UM, GratingDesign, PolingPattern,
                           periods_from_frequencies, required_frequencies)
from qpmdesign.spdc import ProcessAmplitudes, fwhm, relative_amplitudes, spectrum

# Nelder-Mead termination tolerance on the alphas.
XATOL = 1e-9
# Alpha grids of ``grid_peak``, (points per axis, alpha range) in both
# variational parameters; the second is searched only where the first shows
# no peak.
PEAK_GRIDS = ((16, (0.2, 8.0)), (64, (0.05, 12.0)))


class QuadratureFailure(Exception):
    """Adaptive quadrature could not reach the requested tolerance."""


def _norm(field: TrialField) -> float:
    return math.sqrt(
        16.0 * field.alpha_y * field.alpha_z / (math.pi * field.width_w * field.depth_h)
    ) * field.alpha_z


def amplitude(field: TrialField, y_um, z_um):
    """Value of the normalized trial field (see ``TrialField``); accepts
    scalars or arrays (um)."""
    y = np.asarray(y_um, dtype=float)
    z = np.asarray(z_um, dtype=float)
    w, h = field.width_w, field.depth_h
    val = (
        _norm(field)
        * (-z / h)
        * np.exp(-(field.alpha_y**2) * y**2 / w**2)
        * np.exp(-(field.alpha_z**2) * z**2 / h**2)
    )
    out = np.where(z < 0.0, val, 0.0)
    return float(out) if out.ndim == 0 else out


def grad(field: TrialField, y_um, z_um):
    """Analytic transverse gradient (d/dy, d/dz) of the trial field, zero in
    the cover z >= 0. Accepts arrays, or floats (um), which keep to
    ``math.exp`` so that adaptive quadrature stays fast."""
    exp = math.exp if isinstance(y_um, float) and isinstance(z_um, float) else np.exp
    w, h = field.width_w, field.depth_h
    ay2, az2 = field.alpha_y**2, field.alpha_z**2
    env = exp(-ay2 * y_um**2 / w**2 - az2 * z_um**2 / h**2) * (z_um < 0.0)
    psi = _norm(field) * (-z_um / h) * env
    dpsi_dy = -2.0 * ay2 * y_um / w**2 * psi
    dpsi_dz = _norm(field) * env * (-1.0 / h) * (1.0 - 2.0 * az2 * z_um**2 / h**2)
    return dpsi_dy, dpsi_dz


def index_profile(geom: WaveguideGeometry, n_b: float, delta_n: float, y_um, z_um):
    """Squared-index profile n^2(y, z) of the diffused channel.

    Substrate half-space z < 0 carries the double-Gaussian increment
    n_b^2 + 2 n_b dn exp(-y^2/w^2) exp(-z^2/h^2); the cover z >= 0 is air
    (n = 1). The trial fields vanish there, so no result depends on the
    cover. Accepts scalars or numpy arrays.
    """
    y = np.asarray(y_um, dtype=float)
    z = np.asarray(z_um, dtype=float)
    substrate = n_b**2 + 2.0 * n_b * delta_n * np.exp(-(y**2) / geom.width_w**2) * np.exp(
        -(z**2) / geom.depth_h**2
    )
    out = np.where(z < 0.0, substrate, 1.0)
    if out.ndim == 0:
        return float(out)
    return out


def sign_at(pattern: PolingPattern, x_um: float) -> int:
    """Sign of the nonlinear coefficient at position x (+1 at x = 0)."""
    flips = np.searchsorted(pattern.domain_boundaries, x_um, side="right")
    return 1 if flips % 2 == 0 else -1


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
        psi = amplitude(field, y, z)
        gy, gz = grad(field, y, z)
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


def gauss_legendre_neff2(field: TrialField, geom: WaveguideGeometry, n_b: float,
                         delta_n: float, wavelength_nm: float, n_nodes: int) -> float:
    """Tensor Gauss-Legendre rule of the variational functional over the box
    of ``neff_quadrature``, all nodes in one array expression, with the
    index profile of ``geom``."""
    k0 = 2.0 * math.pi / (wavelength_nm * 1e-3)

    def integrand(y, z):
        gy, gz = grad(field, y, z)
        return (-(gy**2 + gz**2) / k0**2
                + index_profile(geom, n_b, delta_n, y, z) * amplitude(field, y, z) ** 2)

    return gauss_legendre_box(integrand, 8.0 * field.width_w / field.alpha_y,
                              8.0 * field.depth_h / field.alpha_z, n_nodes)


def gauss_legendre_box(integrand, ylim: float, zlim: float, n_nodes: int) -> float:
    """Tensor Gauss-Legendre rule of ``integrand(y, z)`` over the box
    [-ylim, ylim] x [-zlim, 0], all nodes in one array expression."""
    xs, wx = np.polynomial.legendre.leggauss(n_nodes)
    y, z = np.meshgrid(xs * ylim, (xs - 1.0) * 0.5 * zlim, indexing="ij")
    return (wx * ylim) @ integrand(y, z) @ (wx * 0.5 * zlim)


def overlap_integral_quadrature(pump: TrialField, a: TrialField, b: TrialField,
                                tol: float = 1e-10) -> float:
    """Adaptive-quadrature oracle for ``overlap_integral``."""

    def integrand(z: float, y: float) -> float:
        return amplitude(pump, y, z) * amplitude(a, y, z) * amplitude(b, y, z)

    ymax = 8.0 * pump.width_w / min(f.alpha_y for f in (pump, a, b))
    zmax = 8.0 * pump.depth_h / min(f.alpha_z for f in (pump, a, b))
    val, err = integrate.dblquad(integrand, -ymax, ymax, -zmax, 0.0,
                                 epsabs=tol * 1e-2, epsrel=1e-12)
    if err > tol:
        raise QuadratureFailure(
            f"overlap quadrature error {err:.2e} above tolerance {tol:.2e}"
        )
    return val


def overlap_integral_gauss(pump: TrialField, a: TrialField, b: TrialField,
                           n_nodes: int = 16) -> float:
    """Tensor Gauss rule for ``overlap_integral``, all nodes in one array
    expression: Gauss-Hermite in y and Gauss-Laguerre in t = B z^2 / h^2 on
    z < 0. The rules' weights are the triple product's Gaussian envelopes
    exp(-A y^2 / w^2) and exp(-B z^2 / h^2), A and B the sums of the three
    alpha_y^2 and alpha_z^2; the product of the fields, evaluated at the
    nodes, is divided by them."""
    fields = (pump, a, b)
    y_scale = pump.width_w / math.sqrt(sum(f.alpha_y**2 for f in fields))
    z_scale = pump.depth_h / math.sqrt(sum(f.alpha_z**2 for f in fields))
    u, wu = np.polynomial.hermite.hermgauss(n_nodes)
    t, wt = np.polynomial.laguerre.laggauss(n_nodes)
    y, z = np.meshgrid(y_scale * u, -z_scale * np.sqrt(t), indexing="ij")
    val = amplitude(pump, y, z) * amplitude(a, y, z) * amplitude(b, y, z)
    # dy = y_scale du and |dz| = z_scale dt / (2 sqrt t)
    return ((wu * np.exp(u**2) * y_scale) @ val
            @ (wt * np.exp(t) * z_scale / (2.0 * np.sqrt(t))))


def nelder_mead(seed, width_w, depth_h, n_b, delta_n, wavelength_nm):
    """Nelder-Mead maximization of the closed form from one seed."""

    def neg(x):
        if x[0] <= 0.0 or x[1] <= 0.0:
            return np.inf
        return -neff_closed_form(x[0], x[1], width_w, depth_h, n_b, delta_n,
                                 wavelength_nm)

    res = optimize.minimize(
        neg, seed, method="Nelder-Mead",
        options=dict(xatol=XATOL, fatol=1e-18, maxiter=20000, maxfev=20000),
    )
    return res.x


def grid_peak(width_w, depth_h, n_b, delta_n, wavelength_nm):
    """Best strict peak of the closed form on the first grid of ``PEAK_GRIDS``
    that shows one, at one point. A strict peak is a node above its 8
    neighbors, which excludes the alpha -> 0 boundary ridge. Returns
    (alpha_y, alpha_z), or None where no grid shows a peak."""
    for n, alpha_range in PEAK_GRIDS:
        grid = np.linspace(*alpha_range, n)
        vals = neff_closed_form(grid[:, None], grid[None, :], width_w, depth_h,
                                n_b, delta_n, wavelength_nm)
        inner = vals[1:-1, 1:-1]
        strict = np.ones(inner.shape, dtype=bool)
        for di in (-1, 0, 1):
            for dj in (-1, 0, 1):
                if di or dj:
                    strict &= inner > vals[1 + di:n - 1 + di, 1 + dj:n - 1 + dj]
        if strict.any():
            i, j = np.unravel_index(np.argmax(np.where(strict, inner, -np.inf)),
                                    inner.shape)
            return float(grid[i + 1]), float(grid[j + 1])
    return None


def bracket_derivatives(alpha_y, alpha_z, q, v):
    """(grad_y, grad_z, h_yy, h_zz, h_yz): the gradient and Hessian in the
    alphas of B = -a_y^2 - q a_z^2 + V f(a_y) g(a_z), ``model_cutoff``'s
    bracket, with n_eff^2 = n_b^2 + B / (k0 w)^2, f = a / sqrt(2a^2 + 1)
    and g = a^3 / (2a^2 + 1)^(3/2), written out term by term from
    f' = (2a^2 + 1)^(-3/2), f'' = -6a (2a^2 + 1)^(-5/2),
    g' = 3a^2 (2a^2 + 1)^(-5/2) and g'' = 6a (1 - 3a^2) (2a^2 + 1)^(-7/2).
    Broadcasts."""
    ay, az = np.asarray(alpha_y, dtype=float), np.asarray(alpha_z, dtype=float)
    sy, sz = 2.0 * ay**2 + 1.0, 2.0 * az**2 + 1.0
    f, f1, f2 = ay / np.sqrt(sy), sy**-1.5, -6.0 * ay * sy**-2.5
    g, g1, g2 = az**3 * sz**-1.5, 3.0 * az**2 * sz**-2.5, 6.0 * az * (1.0 - 3.0 * az**2) * sz**-3.5
    return (-2.0 * ay + v * f1 * g, -2.0 * q * az + v * f * g1,
            -2.0 + v * f2 * g, -2.0 * q + v * f * g2, v * f1 * g1)


def newton_only_solve(geom: WaveguideGeometry, n_b, delta_n, wavelength_nm):
    """``solve_mode`` without its separate cutoff pass: ``_newton`` judges
    every point (its verdict includes the model cutoff's pre-test), and
    NoGuidedMode, with ``solve_mode``'s text for its Newton verdicts,
    names the first point with delta_n <= 0, no accepted maximum or
    n_eff^2 <= 0, the first of these reasons that holds there. Returns
    the flat (alpha_y, alpha_z, n_eff) arrays otherwise. ``_newton`` refines
    each point as it would alone, so one call over all points stands for
    ``solve_mode``'s chunks."""
    lam, n_b, dn = (np.ravel(x) for x in np.broadcast_arrays(*(
        np.asarray(x, dtype=float) for x in (wavelength_nm, n_b, delta_n))))
    w, h = geom.width_w, geom.depth_h
    ay, az, accepted = modesolver._newton(w, h, n_b, dn, lam)
    with np.errstate(all="ignore"):
        neff2 = neff_closed_form(ay, az, w, h, n_b, dn, lam)
    failed = (dn <= 0.0) | ~accepted | ~(neff2 > 0.0)
    if failed.any():
        k = int(np.argmax(failed))
        reason = ("no index increment" if dn[k] <= 0.0
                  else "Newton did not settle on the interior maximum" if not accepted[k]
                  else "effective index squared non-positive at the optimum")
        raise NoGuidedMode(f"{reason} at {float(lam[k])} nm "
                           f"(w={w} um, h={h} um, dn={float(dn[k])})")
    return ay, az, np.sqrt(neff2)


def reference_mode(ctx, polarization: str, wavelength_nm: float):
    """(n_eff, alpha_y, alpha_z, guided) at one wavelength: the ``grid_peak``
    seed refined by ``nelder_mead``. None where no grid shows a peak."""
    n_b, dn = ctx.indices(polarization, wavelength_nm)
    w, h = ctx.geometry.width_w, ctx.geometry.depth_h
    seed = grid_peak(w, h, n_b, dn, wavelength_nm)
    if seed is None:
        return None
    ay, az = nelder_mead(seed, w, h, n_b, dn, wavelength_nm)
    n_eff = math.sqrt(neff_closed_form(ay, az, w, h, n_b, dn, wavelength_nm))
    return n_eff, ay, az, n_eff > n_b + modesolver.GUIDED_MARGIN


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


def reference_group_index(mode: ModalSolution,
                          n_eff_at: Callable[[np.ndarray], np.ndarray]) -> float:
    """Group effective index N = n_eff - lambda dn_eff/dlambda of ``mode``.

    ``n_eff_at`` maps an array of wavelengths to the effective indices there
    and must re-solve the mode (including material dispersion of both n_b
    and delta_n); it is called once, with the two wavelengths of a central
    difference of step ``modesolver.GROUP_INDEX_STEP_NM`` around the mode's,
    so the variational parameters are free to shift with wavelength.
    """
    lam, step = mode.wavelength_nm, modesolver.GROUP_INDEX_STEP_NM
    n_minus, n_plus = n_eff_at(np.array([lam - step, lam + step]))
    dn_dlam = (n_plus - n_minus) / (2.0 * step)
    return mode.n_eff - lam * dn_dlam


def per_mode_group_index(mode: ModalSolution, indices) -> float:
    """``modesolver.group_index`` of one mode with its own material lookup:
    ``indices(polarization, wavelengths) -> (n_b, delta_n)`` at the two
    stencil wavelengths, then the closed form at the mode's alphas."""
    lam, step = mode.wavelength_nm, modesolver.GROUP_INDEX_STEP_NM
    lams = np.array([lam - step, lam + step])
    n_b, dn = indices(mode.polarization, lams)
    f = mode.field
    n_minus, n_plus = np.sqrt(neff_closed_form(f.alpha_y, f.alpha_z, f.width_w,
                                               f.depth_h, n_b, dn, lams))
    dn_dlam = (n_plus - n_minus) / (2.0 * step)
    return mode.n_eff - lam * dn_dlam


def reference_design_point(spec, geometry, material) -> dict:
    """The figures of ``pipeline.design_point`` from five scalar
    ``ModeContext.solve`` calls, one per mode in the order po, so, se, io,
    ie; a failing solve raises as the first failing mode's does."""
    ctx = ModeContext(material, geometry, spec.temperature_c)
    po = ctx.solve("ordinary", spec.lambda_p_nm)
    so = ctx.solve("ordinary", spec.lambda_s_nm)
    se = ctx.solve("extraordinary", spec.lambda_s_nm)
    io = ctx.solve("ordinary", spec.lambda_i_nm)
    ie = ctx.solve("extraordinary", spec.lambda_i_nm)
    design = periods_from_frequencies(*required_frequencies(po, so, se, io, ie))
    amps = relative_amplitudes(po, so, se, io, ie, design, spec.length_mm)
    bw_oe, bw_eo = spdc.bandwidth_approx(
        *(per_mode_group_index(m, ctx.indices) for m in (so, se, io, ie)),
        spec.lambda_s_nm, spec.length_mm)
    return {"gamma": spdc.gamma(amps), "Lambda1": design.Lambda1,
            "Lambda2": design.Lambda2, "Lambda0": design.Lambda0,
            "Lambdap": design.Lambdap, "bandwidth_oe_nm": bw_oe,
            "bandwidth_eo_nm": bw_eo}


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
        result.design, result.spec.length_mm,
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


def reference_boundaries(design: GratingDesign, length_mm: float) -> tuple[float, ...]:
    """``synthesize_pattern``'s domain boundaries, one flip at a time: the
    merged flips of both square waves, with each coincident pair dropped."""
    length_um = length_mm * 1e3
    half0 = design.Lambda0 / 2.0
    halfp = design.Lambdap / 2.0
    flips0 = np.arange(half0, length_um, half0)
    flipsp = np.arange(halfp, length_um, halfp)
    merged = np.sort(np.concatenate([flips0, flipsp]))
    merged = merged[merged < length_um - COINCIDENCE_TOL_UM]
    boundaries: list[float] = []
    i = 0
    while i < len(merged):
        if i + 1 < len(merged) and merged[i + 1] - merged[i] <= COINCIDENCE_TOL_UM:
            i += 2  # simultaneous flip of both waves: sign unchanged
        else:
            boundaries.append(float(merged[i]))
            i += 1
    return tuple(boundaries)


def _veltkamp(a):
    """a = hi + lo with 26 significant bits in each part."""
    c = 134217729.0 * a
    hi = c - (c - a)
    return hi, a - hi


def domain_sum_fourier_component(pattern: PolingPattern, K: float) -> complex:
    """``fourier_component`` as (1/L) sum_m s_m w_m sinc(K w_m / 2)
    exp(-iK c_m) over the domains' signs, widths and centres: each term in
    double precision with ``math``, the terms summed exactly by
    ``math.fsum``. It never divides by K, so it keeps its digits as K -> 0."""
    edges = [0.0, *pattern.domain_boundaries.tolist(), pattern.length_um]
    real, imag = [], []
    for m, (a, b) in enumerate(zip(edges, edges[1:])):
        x = 0.5 * K * (b - a)
        amplitude = (-1.0) ** m * (b - a) * (math.sin(x) / x if x else 1.0)
        centre_phase = K * (0.5 * (a + b))
        real.append(amplitude * math.cos(centre_phase))
        imag.append(-amplitude * math.sin(centre_phase))
    return complex(math.fsum(real) / pattern.length_um, math.fsum(imag) / pattern.length_um)


def reference_fourier_component(pattern: PolingPattern, K: float,
                                exact_phases: bool = False) -> complex:
    """``fourier_component`` one domain at a time: (1/L) times the exact
    integral of sign(x) exp(-iKx) over each constant-sign domain, one complex
    exponential per domain edge. With ``exact_phases`` each phase K x is
    carried as its rounded value p plus the rounding error e of the product
    (Dekker), exp(-iKx) = exp(-ip) (1 - ie) up to e^2 / 2, instead of
    rounded to p alone: about 1e-10 rad at 1.8 m."""
    edges = np.concatenate([[0.0], pattern.domain_boundaries, [pattern.length_um]])
    signs = (-1.0) ** np.arange(len(edges) - 1)
    if K == 0.0:
        return complex(np.sum(signs * np.diff(edges)) / pattern.length_um)
    phase = np.exp(-1j * K * edges)
    if exact_phases:
        (k_hi, k_lo), (x_hi, x_lo) = _veltkamp(K), _veltkamp(edges)
        p = K * edges
        phase *= 1.0 - 1j * (((k_hi * x_hi - p) + k_hi * x_lo + k_lo * x_hi) + k_lo * x_lo)
    segments = signs * (phase[:-1] - phase[1:]) / (1j * K)
    return complex(np.sum(segments) / pattern.length_um)
