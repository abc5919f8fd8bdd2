"""Variational fundamental-mode solver for the diffused channel waveguide.

The trial family is a two-parameter Hermite-Gauss field that vanishes at the
substrate surface (z = 0) and in the cover. The effective index comes from
maximizing a closed-form functional in (alpha_y, alpha_z); the test suite
checks it against an adaptive 2-D quadrature of the same functional.

For weakly confining cases (long wavelengths, small cross sections) the
global supremum of the functional sits on the alpha -> 0 boundary, where the
trial field degenerates into a plane wave with n_eff -> n_b. The physically
meaningful solution is the *interior* stationary point, which is what
``solve_mode`` locates; if the interior maximum falls below the substrate
index the mode is only quasi-guided and is flagged as such.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np
from scipy import optimize

from .dispersion import WaveguideGeometry
from .errors import NoGuidedMode

# Seed grid for the interior-maximum search: GRID_N x GRID_N points over
# ALPHA_RANGE in both variational parameters, refined by Nelder-Mead to XATOL.
GRID_N = 16
ALPHA_RANGE = (0.2, 8.0)
XATOL = 1e-9


@dataclass(frozen=True)
class TrialField:
    """Normalized Hermite-Gauss trial field on the half-space z < 0.

    amplitude(y, z) = sqrt(16 a_y a_z / (pi w h)) a_z (-z/h)
                      exp(-a_y^2 y^2 / w^2) exp(-a_z^2 z^2 / h^2)  for z < 0,
    and 0 for z >= 0. The sign is chosen so the lobe is positive. The L2 norm
    over the half-space is exactly 1 for any valid parameters.
    """

    alpha_y: float
    alpha_z: float
    width_w: float
    depth_h: float

    def __post_init__(self):
        if self.alpha_y <= 0 or self.alpha_z <= 0:
            raise ValueError("variational parameters must be positive")

    @property
    def _norm(self) -> float:
        return math.sqrt(
            16.0 * self.alpha_y * self.alpha_z / (math.pi * self.width_w * self.depth_h)
        ) * self.alpha_z

    def amplitude(self, y_um, z_um):
        """Field value; accepts scalars or arrays (um)."""
        y = np.asarray(y_um, dtype=float)
        z = np.asarray(z_um, dtype=float)
        w, h = self.width_w, self.depth_h
        val = (
            self._norm
            * (-z / h)
            * np.exp(-(self.alpha_y**2) * y**2 / w**2)
            * np.exp(-(self.alpha_z**2) * z**2 / h**2)
        )
        out = np.where(z < 0.0, val, 0.0)
        return float(out) if out.ndim == 0 else out

    def grad(self, y_um: float, z_um: float) -> tuple[float, float]:
        """Analytic transverse gradient (d/dy, d/dz) for z < 0."""
        if z_um >= 0.0:
            return 0.0, 0.0
        w, h = self.width_w, self.depth_h
        ay2, az2 = self.alpha_y**2, self.alpha_z**2
        env = math.exp(-ay2 * y_um**2 / w**2 - az2 * z_um**2 / h**2)
        psi = self._norm * (-z_um / h) * env
        dpsi_dy = -2.0 * ay2 * y_um / w**2 * psi
        dpsi_dz = self._norm * env * (-1.0 / h) * (1.0 - 2.0 * az2 * z_um**2 / h**2)
        return dpsi_dy, dpsi_dz


@dataclass
class ModalSolution:
    """Optimized mode at one (wavelength, polarization)."""

    wavelength_nm: float
    polarization: str
    n_eff: float
    n_bulk: float
    delta_n: float
    field: TrialField
    guided: bool = True
    group_index: float | None = None


def neff_closed_form(alpha_y, alpha_z, width_w: float, depth_h: float,
                     n_b: float, delta_n: float, wavelength_nm: float):
    """Closed-form n_eff^2 of the trial family. Broadcasts over alpha arrays.

    n_eff^2 = n_b^2 - (a_y^2 h^2 + 3 w^2 a_z^2) / (k0^2 w^2 h^2)
              + 8 n_b dn a_y a_z^3 / ((2 a_z^2 + 1)^(3/2) sqrt(2 a_y^2 + 1))
    with k0 = 2 pi / lambda (lambda in um).
    """
    ay = np.asarray(alpha_y, dtype=float)
    az = np.asarray(alpha_z, dtype=float)
    k0 = 2.0 * math.pi / (wavelength_nm * 1e-3)  # rad/um
    kinetic = (ay**2 * depth_h**2 + 3.0 * width_w**2 * az**2) / (
        k0**2 * width_w**2 * depth_h**2
    )
    guiding = (
        8.0 * n_b * delta_n * ay * az**3
        / ((2.0 * az**2 + 1.0) ** 1.5 * np.sqrt(2.0 * ay**2 + 1.0))
    )
    out = n_b**2 - kinetic + guiding
    return float(out) if out.ndim == 0 else out


def _interior_maximum(width_w, depth_h, n_b, delta_n, wavelength_nm):
    """Best interior local maximum of the closed form, or None.

    Seeds from grid points that strictly dominate their 8 neighbors (the
    alpha -> 0 boundary ridge is thereby excluded) and refines each seed with
    Nelder-Mead. Falls back to a denser, wider grid before giving up.
    """

    def refine(seed):
        def neg(x):
            if x[0] <= 0.0 or x[1] <= 0.0:
                return np.inf
            return -neff_closed_form(x[0], x[1], width_w, depth_h, n_b, delta_n,
                                     wavelength_nm)

        res = optimize.minimize(
            neg, seed, method="Nelder-Mead",
            options=dict(xatol=XATOL, fatol=1e-18, maxiter=20000, maxfev=20000),
        )
        return res.x, -res.fun

    for n, (lo, hi) in ((GRID_N, ALPHA_RANGE), (64, (0.05, 12.0))):
        grid = np.linspace(lo, hi, n)
        ay, az = np.meshgrid(grid, grid, indexing="ij")
        vals = neff_closed_form(ay, az, width_w, depth_h, n_b, delta_n, wavelength_nm)
        interior = vals[1:-1, 1:-1]
        is_peak = np.ones_like(interior, dtype=bool)
        for di in (-1, 0, 1):
            for dj in (-1, 0, 1):
                if di == 0 and dj == 0:
                    continue
                is_peak &= interior > vals[1 + di : n - 1 + di, 1 + dj : n - 1 + dj]
        peaks = np.argwhere(is_peak)
        best = None
        for i, j in peaks:
            x, v = refine([grid[i + 1], grid[j + 1]])
            # discard refinements that slid onto the alpha -> 0 boundary
            if min(x) < 10.0 * XATOL:
                continue
            if best is None or v > best[1]:
                best = (x, v)
        if best is not None:
            return best
    return None


def solve_mode(geom: WaveguideGeometry, n_b: float, delta_n: float,
               wavelength_nm: float, polarization: str = "ordinary",
               require_bound: bool = True) -> ModalSolution:
    """Maximize the effective-index functional over (alpha_y, alpha_z).

    Raises NoGuidedMode when no interior stationary point exists (e.g.
    delta_n = 0), or — with ``require_bound=True`` — when the optimum fails
    to exceed the substrate index (mode not bound). With
    ``require_bound=False`` a quasi-guided solution is returned flagged
    ``guided=False``; near-cutoff geometries still support the nonlinear
    interaction through such modes.
    """
    if delta_n <= 0.0:
        raise NoGuidedMode(
            f"delta_n = {delta_n}: no index increment, mode cannot be guided"
        )
    best = _interior_maximum(geom.width_w, geom.depth_h, n_b, delta_n, wavelength_nm)
    if best is None:
        raise NoGuidedMode(
            f"no interior maximum of n_eff^2 at {wavelength_nm} nm "
            f"(w={geom.width_w} um, h={geom.depth_h} um, dn={delta_n})"
        )
    (ay, az), neff2 = best
    if neff2 <= 0.0:
        raise NoGuidedMode("effective index squared non-positive at the optimum")
    n_eff = math.sqrt(neff2)
    guided = n_eff > n_b + 1e-9
    if require_bound and not guided:
        raise NoGuidedMode(
            f"mode not bound at {wavelength_nm} nm: n_eff = {n_eff:.9f} "
            f"<= n_b = {n_b:.9f}"
        )
    field = TrialField(alpha_y=float(ay), alpha_z=float(az),
                       width_w=geom.width_w, depth_h=geom.depth_h)
    return ModalSolution(
        wavelength_nm=wavelength_nm,
        polarization=polarization,
        n_eff=n_eff,
        n_bulk=n_b,
        delta_n=delta_n,
        field=field,
        guided=guided,
    )


def group_index(mode_at: Callable[[float], ModalSolution], wavelength_nm: float,
                step_nm: float = 0.1) -> float:
    """Group effective index N = n_eff - lambda dn_eff/dlambda.

    ``mode_at`` must re-solve the mode (including material dispersion of both
    n_b and delta_n) at the requested wavelength; the derivative is a central
    difference with step ``step_nm``, so the variational parameters are free
    to shift with wavelength.
    """
    n0 = mode_at(wavelength_nm).n_eff
    np_ = mode_at(wavelength_nm + step_nm).n_eff
    nm_ = mode_at(wavelength_nm - step_nm).n_eff
    dn_dlam = (np_ - nm_) / (2.0 * step_nm)
    return n0 - wavelength_nm * dn_dlam
