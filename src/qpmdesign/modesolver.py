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

``solve_mode`` is one batched kernel: it takes a wavelength (with its
material indices) or arrays of them, broadcasts and flattens them, starts
each point at the start alphas it is given, by default alpha_y = alpha_z =
1, and runs a safeguarded Newton iteration (``_newton``) on the analytic
stationarity equations of each flat chunk of ``NEWTON_CHUNK`` points.
Off-design re-solves start from the solved design-point mode. Existence is
decided once per batch, before the iteration: the closed form has an
interior maximum exactly when the guiding strength V = 8 n_b dn (k0 w)^2
exceeds the model cutoff V_c of the channel's aspect ratio
(``model_cutoff``), a number in closed form. A batch with a point at or
below V_c is refused at the first such point without a Newton step; above
V_c a point Newton does not settle on the maximum is refused as such.

Alphas from callers (a ``TrialField`` they build, the start alphas) pass one
check, ``_positive``; the fields of solved modes, whose alphas ``_newton``
accepted, are built by ``TrialField.from_solver`` without it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dispersion import WaveguideGeometry
from .errors import NoGuidedMode

# Newton stops once a step is below NEWTON_TOL (relative to alpha) or after
# NEWTON_STEPS. A settled point with an alpha at or below ALPHA_CUT is on the
# alpha -> 0 boundary, not an interior maximum. ``solve_mode`` refuses a
# point past the model cutoff before any step, so the limit bounds the cost
# of a point above it that Newton fails to settle. Steps to settle from the
# seed (1, 1) over 400,000 random points (numpy seed 7; d, w in [2, 20] um;
# 500-540, 740-820 and 1450-1700 nm; both polarizations; 369,437 accepted),
# as steps: points:
#   3-4: 927, 5: 28,252, 6: 97,220, 7: 96,870, 8: 127,081, 9: 19,023,
#   10: 50, 11: 11, 12: 1, 13: 2.
# Started warm, from the mode at 780 nm for 740-820 nm and at 1551 nm for
# 1450-1700 nm, as off-design re-solves are (numpy seed 7; 400 geometries,
# d, w in [2, 20] um; both polarizations; 350,785 accepted, the same points
# as from (1, 1)):
#   2: 6, 3: 6,361, 4: 230,435, 5: 109,459, 6: 3,459, 7: 901, 8: 122,
#   9: 34, 10: 6, 11: 1, 12: 1;
# from (1, 1) the same points take 4: 1,649, 5: 36,629, 6: 139,487,
#   7: 116,147, 8: 56,681, 9: 154, 10: 25, 11: 10, 12: 2, 14: 1.
NEWTON_STEPS = 16
NEWTON_TOL = 1e-13
ALPHA_CUT = 1e-8
# Points ``solve_mode`` refines in one ``_newton`` call. Newton's working
# arrays grow with the points refined together, and chunks bound them: the
# 4 x 20,001-point solve of a 20,001-sample spectrum traces 6.2 MiB at its
# peak, against 20.7 MiB in one call. A chunk this large keeps the fixed
# cost of a call small next to its work.
NEWTON_CHUNK = 4096
# A mode whose n_eff exceeds n_b by no more than this is only quasi-guided.
GUIDED_MARGIN = 1e-9
# Central-difference step (nm) of the group index.
GROUP_INDEX_STEP_NM = 0.1


@dataclass(frozen=True)
class TrialField:
    """Normalized Hermite-Gauss trial field on the half-space z < 0.

    psi(y, z) = sqrt(16 a_y a_z / (pi w h)) a_z (-z/h)
                exp(-a_y^2 y^2 / w^2) exp(-a_z^2 z^2 / h^2)  for z < 0,
    and 0 for z >= 0. The sign is chosen so the lobe is positive. The L2 norm
    over the half-space is exactly 1 for any valid parameters.

    The parameters may be arrays of one shape, one field per element, as in
    a ``solve_mode`` over arrays. Every alpha must be > 0 (NaN is not),
    else ValueError, unless the field comes from ``from_solver``.
    """

    alpha_y: float
    alpha_z: float
    width_w: float
    depth_h: float

    def __post_init__(self):
        if not _positive(self.alpha_y, self.alpha_z):
            raise ValueError("variational parameters must be positive")

    @classmethod
    def from_solver(cls, alpha_y, alpha_z, width_w, depth_h) -> "TrialField":
        """The field of alphas ``_newton`` accepted, built unchecked. An
        accepted point has both alphas above ALPHA_CUT, so the caller check
        holds by construction and does not run again."""
        field = object.__new__(cls)
        vars(field).update(alpha_y=alpha_y, alpha_z=alpha_z,
                           width_w=width_w, depth_h=depth_h)
        return field


def _positive(alpha_y, alpha_z) -> bool:
    """Whether every alpha is > 0, the check of caller input (a NaN alpha
    compares false and fails it)."""
    return bool((np.asarray(alpha_y) > 0.0).all() and (np.asarray(alpha_z) > 0.0).all())


@dataclass
class ModalSolution:
    """Optimized mode at one (wavelength, polarization).

    A ``solve_mode`` over arrays holds arrays of one shape in every numeric
    field (and in its field's alphas).
    """

    wavelength_nm: float
    polarization: str
    n_eff: float
    n_bulk: float
    delta_n: float
    field: TrialField
    guided: bool = True


def neff_closed_form(alpha_y, alpha_z, width_w: float, depth_h: float,
                     n_b, delta_n, wavelength_nm):
    """Closed-form n_eff^2 of the trial family. Broadcasts over arrays.

    n_eff^2 = n_b^2 - (a_y^2 h^2 + 3 w^2 a_z^2) / (k0^2 w^2 h^2)
              + 8 n_b dn a_y a_z^3 / ((2 a_z^2 + 1)^(3/2) sqrt(2 a_y^2 + 1))
    with k0 = 2 pi / lambda (lambda in um).
    """
    ay = np.asarray(alpha_y, dtype=float)
    az = np.asarray(alpha_z, dtype=float)
    k0 = 2.0 * math.pi / (np.asarray(wavelength_nm, dtype=float) * 1e-3)  # rad/um
    # k0 * k0, not k0**2: numpy's scalar power can round a square differently
    # from its array power, and a scalar call is one element of a batch
    kinetic = (ay**2 * depth_h**2 + 3.0 * width_w**2 * az**2) / (
        k0 * k0 * width_w**2 * depth_h**2
    )
    guiding = (
        8.0 * n_b * delta_n * ay * az**3
        / ((2.0 * az**2 + 1.0) ** 1.5 * np.sqrt(2.0 * ay**2 + 1.0))
    )
    return n_b**2 - kinetic + guiding


def _newton(width_w, depth_h, n_b, delta_n, wavelength_nm, alpha_y, alpha_z):
    """Safeguarded Newton iteration on the stationarity equations of the
    closed form.

    Writing n_eff^2 = n_b^2 - c_y a_y^2 - c_z a_z^2 + c f(a_y) g(a_z) with
    c_y = 1/(k0 w)^2, c_z = 3/(k0 h)^2, c = 8 n_b dn,
    f = a/sqrt(2a^2+1) and g = a^3/(2a^2+1)^(3/2), the gradient and Hessian
    follow from f' = (2a^2+1)^(-3/2), f'' = -6a (2a^2+1)^(-5/2),
    g' = 3a^2 (2a^2+1)^(-5/2) and g'' = 6a (1-3a^2) (2a^2+1)^(-7/2).

    Two rules safeguard the Newton step -H^-1 grad. Where det H <= 0 the
    step is |H|^-1 grad, |H| the matrix absolute value of H (Nocedal &
    Wright, Numerical Optimization, 2nd ed., sec. 3.4): an ascent that
    leaves saddles. Where H is concave, |H|^-1 grad is the Newton step. And
    every step is shortened so that no alpha more than halves: the iteration
    never crosses to the mirror maximum at negative alphas.

    Takes one flat chunk: ``alpha_y`` and ``alpha_z`` are 1-d arrays of
    one length, and ``n_b``, ``delta_n`` and ``wavelength_nm`` arrays of
    that length or scalars; ``solve_mode`` broadcasts and flattens its
    arguments into such chunks. Returns (alpha_y, alpha_z, accepted) of
    that length: a point is accepted when the iteration settled on a
    concave interior point (det H > 0, H_yy < 0, both alphas above
    ALPHA_CUT), i.e. a local maximum. A point whose start already passes
    the settle test is returned unmoved.
    """
    k0 = 2.0 * math.pi / (wavelength_nm * 1e-3)
    cy = 1.0 / (k0 * width_w) ** 2
    cz = 3.0 / (k0 * depth_h) ** 2
    c = 8.0 * n_b * delta_n
    ky, kz = -2.0 * cy, -2.0 * cz
    ay, az = alpha_y.copy(), alpha_z.copy()

    with np.errstate(all="ignore"):
        for k in range(NEWTON_STEPS):
            sy = 2.0 * ay**2 + 1.0
            sz = 2.0 * az**2 + 1.0
            cf = c * (ay / np.sqrt(sy))  # c f
            cf1 = c * sy**-1.5  # c f'
            g = az**3 * sz**-1.5
            g1 = 3.0 * az**2 * sz**-2.5
            grad_y = ky * ay + cf1 * g
            grad_z = kz * az + cf * g1
            h_yy = ky + c * (-6.0 * ay * sy**-2.5) * g
            h_zz = kz + cf * (6.0 * az * (1.0 - 3.0 * az**2) * sz**-3.5)
            h_yz = cf1 * g1
            step_y, step_z, det = _ascent_direction(grad_y, grad_z, h_yy, h_zz, h_yz)
            # no alpha more than halves, so alphas stay positive and H_yy < 0:
            # det H > 0 means concave. A settled point stays where it would
            # stop if refined alone, independent of the others refined with it
            scale = -0.5 / np.minimum(-0.5, np.minimum(step_y / ay, step_z / az))
            if k == 0:
                # a start that already passes the settle test stays where it
                # is: a start at a solved mode returns that mode bit for bit
                settled = _settled(step_y * scale, step_z * scale, ay, az)
            scale[settled] = 0.0
            step_y *= scale
            step_z *= scale
            ay += step_y
            az += step_z
            settled = _settled(step_y, step_z, ay, az)
            if settled.all():
                break
        # the last Hessian: a point settled earlier sits where it was taken,
        # one that settled on the last step moved by at most NEWTON_TOL
        accepted = (settled & (ay > ALPHA_CUT) & (az > ALPHA_CUT)
                    & (det > 0.0) & (h_yy < 0.0))
    return ay, az, accepted


def _settled(step_y, step_z, alpha_y, alpha_z):
    """Where a step is below NEWTON_TOL relative to the alphas. NaN compares
    false: a point gone non-finite cannot recover and settles."""
    return ~((np.abs(step_y) > NEWTON_TOL * (1.0 + alpha_y))
             | (np.abs(step_z) > NEWTON_TOL * (1.0 + alpha_z)))


def _ascent_direction(grad_y, grad_z, h_yy, h_zz, h_yz):
    """(step_y, step_z, det H) for H = [[h_yy, h_yz], [h_yz, h_zz]]: the
    Newton step n = -H^-1 grad where det H > 0, else |H|^-1 grad. For a
    symmetric 2x2 H, |H| = (t H + e I) / s with t = tr H, e = |det H| - det H
    and s = sqrt(t^2 + 2e), so det H <= 0 gives |H|^-1 grad = (t n + 2 grad) / s."""
    det = h_yy * h_zz - h_yz**2
    step_y = (h_yz * grad_z - h_zz * grad_y) / det
    step_z = (h_yz * grad_y - h_yy * grad_z) / det
    saddle = det <= 0.0
    if saddle.any():
        t = h_yy[saddle] + h_zz[saddle]
        s = np.sqrt(t * t - 4.0 * det[saddle])
        step_y[saddle] = (t * step_y[saddle] + 2.0 * grad_y[saddle]) / s
        step_z[saddle] = (t * step_z[saddle] + 2.0 * grad_z[saddle]) / s
    return step_y, step_z, det


def model_cutoff(width_w: float, depth_h: float) -> tuple[float, float, float]:
    """(V_c, alpha_y, alpha_z): the model cutoff of a w x h channel and the
    alphas at which its interior maximum vanishes.

    With c_y = 1/(k0 w)^2 the closed form reads
    n_eff^2 = n_b^2 + c_y [-a_y^2 - q a_z^2 + V f(a_y) g(a_z)], with
    q = 3 (w/h)^2, V = 8 n_b dn (k0 w)^2 and f, g as in ``_newton``. At a
    stationary point the Hessian of the bracket depends on the alphas alone,
    and det H = 0 on the fold (8 a_y^2 + 1)(8 a_z^2 - 1) = 3. Along it, with
    u = a_y^2, q = 3u (8u + 1)^2 / (5u + 1) rises monotonically from 0, so u
    is the one positive root of 192u^3 + 48u^2 + (3 - 5q) u - q = 0,
    a_z^2 = (2u + 1) / (2 (8u + 1)) and V_c = 16 sqrt(u) (5u + 1)^(3/2). A
    point with V <= V_c has no interior maximum. V_c is the cutoff of the
    trial family, not of the waveguide, whose true modes may reach past it.
    Finite over all of GEOMETRY_RANGE_UM, q in [3e-8, 3e8].
    """
    q = 3.0 * (width_w / depth_h) ** 2
    # F(u) = 3u (8u + 1)^2 - q (5u + 1) is convex for u > 0 with F(0) < 0, so
    # Newton from an upper bound of the root descends onto it monotonically
    u = min(q / 3.0, max(math.sqrt(q / 24.0), 1.0 / 3.0))
    while True:
        below = u - ((3.0 * u * (8.0 * u + 1.0) ** 2 - q * (5.0 * u + 1.0))
                     / (576.0 * u * u + 96.0 * u + 3.0 - 5.0 * q))
        if not 0.0 < below < u:  # settled to rounding
            break
        u = below
    v_c = 16.0 * (5.0 * u + 1.0) * math.sqrt(u * (5.0 * u + 1.0))
    return v_c, math.sqrt(u), math.sqrt((2.0 * u + 1.0) / (2.0 * (8.0 * u + 1.0)))


def solve_mode(geom: WaveguideGeometry, n_b, delta_n, wavelength_nm,
               polarization: str = "ordinary", alpha_y0=1.0, alpha_z0=1.0) -> ModalSolution:
    """Maximize the effective-index functional over (alpha_y, alpha_z).

    ``n_b``, ``delta_n``, ``wavelength_nm`` and the positive start alphas
    ``alpha_y0`` and ``alpha_z0`` broadcast: scalars give a ModalSolution
    of numpy scalars, arrays one whose numeric fields (and field alphas)
    are arrays of the broadcast shape. Each point starts at its start
    alphas, by default alpha_y = alpha_z = 1, and ``_newton`` refines the
    points together, ``NEWTON_CHUNK`` at a time; each chunk's n_eff is
    finished and checked before the next is refined. A solved mode's alphas
    are a warm start for wavelengths near its own. A start alpha that is
    not positive (NaN included) raises ValueError before any solve.

    Raises NoGuidedMode at the first point past the model cutoff
    (``model_cutoff``): delta_n <= 0 or V <= V_c, checked over the whole
    batch before any Newton step. Else it raises at the first point
    ``_newton`` does not accept (it does not settle on a concave interior
    point from its start) or whose n_eff^2 is not positive.
    An interior maximum that fails to exceed the substrate index is
    returned flagged ``guided=False``: such a mode is only quasi-guided,
    but near-cutoff geometries still support the nonlinear interaction
    through it.
    """
    lam, n_b, dn, ay0, az0 = np.broadcast_arrays(*(
        np.asarray(x, dtype=float) for x in (wavelength_nm, n_b, delta_n, alpha_y0, alpha_z0)))
    shape = lam.shape
    lam, n_b, dn, ay0, az0 = (x.ravel() for x in (lam, n_b, dn, ay0, az0))
    if not _positive(ay0, az0):
        raise ValueError("start alphas must be positive")
    w, h = geom.width_w, geom.depth_h
    # V = 8 n_b dn (k0 w)^2 with k0 = 2000 pi / lambda (nm), so V > V_c
    # exactly when n_b dn / lambda^2 > V_c / (8 (2000 pi w)^2), up to rounding
    cut = model_cutoff(w, h)[0] / (8.0 * (2e3 * math.pi * w) ** 2)
    past = ~(n_b * dn / (lam * lam) > cut)  # dn <= 0 (n_b > 0) and NaN are past too
    if past.any():
        k = int(np.argmax(past))
        raise _no_mode("no index increment" if dn[k] <= 0.0
                       else "no interior maximum of n_eff^2", lam[k], dn[k], w, h)

    ay, az, n_eff = np.empty_like(lam), np.empty_like(lam), np.empty_like(lam)
    for start in range(0, lam.size, NEWTON_CHUNK):
        part = slice(start, start + NEWTON_CHUNK)
        lam_c, n_b_c, dn_c = lam[part], n_b[part], dn[part]
        ay_c, az_c, accepted = _newton(w, h, n_b_c, dn_c, lam_c, ay0[part], az0[part])
        with np.errstate(all="ignore"):  # rejected points may hold non-finite alphas
            neff2 = neff_closed_form(ay_c, az_c, w, h, n_b_c, dn_c, lam_c)
        failed = ~accepted | ~(neff2 > 0.0)
        if failed.any():
            k = int(np.argmax(failed))
            raise _no_mode("Newton did not settle on the interior maximum" if not accepted[k]
                           else "effective index squared non-positive at the optimum",
                           lam_c[k], dn_c[k], w, h)
        ay[part], az[part], n_eff[part] = ay_c, az_c, np.sqrt(neff2)

    def out(x):
        return x.reshape(shape)[()]

    return ModalSolution(
        wavelength_nm=out(lam),
        polarization=polarization,
        n_eff=out(n_eff),
        n_bulk=out(n_b),
        delta_n=out(dn),
        field=TrialField.from_solver(out(ay), out(az), w, h),
        guided=out(n_eff > n_b + GUIDED_MARGIN),
    )


def _no_mode(reason, lam, dn, w, h) -> NoGuidedMode:
    return NoGuidedMode(f"{reason} at {float(lam)} nm (w={w} um, h={h} um, dn={float(dn)})")


def group_index(modes, indices) -> tuple[float, ...]:
    """Group effective index N = n_eff - lambda dn_eff/dlambda of each of
    ``modes``, in order.

    A mode maximizes the closed form over the alphas, so dn_eff/dlambda is
    the partial derivative at the mode's alphas (envelope theorem) and needs
    no re-solve. It is a central difference of step ``GROUP_INDEX_STEP_NM``
    of the closed form at those alphas, with the material indices
    ``indices(polarization, wavelengths) -> (n_b, delta_n)`` at the two
    wavelengths, so material dispersion of both n_b and delta_n is included.
    Each mode looks up its two stencil wavelengths in one ``indices`` call
    and evaluates the closed form on its own scalar alphas: on arrays of
    alphas numpy's power can round differently.
    """
    step = GROUP_INDEX_STEP_NM
    n_group = []
    for mode in modes:
        lam_pair = np.array([mode.wavelength_nm - step, mode.wavelength_nm + step])
        n_b_pair, dn_pair = indices(mode.polarization, lam_pair)
        f = mode.field
        n_minus, n_plus = np.sqrt(neff_closed_form(f.alpha_y, f.alpha_z, f.width_w,
                                                   f.depth_h, n_b_pair, dn_pair, lam_pair))
        dn_dlam = (n_plus - n_minus) / (2.0 * step)
        n_group.append(mode.n_eff - mode.wavelength_nm * dn_dlam)
    return tuple(n_group)
