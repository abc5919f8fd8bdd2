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
material indices) or arrays of them, broadcasts and flattens them, and
solves the stationarity equations of each flat chunk of ``NEWTON_CHUNK``
points by a bracketed Newton iteration (``_newton``). The two equations
reduce to one in alpha_y along a closed-form curve, on which the guiding
strength V = 8 n_b dn (k0 w)^2 is a U-shaped function of alpha_y with its
minimum, the model cutoff V_c of the channel's aspect ratio
(``model_cutoff``), at the fold; alpha_z follows from alpha_y in closed
form. Each point starts from its own V, so its mode depends on nothing but
the geometry and its V. Existence is decided once per batch, before the
iteration: the closed form has an interior maximum exactly when V > V_c,
and a batch with a point at or below V_c is refused at the first such
point without a Newton step. Above V_c the maximum is the one root of
V(alpha_y) = V above the fold.

A ``TrialField`` a caller builds checks that its alphas are positive; the
fields of solved modes, whose alphas ``_newton`` accepted, are built by
``TrialField.from_solver`` without the check.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dispersion import WaveguideGeometry
from .errors import NoGuidedMode

# ``_newton`` settles a point after a Newton step in ln alpha_y shorter than
# NEWTON_TOL: along the curve |T''/(2 T')| <= 0.28 (measured above the fold
# for q from 3e-8 to 3e8, the span of GEOMETRY_RANGE_UM), so the error such
# a step leaves is below 0.28 NEWTON_TOL^2, under rounding. It settles a
# point unmoved where |ln(V(a_y) / V)| <= RESIDUAL_TOL, 18 ulp of 1: that
# log reads up to 7 ulp at roots the iteration settled by step (120,000
# random points). NEWTON_STEPS bounds the steps; a point it cuts off is
# refused. Steps over fold_gate.py's sample (numpy seed 7; 4,000
# geometries, d, w in [2, 20] um; 100 points each in 500-540, 740-820 and
# 1450-1700 nm; both polarizations), as steps: points, 369,957 accepted:
#   2: 30,023, 3: 321,024, 4: 18,910.
# Over GEOMETRY_RANGE_UM (h/w from 1e-4 to 1e4) at V / V_c - 1 in
# [1e-14, 1e6], 128,004 points took at most 17; those more than 1e-2 above
# V_c took at most 8. The most steps fall near V_c in deep channels
# (h/w > 10), whose start lies far above the fold.
NEWTON_STEPS = 32
NEWTON_TOL = 1e-8
RESIDUAL_TOL = 4e-15
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
        # a NaN alpha compares false and fails the check
        if not all((np.asarray(alpha) > 0.0).all() for alpha in (self.alpha_y, self.alpha_z)):
            raise ValueError("variational parameters must be positive")

    @classmethod
    def from_solver(cls, alpha_y, alpha_z, width_w, depth_h) -> "TrialField":
        """The field of alphas ``_newton`` accepted, built unchecked. An
        accepted point lies on the stationary curve above the fold, where
        alpha_y > 0 and alpha_z^2 > 1/8, so the caller check holds by
        construction and does not run again."""
        field = object.__new__(cls)
        vars(field).update(alpha_y=alpha_y, alpha_z=alpha_z,
                           width_w=width_w, depth_h=depth_h)
        return field


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


def _newton(width_w, depth_h, n_b, delta_n, wavelength_nm):
    """Safeguarded Newton iteration along the stationary curve of the
    closed form: one root in alpha_y per point.

    In ``model_cutoff``'s form, write u = a_y^2, w = a_z^2 and P =
    3u (2u + 1) / q. Both stationarity equations hold exactly when
    w = 2P / (1 + sqrt(1 + 8P)) and V = 2 a_y [(2u + 1)(2w + 1) / w]^(3/2),
    which with y = 2w + 1 = (1 + sqrt(1 + 8P)) / 2 is V(a_y) =
    2 y^3 / ((h/w)^3 u). Along that curve d ln V / d ln a_y =
    12 (h/w)^2 u (4u + 1) / ((2y - 1) y) - 2, which has the sign of
    (8u + 1)(8w - 1) - 3: it is negative below the fold alpha_y a_c of
    ``model_cutoff`` and positive above it, where V(a_c) = V_c, and
    V > 16 a_y^4. So a point with V > V_c has one interior maximum, the
    root of V(a_y) = V in the bracket (a_c, (V/16)^(1/4)].

    Newton runs in s = ln a_y on T(s) = sqrt(ln(V(a_y) / V_c)), which is
    linear in s at the fold, where ln V is quadratic, so it converges
    quadratically on roots near the fold too. A point starts from its own
    V, at the first two terms of the curve's large-V expansion, a_y^2 =
    sqrt(V)/4 - 3(1 + h/w) / (8 h/w), which never exceeds the top of its
    bracket, or at that top where the expansion is at or below a_c. Its
    bracket shrinks to each iterate by the sign of ln(V(a_y) / V), and a
    Newton step that leaves it is replaced by the bracket's geometric
    midpoint.
    A Newton step inside the bracket shorter than NEWTON_TOL settles the
    point after it is taken. A point whose ln(V(a_y) / V) is within
    RESIDUAL_TOL of 0 is a root to rounding and settles where it is, as
    does a point so near V_c that its Newton step is rounding noise. A
    settled point stops moving, so a point's result does not depend on the
    points refined with it.

    Takes one flat chunk: ``n_b``, ``delta_n`` and ``wavelength_nm`` are
    1-d arrays of one length, or scalars beside such arrays; ``solve_mode``
    broadcasts and flattens its arguments into such chunks. Returns
    (alpha_y, alpha_z, accepted) of that length: a point is accepted when
    it passes ``solve_mode``'s pre-test ``_above_cutoff`` and settled
    within NEWTON_STEPS.
    """
    v_c, a_c, _ = model_cutoff(width_w, depth_h)
    aspect2 = (depth_h / width_w) ** 2  # 3/q
    kw = 2.0 * math.pi / (wavelength_nm * 1e-3) * width_w  # k0 w
    v = 8.0 * n_b * delta_n * (kw * kw)
    admitted = _above_cutoff(v_c, width_w, n_b, delta_n, wavelength_nm)
    settled = ~admitted
    with np.errstate(all="ignore"):  # points past the cutoff hold NaN
        hi = np.sqrt(np.sqrt(v / 16.0))
        lo = np.full_like(hi, a_c)
        start = np.sqrt(np.maximum(0.25 * np.sqrt(v) - 0.375 * (1.0 + width_w / depth_h), 0.0))
        ay = np.where(start > a_c, start, hi)
        scale = 2.0 / (aspect2 * math.sqrt(aspect2) * v)  # V(a_y) / V = scale y^3 / u
        log_v = np.log(v / v_c)
        t_root = np.sqrt(log_v)  # T at the root
        for _ in range(NEWTON_STEPS):
            u, au, root = _stationary_curve(ay, aspect2)
            y = 0.5 * root + 0.5
            g = np.log(y * y * y * scale / u)  # ln(V(a_y) / V)
            slope = 12.0 * au * (4.0 * u + 1.0) / (root * y) - 2.0  # d ln V / ds
            above = g > 0.0
            hi = np.where(above, ay, hi)
            lo = np.where(above, lo, ay)
            t = np.sqrt(g + log_v)  # T
            # -(T - t_root) / T' with T - t_root = g / (T + t_root), T' = slope / (2T)
            step = -2.0 * t * g / ((t + t_root) * slope)
            new = ay * np.exp(step)
            inside = (new >= lo) & (new <= hi)
            new = np.where(inside, new, np.sqrt(lo * hi))
            settled |= np.abs(g) <= RESIDUAL_TOL
            ay = np.where(settled, ay, new)
            settled |= inside & (np.abs(step) <= NEWTON_TOL)
            if settled.all():
                break
        u, au, root = _stationary_curve(ay, aspect2)
        alpha_z = np.sqrt(au * (2.0 * u + 1.0) / (0.5 * root + 0.5))  # w = P / y
    return ay, alpha_z, admitted & settled


def _stationary_curve(alpha_y, aspect2):
    """(u, (h/w)^2 u, sqrt(1 + 8P)) at ``alpha_y`` on the stationary curve
    of a channel with (h/w)^2 = ``aspect2``: u = a_y^2 and P = 3u (2u + 1)
    / q = (h/w)^2 u (2u + 1)."""
    u = alpha_y * alpha_y
    au = aspect2 * u
    return u, au, np.sqrt(8.0 * au * (2.0 * u + 1.0) + 1.0)


def _above_cutoff(v_c, width_w, n_b, delta_n, wavelength_nm):
    """Where V = 8 n_b dn (k0 w)^2 exceeds V_c, the one existence test of
    ``solve_mode`` and ``_newton``. With k0 = 2000 pi / lambda (nm) it is
    n_b dn / lambda^2 > V_c / (8 (2000 pi w)^2); dn <= 0 (n_b > 0) and NaN
    fail it."""
    cut = v_c / (8.0 * (2e3 * math.pi * width_w) ** 2)
    return n_b * delta_n / (wavelength_nm * wavelength_nm) > cut


def model_cutoff(width_w: float, depth_h: float) -> tuple[float, float, float]:
    """(V_c, alpha_y, alpha_z): the model cutoff of a w x h channel and the
    alphas at which its interior maximum vanishes.

    With c_y = 1/(k0 w)^2 the closed form reads
    n_eff^2 = n_b^2 + c_y [-a_y^2 - q a_z^2 + V f(a_y) g(a_z)], with
    q = 3 (w/h)^2, V = 8 n_b dn (k0 w)^2, f(a) = a / sqrt(2a^2 + 1) and
    g(a) = a^3 / (2a^2 + 1)^(3/2). At a stationary point the Hessian of
    the bracket depends on the alphas alone, and det H = 0 on the fold
    (8 a_y^2 + 1)(8 a_z^2 - 1) = 3. Along it, with u = a_y^2,
    q = 3u (8u + 1)^2 / (5u + 1) rises monotonically from 0, so u
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
               polarization: str = "ordinary") -> ModalSolution:
    """Maximize the effective-index functional over (alpha_y, alpha_z).

    ``n_b``, ``delta_n`` and ``wavelength_nm`` broadcast: scalars give a
    ModalSolution of numpy scalars, arrays one whose numeric fields (and
    field alphas) are arrays of the broadcast shape. ``_newton`` refines
    the points together, ``NEWTON_CHUNK`` at a time, each from a start
    its own V places; each chunk's n_eff is finished and checked before
    the next is refined.

    Raises NoGuidedMode at the first point past the model cutoff
    (``model_cutoff``): delta_n <= 0 or V <= V_c, checked over the whole
    batch before any Newton step. Else it raises at the first point
    ``_newton`` does not settle within NEWTON_STEPS or whose n_eff^2 is
    not positive.
    An interior maximum that fails to exceed the substrate index is
    returned flagged ``guided=False``: such a mode is only quasi-guided,
    but near-cutoff geometries still support the nonlinear interaction
    through it.
    """
    lam, n_b, dn = np.broadcast_arrays(*(
        np.asarray(x, dtype=float) for x in (wavelength_nm, n_b, delta_n)))
    shape = lam.shape
    lam, n_b, dn = (x.ravel() for x in (lam, n_b, dn))
    w, h = geom.width_w, geom.depth_h
    past = ~_above_cutoff(model_cutoff(w, h)[0], w, n_b, dn, lam)
    if past.any():
        k = int(np.argmax(past))
        raise _no_mode("no index increment" if dn[k] <= 0.0
                       else "no interior maximum of n_eff^2", lam[k], dn[k], w, h)

    ay, az, n_eff = np.empty_like(lam), np.empty_like(lam), np.empty_like(lam)
    for start in range(0, lam.size, NEWTON_CHUNK):
        part = slice(start, start + NEWTON_CHUNK)
        lam_c, n_b_c, dn_c = lam[part], n_b[part], dn[part]
        ay_c, az_c, accepted = _newton(w, h, n_b_c, dn_c, lam_c)
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
