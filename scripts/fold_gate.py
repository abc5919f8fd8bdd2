#!/usr/bin/env python3
"""Check the model cutoff V_c against ``_newton``'s acceptance.

A point has an interior maximum exactly when its guiding strength
V = 8 n_b dn (k0 w)^2 exceeds V_c (``modesolver.model_cutoff``). ``solve_mode``
refuses points with V <= V_c before any Newton step and names a point above
V_c that ``_newton`` rejects as one Newton did not settle. This script
measures both sides of that rule:

- the sample: 4,000 geometries (numpy seed 7; d, w uniform in [2, 20] um),
  100 points each, every point in one of the bands 500-540, 740-820 and
  1450-1700 nm and one polarization, drawn uniformly, with the packaged
  material at 25 degC, Newton started at (1, 1); and the same sample's
  740-820 and 1450-1700 nm points started warm, from the geometry's mode at
  780 or 1551 nm, as off-design re-solves are;
- the fold scan: at 81 aspect ratios h/w in [0.1, 10], 4,001 strengths with
  V / V_c - 1 in [1e-10, 1e-2], started at (1, 1) and from the modes at
  V / V_c = 1.001, 1.01, 1.1, 1.5, 3, 10 and 100.

It prints, per sample, the accepted points with V <= V_c and the rejected
points with V > V_c, and the largest V / V_c - 1 the fold scan finds Newton
rejecting. It exits 1 if either sample has an accepted point with V <= V_c
or the cold sample a rejected point with V > V_c. The warm sample's
rejections above V_c are reported, not gated: a warm start near its own
fold can fail far from it.

Run: PYTHONPATH=src python3 scripts/fold_gate.py
"""

import math
import sys

import numpy as np

from qpmdesign import modesolver
from qpmdesign.pipeline import Material

BANDS = ((500.0, 540.0), (740.0, 820.0), (1450.0, 1700.0))
WARM_FROM = {1: 780.0, 2: 1551.0}  # band index -> wavelength of the start mode
SCAN_STARTS = (1.001, 1.01, 1.1, 1.5, 3.0, 10.0, 100.0)


def strength(width_w, n_b, dn, wavelength_nm):
    """V = 8 n_b dn (k0 w)^2 with the k0 and c of ``_newton``."""
    k0 = 2.0 * math.pi / (wavelength_nm * 1e-3)
    return 8.0 * n_b * dn * (k0 * width_w) ** 2


def sample(material):
    """(ratio, accepted) of the cold and the warm sample, V / V_c per point."""
    rng = np.random.default_rng(7)
    n_geom, per = 4000, 100
    depth, width = rng.uniform(2.0, 20.0, n_geom), rng.uniform(2.0, 20.0, n_geom)
    band = rng.integers(0, 3, (n_geom, per))
    bounds = np.array(BANDS)
    lam = rng.uniform(bounds[band, 0], bounds[band, 1])
    pols = np.where(rng.integers(0, 2, (n_geom, per)) == 1, "extraordinary", "ordinary")
    cold, warm = [], []
    for d, w, lam_g, band_g, pol_g in zip(depth, width, lam, band, pols):
        for pol in ("ordinary", "extraordinary"):
            mine = pol_g == pol
            lam_p, band_p = lam_g[mine], band_g[mine]
            n_b = material.sellmeier.index(pol, lam_p, 25.0)
            dn = material.increments.increment(pol, lam_p)
            ratio = strength(w, n_b, dn, lam_p) / modesolver.model_cutoff(w, d)[0]
            ones = np.ones_like(lam_p)
            cold.append((ratio, modesolver._newton(w, d, n_b, dn, lam_p, ones, ones)[2]))
            for b, lam_0 in WARM_FROM.items():
                n_b0 = material.sellmeier.index(pol, lam_0, 25.0)
                dn0 = material.increments.increment(pol, lam_0)
                ay0, az0, ok = modesolver._newton(w, d, n_b0, dn0, lam_0, ones[:1], ones[:1])
                here = band_p == b
                if ok[0] and here.any():
                    start = np.ones(here.sum())
                    warm.append((ratio[here], modesolver._newton(
                        w, d, n_b[here], dn[here], lam_p[here],
                        ay0[0] * start, az0[0] * start)[2]))
    return [tuple(np.concatenate(part) for part in zip(*runs)) for runs in (cold, warm)]


def fold_scan():
    """Largest V / V_c - 1 that ``_newton`` rejects, over the scan."""
    rng = np.random.default_rng(7)
    excess = np.logspace(-10.0, -2.0, 4001)
    worst = 0.0
    for aspect in np.logspace(-1.0, 1.0, 81):
        width = 10.0
        depth = width * aspect
        lam, n_b = rng.uniform(500.0, 1700.0), rng.uniform(2.1, 2.3)
        v_c = modesolver.model_cutoff(width, depth)[0]
        unit = strength(width, n_b, 1.0, lam)

        def newton(ratio, ay0, az0):
            ratio = np.atleast_1d(ratio)
            ones = np.ones_like(ratio)
            return modesolver._newton(width, depth, n_b * ones, v_c * ratio / unit, lam,
                                      ay0 * ones, az0 * ones)

        starts = [(1.0, 1.0)]
        for ratio in SCAN_STARTS:
            ay, az, ok = newton(ratio, 1.0, 1.0)
            if ok[0]:
                starts.append((ay[0], az[0]))
        for ay0, az0 in starts:
            rejected = ~newton(1.0 + excess, ay0, az0)[2]
            if rejected.any():
                worst = max(worst, excess[rejected].max())
    return worst


def main():
    failures = 0
    for name, (ratio, accepted) in zip(("cold", "warm"), sample(Material.default())):
        below, above = (accepted & (ratio <= 1.0)).sum(), (~accepted & (ratio > 1.0)).sum()
        print(f"{name} sample: {ratio.size} points, {accepted.sum()} accepted")
        print(f"  accepted with V <= V_c: {below}")
        print(f"  rejected with V > V_c: {above}")
        print(f"  smallest accepted V / V_c - 1: {(ratio[accepted] - 1.0).min():.3g}")
        failures += below + (above if name == "cold" else 0)
    print(f"fold scan: largest rejected V / V_c - 1 = {fold_scan():.3g}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
