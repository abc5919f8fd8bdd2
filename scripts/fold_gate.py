#!/usr/bin/env python3
"""Check the model cutoff V_c against ``_newton``'s acceptance.

A point has an interior maximum exactly when its guiding strength
V = 8 n_b dn (k0 w)^2 exceeds V_c (``modesolver.model_cutoff``). ``solve_mode``
refuses points with V <= V_c before any Newton step, and ``_newton`` must
settle on the one root above the fold of every point above V_c, from the
start its V places. This script measures both sides of that rule:

- the sample: 4,000 geometries (numpy seed 7; d, w uniform in [2, 20] um),
  100 points each, every point in one of the bands 500-540, 740-820 and
  1450-1700 nm and one polarization, drawn uniformly, with the packaged
  material at 25 degC;
- the fold scan: at 81 aspect ratios h/w in [0.1, 10], 4,001 strengths with
  V / V_c - 1 in [1e-10, 1e-2].

It prints the sample's accepted points with V <= V_c and rejected points
with V > V_c, and the largest V / V_c - 1 the fold scan finds Newton
rejecting ("none" if it rejects none). It exits 1 if the sample has an
accepted point with V <= V_c or a rejected point with V > V_c, or if the
fold scan rejects a point. ``_newton`` ANDs ``solve_mode``'s pre-test into
its verdict, so the count of accepted points with V <= V_c is 0 by
construction; the rejected points with V > V_c and the fold scan are what
measure the kernel.

Run: PYTHONPATH=src python3 scripts/fold_gate.py
"""

import math
import sys

import numpy as np

from qpmdesign import modesolver
from qpmdesign.pipeline import Material

BANDS = ((500.0, 540.0), (740.0, 820.0), (1450.0, 1700.0))


def strength(width_w, n_b, dn, wavelength_nm):
    """V = 8 n_b dn (k0 w)^2 with the k0 of ``_newton``."""
    k0 = 2.0 * math.pi / (wavelength_nm * 1e-3)
    return 8.0 * n_b * dn * (k0 * width_w) ** 2


def sample(material):
    """(ratio, accepted) of the sample, V / V_c per point."""
    rng = np.random.default_rng(7)
    n_geom, per = 4000, 100
    depth, width = rng.uniform(2.0, 20.0, n_geom), rng.uniform(2.0, 20.0, n_geom)
    band = rng.integers(0, 3, (n_geom, per))
    bounds = np.array(BANDS)
    lam = rng.uniform(bounds[band, 0], bounds[band, 1])
    pols = np.where(rng.integers(0, 2, (n_geom, per)) == 1, "extraordinary", "ordinary")
    ratios, verdicts = [], []
    for d, w, lam_g, pol_g in zip(depth, width, lam, pols):
        for pol in ("ordinary", "extraordinary"):
            lam_p = lam_g[pol_g == pol]
            n_b = material.sellmeier.index(pol, lam_p, 25.0)
            dn = material.increments.increment(pol, lam_p)
            ratios.append(strength(w, n_b, dn, lam_p) / modesolver.model_cutoff(w, d)[0])
            verdicts.append(modesolver._newton(w, d, n_b, dn, lam_p)[2])
    return np.concatenate(ratios), np.concatenate(verdicts)


def fold_scan():
    """Largest V / V_c - 1 that ``_newton`` rejects over the scan, 0 if it
    rejects none."""
    rng = np.random.default_rng(7)
    excess = np.logspace(-10.0, -2.0, 4001)
    worst = 0.0
    for aspect in np.logspace(-1.0, 1.0, 81):
        width = 10.0
        depth = width * aspect
        lam, n_b = rng.uniform(500.0, 1700.0), rng.uniform(2.1, 2.3)
        v_c = modesolver.model_cutoff(width, depth)[0]
        unit = strength(width, n_b, 1.0, lam)
        rejected = ~modesolver._newton(width, depth, n_b, v_c * (1.0 + excess) / unit, lam)[2]
        if rejected.any():
            worst = max(worst, excess[rejected].max())
    return worst


def main():
    ratio, accepted = sample(Material.default())
    below, above = (accepted & (ratio <= 1.0)).sum(), (~accepted & (ratio > 1.0)).sum()
    print(f"sample: {ratio.size} points, {accepted.sum()} accepted")
    print(f"  accepted with V <= V_c: {below}")
    print(f"  rejected with V > V_c: {above}")
    print(f"  smallest accepted V / V_c - 1: {(ratio[accepted] - 1.0).min():.3g}")
    worst = fold_scan()
    print(f"fold scan: largest rejected V / V_c - 1 = {f'{worst:.3g}' if worst else 'none'}")
    return 1 if below or above or worst else 0


if __name__ == "__main__":
    sys.exit(main())
