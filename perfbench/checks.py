"""Output checks of the benchmark requests.

Pure functions on plain values, so the self-check can feed them corrupted
outputs without importing the package. Each returns a list of problems; an
empty list means the output passed. The tolerances are the acceptance gate's.
"""

from __future__ import annotations

import math

# README design table: (depth_um, width_um, gamma, Lambda1_um, Lambda2_um).
DESIGN_TABLE = (
    (6.5, 6.0, 0.9293, 4.573, 3.648),
    (8.0, 8.0, 0.9883, 4.575, 3.650),
    (10.0, 10.0, 0.9957, 4.579, 3.652),
    (12.0, 12.0, 0.9982, 4.582, 3.653),
)
TABLE_GAMMA_ABS = 0.02
TABLE_PERIOD_REL = 0.02
MISMATCH_ABS_RAD_PER_UM = 1e-10
EXIT_OK = 0
EXIT_PHYSICS = 2

FWHM_OE_NM = (0.22, 0.36)
FWHM_EO_NM = (4.8, 7.9)
FWHM_RATIO = (17.0, 27.0)
FILTERED_GAMMA_ABS = 1e-3

FIRST_ORDER = 4.0 / math.pi**2
FOURIER_REL = 1e-3


def _within(name: str, value: float, lo: float, hi: float) -> list[str]:
    if lo <= value <= hi:
        return []
    return [f"{name} = {value!r} outside [{lo}, {hi}]"]


def design_guided(rc: int, doc: dict | None) -> list[str]:
    """A guided-band CLI design: exit 0, gamma in (0, 1], both mismatches ~0."""
    if rc != EXIT_OK or doc is None:
        return [f"exit {rc} (want {EXIT_OK} and design.json)"]
    problems = []
    gamma = doc["gamma"]
    if not 0.0 < gamma <= 1.0:
        problems.append(f"gamma = {gamma!r} outside (0, 1]")
    for key in ("delta_k_oe_rad_per_um", "delta_k_eo_rad_per_um"):
        dk = doc["amplitudes"][key]
        if not abs(dk) < MISMATCH_ABS_RAD_PER_UM:
            problems.append(f"|{key}| = {abs(dk):.3g} not below {MISMATCH_ABS_RAD_PER_UM}")
    return problems


def design_table_row(depth_um: float, width_um: float, doc: dict) -> list[str]:
    """gamma within 0.02 and both periods within 2 % of the README row."""
    row = next(r for r in DESIGN_TABLE if (r[0], r[1]) == (depth_um, width_um))
    _, _, gamma, lam1, lam2 = row
    problems = []
    if abs(doc["gamma"] - gamma) > TABLE_GAMMA_ABS:
        problems.append(f"gamma {doc['gamma']:.4f} vs table {gamma} (d={depth_um}, w={width_um})")
    for key, want in (("Lambda1_um", lam1), ("Lambda2_um", lam2)):
        got = doc["grating"][key]
        if abs(got / want - 1.0) > TABLE_PERIOD_REL:
            problems.append(f"{key} {got:.4f} vs table {want} (d={depth_um}, w={width_um})")
    return problems


def design_cutoff(rc: int, stderr: str, doc: dict | None) -> list[str]:
    """A cutoff-band CLI design: exit 2 naming NoGuidedMode, no design written."""
    problems = []
    if rc != EXIT_PHYSICS or "NoGuidedMode" not in stderr:
        problems.append(f"exit {rc}, stderr {stderr.strip()!r} (want {EXIT_PHYSICS}, NoGuidedMode)")
    if doc is not None:
        problems.append("design.json written for an infeasible design")
    return problems


def spectrum(gamma: float, fwhm_oe: float, fwhm_eo: float,
             filtered: float) -> list[str]:
    """FWHMs and their ratio in band; narrow-filter gamma close to gamma."""
    problems = _within("FWHM_oe_nm", fwhm_oe, *FWHM_OE_NM)
    problems += _within("FWHM_eo_nm", fwhm_eo, *FWHM_EO_NM)
    problems += _within("FWHM ratio", fwhm_eo / fwhm_oe, *FWHM_RATIO)
    if not abs(filtered - gamma) <= FILTERED_GAMMA_ABS:
        problems.append(f"filtered gamma {filtered!r} vs gamma {gamma!r}")
    return problems


def grating(abs_c1: float, abs_c2: float) -> list[str]:
    """First-order Fourier magnitudes at K1 and K2 within 1e-3 of 4/pi^2 (relative)."""
    problems = []
    for name, value in (("|c(K1)|", abs_c1), ("|c(K2)|", abs_c2)):
        if not abs(value / FIRST_ORDER - 1.0) <= FOURIER_REL:
            problems.append(f"{name} = {value!r} vs 4/pi^2 = {FIRST_ORDER!r}")
    return problems
