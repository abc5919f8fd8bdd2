import math

import numpy as np
import pytest

from qpmdesign import InteractionSpec, WaveguideGeometry, modesolver
from qpmdesign.pipeline import Material, design_point

# Reference design point: 519/780/1551 nm, 25 C, 1 cm interaction length.
DESIGN_TABLE = [
    # (depth_um, width_um, gamma, Lambda1_um, Lambda2_um)
    (6.5, 6.0, 0.9294, 4.574, 3.650),
    (8.0, 8.0, 0.9884, 4.577, 3.651),
    (10.0, 10.0, 0.9957, 4.580, 3.653),
    (12.0, 12.0, 0.9982, 4.583, 3.655),
]


def strength(width_w, n_b, delta_n, wavelength_nm):
    """V = 8 n_b dn (k0 w)^2."""
    k0 = 2.0 * math.pi / (np.asarray(wavelength_nm) * 1e-3)
    return 8.0 * n_b * delta_n * (k0 * width_w) ** 2


def counting_steps(monkeypatch):
    """A one-element list that counts Newton steps. ``_newton`` evaluates
    ``_stationary_curve`` once per step of a chunk and once more for the
    chunk's alpha_z, so each ``_newton`` call takes one count back."""
    steps = [0]
    curve, newton = modesolver._stationary_curve, modesolver._newton

    def counted_curve(*args):
        steps[0] += 1
        return curve(*args)

    def counted_newton(*args):
        steps[0] -= 1
        return newton(*args)

    monkeypatch.setattr(modesolver, "_stationary_curve", counted_curve)
    monkeypatch.setattr(modesolver, "_newton", counted_newton)
    return steps


@pytest.fixture(scope="session")
def spec():
    return InteractionSpec(lambda_p_nm=519.0, lambda_s_nm=780.0,
                           lambda_i_nm=1551.0, temperature_c=25.0,
                           length_mm=10.0)


@pytest.fixture(scope="session")
def material():
    return Material.default()


@pytest.fixture(scope="session")
def table_results(spec, material):
    """Design results for the four reference geometries, keyed by (depth, width)."""
    out = {}
    for depth, width, *_ in DESIGN_TABLE:
        geom = WaveguideGeometry(width_w=width, depth_h=depth)
        out[(depth, width)] = design_point(spec, geom, material)
    return out


@pytest.fixture(scope="session")
def reference_result(table_results):
    """The d = w = 10 um design."""
    return table_results[(10.0, 10.0)]
