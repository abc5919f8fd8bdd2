"""Refractive-index models for Ti-indiffused lithium niobate channel waveguides.

Covers the bulk substrate indices (temperature-dependent Sellmeier-type fit,
ordinary and extraordinary), the titanium in-diffusion surface index
increments, and the channel geometry.

Units: wavelengths in nm at the public interfaces, geometry in um,
temperatures in degC.
"""

from __future__ import annotations

import functools
import json
from dataclasses import dataclass
from importlib import resources
from typing import Literal

import numpy as np

from .errors import ConfigError, OutOfRange, check_number, is_number

Polarization = Literal["ordinary", "extraordinary"]

_POL_ALIASES = {
    "o": "ordinary",
    "ordinary": "ordinary",
    "e": "extraordinary",
    "extraordinary": "extraordinary",
}


def normalize_polarization(pol: str) -> Polarization:
    try:
        return _POL_ALIASES[pol.lower()]
    except KeyError:
        raise ConfigError(f"unknown polarization {pol!r}") from None


@dataclass(frozen=True)
class SellmeierSet:
    """The dispersion fit of congruent LiNbO3: seven coefficients for each
    polarization, one temperature model and one validated range.

    n^2 = A1 + (A2 + B1*F) / (lam^2 - (A3 + B2*F)^2) + B3*F - A4*lam^2
    with F = (T - t0)*(T + t0 + t_offset), lam in um, T in degC.
    """

    ordinary: tuple[float, ...]  # (A1, A2, A3, A4, B1, B2, B3)
    extraordinary: tuple[float, ...]
    t0_c: float
    t_offset_c: float
    wavelength_range_nm: tuple[float, float]
    temperature_range_c: tuple[float, float]

    def __post_init__(self):
        for pol in ("ordinary", "extraordinary"):
            coefficients = getattr(self, pol)
            if not isinstance(coefficients, (tuple, list)):
                raise ConfigError(f"{pol} coefficients must be a sequence of 7 numbers, "
                                  f"got {coefficients!r}")
            if len(coefficients) != 7:
                raise ConfigError(f"{pol} coefficients must be 7 numbers "
                                  f"(A1, A2, A3, A4, B1, B2, B3), got {len(coefficients)}")
            for c in coefficients:
                check_number(f"{pol} coefficients", c)
        check_number("t0_c", self.t0_c)
        check_number("t_offset_c", self.t_offset_c)
        for name in ("wavelength_range_nm", "temperature_range_c"):
            bounds = getattr(self, name)
            if not isinstance(bounds, (tuple, list)):
                raise ConfigError(f"{name} must be two increasing numbers, got {bounds!r}")
            for b in bounds:
                check_number(name, b)
            if len(bounds) != 2 or not bounds[0] < bounds[1]:
                raise ConfigError(f"{name} must be two increasing numbers, got {bounds}")

    def check_temperature(self, temperature_c: float) -> None:
        """OutOfRange unless the fit is validated at this temperature."""
        tlo, thi = self.temperature_range_c
        if not tlo <= temperature_c <= thi:
            raise OutOfRange(
                f"temperature {temperature_c} C outside validated range [{tlo}, {thi}] C"
            )

    def index(self, polarization: str, wavelength_nm, temperature_c: float):
        """Bulk index; an array of wavelengths gives an array. OutOfRange
        outside the validated ranges or where the fit gives no index (n^2 <= 0)."""
        coefficients = getattr(self, normalize_polarization(polarization))
        lam_nm = np.asarray(wavelength_nm, dtype=float)
        lo, hi = self.wavelength_range_nm
        inside = (lam_nm >= lo) & (lam_nm <= hi)
        if not np.all(inside):
            raise OutOfRange(
                f"wavelength {float(lam_nm[~inside].flat[0])} nm outside validated "
                f"range [{lo}, {hi}] nm"
            )
        self.check_temperature(temperature_c)
        a1, a2, a3, a4, b1, b2, b3 = coefficients
        lam = lam_nm * 1e-3  # um
        # lam * lam, not lam**2: numpy's scalar power can round a square
        # differently from its array power, and a scalar is one array element
        lam2 = lam * lam
        f = (temperature_c - self.t0_c) * (temperature_c + self.t0_c + self.t_offset_c)
        n2 = a1 + (a2 + b1 * f) / (lam2 - (a3 + b2 * f) ** 2) + b3 * f - a4 * lam2
        if not (n2 > 0.0).all():
            bad = np.flatnonzero(~(n2 > 0.0))[0]
            raise OutOfRange(f"the {normalize_polarization(polarization)} fit gives no index "
                             f"at {float(lam_nm.flat[bad])} nm: n^2 = {float(np.ravel(n2)[bad])}")
        return np.sqrt(n2)


def load_sellmeier_sets(path: str | None = None) -> SellmeierSet:
    """Load the fit of both polarizations from a JSON data file.

    With no path, the packaged congruent-LiNbO3 fit is used: it is parsed on
    the first such call of a process, and later calls return that same
    frozen object. A path is read on every call, so a file rewritten
    between calls is seen. The file layout is documented by the packaged
    ``data/linbo3_sellmeier.json``. A file that cannot be read, is not
    JSON, lacks a key, names a polarization twice or holds a field of the
    wrong shape is a ConfigError.
    """
    return _packaged_sellmeier() if path is None else _read_sellmeier(path)


@functools.cache
def _packaged_sellmeier() -> SellmeierSet:
    """The packaged fit, read and parsed once per process."""
    return _read_sellmeier(None)


def _read_sellmeier(path: str | None) -> SellmeierSet:
    """Read and parse a Sellmeier file (None: the packaged one)."""
    try:
        if path is None:
            raw = resources.files("qpmdesign.data").joinpath(
                "linbo3_sellmeier.json").read_text()
        else:
            with open(path) as fh:
                raw = fh.read()
        doc = json.loads(raw)
        sets = {normalize_polarization(pol): entry["coefficients"]
                for pol, entry in doc["sets"].items()}
        if len(sets) < len(doc["sets"]):
            raise ConfigError(f"sets name a polarization twice: {list(doc['sets'])}")
        return SellmeierSet(
            ordinary=tuple(sets["ordinary"]),
            extraordinary=tuple(sets["extraordinary"]),
            t0_c=doc["t0_c"],
            t_offset_c=doc["t_offset_c"],
            wavelength_range_nm=tuple(doc["wavelength_range_nm"]),
            temperature_range_c=tuple(doc["temperature_range_c"]),
        )
    except OSError as exc:
        raise ConfigError(f"cannot read Sellmeier file {path}: {exc}") from exc
    except ValueError as exc:  # JSONDecodeError, or an integer literal too long to parse
        raise ConfigError(f"Sellmeier file {path} is not valid JSON: {exc}") from exc
    except KeyError as exc:
        raise ConfigError(f"Sellmeier file {path} lacks the key {exc}") from exc
    except ConfigError as exc:
        raise ConfigError(f"Sellmeier file {path}: {exc}") from exc
    except (TypeError, AttributeError) as exc:
        raise ConfigError(f"Sellmeier file {path} does not follow the "
                          f"documented layout: {exc}") from exc


# Ti in-diffusion surface index increments at the design wavelengths.
# Three-point table; values between entries are linearly interpolated.
DEFAULT_INCREMENTS = (
    (519.0, 0.0038, 0.0037),
    (780.0, 0.0034, 0.0030),
    (1550.0, 0.0025, 0.0025),
)


@dataclass(frozen=True)
class IndexIncrementTable:
    """Surface index increments Delta-n vs wavelength for both polarizations.

    The checked (wavelength_nm, dn_o, dn_e) rows are kept as float tuples.
    Outside the tabulated span the end values are held: the design idler
    (1551 nm) sits 1 nm past the last tabulated point and spectra scan tens
    of nm around it.
    """

    entries: tuple[tuple[float, float, float], ...] = DEFAULT_INCREMENTS

    def __post_init__(self):
        if not (isinstance(self.entries, (tuple, list)) and all(
                isinstance(row, (tuple, list)) and len(row) == 3 for row in self.entries)):
            raise ConfigError(f"increment table entries must be (wavelength_nm, dn_o, dn_e) "
                              f"rows, got {self.entries!r}")
        if len(self.entries) < 2:
            raise ConfigError("increment table needs at least two entries")
        for lam, dno, dne in self.entries:
            for v in (lam, dno, dne):
                check_number("increment table entry", v)
            # zero is tolerated (yields NoGuidedMode downstream), negatives are not
            if not (0.0 <= dno < 0.01 and 0.0 <= dne < 0.01):
                raise ConfigError(
                    f"index increments at {lam} nm must lie in [0, 0.01), got {dno}, {dne}"
                )
        if any(b[0] <= a[0] for a, b in zip(self.entries, self.entries[1:])):
            raise ConfigError("increment table wavelengths must be strictly increasing")
        object.__setattr__(self, "entries",
                           tuple(tuple(float(v) for v in row) for row in self.entries))

    def increment(self, polarization: str, wavelength_nm):
        """Increment by linear interpolation (end values held outside the
        span); an array of wavelengths gives an array."""
        pol = normalize_polarization(polarization)
        lams = [e[0] for e in self.entries]
        col = 1 if pol == "ordinary" else 2
        vals = [e[col] for e in self.entries]
        return np.interp(np.asarray(wavelength_nm, dtype=float), lams, vals)


# Widths and depths (um) a channel may have. Ti-indiffused guides are
# microns across; far outside this range the closed-form n_eff over- or
# underflows.
GEOMETRY_RANGE_UM = (0.1, 1000.0)


@dataclass(frozen=True)
class WaveguideGeometry:
    """Channel geometry: Gaussian 1/e half-width w and depth h (um), each
    within GEOMETRY_RANGE_UM."""

    width_w: float
    depth_h: float

    def __post_init__(self):
        lo, hi = GEOMETRY_RANGE_UM
        if not all(is_number(size) and lo <= size <= hi
                   for size in (self.width_w, self.depth_h)):
            raise ConfigError(f"waveguide width and depth must lie in [{lo}, {hi}] um, "
                              f"got w = {self.width_w} um, h = {self.depth_h} um")
