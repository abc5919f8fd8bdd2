"""Run configuration: JSON schema, defaults, loading and validation.

Units at this interface: wavelengths nm, geometry um, temperature degC,
interaction length mm.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field, fields
from typing import Any

from .dispersion import (
    DEFAULT_INCREMENTS,
    IndexIncrementTable,
    WaveguideGeometry,
    load_sellmeier_sets,
)
from .errors import ConfigError, check_number
from .pipeline import Material
from .qpm import InteractionSpec


@dataclass
class DesignConfig:
    """Everything one invocation needs.

    ``width_um``/``depth_um`` are scalars for a single design or equal-length
    lists for a sweep; an invocation must be one or the other.
    """

    lambda_p_nm: float = 519.0
    lambda_s_nm: float = 780.0
    lambda_i_nm: float | None = 1551.0
    temperature_c: float = 25.0
    length_mm: float = 10.0
    width_um: float | list[float] = 10.0
    depth_um: float | list[float] = 10.0
    sellmeier_file: str | None = None
    index_increments: list[list[float]] = field(
        default_factory=lambda: [list(row) for row in DEFAULT_INCREMENTS]
    )

    @property
    def is_sweep(self) -> bool:
        return isinstance(self.width_um, list) or isinstance(self.depth_um, list)

    def interaction(self) -> InteractionSpec:
        return InteractionSpec(
            lambda_p_nm=self.lambda_p_nm,
            lambda_s_nm=self.lambda_s_nm,
            lambda_i_nm=self.lambda_i_nm,
            temperature_c=self.temperature_c,
            length_mm=self.length_mm,
        )

    def material(self) -> Material:
        """The Sellmeier fit, checked against the config's temperature, and
        the increment table, which checks ``index_increments`` itself."""
        sellmeier = load_sellmeier_sets(self.sellmeier_file)
        sellmeier.check_temperature(self.temperature_c)
        return Material(sellmeier, IndexIncrementTable(self.index_increments))

    def single_geometry(self) -> WaveguideGeometry:
        if self.is_sweep:
            raise ConfigError("this command requires a single geometry, got sweep lists")
        return WaveguideGeometry(width_w=float(self.width_um),
                                 depth_h=float(self.depth_um))

    def sweep_geometries(self) -> list[WaveguideGeometry]:
        """Depth-major, width-minor ordering; paired lists of equal length
        are zipped, a scalar on one axis is broadcast."""
        widths = self.width_um if isinstance(self.width_um, list) else [self.width_um]
        depths = self.depth_um if isinstance(self.depth_um, list) else [self.depth_um]
        if not widths or not depths:
            raise ConfigError("sweep ranges must be non-empty")
        if len(widths) == len(depths) and len(widths) > 1:
            pairs = list(zip(depths, widths))
        else:
            pairs = [(d, w) for d in depths for w in widths]
        return [WaveguideGeometry(width_w=float(w), depth_h=float(d))
                for d, w in pairs]

    def validate(self):
        """Check the geometry fields' and ``sellmeier_file``'s types, the
        interaction (``InteractionSpec`` checks its numbers) and every
        geometry. The material (Sellmeier file, increment table) checks
        itself when ``material()`` builds it."""
        for name in ("width_um", "depth_um"):
            value = getattr(self, name)
            for item in value if isinstance(value, list) else [value]:
                check_number(name, item)
        if self.sellmeier_file is not None and not isinstance(self.sellmeier_file, str):
            raise ConfigError(f"sellmeier_file must be a path string, got "
                              f"{self.sellmeier_file!r}")
        self.interaction()
        self.sweep_geometries()  # WaveguideGeometry validates each geometry

    def to_dict(self) -> dict[str, Any]:
        return asdict(self)


def load_config(path: str | None = None, **overrides) -> DesignConfig:
    """Load a config JSON (None: the default design point), replace the
    fields named in ``overrides`` and validate the result once."""
    doc: dict[str, Any] = {}
    if path is not None:
        try:
            with open(path) as fh:
                doc = json.load(fh)
        except OSError as exc:
            raise ConfigError(f"cannot read config {path}: {exc}") from exc
        except ValueError as exc:  # JSONDecodeError, or an integer literal too long to parse
            raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc
        if not isinstance(doc, dict):
            raise ConfigError("config root must be a JSON object")
    doc = {**doc, **overrides}
    unknown = set(doc) - {f.name for f in fields(DesignConfig)}
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown)}")
    cfg = DesignConfig(**doc)
    cfg.validate()
    return cfg
