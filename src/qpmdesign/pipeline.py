"""End-to-end design pipeline: dispersion -> mode solves -> grating -> report.

``ModeContext`` bundles the material model with one geometry/temperature and
caches mode solutions per (polarization, wavelength); ``design_point`` runs
the full chain for a single design and returns a ``DesignResult`` that can
evaluate off-design amplitudes, spectra and filtered entanglement degrees.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import spdc
from .dispersion import (
    DEFAULT_INCREMENTS,
    IndexIncrementTable,
    SellmeierSet,
    WaveguideGeometry,
    load_sellmeier_sets,
    normalize_polarization,
)
from .modesolver import ModalSolution, group_index, solve_mode
from .qpm import GratingDesign, InteractionSpec, periods_from_frequencies, required_frequencies
from .spdc import EntanglementReport, ProcessAmplitudes


@dataclass(frozen=True)
class Material:
    """Bulk dispersion plus diffusion index increments."""

    ordinary: SellmeierSet
    extraordinary: SellmeierSet
    increments: IndexIncrementTable

    @classmethod
    def default(cls) -> "Material":
        """Packaged congruent-LiNbO3 fit with the default increment table.

        The table is built in clamp mode: the design idler and spectral scans
        reach slightly past the last tabulated wavelength, where the end value
        is held.
        """
        sets = load_sellmeier_sets()
        return cls(
            ordinary=sets["ordinary"],
            extraordinary=sets["extraordinary"],
            increments=IndexIncrementTable(DEFAULT_INCREMENTS, extrapolation="clamp"),
        )

    def sellmeier(self, polarization: str) -> SellmeierSet:
        pol = normalize_polarization(polarization)
        return self.ordinary if pol == "ordinary" else self.extraordinary


class ModeContext:
    """Cached mode solves for one (material, geometry, temperature).

    Quasi-guided solutions (interior maximum below the substrate index) are
    accepted: near-cutoff geometries still support the interaction, and
    rejecting them would make small-cross-section designs unevaluable.
    """

    def __init__(self, material: Material, geometry: WaveguideGeometry,
                 temperature_c: float = 25.0, group_index_step_nm: float = 0.1):
        self.material = material
        self.geometry = geometry
        self.temperature_c = temperature_c
        self.group_index_step_nm = group_index_step_nm
        self._cache: dict[tuple[str, float], ModalSolution] = {}

    def solve(self, polarization: str, wavelength_nm: float) -> ModalSolution:
        pol = normalize_polarization(polarization)
        key = (pol, round(wavelength_nm, 6))
        sol = self._cache.get(key)
        if sol is None:
            n_b = self.material.sellmeier(pol).index(wavelength_nm, self.temperature_c)
            dn = self.material.increments.increment(pol, wavelength_nm)
            sol = solve_mode(self.geometry, n_b, dn, wavelength_nm,
                             polarization=pol, require_bound=False)
            self._cache[key] = sol
        return sol

    def group_index(self, polarization: str, wavelength_nm: float) -> float:
        return group_index(lambda lam: self.solve(polarization, lam),
                           wavelength_nm, self.group_index_step_nm)


@dataclass
class DesignResult:
    """Full evaluation of one waveguide design."""

    spec: InteractionSpec
    geometry: WaveguideGeometry
    context: ModeContext
    modes: dict[str, ModalSolution]  # keys: po, so, se, io, ie
    design: GratingDesign
    amplitudes: ProcessAmplitudes
    gamma: float
    group_indices: dict[str, float]  # keys: N_so, N_se, N_io, N_ie
    bandwidth_oe_nm: float
    bandwidth_eo_nm: float

    @property
    def bandwidth_ratio(self) -> float:
        return self.bandwidth_eo_nm / self.bandwidth_oe_nm

    def amplitudes_at(self, lambda_s_nm: float) -> ProcessAmplitudes:
        """Amplitudes at an off-design signal wavelength (modes re-solved)."""
        ctx = self.context
        lam_i = self.spec.idler_for(lambda_s_nm)
        return spdc.relative_amplitudes(
            self.modes["po"],
            ctx.solve("ordinary", lambda_s_nm),
            ctx.solve("extraordinary", lambda_s_nm),
            ctx.solve("ordinary", lam_i),
            ctx.solve("extraordinary", lam_i),
            self.design, self.spec, lambda_s_nm,
        )

    def spectra(self, half_range_nm: float = 10.0, n_samples: int = 2001):
        """Sampled normalized spectra of both processes around the design point.

        Returns (lambda_grid_nm, intensity_oe, intensity_eo, fwhm_oe, fwhm_eo).
        """
        grid = np.linspace(self.spec.lambda_s_nm - half_range_nm,
                           self.spec.lambda_s_nm + half_range_nm, n_samples)
        amps = [self.amplitudes_at(float(lam)) for lam in grid]
        length = self.spec.length_mm
        i_oe = spdc.spectrum([a.delta_k_oe for a in amps], length)
        i_eo = spdc.spectrum([a.delta_k_eo for a in amps], length)
        return grid, i_oe, i_eo, spdc.fwhm(grid, i_oe), spdc.fwhm(grid, i_eo)

    def filtered_gamma(self, filter_fwhm_nm: float) -> float:
        # The bandpass filter sits on the idler arm; coincidence detection
        # maps it onto a conjugate signal-side window.
        compression = (self.spec.lambda_s_nm / self.spec.lambda_i_nm) ** 2
        return spdc.filtered_gamma(self.amplitudes_at, self.spec.lambda_s_nm,
                                   filter_fwhm_nm, self.bandwidth_oe_nm,
                                   self.bandwidth_eo_nm,
                                   conjugate_compression=compression)

    def report(self) -> EntanglementReport:
        return EntanglementReport(
            gamma=self.gamma,
            bandwidth_oe_nm=self.bandwidth_oe_nm,
            bandwidth_eo_nm=self.bandwidth_eo_nm,
            bandwidth_ratio=self.bandwidth_ratio,
            grating=self.design,
            amplitudes=self.amplitudes,
        )


def design_point(spec: InteractionSpec, geometry: WaveguideGeometry,
                 material: Material | None = None,
                 group_index_step_nm: float = 0.1) -> DesignResult:
    """Run the full design chain for one geometry.

    Solves the five modes, derives the grating frequencies/periods, evaluates
    the zero-mismatch amplitudes, the entanglement degree and the first-order
    bandwidths of both processes.
    """
    if material is None:
        material = Material.default()
    ctx = ModeContext(material, geometry, spec.temperature_c, group_index_step_nm)
    po = ctx.solve("ordinary", spec.lambda_p_nm)
    so = ctx.solve("ordinary", spec.lambda_s_nm)
    se = ctx.solve("extraordinary", spec.lambda_s_nm)
    io = ctx.solve("ordinary", spec.lambda_i_nm)
    ie = ctx.solve("extraordinary", spec.lambda_i_nm)
    k1, k2 = required_frequencies(spec, po.n_eff, so.n_eff, se.n_eff,
                                  io.n_eff, ie.n_eff)
    design = periods_from_frequencies(k1, k2)
    amps = spdc.relative_amplitudes(po, so, se, io, ie, design, spec)
    g = spdc.gamma(amps)
    n_so = ctx.group_index("ordinary", spec.lambda_s_nm)
    n_se = ctx.group_index("extraordinary", spec.lambda_s_nm)
    n_io = ctx.group_index("ordinary", spec.lambda_i_nm)
    n_ie = ctx.group_index("extraordinary", spec.lambda_i_nm)
    bw_oe, bw_eo = spdc.bandwidth_approx(n_so, n_se, n_io, n_ie,
                                         spec.lambda_s_nm, spec.length_mm)
    return DesignResult(
        spec=spec,
        geometry=geometry,
        context=ctx,
        modes={"po": po, "so": so, "se": se, "io": io, "ie": ie},
        design=design,
        amplitudes=amps,
        gamma=g,
        group_indices={"N_so": n_so, "N_se": n_se, "N_io": n_io, "N_ie": n_ie},
        bandwidth_oe_nm=bw_oe,
        bandwidth_eo_nm=bw_eo,
    )
