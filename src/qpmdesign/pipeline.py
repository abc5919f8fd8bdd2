"""End-to-end design pipeline: dispersion -> mode solves -> grating -> report.

``ModeContext`` bundles the material model with one geometry/temperature and
solves modes for several (polarization, wavelengths) requests in one
``solve_mode`` call, the one caller that batches lookups by polarization.
``design_point`` runs the full chain for a single design, solving its five
modes in one call, and returns a ``DesignResult`` that evaluates off-design
amplitudes, spectra and filtered entanglement degrees, each with one call
for all four signal and idler modes at every sample. The one cache is below
this module: ``load_sellmeier_sets`` parses the packaged fit once per
process.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import spdc
from .dispersion import (
    IndexIncrementTable,
    SellmeierSet,
    WaveguideGeometry,
    load_sellmeier_sets,
    normalize_polarization,
)
from .errors import ConfigError, FilterTooWide, is_number
from .modesolver import ModalSolution, TrialField, group_index, solve_mode
from .qpm import GratingDesign, InteractionSpec, periods_from_frequencies, required_frequencies
from .spdc import ProcessAmplitudes


@dataclass(frozen=True)
class Material:
    """Bulk dispersion plus diffusion index increments, both looked up by
    (polarization, wavelength)."""

    sellmeier: SellmeierSet
    increments: IndexIncrementTable

    @classmethod
    def default(cls) -> "Material":
        """Packaged congruent-LiNbO3 fit with the default increment table."""
        return cls(load_sellmeier_sets(), IndexIncrementTable())


class ModeContext:
    """Mode solves for one (material, geometry, temperature).

    Quasi-guided solutions (interior maximum below the substrate index) are
    accepted: near-cutoff geometries still support the interaction, and
    rejecting them would make small-cross-section designs unevaluable.
    """

    def __init__(self, material: Material, geometry: WaveguideGeometry,
                 temperature_c: float = 25.0):
        self.material = material
        self.geometry = geometry
        self.temperature_c = temperature_c

    def indices(self, polarization: str, wavelength_nm):
        """(n_b, delta_n) at one wavelength or an array of them."""
        n_b = self.material.sellmeier.index(polarization, wavelength_nm, self.temperature_c)
        dn = self.material.increments.increment(polarization, wavelength_nm)
        return n_b, dn

    def solve(self, polarization: str, wavelength_nm) -> ModalSolution:
        """The mode at one wavelength or at an array of them (one
        ModalSolution of arrays)."""
        return self.solve_many([(polarization, wavelength_nm)])[0]

    def solve_many(self, requests) -> list[ModalSolution]:
        """One ModalSolution per (polarization, wavelengths) request, in
        request order, all from one ``solve_mode`` call.

        The requests' wavelengths must share one shape (ValueError before
        any solve otherwise); they are the rows of the stacked solve, and
        the rows of one polarization share one ``indices`` call. Each
        solution has its request's polarization and that shape. With the
        requests taken in order, NoGuidedMode names the first point past the
        model cutoff, else the first point Newton rejects.
        """
        pols = [normalize_polarization(pol) for pol, _ in requests]
        lam = np.stack([np.asarray(wavelength_nm, dtype=float)
                        for _, wavelength_nm in requests])
        n_b, dn = np.empty_like(lam), np.empty_like(lam)
        for pol in dict.fromkeys(pols):
            rows = [i for i, row_pol in enumerate(pols) if row_pol == pol]
            n_b[rows], dn[rows] = self.indices(pol, lam[rows])
        joined = solve_mode(self.geometry, n_b, dn, lam)
        f = joined.field
        return [ModalSolution(wavelength_nm=joined.wavelength_nm[i],
                              polarization=pol,
                              n_eff=joined.n_eff[i],
                              n_bulk=joined.n_bulk[i],
                              delta_n=joined.delta_n[i],
                              field=TrialField.from_solver(f.alpha_y[i], f.alpha_z[i],
                                                           f.width_w, f.depth_h),
                              guided=joined.guided[i])
                for i, pol in enumerate(pols)]


@dataclass
class DesignResult:
    """Full evaluation of one waveguide design."""

    spec: InteractionSpec
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

    def amplitudes_at(self, lambda_s_nm) -> ProcessAmplitudes:
        """Amplitudes at off-design signal wavelengths (modes re-solved).

        An array of wavelengths gives amplitudes holding arrays. The four
        signal and idler modes at every wavelength are solved in one
        ``solve_mode`` call.
        """
        lam_i = self.spec.idler_for(lambda_s_nm)  # by energy conservation
        so, se, io, ie = self.context.solve_many([
            ("ordinary", lambda_s_nm), ("extraordinary", lambda_s_nm),
            ("ordinary", lam_i), ("extraordinary", lam_i),
        ])
        return spdc.relative_amplitudes(self.modes["po"], so, se, io, ie,
                                        self.design, self.spec.length_mm)

    def spectra(self, half_range_nm: float = 10.0, n_samples: int = 2001):
        """Sampled normalized spectra of both processes around the design point.

        Returns (lambda_grid_nm, intensity_oe, intensity_eo, fwhm_oe, fwhm_eo).
        The grid is ``spec.signal_grid(half_range_nm, n_samples)``, which
        raises ConfigError for a window it cannot sample.
        """
        grid = self.spec.signal_grid(half_range_nm, n_samples)
        amps = self.amplitudes_at(grid)
        length = self.spec.length_mm
        i_oe = spdc.spectrum(amps.delta_k_oe, length)
        i_eo = spdc.spectrum(amps.delta_k_eo, length)
        return grid, i_oe, i_eo, spdc.fwhm(grid, i_oe), spdc.fwhm(grid, i_eo)

    def filtered_gamma(self, filter_fwhm_nm: float) -> float:
        """Gamma after a rectangular bandpass filter on the idler arm, which
        coincidence detection maps onto a signal window of width
        ``filter_fwhm_nm * (lambda_s / lambda_i)**2``, sampled by
        ``spec.signal_grid``. A window that rounds to no spread around
        lambda_s, zero width included, returns ``gamma`` without a solve; a
        width that is not a finite number >= 0 raises ConfigError, one not
        below the narrower bandwidth FilterTooWide (bandwidth
        distinguishability would be conflated)."""
        if not (is_number(filter_fwhm_nm) and filter_fwhm_nm >= 0.0):
            raise ConfigError(f"filter width {filter_fwhm_nm} nm must be finite and not negative")
        narrow = min(self.bandwidth_oe_nm, self.bandwidth_eo_nm)
        if filter_fwhm_nm >= narrow:
            raise FilterTooWide(f"filter width {filter_fwhm_nm} nm not below the narrower "
                                f"process bandwidth {narrow} nm")
        lam_s = self.spec.lambda_s_nm
        window = filter_fwhm_nm * (lam_s / self.spec.lambda_i_nm) ** 2
        if lam_s - 0.5 * window == lam_s + 0.5 * window:
            return self.gamma
        grid = self.spec.signal_grid(0.5 * window, spdc.FILTER_SAMPLES)
        return spdc.filtered_gamma(grid, self.amplitudes_at(grid))

    def to_dict(self) -> dict:
        """The design figures as a JSON-ready dict."""
        g, amps = self.design, self.amplitudes
        return {
            "gamma": self.gamma,
            "bandwidth_oe_nm": self.bandwidth_oe_nm,
            "bandwidth_eo_nm": self.bandwidth_eo_nm,
            "bandwidth_ratio": self.bandwidth_ratio,
            "grating": {
                "K1_rad_per_um": g.K1,
                "K2_rad_per_um": g.K2,
                "Lambda1_um": g.Lambda1,
                "Lambda2_um": g.Lambda2,
                "Lambda0_um": g.Lambda0,
                "Lambdap_um": g.Lambdap,
            },
            "amplitudes": {
                "I_oe_per_um": amps.I_oe_per_um,
                "I_eo_per_um": amps.I_eo_per_um,
                "C_oe_rel_abs": abs(amps.C_oe_rel),
                "C_eo_rel_abs": abs(amps.C_eo_rel),
                "delta_k_oe_rad_per_um": amps.delta_k_oe,
                "delta_k_eo_rad_per_um": amps.delta_k_eo,
                "note": "shared prefactor omitted; absolute scale undefined",
            },
        }


def design_point(spec: InteractionSpec, geometry: WaveguideGeometry,
                 material: Material) -> DesignResult:
    """Run the full design chain for one geometry.

    Solves the five modes in one call, derives the grating
    frequencies/periods, evaluates the zero-mismatch amplitudes, the
    entanglement degree and the first-order bandwidths of both processes.
    """
    ctx = ModeContext(material, geometry, spec.temperature_c)
    po, so, se, io, ie = ctx.solve_many([
        ("ordinary", spec.lambda_p_nm),
        ("ordinary", spec.lambda_s_nm), ("extraordinary", spec.lambda_s_nm),
        ("ordinary", spec.lambda_i_nm), ("extraordinary", spec.lambda_i_nm),
    ])
    design = periods_from_frequencies(*required_frequencies(po, so, se, io, ie))
    amps = spdc.relative_amplitudes(po, so, se, io, ie, design, spec.length_mm)
    g = spdc.gamma(amps)
    n_so, n_se, n_io, n_ie = group_index((so, se, io, ie), ctx.indices)
    bw_oe, bw_eo = spdc.bandwidth_approx(n_so, n_se, n_io, n_ie,
                                         spec.lambda_s_nm, spec.length_mm)
    return DesignResult(
        spec=spec,
        context=ctx,
        modes={"po": po, "so": so, "se": se, "io": io, "ie": ie},
        design=design,
        amplitudes=amps,
        gamma=g,
        group_indices={"N_so": n_so, "N_se": n_se, "N_io": n_io, "N_ie": n_ie},
        bandwidth_oe_nm=bw_oe,
        bandwidth_eo_nm=bw_eo,
    )
