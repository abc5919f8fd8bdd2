"""Design toolkit for non-degenerate polarization-entangled photon-pair
sources in type-II dual-period poled Ti:LiNbO3 waveguides."""

from .dispersion import (
    IndexIncrementTable,
    SellmeierSet,
    WaveguideGeometry,
    load_sellmeier_sets,
)
from .errors import (
    ConfigError,
    DegenerateGroupIndices,
    DegenerateModulation,
    FilterTooWide,
    Infeasible,
    NoGuidedMode,
    NonPositiveFrequency,
    OutOfRange,
    QpmDesignError,
    UndefinedGamma,
)
from .modesolver import (
    ModalSolution,
    TrialField,
    group_index,
    neff_closed_form,
    solve_mode,
)
from .pipeline import DesignResult, Material, ModeContext, design_point
from .qpm import (
    GratingDesign,
    InteractionSpec,
    PolingPattern,
    fourier_component,
    periods_from_frequencies,
    phase_matching_k,
    required_frequencies,
    synthesize_pattern,
)
from .spdc import (
    ProcessAmplitudes,
    bandwidth_approx,
    filtered_gamma,
    fwhm,
    gamma,
    grating_scheme_efficiency_ratio,
    overlap_integral,
    relative_amplitudes,
    spectrum,
)

__version__ = "0.1.0"
