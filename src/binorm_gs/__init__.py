"""Ground states of coupled focusing Schrodinger energies with two mass
constraints, plus numerical verification of their structural properties:
multiplier signs, decay regimes, interaction inequalities, subadditivity
of the ground-state energy, and the gluing energy-gap construction."""

from .analysis import (
    ConvLimitRow,
    DecayFit,
    DecayRegime,
    GlueLedger,
    OverlapSeries,
    PohozaevCheck,
    classify_decay_regime,
    convolution_limit_check,
    decay_fit,
    glue_energy_gap,
    glue_states,
    overlap_series,
    pohozaev_check,
    soliton_1d,
    soliton_energy_p1,
    soliton_mass_p1,
    soliton_multiplier_p1,
)
from .energy import (
    EnergyReport,
    Multipliers,
    energy,
    gradient,
    multipliers,
)
from .grid import (
    Field,
    Grid,
    State,
    grad_norm_sq,
    integrate,
    inner,
    laplacian,
    make_grid,
    norm_sq,
    radial_profile,
    read_field_csv,
    translate,
    write_field_csv,
)
from .inequalities import (
    InequalityReport,
    check_elementary_p3,
    check_lemma34i,
    check_lemma34ii,
    min_constant_34i,
    min_constant_34ii,
    sufficient_constant_34ii,
)
from .model import (
    PotentialSpec,
    ProblemSpec,
    sample_potential,
    validate,
)
from .solver import (
    SolveResult,
    SolverConfig,
    SubaddPoint,
    SubaddReport,
    default_grid,
    minimize,
    minimize_scalar,
    scan_subadditivity,
)

__version__ = "0.1.0"
