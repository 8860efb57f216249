"""Furstenberg entropy on the free-group boundary, sigma-stochastic walks,
and uniform-integrability gauges."""

__version__ = "0.1.0"

from .divergence import (
    CHI2,
    KL,
    ConvexGenerator,
    FiniteMeasure,
    MeasureFamily,
    f_divergence,
    furstenberg_entropy,
    generator_from_string,
)
from .free_boundary import (
    CylinderMeasure,
    GeneratorMeasure,
    QVector,
    TailRule,
    cylinder_entropy,
    entropy_gradient_at_harmonic,
    harmonic_measure,
    minimality_scan,
    pushforward,
    rn_generator,
    solve_q,
    t_inverse,
    t_map,
    translate_mass,
    uniform_generator_measure,
)
from .majorant import (
    Majorant,
    WeightedFunction,
    combine,
    concave_envelope,
    rho_abs_continuity,
    rho_norm,
    split_integrable,
    vallee_poussin,
)
from .sigma_walk import (
    AbelMeasure,
    GroupSpec,
    LevelFunction,
    LeveledMeasure,
    StochasticSequence,
    WalkState,
    abel_identity_residual,
    abel_measure,
    boundary_empirical,
    check_harmonic,
    constant_sequence,
    exact_distribution,
    folner_entropy_curve,
    martingale_check,
    sample_trajectory,
    validate_sigma,
)
from .words import ReducedWord, inverse, multiply, word
