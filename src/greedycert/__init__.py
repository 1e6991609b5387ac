"""Greedy sparse recovery (OMP/OLS) with exact-recovery certificates.

The package splits into: dictionaries and supports (`dictionary`), residual
projections (`projection`), the pursuit loop and outcome classification
(`greedy`), recovery conditions and restricted-isometry material
(`guarantees`), the constructive worst-case failure builder (`worstcase`),
and the Monte Carlo sweep engine (`sweep`).
"""

__version__ = "0.1.0"

from .dictionary import (Dictionary, SparseInstance, Support, as_support, build_worst_case,
                         check_support, coherence, gram, load_dictionary, load_vector,
                         make_instance, random_dictionaries, random_dictionary, save_dictionary,
                         save_vector, spark, welch_bound)
from .errors import (CalibrationFailed, CapExceeded, GreedyCertError, InvalidArgs, InvalidSeed,
                     OutOfDomain, RankDeficient, TargetUnreachable, ZeroResidual)
from .greedy import GreedyTrace, RecoveryOutcome, SolverVariant, classify, run, select_atom
from .guarantees import (ErcReport, PripConstants, coherence_threshold, cross_gram_bound_check,
                         ols_coherence_bound, omp_partial_bound, partial_erc,
                         prip_coherence_bounds, prip_erc_bound, prip_exact,
                         projected_coherence, tropp_erc)
from .projection import ProjectedDictionary, least_squares, project_atoms, residual
from .sweep import CellResult, SweepConfig, SweepReport, run_sweep
from .worstcase import (WorstCaseScenario, build_scenario, dual_representation,
                        projected_gram_closed_form, reach_input)

__all__ = [
    "__version__",
    "Dictionary", "SparseInstance", "Support", "as_support", "build_worst_case",
    "check_support", "coherence", "gram", "load_dictionary", "load_vector",
    "make_instance", "random_dictionaries", "random_dictionary", "save_dictionary",
    "save_vector", "spark", "welch_bound",
    "CalibrationFailed", "CapExceeded", "GreedyCertError", "InvalidArgs", "InvalidSeed",
    "OutOfDomain", "RankDeficient", "TargetUnreachable", "ZeroResidual",
    "GreedyTrace", "RecoveryOutcome", "SolverVariant", "classify", "run", "select_atom",
    "ErcReport", "PripConstants", "coherence_threshold", "cross_gram_bound_check",
    "ols_coherence_bound", "omp_partial_bound", "partial_erc",
    "prip_coherence_bounds", "prip_erc_bound", "prip_exact",
    "projected_coherence", "tropp_erc",
    "ProjectedDictionary", "least_squares", "project_atoms", "residual",
    "CellResult", "SweepConfig", "SweepReport", "run_sweep",
    "WorstCaseScenario", "build_scenario", "dual_representation",
    "projected_gram_closed_form", "reach_input",
]
