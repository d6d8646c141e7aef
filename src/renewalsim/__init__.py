"""Monte Carlo toolkit for first-passage times of perturbed random walks.

The package simulates walks Z_n = S_n + xi_n + zeta_n built from an
i.i.d. positive-drift core S_n, a stationary short-memory term xi_n, and
slowly-changing quadratic/vanishing terms zeta_n; stops them at level
crossings; and checks the stopped laws and expected-stopping-time
expansions against their limit predictions.  A staggered-entry
exponential survival trial is included as a worked application, plus a
CLI for reproducible, config-driven experiment runs.
"""

__version__ = "0.1.0"

from .errors import (ConfigurationError, ContractViolationError, NumericError,
                     RenewalSimError, StatisticUndefinedError)
from .rng import RngStream
from .laws import IncrementLaw, VectorLaw
from .perturbation import (QuadraticSpec, ResidualSpec, StationarySpec,
                           zeta_quadratic_path, zeta_window_path)
from .mixture import (ChiSquareMixture, mixture_cdf, mixture_quantile,
                      mixture_sample, mixture_weights)
from .parallel import map_replications, shared_pool
from .first_passage import (BackwardBatch, PassageSamples, PassageSummary,
                            PerturbedWalkModel, RenewalConstants,
                            backward_min_functional, collect_levels,
                            collect_passage, constants_from_batch,
                            estimate_rho_nu, excess_cdf_from_backward,
                            passage_levels, recommended_backward_depth,
                            residual_dip_probability, summarize_levels,
                            summarize_passage)
from .verification import (EventPredicate, Lemma1Row, Lemma3Row,
                           TheoremReport, Theorem3Result, Theorem4Result,
                           Theorem4Row, WindowBounds, lemma1_diagnostic,
                           lemma3_diagnostic, theorem1_experiment,
                           theorem3_experiment, theorem4_experiment)
from .staggered import (Decomposition, Example1Result, Example2Result,
                        GDerivatives, GStatistic, StaggeredExponentialModel,
                        TrialPassage, TrialState, calibrate_lrt_boundary,
                        decompose, example1_run, example2_run, simulate_trial,
                        staggered_constants, statistic_Z,
                        statistic_trajectory, trial_first_passage,
                        xi_staggered_residual)
from .config import ExperimentConfig, build_model, validate_for_kind

__all__ = [name for name in dir() if not name.startswith("_")]
