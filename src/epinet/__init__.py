"""Exact Markov chains, mean-field maps, and verification tooling for
SIS/SIRS/SIV epidemics on arbitrary networks.

Modules:
  model_core   graphs, generators, spectral radius, model parameters
  exact_chain  k^n-state transition matrices, mixing times, order machinery,
               LP marginal bounds, non-absorption bounds
  mean_field   per-node marginal maps, Jacobians, fixed points, stability
  monte_carlo  counter-based stochastic simulation and ensembles
  verify       brute-force verification suites for every analytic guarantee
  cli          the `epinet` command-line front end
"""

__version__ = "0.1.0"

from .model_core import (
    Graph,
    GraphError,
    ModelError,
    ModelSpec,
    SpectralReport,
    VARIANTS,
    contact_from_rates,
    format_edge_list,
    generate,
    parse_edge_list,
    spectral_radius,
    threshold_ratio,
)
from .exact_chain import (
    ChainState,
    DistVector,
    ExactChainError,
    LPInfeasibleError,
    LPReport,
    MixingReport,
    NonAbsorptionReport,
    OrderReport,
    StateSpaceCapError,
    StationaryVerificationError,
    TransitionMatrix,
    build_R_pair,
    build_transition_matrix,
    check_order_preservation,
    check_u_bound,
    closed_form_marginal_bound,
    lp_marginal_max,
    marginals,
    mixing_time_bound,
    mixing_time_exact,
    non_absorption_check,
    propagate,
    states_table,
    stationary,
    u_vector,
)
from .mean_field import (
    FixedPointReport,
    MeanFieldError,
    MeanFieldPoint,
    find_fixed_point,
    jacobian_contracts,
    jacobian_eigenvalues,
    linear_bound_check,
    mf_iterate,
    mf_jacobian,
    mf_step,
)
from .monte_carlo import (
    EnsembleReport,
    MonteCarloError,
    ensemble_to_csv,
    mc_ensemble,
    mc_grid,
)
from .verify import SUITES, SuiteResult, VerifyError, fd_jacobian, run_suite, \
    run_suites
