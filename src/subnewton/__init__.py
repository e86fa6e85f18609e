"""Trust-region and adaptive cubic-regularization solvers for non-convex
problems under inexact (sub-sampled) Hessians, with verifiable
sufficient-descent certificates and an experiment harness."""

from .core import (CertificateError, ConfigurationError, HessianOperator,
                   IterationRecord, NonFiniteError, Objective,
                   OptimalityTolerances, SolveResult, acceptance_ratio,
                   densify, operator_from_dense, symmetry_defect)
from .cubic_reg import ARCConfig, arc_epsilon, run_arc
from .curvature import CurvatureResult, min_valid_nu, probe_extreme
from .problems import (BIWEIGHT, LOSSES, NLS_LOGISTIC, FiniteSumProblem,
                       QuarticSaddle, ScalarLoss, biweight_scalar,
                       generate_synthetic, load_dataset, nls_logistic_scalar,
                       save_dataset)
from .sampling import (SampleScheme, build_subsampled_hessian,
                       intrinsic_dimension, intrinsic_sample_size,
                       nonuniform_distribution, nonuniform_sample_size,
                       per_iteration_delta, resolve_scheme, uniform_sample_size,
                       verify_concentration)
from .subproblem import (Certificates, CubicModel, SubproblemSolution, TRModel,
                         arc_cauchy_point, arc_certificates, arc_eigen_point,
                         arc_progressive_solve, arc_subspace_solve,
                         tr_cauchy_point, tr_certificates, tr_eigen_point,
                         tr_subspace_solve)
from .trust_region import TRConfig, exact_hessian_source, run_tr, tr_tolerance

__all__ = [name for name in dir() if not name.startswith("_")]
