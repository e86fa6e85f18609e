"""Trust-region and adaptive cubic-regularization solvers for non-convex
problems under inexact (sub-sampled) Hessians, with verifiable
sufficient-descent certificates and an experiment harness.

The package root holds what the README quick start and the scripts import;
everything else is reached through its module (``subnewton.sampling`` and so
on)."""

from .core import OptimalityTolerances
from .cubic_reg import ARCConfig, run_arc
from .problems import QuarticSaddle, generate_synthetic
from .sampling import hessian_source
from .trust_region import TRConfig, run_tr

__all__ = ["ARCConfig", "OptimalityTolerances", "QuarticSaddle", "TRConfig",
           "generate_synthetic", "hessian_source", "run_arc", "run_tr"]
