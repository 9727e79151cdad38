"""Numerical verification toolkit for Bernstein-operator converse bounds.

Submodules:

  dist        discrete laws, the binomial band kernel, total variation,
              inverse moments
  bernstein   the operator, its derivatives, Krawtchouk polynomials
  moduli      moduli of continuity, including the phi-weighted second modulus
  central     H_n, I_n, the envelope C and its sup, K(s)
  noncentral  alpha-iterates, J constants, finite-n bounds, Monte Carlo
  bounds      headline upper/lower-bound assembly and inequality validators
  cli         command-line front end (entry point: bcv)
"""

from .bernstein import (ConsistencyError, PiecewiseLinearFn,
                        bernstein_apply_many, bernstein_derivative,
                        central_moment, central_moment_closed,
                        kantorovich_check, krawtchouk,
                        krawtchouk_orthogonality_check, phi)
from .bounds import (LowerBoundReport, UpperBoundReport, ValidatorResult,
                     G_of_lambda, build_fn_lower, central_converse_check,
                     fn_lower_error_sup, g_of_lambda, iterate_converse_check,
                     lower_bound_ratio, modulus_upper_check,
                     noncentral_converse_check, smooth_class_constant,
                     sup_G_minus_g, sweep_upper, upper_bound_report,
                     upper_expr_H1, upper_expr_H2)
from .central import (SupSearchResult, C_of_lambda, C_tilde, D_coeff,
                      H_n_exact, H_n_upper, I_n_branch_check, I_n_brute,
                      I_n_closed, K_func, nu, phi_ratio_moment_sides,
                      r_of_lambda, sup_C, sup_C_tilde, sup_H_n)
from .dist import (LOG4, LOG2716, BinomialBand, BinomialLaw, PoissonLaw,
                   binomial_band, inv_moment_shift_V, stirling_mode_bound_check,
                   tv_binom_poisson_bound, tv_distance)
from .moduli import ModulusResult, omega1, omega2, omega2_phi
from .noncentral import (SimulatedJ, b_n, epsilon_n, finite_n_J_bound,
                         first_valid_i, J_limit, L_k, simulate_J)
from .quadrature import gauss_legendre
from .search import golden_max, sup_search

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
