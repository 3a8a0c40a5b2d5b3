"""Forward-backward SDE solver via a functional reformulation.

The solver treats the backward pair (Y, Z) as conditional-expectation
functionals of the finite-variation/forward pair (V, X), iterates the
resulting fixed-point map on contraction-compliant windows, and glues windows
into a global solution in a single forward pass. A nonlinear change of
measure then turns the solved system into a weak solution of a quadratic
backward equation, which drives the exponential-utility portfolio module.
"""

from .errors import (FdeflowError, InsufficientWeightError, InvalidArgumentError,
                     InvalidStateError, PicardDivergedError, ReleasedArrayError)
from .grid import (BrownianEnsemble, TimeGrid, build_uniform_grid,
                   contraction_window_length, contraction_windows, sample_ensemble)
from .regression import (FittedConditional, RegressionBasis, StepRegression,
                         polynomial_basis)
from .fde import (CoefficientSet, FdeSolution, PicardReport, check_fbsde_residual,
                  export_solution, picard_window, replay_forward, solve_global)
from .girsanov import (MeasureChange, assemble_weak_solution, bmo_diagnostic,
                       build_measure_change, check_z_invariance, export_weak_solution)
from .portfolio import (MarketModel, PortfolioSolution, build_portfolio_fbsde,
                        export_portfolio_results, solve_portfolio,
                        verify_martingale_optimality)
from .fixtures import FIXTURES, Fixture, get_fixture

__version__ = "0.1.0"

__all__ = [
    "FdeflowError", "InvalidArgumentError", "InvalidStateError",
    "InsufficientWeightError", "PicardDivergedError", "ReleasedArrayError",
    "TimeGrid", "BrownianEnsemble",
    "build_uniform_grid", "contraction_window_length", "contraction_windows",
    "sample_ensemble",
    "RegressionBasis", "StepRegression", "FittedConditional",
    "polynomial_basis",
    "CoefficientSet", "FdeSolution", "PicardReport", "replay_forward",
    "picard_window", "solve_global", "check_fbsde_residual", "export_solution",
    "MeasureChange", "build_measure_change",
    "assemble_weak_solution", "check_z_invariance", "bmo_diagnostic",
    "export_weak_solution",
    "MarketModel", "PortfolioSolution", "build_portfolio_fbsde",
    "solve_portfolio", "verify_martingale_optimality", "export_portfolio_results",
    "FIXTURES", "Fixture", "get_fixture",
]
