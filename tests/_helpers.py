"""Helpers shared by test modules that are not fixtures."""
import numpy as np

import fdeflow as ff


def empirical_pathwise_uniqueness(coeffs: ff.CoefficientSet, grid: ff.TimeGrid, x0,
                                  ensemble: ff.BrownianEnsemble, guesses=None,
                                  **solve_kwargs) -> dict:
    """Gap between two solves started from independent initial guesses.

    Both solves share the ensemble and exploration noise; only the Picard
    starting point differs. Contraction makes the fixed point guess-free, so
    the gap should stay within a small multiple of the Picard tolerance.
    """
    if guesses is None:
        g0 = max(coeffs.m_bound, 1.0)
        guesses = (g0, -g0)
    sols = [ff.solve_global(coeffs, grid, x0, ensemble, initial_guess=g, **solve_kwargs)
            for g in guesses]
    y_gap = float(np.abs(sols[0].Y - sols[1].Y).max())
    z_gap = float(np.abs(sols[0].Z - sols[1].Z).max())
    return {"y_gap": y_gap, "z_gap": z_gap, "max_gap": max(y_gap, z_gap),
            "solutions": sols}
