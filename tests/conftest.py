import numpy as np
import pytest

import fdeflow as ff

UNIT_SEED = 1234


@pytest.fixture(scope="session")
def unit_ensemble_1d():
    grid = ff.build_uniform_grid(1.0, 16)
    return grid, ff.sample_ensemble(grid, 20_000, 1, UNIT_SEED)


@pytest.fixture(scope="session")
def tanh_solution(unit_ensemble_1d):
    grid, ens = unit_ensemble_1d
    coeffs = ff.get_fixture("tanh_terminal").build()
    sol = ff.solve_global(coeffs, ens, c4=1.0,
                          basis=ff.polynomial_basis(7, 1))
    return coeffs, grid, ens, sol


@pytest.fixture(scope="session")
def const_forward_solution(unit_ensemble_1d):
    grid, ens = unit_ensemble_1d
    coeffs = ff.get_fixture("const_forward").build()
    sol = ff.solve_global(coeffs, ens, c4=1.0,
                          basis=ff.polynomial_basis(7, 1))
    return coeffs, grid, ens, sol


@pytest.fixture(scope="session")
def merton_small():
    grid = ff.build_uniform_grid(1.0, 25)
    ens = ff.sample_ensemble(grid, 20_000, 2, UNIT_SEED + 1)
    model = ff.get_fixture("merton").build()
    psol = ff.solve_portfolio(model, ens, c4=0.0,
                              basis=ff.polynomial_basis(3, 2))
    return model, grid, ens, psol
