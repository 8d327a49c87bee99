import pytest

from pptball import (
    build_complete_basis,
    build_pyramid,
    build_shifts,
    build_tiles,
    build_witness,
    certify,
    minimum_overlap,
    omega_state,
)
from pptball.gridsearch import grid_minimum_overlap


@pytest.fixture(scope="session")
def tiles():
    return build_tiles()


@pytest.fixture(scope="session")
def pyramid():
    return build_pyramid()


@pytest.fixture(scope="session")
def shifts():
    return build_shifts()


@pytest.fixture(scope="session")
def complete22():
    return build_complete_basis((2, 2))


@pytest.fixture(scope="session")
def tiles_lambda(tiles):
    return minimum_overlap(tiles)


@pytest.fixture(scope="session")
def pyramid_lambda(pyramid):
    return minimum_overlap(pyramid)


@pytest.fixture(scope="session")
def shifts_lambda(shifts):
    return minimum_overlap(shifts)


@pytest.fixture(scope="session")
def tiles_witness(tiles, tiles_lambda):
    return build_witness(tiles, tiles_lambda)


@pytest.fixture(scope="session")
def pyramid_witness(pyramid, pyramid_lambda):
    return build_witness(pyramid, pyramid_lambda)


@pytest.fixture(scope="session")
def shifts_witness(shifts, shifts_lambda):
    return build_witness(shifts, shifts_lambda)


@pytest.fixture(scope="session")
def tiles_cert(tiles, tiles_lambda):
    return certify(tiles, tiles_lambda)


@pytest.fixture(scope="session")
def pyramid_cert(pyramid, pyramid_lambda):
    return certify(pyramid, pyramid_lambda)


@pytest.fixture(scope="session")
def shifts_cert(shifts, shifts_lambda):
    return certify(shifts, shifts_lambda)


@pytest.fixture(scope="session")
def tiles_omega(tiles):
    return omega_state(tiles)


@pytest.fixture(scope="session")
def shifts_omega(shifts):
    return omega_state(shifts)


@pytest.fixture(scope="session")
def tiles_grid(tiles):
    return grid_minimum_overlap(tiles)


@pytest.fixture(scope="session")
def pyramid_grid(pyramid):
    return grid_minimum_overlap(pyramid)


@pytest.fixture(scope="session")
def shifts_grid(shifts):
    return grid_minimum_overlap(shifts)
