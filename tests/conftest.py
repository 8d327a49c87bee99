import pytest

from pptball import (
    Certificate,
    build_complete_basis,
    get_upb,
    minimum_overlap,
    omega_state,
)


@pytest.fixture(scope="session")
def tiles():
    return get_upb("tiles")


@pytest.fixture(scope="session")
def pyramid():
    return get_upb("pyramid")


@pytest.fixture(scope="session")
def shifts():
    return get_upb("shifts")


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
def tiles_cert(tiles, tiles_lambda):
    return Certificate(tiles, tiles_lambda.value)


@pytest.fixture(scope="session")
def pyramid_cert(pyramid, pyramid_lambda):
    return Certificate(pyramid, pyramid_lambda.value)


@pytest.fixture(scope="session")
def shifts_cert(shifts, shifts_lambda):
    return Certificate(shifts, shifts_lambda.value)


@pytest.fixture(scope="session")
def tiles_omega(tiles):
    return omega_state(tiles)


@pytest.fixture(scope="session")
def shifts_omega(shifts):
    return omega_state(shifts)
