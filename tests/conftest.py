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
    return build_witness(tiles, tiles_lambda.value)


@pytest.fixture(scope="session")
def pyramid_witness(pyramid, pyramid_lambda):
    return build_witness(pyramid, pyramid_lambda.value)


@pytest.fixture(scope="session")
def shifts_witness(shifts, shifts_lambda):
    return build_witness(shifts, shifts_lambda.value)


@pytest.fixture(scope="session")
def tiles_cert(tiles, tiles_lambda):
    return certify(tiles, tiles_lambda.value)


@pytest.fixture(scope="session")
def pyramid_cert(pyramid, pyramid_lambda):
    return certify(pyramid, pyramid_lambda.value)


@pytest.fixture(scope="session")
def shifts_cert(shifts, shifts_lambda):
    return certify(shifts, shifts_lambda.value)


@pytest.fixture(scope="session")
def tiles_omega(tiles):
    return omega_state(tiles)


@pytest.fixture(scope="session")
def shifts_omega(shifts):
    return omega_state(shifts)
