import numpy as np
import pytest

from pptball import (
    DensityMatrix,
    HermitianOperator,
    HilbertStructure,
    ProductState,
    UPBSet,
    all_bipartitions,
    build_complete_basis,
    eig_hermitian,
    get_upb,
    is_ppt,
    min_pt_eigenvalue,
    omega_state,
)
from pptball.upb import _overlaps


def gram_deviation(upb):
    full = np.column_stack([m.full_vector for m in upb.members])
    return np.abs(full.conj().T @ full - np.eye(upb.cardinality)).max()


def test_catalog_names():
    assert get_upb("tiles").cardinality == 5
    assert get_upb("pyramid").cardinality == 5
    assert get_upb("shifts").cardinality == 4
    assert get_upb("complete-2x2").cardinality == 4
    # An unhashable name, such as a list, is an unknown set too, not the
    # catalog lookup's TypeError.
    for name in ("nope", ["tiles"]):
        with pytest.raises(ValueError) as error:
            get_upb(name)
        known = "complete-2x2, pyramid, shifts, tiles"
        assert str(error.value) == f"unknown product-basis set {name!r} (known: {known})"


def test_gram_identities(tiles, pyramid, shifts):
    assert gram_deviation(tiles) < 1e-10
    assert gram_deviation(pyramid) < 1e-10
    assert gram_deviation(shifts) < 1e-12


def test_projector_traces(tiles, pyramid, shifts):
    for upb in (tiles, pyramid, shifts):
        assert abs(upb.projector.trace - upb.cardinality) < 1e-10


def test_projectors_are_idempotent(tiles, pyramid, shifts):
    for upb in (tiles, pyramid, shifts):
        p = upb.projector.matrix
        assert np.abs(p @ p - p).max() < 1e-10


def test_pyramid_next_nearest_orthogonality(pyramid):
    vecs = [m.local_vectors[0] for m in pyramid.members]
    assert abs(np.vdot(vecs[0], vecs[2])) < 1e-12


def test_product_state_requires_unit_norm():
    with pytest.raises(ValueError, match="norm"):
        ProductState((np.array([1.0, 1.0]),))


@pytest.mark.parametrize(
    "dims_a, dims_b", [((2, 2), (2, 2, 2)), ((2, 2, 2), (2, 2)), ((2, 3), (3, 2))]
)
def test_fidelity_rejects_another_structure(dims_a, dims_b):
    # zip over the parties would compare only the shared prefix: |00> against
    # |001> would read 1.0.
    a = ProductState(tuple(np.eye(d)[0] for d in dims_a))
    b = ProductState(tuple(np.eye(d)[-1 if k == 2 else 0] for k, d in enumerate(dims_b)))
    with pytest.raises(ValueError, match="structure mismatch"):
        a.fidelity(b)
    assert a.fidelity(a) == 1.0


def _random_product_states(dims, count, seed):
    rng = np.random.default_rng(seed)
    for _ in range(count):
        vecs = [rng.standard_normal(d) + 1j * rng.standard_normal(d) for d in dims]
        yield ProductState(tuple(v / np.linalg.norm(v) for v in vecs))


@pytest.mark.parametrize("name", ["tiles", "pyramid", "shifts"])
def test_overlaps_sum_to_the_projector_expectation(name, request):
    # <phi|P|phi> = sum_i prod_k |<v_ik|phi_k>|^2 for a product state phi.
    upb = request.getfixturevalue(name)
    mats = [upb.local_matrix(k) for k in range(upb.n_parties)]
    p = upb.projector.matrix
    for phi in _random_product_states(upb.structure.local_dims, 200, seed=7):
        v = phi.full_vector
        expected = float(np.vdot(v, p @ v).real)
        assert abs(float(_overlaps(mats, phi.local_vectors).sum()) - expected) < 1e-14


@pytest.mark.parametrize("name", ["tiles", "pyramid", "shifts"])
def test_fidelity_is_the_full_vector_overlap(name, request):
    dims = request.getfixturevalue(name).structure.local_dims
    states = list(_random_product_states(dims, 201, seed=11))
    for a, b in zip(states, states[1:]):
        expected = abs(np.vdot(a.full_vector, b.full_vector)) ** 2
        assert abs(a.fidelity(b) - expected) < 1e-14
        assert abs(a.fidelity(b) - b.fidelity(a)) < 1e-14


def test_product_state_density_keeps_its_local_dimensions():
    state = ProductState(([1.0, 0.0], [0.0, 1.0]))
    rho = state.to_density()
    assert rho.structure.local_dims == (2, 2)
    assert np.array_equal(rho.matrix, np.diag([0.0, 1.0, 0.0, 0.0]))


def test_members_must_match_the_structure():
    member = ProductState(([1.0, 0.0], [1.0, 0.0, 0.0]))
    message = r"^member dimensions \(2, 3\) do not match structure \(2, 2\)$"
    with pytest.raises(ValueError, match=message):
        UPBSet("bad", (2, 2), [member])


def test_from_vectors_rejects_non_orthonormal():
    e = np.eye(3)
    with pytest.raises(ValueError, match="orthonormal"):
        UPBSet.from_vectors("bad", (3, 3), [(e[0], e[0]), (e[0], e[0])])


@pytest.mark.parametrize(
    "build",
    [
        lambda: HermitianOperator(np.full((2, 2), np.nan)),
        lambda: HermitianOperator([[np.inf, 0.0], [0.0, 1.0]]),
        lambda: ProductState((np.array([np.nan, 0.0]),)),
        lambda: UPBSet.from_vectors(
            "bad", (2, 2), [(np.array([1.0, 0.0]), np.array([np.nan, 1.0]))]
        ),
        lambda: DensityMatrix.from_pure(np.zeros(4), HilbertStructure((2, 2))),
    ],
    ids=["hermitian-nan", "hermitian-inf", "product-nan", "from-vectors-nan", "pure-zero"],
)
def test_non_finite_input_is_rejected(build):
    with pytest.raises(ValueError, match="not finite"):
        build()


def test_omega_flat_spectrum(tiles):
    omega = omega_state(tiles)
    vals = eig_hermitian(omega).eigenvalues
    assert np.abs(vals[:5]).max() < 1e-10
    assert np.abs(vals[5:] - 0.25).max() < 1e-10


def test_omega_is_ppt(tiles, shifts):
    assert min_pt_eigenvalue(omega_state(tiles)) >= -1e-9
    assert is_ppt(omega_state(shifts))
    assert len(all_bipartitions(shifts.structure)) == 3


def test_omega_has_zero_overlap_with_members(tiles, pyramid, shifts):
    for upb in (tiles, pyramid, shifts):
        omega = omega_state(upb)
        for m in upb.members:
            v = m.full_vector
            assert abs(np.vdot(v, omega.matrix @ v)) < 1e-12


def test_omega_rejects_complete_basis(complete22):
    with pytest.raises(ValueError, match="complement"):
        omega_state(complete22)


def test_complete_basis_projector_is_identity():
    upb = build_complete_basis((2, 2, 2))
    assert np.abs(upb.projector.matrix - np.eye(8)).max() < 1e-12


def test_json_export_roundtrip(shifts):
    data = shifts.to_json_dict()
    assert data["name"] == "shifts"
    assert data["local_dims"] == [2, 2, 2]
    assert len(data["members"]) == 4
    rebuilt = UPBSet.from_vectors(
        data["name"],
        data["local_dims"],
        [
            [np.array([complex(re, im) for re, im in vec]) for vec in member]
            for member in data["members"]
        ],
    )
    assert np.abs(rebuilt.projector.matrix - shifts.projector.matrix).max() < 1e-12
