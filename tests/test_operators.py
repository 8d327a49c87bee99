import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pptball import (
    DensityMatrix,
    HermitianOperator,
    HilbertStructure,
    ProductState,
    UPBSet,
    Witness,
    all_bipartitions,
    build_complete_basis,
    eig_hermitian,
    entanglement_threshold,
    is_ppt,
    min_pt_eigenvalue,
    omega_state,
    partial_transpose,
    prove_product_minimum,
    purity,
    witness_from_operator,
    witness_value,
)
from pptball.montecarlo import sample_hs_density, sample_random_product_separable


def rand_hermitian(rng, d):
    g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    return HermitianOperator((g + g.conj().T) / 2)


def rand_density(rng, structure):
    d = structure.total_dim
    g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    m = g @ g.conj().T
    return DensityMatrix(m / np.trace(m).real, structure)


def test_hermitian_rejects_non_hermitian():
    m = np.array([[0.0, 1.0], [0.0, 0.0]])
    with pytest.raises(ValueError, match="not Hermitian"):
        HermitianOperator(m)


def test_hermitian_rejects_non_square():
    with pytest.raises(ValueError, match="square"):
        HermitianOperator(np.zeros((2, 3)))


def test_structure_requires_physical_dims():
    with pytest.raises(ValueError):
        HilbertStructure((3, 1))
    assert HilbertStructure((3, 3)).total_dim == 9
    assert HilbertStructure((2, 2, 2)).n_parties == 3
    assert HilbertStructure((np.int64(2), 3)).local_dims == (2, 3)


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: HilbertStructure((2.7, 3)), "local dimension must be an integer, got 2.7"),
        (lambda: build_complete_basis((2.5, 2)), "local dimension must be an integer, got 2.5"),
        (
            lambda: partial_transpose(
                DensityMatrix.maximally_mixed(HilbertStructure((2, 2))), (1.5,)
            ),
            "subsystem index must be an integer, got 1.5",
        ),
        (
            lambda: partial_transpose(
                DensityMatrix.maximally_mixed(HilbertStructure((2, 2))), (True,)
            ),
            "subsystem index must be an integer, got True",
        ),
        (lambda: HilbertStructure((True, 3)), "local dimension must be an integer, got True"),
        (lambda: entanglement_threshold(float("nan"), 9), "strictly positive"),
        (
            lambda: min_pt_eigenvalue(np.eye(4) / 4, 4),
            "structure must be a HilbertStructure or local dimensions, got 4",
        ),
    ],
    ids=[
        "structure",
        "complete-basis",
        "partial-transpose",
        "partial-transpose-bool",
        "structure-bool",
        "nan-violation",
        "structure-not-dims",
    ],
)
def test_non_integral_and_nan_inputs_are_rejected(call, message):
    with pytest.raises(ValueError, match=message):
        call()


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: HilbertStructure((1, 3)), "local dimension must be at least 2, got 1"),
        (lambda: HilbertStructure(()), "number of subsystems must be at least 1, got 0"),
        (
            lambda: all_bipartitions(HilbertStructure((3,))),
            "number of subsystems must be at least 2, got 1",
        ),
        (lambda: HermitianOperator(np.zeros((0, 0))), "dimension must be at least 1, got 0"),
    ],
    ids=["local-dimension", "no-subsystems", "one-party-cut", "empty-operator"],
)
def test_counts_below_their_floor_are_rejected(call, message):
    with pytest.raises(ValueError, match=message):
        call()


def test_bipartition_validation():
    rho = DensityMatrix.maximally_mixed(HilbertStructure((2, 2)))
    with pytest.raises(ValueError, match="nonempty"):
        partial_transpose(rho, ())
    with pytest.raises(ValueError, match="duplicate"):
        partial_transpose(rho, (1, 1))
    with pytest.raises(ValueError, match="proper subset"):
        partial_transpose(rho, (0, 1))
    with pytest.raises(ValueError, match="out of range"):
        partial_transpose(rho, (5,))
    with pytest.raises(ValueError, match="out of range"):
        partial_transpose(rho, (-1,))
    partial_transpose(rho, (1,))


def test_eig_identity():
    dec = eig_hermitian(HermitianOperator(np.eye(4)))
    assert np.allclose(dec.eigenvalues, np.ones(4), atol=1e-14)


def test_eig_diagonal_orders_ascending():
    dec = eig_hermitian(HermitianOperator(np.diag([3.0, -1.0, 2.0])))
    assert np.allclose(dec.eigenvalues, [-1.0, 2.0, 3.0], atol=1e-14)


def test_eig_reconstruction_9x9():
    rng = np.random.default_rng(20240811)
    op = rand_hermitian(rng, 9)
    dec = eig_hermitian(op)
    recon = (dec.eigenvectors * dec.eigenvalues) @ dec.eigenvectors.conj().T
    assert np.abs(recon - op.matrix).max() < 1e-10


def test_eig_contract_sweep_up_to_dim_81():
    rng = np.random.default_rng(7)
    for _ in range(1000):
        d = int(rng.integers(2, 82))
        op = rand_hermitian(rng, d)
        dec = eig_hermitian(op)
        recon = (dec.eigenvectors * dec.eigenvalues) @ dec.eigenvectors.conj().T
        gram = dec.eigenvectors.conj().T @ dec.eigenvectors
        assert np.abs(recon - op.matrix).max() < 1e-10
        assert np.abs(gram - np.eye(d)).max() < 1e-10
        assert np.all(np.diff(dec.eigenvalues) >= 0)


def test_partial_transpose_fixes_identity():
    structure = HilbertStructure((3, 3))
    rho = DensityMatrix.maximally_mixed(structure)
    pt = partial_transpose(rho, (1,))
    assert np.abs(pt.matrix - rho.matrix).max() == 0.0


def test_partial_transpose_is_involution():
    rng = np.random.default_rng(5)
    for dims in ((3, 3), (2, 4), (2, 2, 2)):
        structure = HilbertStructure(dims)
        rho = rand_density(rng, structure)
        for cut in all_bipartitions(structure):
            once = partial_transpose(rho, cut)
            twice = partial_transpose(once, cut, structure)
            assert np.abs(twice.matrix - rho.matrix).max() == 0.0
            assert abs(once.trace - 1.0) < 1e-12


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_partial_transpose_preserves_trace_and_hermiticity(seed):
    rng = np.random.default_rng(seed)
    structure = HilbertStructure((2, 3))
    rho = rand_density(rng, structure)
    pt = partial_transpose(rho, (1,))
    assert abs(pt.trace - 1.0) < 1e-12


def test_partial_transpose_bell_spectrum():
    structure = HilbertStructure((2, 2))
    bell = np.array([1.0, 0.0, 0.0, 1.0]) / np.sqrt(2.0)
    rho = DensityMatrix.from_pure(bell, structure)
    pt = partial_transpose(rho, (1,))
    vals = eig_hermitian(pt).eigenvalues
    assert np.allclose(vals, [-0.5, 0.5, 0.5, 0.5], atol=1e-12)


def test_partial_transpose_rejects_bad_cut():
    structure = HilbertStructure((3, 3))
    rho = DensityMatrix.maximally_mixed(structure)
    with pytest.raises(ValueError, match="out of range"):
        partial_transpose(rho, (2,))


def test_is_ppt_product_state():
    structure = HilbertStructure((2, 2))
    vec = np.kron([1.0, 0.0], [0.6, 0.8])
    rho = DensityMatrix.from_pure(vec, structure)
    assert is_ppt(rho)


def test_is_ppt_detects_bell():
    structure = HilbertStructure((2, 2))
    bell = np.array([1.0, 0.0, 0.0, 1.0]) / np.sqrt(2.0)
    rho = DensityMatrix.from_pure(bell, structure)
    assert not is_ppt(rho)
    assert abs(min_pt_eigenvalue(rho) - (-0.5)) < 1e-12


def test_is_ppt_maximally_mixed():
    structure = HilbertStructure((3, 3))
    rho = DensityMatrix.maximally_mixed(structure)
    assert is_ppt(rho)
    assert abs(min_pt_eigenvalue(rho) - 1.0 / 9.0) < 1e-14
    assert min_pt_eigenvalue(rho.matrix, structure) == min_pt_eigenvalue(rho)
    with pytest.raises(ValueError, match="explicit structure"):
        min_pt_eigenvalue(rho.matrix)


def test_min_pt_eigenvalue_of_a_bare_operator_is_that_of_its_matrix(tiles, tiles_witness):
    # A partial transpose and a witness are Hermitian operators without a
    # structure: they need one passed, and give what their matrices give.
    pt = partial_transpose(omega_state(tiles), (1,))
    for op in (pt, tiles_witness):
        assert type(op) is not DensityMatrix
        assert min_pt_eigenvalue(op, tiles.structure) == min_pt_eigenvalue(
            op.matrix, tiles.structure
        )
        with pytest.raises(ValueError, match="explicit structure"):
            min_pt_eigenvalue(op)


def test_explicit_structure_must_match_a_density_matrix():
    # |0><0| x Bell on three qubits is PPT across the (2, 4) split but not on
    # its own three-party cuts; a structure passed with the state that
    # disagrees with the state's own is an error, not silently overridden.
    bell = np.array([1.0, 0.0, 0.0, 1.0]) / np.sqrt(2.0)
    rho = DensityMatrix.from_pure(np.kron([1.0, 0.0], bell), HilbertStructure((2, 2, 2)))
    split = HilbertStructure((2, 4))
    assert abs(min_pt_eigenvalue(rho) + 0.5) < 1e-12
    assert abs(min_pt_eigenvalue(rho.matrix, split)) < 1e-12
    message = r"^explicit structure \(2, 4\) does not match the state's \(2, 2, 2\)$"
    with pytest.raises(ValueError, match=message):
        min_pt_eigenvalue(rho, split)
    with pytest.raises(ValueError, match=message):
        partial_transpose(rho, (1,), split)
    # A structure equal to the state's own is accepted.
    same = HilbertStructure((2, 2, 2))
    assert min_pt_eigenvalue(rho, same) == min_pt_eigenvalue(rho)
    pt = partial_transpose(rho, (1,), same).matrix
    assert np.array_equal(pt, partial_transpose(rho, (1,)).matrix)


# A unit-trace Hermitian matrix on two qubits, complex off the diagonal.
QUBITS = HilbertStructure((2, 2))
ENTRY_MATRIX = np.array(
    [[0.4, 0, 0, 0.1j], [0, 0.1, 0.05, 0], [0, 0.05, 0.2, 0], [-0.1j, 0, 0, 0.3]]
)
DIMENSION = "^operator dimension does not match the structure$"
SQUARE = r"^expected a square matrix, got shape \(4, 3\)$"


def _decomposition(m):
    dec = eig_hermitian(m)
    return dec.eigenvalues, dec.eigenvectors


def _split(m):
    w = witness_from_operator(m)
    return w.matrix, w.p_count, w.n_neg_count, w.pos_part_trace, w.neg_part_trace


def _bound(m, structure=QUBITS):
    bound = prove_product_minimum(m, structure, 1.0)
    return bound.lower, bound.upper, bound.cells


@pytest.mark.parametrize(
    "call, wrong_shape, message",
    [
        (lambda m: (partial_transpose(m, (1,), QUBITS).matrix,), np.eye(3), DIMENSION),
        (lambda m: (min_pt_eigenvalue(m, QUBITS),), np.eye(4, 3), DIMENSION),
        (_decomposition, np.eye(4, 3), SQUARE),
        (_split, np.eye(4, 3), SQUARE),
        (
            lambda m: (witness_value(m, ENTRY_MATRIX),),
            np.eye(3) / 3,
            "^dimension mismatch: witness 3, state 4$",
        ),
        (
            lambda m: (witness_value(ENTRY_MATRIX, m),),
            np.eye(3) / 3,
            "^dimension mismatch: witness 4, state 3$",
        ),
        (_bound, np.eye(2) / 2, "^dimension mismatch: operator 2, structure 4$"),
        (lambda m: (partial_transpose(m, (1,), (2, 2)).matrix,), np.eye(3), DIMENSION),
        (lambda m: (min_pt_eigenvalue(m, [2, 2]),), np.eye(4, 3), DIMENSION),
        (
            lambda m: _bound(m, (2, 2)),
            np.eye(2) / 2,
            "^dimension mismatch: operator 2, structure 4$",
        ),
    ],
    ids=[
        "partial_transpose",
        "min_pt_eigenvalue",
        "eig_hermitian",
        "witness_from_operator",
        "witness_value-witness",
        "witness_value-state",
        "prove_product_minimum",
        "partial_transpose-dims",
        "min_pt_eigenvalue-dims",
        "prove_product_minimum-dims",
    ],
)
def test_operator_arguments_share_one_entry_rule(call, wrong_shape, message):
    # Every public function that takes an operator checks a plain matrix, an
    # ndarray or a nested list, as a HermitianOperator, and gives what the
    # operator gives.  A structure may be given as its local dimensions.
    expected = call(HermitianOperator(ENTRY_MATRIX))
    for given_matrix in (ENTRY_MATRIX, ENTRY_MATRIX.tolist()):
        got = call(given_matrix)
        assert len(got) == len(expected)
        assert all(np.array_equal(a, b) for a, b in zip(got, expected))
    with pytest.raises(ValueError, match="^matrix is not Hermitian"):
        call(ENTRY_MATRIX + np.triu(np.full((4, 4), 0.1), 1))
    nan = ENTRY_MATRIX.copy()
    nan[0, 0] = np.nan
    with pytest.raises(ValueError, match="^matrix entries are not finite$"):
        call(nan)
    with pytest.raises(ValueError, match=message):
        call(wrong_shape)


@pytest.mark.parametrize(
    "call",
    [
        lambda s: DensityMatrix(ENTRY_MATRIX, s),
        DensityMatrix.maximally_mixed,
        lambda s: DensityMatrix.from_pure([1.0, 0.0, 0.0, 1.0], s),
        lambda s: ProductState(([1.0, 0.0], [0.0, 1.0])).to_density(s),
        lambda s: sample_hs_density(s, 0),
        lambda s: sample_random_product_separable(s, 2, 0),
        all_bipartitions,
        lambda s: UPBSet("qubits", s, build_complete_basis((2, 2)).members).projector,
    ],
    ids=[
        "DensityMatrix",
        "maximally_mixed",
        "from_pure",
        "to_density",
        "sample_hs_density",
        "sample_random_product_separable",
        "all_bipartitions",
        "UPBSet",
    ],
)
def test_structure_arguments_share_one_entry_rule(call):
    # Every public function and type that takes a structure accepts its local
    # dimensions as a tuple or list and gives what the HilbertStructure gives;
    # anything else is a ValueError, not an AttributeError.
    expected = call(QUBITS)
    for dims in ((2, 2), [2, 2]):
        got = call(dims)
        if isinstance(expected, HermitianOperator):
            assert np.array_equal(got.matrix, expected.matrix)
            assert getattr(got, "structure", QUBITS).local_dims == (2, 2)
        else:
            assert got == expected
    message = "^structure must be a HilbertStructure or local dimensions, got 4$"
    with pytest.raises(ValueError, match=message):
        call(4)


@pytest.mark.parametrize("shape", [(4, 4), (9, 8)])
def test_min_pt_eigenvalue_rejects_a_plain_matrix_of_the_wrong_shape(shape):
    # numpy's reshape error would name neither the structure nor the operator.
    with pytest.raises(ValueError, match="^operator dimension does not match the structure$"):
        min_pt_eigenvalue(np.eye(*shape), HilbertStructure((3, 3)))


def test_all_bipartitions_count():
    assert len(all_bipartitions(HilbertStructure((2, 2)))) == 1
    assert len(all_bipartitions(HilbertStructure((2, 2, 2)))) == 3
    assert len(all_bipartitions(HilbertStructure((2, 2, 2, 2)))) == 7


def test_is_ppt_all_cuts_identity_three_qubits():
    structure = HilbertStructure((2, 2, 2))
    assert is_ppt(DensityMatrix.maximally_mixed(structure))
    assert all_bipartitions(structure) == ((1,), (2,), (1, 2))


def test_ghz_fails_every_cut():
    structure = HilbertStructure((2, 2, 2))
    ghz = np.zeros(8)
    ghz[0] = ghz[7] = 1.0 / np.sqrt(2.0)
    rho = DensityMatrix.from_pure(ghz, structure)
    assert not is_ppt(rho)
    assert abs(min_pt_eigenvalue(rho) - (-0.5)) < 1e-12
    for side in all_bipartitions(structure):
        lo = eig_hermitian(partial_transpose(rho, side)).eigenvalues[0]
        assert abs(lo - (-0.5)) < 1e-12


def test_separable_states_are_ppt_on_every_cut():
    for dims in ((3, 3), (2, 2, 2)):
        structure = HilbertStructure(dims)
        for t in range(25):
            rho = sample_random_product_separable(structure, 3, 99, trial=t)
            assert is_ppt(rho)


def test_purity_extremes():
    structure = HilbertStructure((2, 2))
    assert abs(purity(DensityMatrix.maximally_mixed(structure)) - 0.25) < 1e-14
    pure = DensityMatrix.from_pure(np.array([1.0, 0.0, 0.0, 0.0]), structure)
    assert abs(purity(pure) - 1.0) < 1e-14


def test_purity_of_noisy_pure_state():
    structure = HilbertStructure((3, 3))
    d = structure.total_dim
    pure = DensityMatrix.from_pure(np.eye(d)[0], structure)
    for mu in (0.1, 0.35, 0.8):
        m = mu * pure.matrix + (1 - mu) * np.eye(d) / d
        rho = DensityMatrix(m, structure)
        expected = 1.0 / d + mu**2 * (1.0 - 1.0 / d)
        assert abs(purity(rho) - expected) < 1e-13


def test_density_matrix_validation():
    structure = HilbertStructure((2, 2))
    with pytest.raises(ValueError, match="trace"):
        DensityMatrix(np.eye(4) / 2.0, structure)
    bad = np.diag([1.5, -0.5, 0.0, 0.0])
    with pytest.raises(ValueError, match="positive semidefinite"):
        DensityMatrix(bad, structure)
    with pytest.raises(ValueError, match="does not match"):
        DensityMatrix(np.eye(4) / 4.0, HilbertStructure((2, 4)))


def test_states_and_witnesses_are_read_only_hermitian_operators(tiles_witness):
    structure = HilbertStructure((3, 3))
    rho = DensityMatrix.maximally_mixed(structure)
    dec = eig_hermitian(tiles_witness)
    for arr in (rho.matrix, tiles_witness.matrix, dec.eigenvalues, dec.eigenvectors):
        with pytest.raises(ValueError, match="read-only"):
            arr[(0,) * arr.ndim] = 0.0
    assert isinstance(rho, HermitianOperator) and isinstance(tiles_witness, HermitianOperator)
    recon = (dec.eigenvectors * dec.eigenvalues) @ dec.eigenvectors.conj().T
    assert np.abs(recon - tiles_witness.matrix).max() < 1e-12
    pt = partial_transpose(tiles_witness, (1,), structure)
    assert abs(pt.trace - 1.0) < 1e-12
    assert np.array_equal(partial_transpose(pt, (1,), structure).matrix, tiles_witness.matrix)
    skew = np.eye(4) / 4
    skew[0, 1] = 0.1
    with pytest.raises(ValueError, match="not Hermitian"):
        DensityMatrix(skew, HilbertStructure((2, 2)))
    with pytest.raises(RuntimeError, match="part-trace identity"):
        Witness(np.eye(2) / 2, 1, 0, 0.5, 0.0, 0.5)


@pytest.mark.parametrize(
    "vector", [[1e-200, 0, 0, 0], [1e200, 0, 0, 0], [1e-170, 1e-170, 0, 0]]
)
def test_from_pure_at_extreme_scales(vector):
    unit = np.sign(vector) / np.linalg.norm(np.sign(vector))
    rho = DensityMatrix.from_pure(vector, HilbertStructure((2, 2)))
    assert np.abs(rho.matrix - np.outer(unit, unit)).max() < 1e-15
