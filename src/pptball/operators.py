"""Hermitian operator core: tensor structure, partial transposition, spectra.

Composite indices follow the row-major convention: the basis vector
|i1, ..., in> of a system with local dimensions (d1, ..., dn) sits at flat
index ((i1 * d2 + i2) * d3 + ...), which is what ``numpy.kron`` and C-ordered
``reshape`` produce.

Every value is immutable after construction and safe to share between
threads; all operations here are pure functions of their inputs.  Each kind
of public argument has one entry check here, raising ValueError: ``_integer``,
``_real``, ``_sequence``, ``_structure``, ``_operator`` and ``_state``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations

import numpy as np

HERMITICITY_ATOL = 1e-12  # x max(1, max |A_ij|): rounding in A - A^dag grows with A's entries
TRACE_ATOL = 1e-10
PSD_TOL = 1e-9
DECOMPOSITION_ATOL = 1e-10  # residual x max(1, max |A_ij|), for the same reason; Gram absolute


def _frozen(arr: np.ndarray) -> np.ndarray:
    arr.setflags(write=False)
    return arr


def _integer(value, what: str, floor: int | None = None) -> int:
    """``value`` as an int of at least ``floor``; Python and numpy integers pass.

    This is the one entry check for counts, seeds, indices and dimensions.
    bool subclasses int in Python but is rejected, as numpy's bool already is.
    """
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ValueError(f"{what} must be an integer, got {value!r}")
    value = int(value)
    if floor is not None and value < floor:
        raise ValueError(f"{what} must be at least {floor}, got {value}")
    return value


def _real(value, what: str) -> float:
    """``value`` as a float; Python and numpy integers and floats pass.

    The entry check for real parameters such as lambda; bool, str and
    complex values are rejected.  Range and finiteness are the caller's checks.
    """
    if isinstance(value, bool) or not isinstance(value, (int, float, np.integer, np.floating)):
        raise ValueError(f"{what} must be a real number, got {value!r}")
    return float(value)


def _complex(value, what: str) -> np.ndarray:
    """``value`` as a new complex array; entries that are not numbers raise ValueError."""
    try:
        return np.array(value, dtype=complex)
    except TypeError:  # numpy's "must be real number, not dict"
        raise ValueError(f"{what} entries are not numbers") from None


def _sequence(value, what: str) -> tuple:
    """``value``, any iterable such as a generator or array, as a tuple of at least one item."""
    try:
        items = iter(value)
    except TypeError:
        raise ValueError(f"expected a sequence of {what}, got {value!r}") from None
    items = tuple(items)
    _integer(len(items), f"number of {what}", 1)
    return items


@dataclass(frozen=True, eq=False)
class HilbertStructure:
    """Ordered local dimensions (d1, ..., dn) of a composite system."""

    local_dims: tuple[int, ...]

    def __post_init__(self):
        dims = _sequence(self.local_dims, "subsystems")
        dims = tuple(_integer(d, "local dimension", 2) for d in dims)
        object.__setattr__(self, "local_dims", dims)

    @property
    def total_dim(self) -> int:
        return math.prod(self.local_dims)

    @property
    def n_parties(self) -> int:
        return len(self.local_dims)


def _structure(value) -> HilbertStructure:
    """The one entry check for structures: a tuple or list of local dimensions builds one."""
    if isinstance(value, HilbertStructure):
        return value
    if isinstance(value, (tuple, list)):
        return HilbertStructure(tuple(value))
    raise ValueError(f"structure must be a HilbertStructure or local dimensions, got {value!r}")


def all_bipartitions(structure: HilbertStructure | tuple) -> tuple[tuple[int, ...], ...]:
    """Transposed sides of the 2**(n-1) - 1 distinct splits; subsystem 0 is never transposed."""
    n = _integer(_structure(structure).n_parties, "number of subsystems", 2)
    return tuple(side for r in range(1, n) for side in combinations(range(1, n), r))


@dataclass(frozen=True, eq=False)
class HermitianOperator:
    """Square complex matrix with max |A - A^dag| <= HERMITICITY_ATOL x max(1, max |A_ij|)."""

    matrix: np.ndarray

    def __post_init__(self):
        m = _complex(self.matrix, "matrix")
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ValueError(f"expected a square matrix, got shape {m.shape}")
        _integer(m.shape[0], "dimension", 1)
        if not np.isfinite(m).all():
            raise ValueError("matrix entries are not finite")
        dev = float(np.abs(m - m.conj().T).max())
        if dev > HERMITICITY_ATOL * max(1.0, float(np.abs(m).max())):
            raise ValueError(f"matrix is not Hermitian: max |A - A^dag| = {dev:.3e}")
        object.__setattr__(self, "matrix", _frozen(m))

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    @property
    def trace(self) -> float:
        return float(np.trace(self.matrix).real)


def _operator(value) -> HermitianOperator:
    """The one entry check for operator arguments: a plain matrix (any array-like) is validated."""
    return value if isinstance(value, HermitianOperator) else HermitianOperator(value)


@dataclass(frozen=True, eq=False)
class DensityMatrix(HermitianOperator):
    """Unit-trace positive-semidefinite Hermitian operator on a composite space."""

    structure: HilbertStructure

    def __post_init__(self):
        super().__post_init__()
        object.__setattr__(self, "structure", _structure(self.structure))
        if self.dim != self.structure.total_dim:
            raise ValueError(
                f"operator dimension {self.dim} does not match "
                f"structure total dimension {self.structure.total_dim}"
            )
        if abs(self.trace - 1.0) > TRACE_ATOL:
            raise ValueError(f"trace must be 1, got {self.trace!r}")
        lo = float(_lowest_eigenvalues(self.matrix))
        if lo < -PSD_TOL:
            raise ValueError(f"not positive semidefinite: min eigenvalue {lo:.3e}")

    @classmethod
    def maximally_mixed(cls, structure: HilbertStructure | tuple) -> "DensityMatrix":
        d = _structure(structure).total_dim
        return cls(np.eye(d) / d, structure)

    @classmethod
    def from_pure(cls, vector, structure: HilbertStructure | tuple) -> "DensityMatrix":
        v = _complex(vector, "vector").reshape(-1)
        if not np.isfinite(v).all() or not v.any():
            raise ValueError("vector entries are not finite, or all zero")
        # Scale to unit max modulus first: the norm squares the entries, which
        # underflows or overflows at extreme scales.
        v = v / np.abs(v).max()
        v = v / np.linalg.norm(v)
        return cls(np.outer(v, v.conj()), structure)


@dataclass(frozen=True, eq=False)
class EigenDecomposition:
    """Ascending eigenvalues with matching orthonormal eigenvector columns.

    Within a degenerate cluster the eigenvectors are an arbitrary orthonormal
    basis of that eigenspace; downstream uses (traces, projectors, extremal
    eigenvalues) do not depend on the choice.
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray


def _lowest_eigenvalues(m: np.ndarray) -> np.ndarray:
    """Smallest eigenvalue of a Hermitian matrix, or of each in a stack (..., d, d); unchecked.

    Reads the lower triangle (``np.linalg.eigvalsh``, looked up per call), or at 2x2 only
    the diagonal and the upper entry m[0, 1]: (a + d)/2 - hypot((a - d)/2, |b|).
    """
    if m.shape[-1] == 2:
        a, d = m[..., 0, 0].real, m[..., 1, 1].real
        return 0.5 * (a + d) - np.hypot(0.5 * (a - d), np.abs(m[..., 0, 1]))
    return np.linalg.eigvalsh(m)[..., 0]


def eig_hermitian(op: HermitianOperator | np.ndarray) -> EigenDecomposition:
    """Full spectral decomposition of a Hermitian operator or plain matrix.

    Eigenvalues come back ascending; column k of ``eigenvectors`` belongs to
    eigenvalue k.  Before returning, the reconstruction V diag(w) V^dag is checked
    against DECOMPOSITION_ATOL x max(1, max |A_ij|) and the eigenvector Gram matrix
    against DECOMPOSITION_ATOL.
    """
    op = _operator(op)
    vals, vecs = np.linalg.eigh(op.matrix)
    recon = (vecs * vals) @ vecs.conj().T
    resid = float(np.abs(recon - op.matrix).max())
    gram = float(np.abs(vecs.conj().T @ vecs - np.eye(op.dim)).max())
    scale = max(1.0, float(np.abs(op.matrix).max()))
    if resid > DECOMPOSITION_ATOL * scale or gram > DECOMPOSITION_ATOL:
        raise RuntimeError(
            f"eigendecomposition contract violated: residual {resid:.3e}, gram {gram:.3e}"
        )
    return EigenDecomposition(_frozen(vals), _frozen(vecs.astype(complex)))


def _partial_transposes(matrix, local_dims, cuts) -> np.ndarray:
    """Partial transposes of ``matrix`` on each transposed side in ``cuts``, as one (C, d, d) stack."""
    n, d = len(local_dims), matrix.shape[0]
    t = matrix.reshape(tuple(local_dims) * 2)
    # Axes k and n + k (party k's ket and bra index) swap places for each k on the side.
    axes = [[(k + n) % (2 * n) if k % n in side else k for k in range(2 * n)] for side in cuts]
    return np.array([t.transpose(a) for a in axes]).reshape(len(cuts), d, d)


def _kron_rows(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Kronecker products of each row of a (C, A, m) with each row of b (C, B, k): (C, AB, mk)."""
    out = a[:, :, None, :, None] * b[:, None, :, None, :]
    return out.reshape(out.shape[0], out.shape[1] * out.shape[2], -1)


def _structure_of(rho, structure) -> HilbertStructure:
    """A density matrix's own structure, which an explicit one must match, or the explicit one."""
    structure = structure if structure is None else _structure(structure)
    if isinstance(rho, DensityMatrix):
        if structure is not None and structure.local_dims != rho.structure.local_dims:
            raise ValueError(
                f"explicit structure {structure.local_dims} does not match "
                f"the state's {rho.structure.local_dims}"
            )
        return rho.structure
    if structure is None:
        raise ValueError("a bare operator or plain matrix needs an explicit structure")
    if np.shape(getattr(rho, "matrix", rho)) != (structure.total_dim,) * 2:
        raise ValueError("operator dimension does not match the structure")
    return structure


def _state(value, structure=None) -> DensityMatrix:
    """The one entry check for states: a matching DensityMatrix passes, any other is validated."""
    structure, matrix = _structure_of(value, structure), getattr(value, "matrix", value)
    return value if isinstance(value, DensityMatrix) else DensityMatrix(matrix, structure)


def partial_transpose(
    rho: HermitianOperator | np.ndarray,
    side: tuple[int, ...],
    structure: HilbertStructure | tuple | None = None,
) -> HermitianOperator:
    """Transpose bra/ket indices of the subsystems in ``side`` in the product basis.

    Trace-preserving, Hermiticity-preserving, and an involution.  ``side``
    must be a nonempty proper subset of the subsystem indices.  A bare operator
    (e.g. a previous partial transpose) or plain matrix needs an explicit
    ``structure`` or its dimensions; density matrices carry their own, which one passed must match.
    """
    structure = _structure_of(rho, structure)
    rho = _operator(rho)
    side = _sequence(side, "transposed subsystems")
    side = tuple(sorted(_integer(k, "subsystem index") for k in side))
    n = structure.n_parties
    if len(set(side)) != len(side):
        raise ValueError(f"duplicate subsystem indices in {side}")
    if side[0] < 0 or side[-1] >= n:
        raise ValueError(f"subsystem indices {side} out of range for {n} parties")
    if len(side) == n:
        raise ValueError("transposed side must be a proper subset of the subsystems")
    return HermitianOperator(_partial_transposes(rho.matrix, structure.local_dims, [side])[0])


def min_pt_eigenvalue(
    rho: HermitianOperator | np.ndarray, structure: HilbertStructure | tuple | None = None
) -> float:
    """Smallest partial-transpose eigenvalue over every bipartition.

    Takes a density matrix, or a bare Hermitian operator or plain matrix
    together with its structure or dimensions.  A structure passed with a
    density matrix must match it.
    """
    structure = _structure_of(rho, structure)
    matrix = _operator(rho).matrix
    return _min_pt_eigenvalue(matrix, structure.local_dims, all_bipartitions(structure))


def _min_pt_eigenvalue(matrix: np.ndarray, local_dims, cuts) -> float:
    """Smallest eigenvalue of ``matrix``'s partial transposes on ``cuts``, in one stacked solve."""
    return min(_lowest_eigenvalues(_partial_transposes(matrix, local_dims, cuts)).tolist())


def is_ppt(rho: DensityMatrix) -> bool:
    """True iff every partial transpose has min eigenvalue >= -PSD_TOL."""
    return min_pt_eigenvalue(rho) >= -PSD_TOL


def _trace_product(a: np.ndarray, b: np.ndarray) -> float:
    """Tr(A B) for Hermitian matrices of one shape, unchecked: the one kernel of Tr(AB)."""
    return float(np.vdot(a, b).real)


def purity(rho: HermitianOperator | np.ndarray) -> float:
    """Tr(rho^2); ranges over [1/D, 1] on states.  A plain matrix is checked by ``_operator``."""
    m = _operator(rho).matrix
    return _trace_product(m, m)


def witness_value(w: HermitianOperator | np.ndarray, rho: HermitianOperator | np.ndarray) -> float:
    """Tr(W rho) for Hermitian operators; a plain matrix is checked by ``_operator``."""
    w, rho = _operator(w), _operator(rho)
    if w.dim != rho.dim:
        raise ValueError(f"dimension mismatch: witness {w.dim}, state {rho.dim}")
    return _trace_product(w.matrix, rho.matrix)
