"""Unextendible product bases and the bound entangled states they generate.

Catalog entries are defined directly in code and re-validated when built
(orthonormality of members, projector consistency), so nothing is trusted to
transcription.  New sets can be registered through ``UPBSet.from_vectors``,
which runs the same checks.  Unextendibility means that the minimum
product-state overlap of the span projector is strictly positive.  The
multistart descent of the witness module only estimates that minimum from
above, so it cannot prove it; ``proof.prove_product_minimum`` bounds it from
below, and lambda_lower > 0 is the certificate.  The proof is computed on
demand rather than at construction; the test suite proves tiles, pyramid and
shifts.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import reduce

import numpy as np

from .operators import DensityMatrix, HermitianOperator, HilbertStructure, _frozen, _structure

GRAM_ATOL = 1e-10
UNIT_NORM_ATOL = 1e-12


@dataclass(frozen=True, eq=False)
class ProductState:
    """One unit vector per subsystem; the joint state is their tensor product."""

    local_vectors: tuple[np.ndarray, ...]

    def __post_init__(self):
        vecs = []
        for v in self.local_vectors:
            arr = np.array(v, dtype=complex).reshape(-1)
            if not np.isfinite(arr).all():
                raise ValueError("local vector entries are not finite")
            nrm = float(np.linalg.norm(arr))
            if abs(nrm - 1.0) > UNIT_NORM_ATOL:
                raise ValueError(f"local vector norm {nrm!r} is not 1")
            vecs.append(_frozen(arr))
        object.__setattr__(self, "local_vectors", tuple(vecs))

    @property
    def local_dims(self) -> tuple[int, ...]:
        return tuple(v.size for v in self.local_vectors)

    @property
    def full_vector(self) -> np.ndarray:
        return reduce(np.kron, self.local_vectors)

    def fidelity(self, other: "ProductState") -> float:
        """|<self|other>|^2; both states must have the same local dimensions."""
        if self.local_dims != other.local_dims:
            raise ValueError(
                f"structure mismatch: local dims {self.local_dims} and {other.local_dims}"
            )
        out = 1.0
        for a, b in zip(self.local_vectors, other.local_vectors):
            out *= float(abs(np.vdot(a, b)) ** 2)
        return out

    def to_density(self, structure: HilbertStructure | tuple | None = None) -> DensityMatrix:
        structure = self.local_dims if structure is None else structure
        return DensityMatrix.from_pure(self.full_vector, structure)


@dataclass(frozen=True, eq=False)
class UPBSet:
    """Named orthonormal product-vector set with its cached span projector."""

    name: str
    structure: HilbertStructure
    members: tuple[ProductState, ...]
    projector: HermitianOperator = field(init=False)

    def __post_init__(self):
        object.__setattr__(self, "structure", _structure(self.structure))
        members = tuple(self.members)
        if not members:
            raise ValueError("a product-vector set needs at least one member")
        for m in members:
            if m.local_dims != self.structure.local_dims:
                raise ValueError(
                    f"member dimensions {m.local_dims} do not match "
                    f"structure {self.structure.local_dims}"
                )
        full = np.column_stack([m.full_vector for m in members])
        gram = full.conj().T @ full
        dev = float(np.abs(gram - np.eye(len(members))).max())
        if dev > GRAM_ATOL:
            raise ValueError(f"product vectors are not orthonormal: Gram deviation {dev:.3e}")
        object.__setattr__(self, "members", members)
        object.__setattr__(self, "projector", HermitianOperator(full @ full.conj().T))

    @property
    def cardinality(self) -> int:
        return len(self.members)

    @property
    def total_dim(self) -> int:
        return self.structure.total_dim

    @property
    def n_parties(self) -> int:
        return self.structure.n_parties

    def local_matrix(self, party: int) -> np.ndarray:
        """Member vectors of one subsystem stacked as rows, shape (n, d_party)."""
        return np.array([m.local_vectors[party] for m in self.members])

    @classmethod
    def from_vectors(cls, name: str, local_dims, vectors) -> "UPBSet":
        """Build and validate a set from raw per-party vectors.

        ``vectors`` iterates over members; each member is an iterable of one
        vector per subsystem.
        """
        members = tuple(ProductState(tuple(v for v in member)) for member in vectors)
        return cls(name, tuple(local_dims), members)

    def to_json_dict(self) -> dict:
        """Export as plain data with complex entries encoded as [re, im] pairs."""
        return {
            "name": self.name,
            "local_dims": list(self.structure.local_dims),
            "members": [[_pairs(vec) for vec in m.local_vectors] for m in self.members],
        }


def _pairs(vec) -> list[list[float]]:
    """A complex vector as a list of [re, im] pairs of floats, the export encoding."""
    return [[float(z.real), float(z.imag)] for z in vec]


def build_tiles() -> UPBSet:
    """Five-member 3x3 set: four domino-shaped vectors plus a uniform stopper."""
    e = np.eye(3)
    m01 = (e[0] - e[1]) / np.sqrt(2.0)
    m12 = (e[1] - e[2]) / np.sqrt(2.0)
    uni = np.ones(3) / np.sqrt(3.0)
    vectors = [
        (e[0], m01),
        (e[2], m12),
        (m01, e[2]),
        (m12, e[0]),
        (uni, uni),
    ]
    return UPBSet.from_vectors("tiles", (3, 3), vectors)


def build_pyramid() -> UPBSet:
    """Five-member 3x3 set from a regular pentagon lifted out of plane.

    Local vectors are v_j ~ (cos(2 pi j / 5), sin(2 pi j / 5), h) with the
    height fixed by next-nearest-neighbour orthogonality <v_j|v_{j+2}> = 0,
    i.e. h^2 = -cos(4 pi / 5); member j pairs v_j with v_{2j mod 5}.
    """
    h = np.sqrt(-np.cos(4 * np.pi / 5))
    raw = [
        np.array([np.cos(2 * np.pi * j / 5), np.sin(2 * np.pi * j / 5), h])
        for j in range(5)
    ]
    v = [r / np.linalg.norm(r) for r in raw]
    vectors = [(v[j], v[(2 * j) % 5]) for j in range(5)]
    return UPBSet.from_vectors("pyramid", (3, 3), vectors)


def build_shifts() -> UPBSet:
    """Four-member 2x2x2 set: cyclic shifts of |0,1,+> plus the all-minus state."""
    zero = np.array([1.0, 0.0])
    one = np.array([0.0, 1.0])
    plus = np.array([1.0, 1.0]) / np.sqrt(2.0)
    minus = np.array([1.0, -1.0]) / np.sqrt(2.0)
    vectors = [
        (zero, one, plus),
        (one, plus, zero),
        (plus, zero, one),
        (minus, minus, minus),
    ]
    return UPBSet.from_vectors("shifts", (2, 2, 2), vectors)


def build_complete_basis(local_dims) -> UPBSet:
    """Full computational product basis (n = D); its minimum overlap is exactly 1."""
    dims = HilbertStructure(tuple(local_dims)).local_dims
    name = "complete-" + "x".join(str(d) for d in dims)
    eyes = [np.eye(d) for d in dims]
    vectors = [
        tuple(eyes[k][i] for k, i in enumerate(idx)) for idx in np.ndindex(*dims)
    ]
    return UPBSet.from_vectors(name, dims, vectors)


def omega_state(upb: UPBSet) -> DensityMatrix:
    """Normalized projector onto the orthogonal complement of the set's span.

    Eigenvalues are 0 with multiplicity n and 1/(D - n) with multiplicity
    D - n, so every member has exactly zero overlap with the state.
    """
    d, n = upb.total_dim, upb.cardinality
    if n >= d:
        raise ValueError(
            "the set spans the whole space (n = D); its complement state is undefined"
        )
    m = (np.eye(d) - upb.projector.matrix) / (d - n)
    return DensityMatrix(m, upb.structure)


CATALOG = {
    "tiles": build_tiles,
    "pyramid": build_pyramid,
    "shifts": build_shifts,
    "complete-2x2": lambda: build_complete_basis((2, 2)),
}


def get_upb(name: str) -> UPBSet:
    try:
        builder = CATALOG[name]
    except KeyError:
        known = ", ".join(sorted(CATALOG))
        raise ValueError(f"unknown product-basis set {name!r} (known: {known})") from None
    return builder()
