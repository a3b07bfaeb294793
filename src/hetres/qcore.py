"""Dense complex Hermitian linear algebra on small multipartite systems.

Everything here works on explicit numpy arrays at dimensions <= 16.  States
carry a :class:`TensorStructure` naming the parties; ``partial_trace``,
``partial_transpose`` and ``embed_operator`` address a party by its label,
while ``partial_trace_mat`` and ``partial_transpose_mat``, which the engines
call on bare matrices and stacks, take local dimensions and party indices.
All entropic quantities are in bits (log base 2).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

HERMITICITY_TOL = 1e-10
TRACE_TOL = 1e-10
PSD_TOL = 1e-10
EIG_FLOOR = 1e-12
SUPPORT_TOL = 1e-10


def as_complex(mat) -> np.ndarray:
    """A square matrix, or a stack (..., d, d) of them, as a complex array."""
    m = np.asarray(mat, dtype=complex)
    if m.ndim < 2 or m.shape[-2] != m.shape[-1]:
        raise ValueError(f"expected a square matrix, got shape {m.shape}")
    return m


def check_hermitian(mat: np.ndarray, tol: float = HERMITICITY_TOL) -> np.ndarray:
    """Return ``mat`` as a complex array after checking M = M^dag within tol."""
    m = as_complex(mat)
    dev = float(np.max(np.abs(m - np.swapaxes(m.conj(), -1, -2))))
    if dev > tol:
        raise ValueError(f"matrix is not Hermitian (deviation {dev:.3e} > {tol:.1e})")
    return m


@dataclass(frozen=True)
class TensorStructure:
    """Ordered party labels with local dimensions.

    The declaration order is canonical: axes of the underlying arrays follow
    it, and relabeling is only ever done through :func:`permute_parties`.
    """

    parties: tuple[tuple[str, int], ...]

    def __init__(self, parties: Iterable[tuple[str, int]]):
        parties = tuple((str(lbl), int(d)) for lbl, d in parties)
        labels = [lbl for lbl, _ in parties]
        if len(set(labels)) != len(labels):
            raise ValueError(f"party labels must be unique, got {labels}")
        if any(d <= 0 for _, d in parties):
            raise ValueError("party dimensions must be positive")
        object.__setattr__(self, "parties", parties)

    @property
    def labels(self) -> tuple[str, ...]:
        return tuple(lbl for lbl, _ in self.parties)

    @property
    def dims(self) -> tuple[int, ...]:
        return tuple(d for _, d in self.parties)

    @property
    def dim(self) -> int:
        return int(np.prod(self.dims))

    def index(self, label: str) -> int:
        for i, (lbl, _) in enumerate(self.parties):
            if lbl == label:
                return i
        raise KeyError(f"unknown party label {label!r} (have {self.labels})")

    def local_dim(self, label: str) -> int:
        return self.parties[self.index(label)][1]

    def concat(self, other: "TensorStructure") -> "TensorStructure":
        return TensorStructure(self.parties + other.parties)


def single_party(dim: int, label: str = "0") -> TensorStructure:
    return TensorStructure([(label, dim)])


@dataclass(frozen=True)
class DensityOperator:
    """A density matrix together with its party structure.

    Construction validates Hermiticity, positivity (eigenvalues >= -1e-10)
    and unit trace.  Instances are immutable and safe to share.
    """

    mat: np.ndarray
    structure: TensorStructure

    def __post_init__(self):
        m = check_hermitian(self.mat)
        object.__setattr__(self, "mat", 0.5 * (m + m.conj().T))
        if self.structure.dim != m.shape[0]:
            raise ValueError(
                f"structure dim {self.structure.dim} != matrix dim {m.shape[0]}"
            )
        tr = float(np.real(np.trace(self.mat)))
        if abs(tr - 1.0) > TRACE_TOL:
            raise ValueError(f"trace {tr} is not 1 within {TRACE_TOL:.1e}")
        lam = np.linalg.eigvalsh(self.mat)
        if lam[0] < -PSD_TOL:
            raise ValueError(f"negative eigenvalue {lam[0]:.3e}")

    @property
    def dim(self) -> int:
        return self.mat.shape[0]


def as_matrix(x) -> np.ndarray:
    """The matrix of a :class:`DensityOperator`, or an array as by :func:`as_complex`."""
    return x.mat if isinstance(x, DensityOperator) else as_complex(x)


def density(mat, structure: TensorStructure | None = None) -> DensityOperator:
    m = as_complex(mat)
    if structure is None:
        structure = single_party(m.shape[0])
    return DensityOperator(m, structure)


def pure_state(vec, structure: TensorStructure | None = None) -> DensityOperator:
    v = np.asarray(vec, dtype=complex).reshape(-1)
    v = v / np.linalg.norm(v)
    return density(np.outer(v, v.conj()), structure)


def maximally_mixed(structure: TensorStructure) -> DensityOperator:
    d = structure.dim
    return DensityOperator(np.eye(d, dtype=complex) / d, structure)


# ---------------------------------------------------------------------------
# tensor bookkeeping


def kron(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Kronecker product of the last two axes of ``a`` and ``b``, broadcast
    over leading stack axes: one broadcast forms the element products that
    numpy's kron forms, so the result is bit-identical to it on matrices."""
    a, b = np.asarray(a), np.asarray(b)
    out = a[..., :, None, :, None] * b[..., None, :, None, :]
    return out.reshape(out.shape[:-4] + (a.shape[-2] * b.shape[-2], a.shape[-1] * b.shape[-1]))


def tensor(a: DensityOperator, b: DensityOperator) -> DensityOperator:
    """Kronecker product with concatenated party structure."""
    return DensityOperator(kron(a.mat, b.mat), a.structure.concat(b.structure))


def partial_trace_mat(mat: np.ndarray, dims: Sequence[int], keep: Sequence[int]) -> np.ndarray:
    """Partial trace of each matrix in a stack (..., d, d) over all axes not in ``keep``."""
    m, n = as_complex(mat), len(dims)
    lead = m.shape[:-2]
    t = m.reshape(lead + tuple(dims) * 2)
    traced = [i for i in range(n) if i not in keep]
    for off, i in enumerate(traced):
        t = np.trace(t, axis1=len(lead) + i - off, axis2=len(lead) + i - off + n - off)
    d_keep = math.prod(dims[i] for i in keep)
    return t.reshape(lead + (d_keep, d_keep))


def partial_trace(rho: DensityOperator, keep: Sequence[str]) -> DensityOperator:
    """Trace out every party not listed in ``keep``.

    Raises ``KeyError`` on an unknown label.  The kept parties retain their
    declaration order.
    """
    idx = sorted(rho.structure.index(lbl) for lbl in keep)
    if not idx:
        raise ValueError("must keep at least one party")
    out_mat = partial_trace_mat(rho.mat, rho.structure.dims, idx)
    out_struct = TensorStructure([rho.structure.parties[i] for i in idx])
    return DensityOperator(out_mat, out_struct)


def partial_transpose_mat(mat: np.ndarray, dims: Sequence[int], party: int) -> np.ndarray:
    """Transpose one party's factor of each matrix in a stack (..., d, d)."""
    m = as_complex(mat)
    lead = m.shape[:-2]
    t = m.reshape(lead + tuple(dims) * 2)
    t = np.swapaxes(t, len(lead) + party, len(lead) + party + len(dims))
    return t.reshape(m.shape)


def partial_transpose(rho: DensityOperator, party: str) -> np.ndarray:
    """Transpose one party's factor; Hermitian and trace preserving, but
    possibly indefinite (that indefiniteness is the entanglement test)."""
    i = rho.structure.index(party)
    return partial_transpose_mat(rho.mat, rho.structure.dims, i)


def permutation_matrix(structure: TensorStructure, new_order: Sequence[str]) -> np.ndarray:
    """Unitary that reorders the parties of ``structure`` into ``new_order``."""
    perm = [structure.index(lbl) for lbl in new_order]
    if sorted(perm) != list(range(len(structure.parties))):
        raise ValueError("new_order must be a permutation of the party labels")
    dims = structure.dims
    d = structure.dim
    eye = np.eye(d).reshape(tuple(dims) + (d,))
    eye = np.transpose(eye, tuple(perm) + (len(dims),))
    return eye.reshape(d, d).astype(complex)


def permute_parties(rho: DensityOperator, new_order: Sequence[str]) -> DensityOperator:
    p = permutation_matrix(rho.structure, new_order)
    struct = TensorStructure([rho.structure.parties[rho.structure.index(l)] for l in new_order])
    return DensityOperator(p @ rho.mat @ p.conj().T, struct)


def embed_operator(op: np.ndarray, structure: TensorStructure, party: str) -> np.ndarray:
    """Embed a single-party operator as op (x) identity on the full space."""
    i = structure.index(party)
    dims = structure.dims
    if op.shape != (dims[i], dims[i]):
        raise ValueError(f"operator shape {op.shape} does not match party dim {dims[i]}")
    return kron_all(op if j == i else np.eye(d) for j, d in enumerate(dims))


def hermitian_basis(n: int, restrict: str | None) -> np.ndarray:
    """Frobenius-orthonormal basis of the Hermitian, or ``restrict``ed, n x n
    matrices: for each pair a <= b in row order, the symmetric unit (1 on
    the diagonal, sqrt(1/2) off it), then, unrestricted and a < b, its
    antisymmetric partner i sqrt(1/2) (|a><b| - |b><a|)."""
    units = [(a, b, part) for a in range(n) for b in range(a, a + 1 if restrict == "diagonal" else n)
             for part in ((0, 1) if restrict is None and a != b else (0,))]
    if not units:
        return np.zeros((0, n, n))
    a, b, part = np.array(units).T
    half = math.sqrt(0.5)
    upper = np.where(a == b, 1.0, half).astype(float if restrict else complex)
    lower = upper.copy()
    if restrict is None:  # the antisymmetric units, signed zeros as in 1j * (e - e^T)
        upper[part == 1], lower[part == 1] = 1j * half, complex(-0.0, -half)
    out = np.zeros((len(units), n, n), dtype=upper.dtype)
    out[np.arange(len(units)), a, b], out[np.arange(len(units)), b, a] = upper, lower
    return out


def kron_all(mats: Iterable[np.ndarray]) -> np.ndarray:
    """Kronecker product in order; the 1x1 identity for no factors."""
    return functools.reduce(kron, mats, np.array([[1.0 + 0j]]))


def spanning_states(dims: Sequence[int]) -> np.ndarray:
    """The d^2 product pure states over local dimensions ``dims`` whose
    projectors span the matrices: |a>, (|a> + |b>)/sqrt2 and (|a> + i|b>)/sqrt2
    on each party, so |0>, |1>, |+>, |+i> on a qubit."""
    vecs = np.ones((1, 1))
    for d in dims:
        e, (a, b) = np.eye(d), np.triu_indices(d, 1)
        local = np.concatenate([e, (e[a] + e[b]) / np.sqrt(2.0), (e[a] + 1j * e[b]) / np.sqrt(2.0)])
        vecs = (vecs[:, None, :, None] * local[None, :, None, :]).reshape(-1, vecs.shape[1] * d)
    return vecs[:, :, None] * vecs.conj()[:, None, :]


# ---------------------------------------------------------------------------
# spectral helpers and entropies


def eig_hermitian(mat: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigendecomposition M = V diag(w) V^dag of a Hermitian matrix, backed by
    LAPACK through numpy."""
    m = check_hermitian(mat)
    w, v = np.linalg.eigh(m)
    return w, v


def von_neumann_entropy(rho: DensityOperator | np.ndarray) -> float:
    """S(rho) = -sum lambda log2 lambda in bits, treating lambda <= 1e-12 as 0."""
    m = rho.mat if isinstance(rho, DensityOperator) else check_hermitian(rho)
    lam = np.linalg.eigvalsh(m)
    lam = lam[lam > EIG_FLOOR]
    return float(-np.sum(lam * np.log2(lam))) if lam.size else 0.0


def relative_entropy(rho, sigma) -> float | np.ndarray:
    """Quantum relative entropy D(rho || sigma) = Tr rho (log2 rho - log2 sigma).

    Returns +inf iff the support of rho leaks outside the support of sigma
    (kernel overlap beyond 1e-10).  ``sigma`` may be a stack (..., d, d):
    rho is then eigensolved once, the stack in one ``eigh``, and the result
    is an array of shape (...); for one matrix it is a float.
    """
    a = as_matrix(rho)
    b = as_matrix(sigma)
    if a.shape != b.shape[-2:]:
        raise ValueError("dimension mismatch")
    term_rho = -von_neumann_entropy(a)
    wb, vb = eig_hermitian(b)
    diag_rho = np.real(np.einsum("...ji,jk,...ki->...i", vb.conj(), a, vb))
    overlap = np.sum(np.where(wb <= EIG_FLOOR, diag_rho, 0.0), axis=-1)
    logs = np.log2(np.clip(wb, EIG_FLOOR, None))
    values = np.where(overlap > SUPPORT_TOL, np.inf, term_rho - np.einsum("...i,...i->...", diag_rho, logs))
    return float(values) if values.ndim == 0 else values


def dephase(rho: DensityOperator, basis: np.ndarray | None = None) -> DensityOperator:
    """Kill all off-diagonal elements in the given orthonormal basis.

    ``basis`` is a unitary whose columns are the basis vectors; ``None``
    means the computational basis.
    """
    if basis is None:
        out = np.diag(np.diag(rho.mat))
    else:
        b = as_complex(basis)
        if float(np.max(np.abs(b.conj().T @ b - np.eye(b.shape[0])))) > HERMITICITY_TOL:
            raise ValueError("basis is not orthonormal within 1e-10")
        out = b @ np.diag(np.diag(b.conj().T @ rho.mat @ b)) @ b.conj().T
    return DensityOperator(out, rho.structure)


def trace_norm(mat: np.ndarray) -> float | np.ndarray:
    """||m||_1 of a Hermitian matrix, a float, or of each matrix of a stack
    (..., d, d), an array of shape (...), in one eigensolve."""
    norms = np.sum(np.abs(np.linalg.eigvalsh(check_hermitian(mat))), axis=-1)
    return float(norms) if norms.ndim == 0 else norms


def trace_norm_distance(a, b) -> float:
    """||a - b||_1 via an eigensolve of the difference; lies in [0, 2] for states."""
    ma, mb = as_matrix(a), as_matrix(b)
    if ma.shape != mb.shape:
        raise ValueError("dimension mismatch")
    return trace_norm(ma - mb)


# ---------------------------------------------------------------------------
# common states and gates

KET0 = np.array([1.0, 0.0], dtype=complex)
KET1 = np.array([0.0, 1.0], dtype=complex)
KET_PLUS = np.array([1.0, 1.0], dtype=complex) / np.sqrt(2.0)
KET_MINUS = np.array([1.0, -1.0], dtype=complex) / np.sqrt(2.0)
KET_PLUS_Y = np.array([1.0, 1.0j], dtype=complex) / np.sqrt(2.0)

PAULI_X = np.array([[0, 1], [1, 0]], dtype=complex)
HADAMARD = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2.0)
CNOT = np.array(
    [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]], dtype=complex
)


def bell_phi_plus_vec(d: int = 2) -> np.ndarray:
    v = np.zeros(d * d, dtype=complex)
    for i in range(d):
        v[i * d + i] = 1.0
    return v / np.sqrt(d)


def rotation_z(theta: float) -> np.ndarray:
    return np.diag([1.0, np.exp(1j * theta)]).astype(complex)


# ---------------------------------------------------------------------------
# random sampling (all generators passed explicitly for reproducibility)


def random_pure_vec(rng: np.random.Generator, dim: int) -> np.ndarray:
    v = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    return v / np.linalg.norm(v)


def random_density_mat(rng: np.random.Generator, dim: int, rank: int | None = None) -> np.ndarray:
    rank = dim if rank is None else rank
    g = rng.normal(size=(dim, rank)) + 1j * rng.normal(size=(dim, rank))
    m = g @ g.conj().T
    return m / np.real(np.trace(m))


def random_hermitian(rng: np.random.Generator, dim: int) -> np.ndarray:
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    return 0.5 * (g + g.conj().T)


def random_unitary(rng: np.random.Generator, dim: int) -> np.ndarray:
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    q, r = np.linalg.qr(g)
    return q @ np.diag(np.diag(r) / np.abs(np.diag(r)))


# ---------------------------------------------------------------------------
# the matrix literal wire format {dim, re, im}, shared by every higher module


def mat_to_json(mat: np.ndarray) -> dict:
    m = np.asarray(mat, dtype=complex)
    out = {
        "re": [float(x) for x in np.real(m).reshape(-1)],
        "im": [float(x) for x in np.imag(m).reshape(-1)],
    }
    if m.shape[0] == m.shape[1]:
        out["dim"] = int(m.shape[0])
    else:
        out["rows"], out["cols"] = int(m.shape[0]), int(m.shape[1])
    return out


def mat_from_json(obj: dict) -> np.ndarray:
    if "dim" in obj:
        rows = cols = int(obj["dim"])
    else:
        rows, cols = int(obj["rows"]), int(obj["cols"])
    re = np.asarray(obj["re"], dtype=float).reshape(rows, cols)
    im = np.asarray(obj["im"], dtype=float).reshape(rows, cols)
    return re + 1j * im

