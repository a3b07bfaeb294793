"""Catalog of local resource theories.

A :class:`FreeStateSet` describes a convex, closed set of density matrices
through three capabilities: membership testing, linear minimization over the
set (the oracle the divergence engines call), and a closed-form closest free
state; ``closest_free_state`` returns None where a kind has no closed form.
A set with a ``linear_form`` (Pi, pt) is the density matrices that Pi fixes,
with a nonnegative partial transpose where pt is set; membership and the
non-generation test ``maps_into`` read it, and without pt the set closes at
Pi rho, at S(Pi rho) - S(rho).  A non-generation verdict's mode is
``extreme-points``, ``projection`` or ``certified`` (exact or sufficient
certificates) or ``sampled``.  A :class:`FreeOpClass` is a decidable
predicate on explicit Kraus families.

SIO and real-operation membership are decided on the Kraus representation
that is handed in; the predicates are representation dependent and results
are reported as verdicts on the given decomposition, not as universal proofs.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

import numpy as np

from . import channels as ch
from .qcore import (
    DensityOperator,
    TensorStructure,
    as_complex,
    as_matrix,
    check_hermitian,
    kron_all,
    mat_from_json,
    mat_to_json,
    partial_trace_mat,
    partial_transpose_mat,
    random_density_mat,
    random_unitary,
    relative_entropy,
    single_party,
    trace_norm,
    von_neumann_entropy,
)

MEMBERSHIP_TOL = 1e-6
SEESAW_RESTARTS = 20


class FreeStateSet:
    """Base descriptor; concrete kinds override the capability methods."""

    kind = "abstract"
    exact_lmo = True  # lmo returns a true minimizer, not a heuristic one
    structure: TensorStructure | None = None  # a composite's labelled parties

    def __init__(self, dim: int):
        self.dim = int(dim)

    def contains(self, rho, tol: float = MEMBERSHIP_TOL) -> bool:
        """Membership at entrywise resolution ``tol``, read off the ``linear_form``."""
        form = self.linear_form()
        if form is None:
            raise NotImplementedError(f"{self.kind} has no membership test")
        m = as_matrix(rho)
        self._check_dim(m)
        return bool(_satisfies(form, m, tol))

    def lmo(self, grad: np.ndarray, rng: np.random.Generator | None = None) -> np.ndarray:
        """A state mu in the set minimizing Tr(grad mu), within oracle tolerance.

        A stack of gradients (..., d, d) gives the stack of minimizers."""
        raise NotImplementedError(f"{self.kind} has no extreme-point oracle")

    def linear_form(self) -> tuple[Callable[[np.ndarray], np.ndarray], tuple | None] | None:
        """(Pi, pt) when the set is exactly the density matrices that Pi
        fixes with, where pt = (dims, slot) is given, a nonnegative partial
        transpose on that tensor slot; else None.  Pi is linear, positive,
        unital, trace preserving, self-adjoint and idempotent, acts on stacks
        (..., d, d), and maps products of states over ``dims`` (all states,
        without pt) into the set.  ``contains``, ``projection`` and the
        verdict modes of ``maps_into`` (extreme-points, projection, certified,
        sampled) derive from it."""
        return None

    def projection(self) -> Callable[[np.ndarray], np.ndarray] | None:
        """The linear form's Pi when it sets no partial transpose, else None:
        the set is then exactly Pi's fixed density matrices, and Pi fixes
        log sigma for every free sigma, so Tr rho log sigma = Tr Pi(rho) log
        sigma and D(rho||sigma) = D(rho||Pi rho) + D(Pi rho||sigma)."""
        form = self.linear_form()
        return form[0] if form is not None and form[1] is None else None

    def closest_free_state(self, rho) -> tuple[np.ndarray, float] | None:
        """(closest free state, D(rho||S) in bits), or None without a closed form.

        With a ``projection`` Pi the closest free state is Pi rho, at
        S(Pi rho) - S(rho)."""
        proj = self.projection()
        if proj is None:
            return None
        m = as_matrix(rho)
        self._check_dim(m)
        fixed = proj(m)
        return fixed, von_neumann_entropy(fixed) - von_neumann_entropy(m)

    def random_state(self, rng: np.random.Generator) -> np.ndarray:
        raise NotImplementedError

    def full_rank_state(self) -> np.ndarray | None:
        return None

    def extreme_points(self) -> list[np.ndarray] | None:
        """The set's extreme points when there are finitely many, else None."""
        return None

    def hull_factors(self) -> list[FreeStateSet]:
        """The sets whose product states generate this set as a convex hull:
        the set itself, or a hull's local factors, nested hulls flattened."""
        return [self]

    def maps_into(self, apply: Callable[[np.ndarray], np.ndarray], target: FreeStateSet,
                  tol: float, n_samples: int, rng: np.random.Generator) -> RngVerdict:
        """Whether the linear map ``apply`` (on stacks) sends this set into
        ``target``, in the first of four modes that decides it:

        - ``extreme-points``: this set lists them; each image is checked.
        - ``projection``: both sets have a ``linear_form``.  Pi_in of d^2
          product pure states that span the matrices are members; an image
          outside ``target``'s form is an exact rejection with its witness.
          They span Pi_in's range, so passing means (id - Pi_out) apply
          Pi_in = 0 (Liu, Hu & Lloyd, PRL 118, 060502, 2017): exact where
          ``target`` sets no partial transpose T.
        - ``certified``: a PSD Choi matrix of T apply or T apply Pi_in, or of
          either after this set's own T_in (PSD on its members), makes each
          image's T nonnegative: sufficient.
        - ``sampled``: otherwise, ``n_samples`` draws of ``random_state``."""
        points = self.extreme_points()
        form_in, form_out = self.linear_form(), target.linear_form()
        if points is None and form_in is not None and form_out is not None:
            (proj_in, pt_in), (proj_out, pt_out) = form_in, form_out
            states = proj_in(_spanning_states(pt_in[0] if pt_in else (self.dim,)))
            ok = _satisfies(form_out, apply(states), tol)
            if not np.all(ok):
                return RngVerdict(False, "projection", len(states), states[np.argmin(ok)])
            if pt_out is None:
                return RngVerdict(True, "projection", len(states))
            d = self.dim
            units = np.eye(d * d, dtype=complex).reshape(-1, d, d)
            out = partial_transpose_mat(apply(np.stack([proj_in(units), units])), *pt_out)
            d_out = out.shape[-1]
            chois = out.reshape(2, d, d, d_out, d_out).swapaxes(2, 3).reshape(2, d * d_out, -1)
            if pt_in is not None:
                dims_in, slot_in = pt_in
                chois = np.concatenate([chois, partial_transpose_mat(chois, (*dims_in, d_out), slot_in)])
            if np.max(np.linalg.eigvalsh(chois)[:, 0]) >= -tol:
                return RngVerdict(True, "certified", len(states))
        mode, n = ("sampled", n_samples) if points is None else ("extreme-points", len(points))
        states = points or (self.random_state(rng) for _ in range(n_samples))
        bad = first_failure(((mu, apply(mu), target.contains) for mu in states), tol)
        return RngVerdict(bad is None, mode, n, bad)

    def marginal_projection(self, m: np.ndarray) -> np.ndarray:
        """Frobenius projection of a candidate marginal onto the closed convex
        cone its marginals must lie in (PSD and trace handled globally by the
        caller); a singleton projects onto its one state instead."""
        raise NotImplementedError(f"{self.kind} cannot be used as a marginal constraint")

    def marginal_dual(self, w: np.ndarray) -> tuple[np.ndarray, float]:
        """(w', offset) with Tr(w' tau) >= offset for every tau in the set.

        The default projects ``w`` onto the dual of the marginal cone
        (Moreau: w + P_K(-w)), whose overlap with any member is >= 0."""
        return w + self.marginal_projection(-w), 0.0

    def tensor_power(self, n: int) -> FreeStateSet:
        """The free set of ``n`` copies, where the kind has a known one."""
        raise ValueError(f"no multi-copy construction for kind {self.kind!r}")

    def boundary_pair(self) -> tuple[np.ndarray, np.ndarray]:
        """A known non-member and an interior point of a full-dimensional set."""
        raise ValueError(
            f"set kind {self.kind!r} is not supported as a target: the construction "
            "needs a full-dimensional set with a known non-member and interior point"
        )

    def to_json(self) -> dict:
        return {"kind": self.kind, "dim": self.dim}

    def _check_dim(self, m: np.ndarray):
        if m.shape[0] != self.dim:
            raise ValueError(f"dimension mismatch: state {m.shape[0]}, set {self.dim}")


@dataclass
class RngVerdict:
    """A non-generation verdict, with a mode from ``FreeStateSet.maps_into``."""

    ok: bool
    mode: str
    n_states: int
    witness: np.ndarray | None = None


def first_failure(cases: Iterable[tuple[object, object, Callable]], tol: float) -> object | None:
    """The witness of the first case that fails its membership test, or None.

    A case is a triple ``(witness, x, contains)``, checked as
    ``contains(x, tol)``: a state and a set's ``contains``, or a channel and
    a class's ``contains_channel``.  Cases are drawn lazily, each after the
    previous one's check, so sampling stops at the first failure."""
    return next((w for w, x, contains in cases if not contains(x, tol)), None)


def _satisfies(form, m: np.ndarray, tol: float) -> np.ndarray:
    """Whether ``m``, or each matrix of a stack, meets a ``linear_form`` at
    entrywise resolution ``tol``: max|m - Pi m| <= tol, and a partial
    transpose >= -tol where one is set."""
    proj, pt = form
    ok = np.max(np.abs(m - proj(m)), axis=(-2, -1)) <= tol
    if pt is not None:
        ok &= np.linalg.eigvalsh(partial_transpose_mat(m, *pt))[..., 0] >= -tol
    return ok


def _spanning_states(dims: Sequence[int]) -> np.ndarray:
    """The d^2 product pure states over local dimensions ``dims`` whose
    projectors span the matrices: |a>, (|a> + |b>)/sqrt2 and (|a> + i|b>)/sqrt2
    on each party."""
    vecs = np.ones((1, 1))
    for d in dims:
        e, (a, b) = np.eye(d), np.triu_indices(d, 1)
        local = np.concatenate([e, (e[a] + e[b]) / np.sqrt(2.0), (e[a] + 1j * e[b]) / np.sqrt(2.0)])
        vecs = (vecs[:, None, :, None] * local[None, :, None, :]).reshape(-1, vecs.shape[1] * d)
    return vecs[:, :, None] * vecs.conj()[:, None, :]


class _FixedStates(FreeStateSet):
    """The states fixed by a projection Pi, the set's ``marginal_projection``:
    its ``linear_form`` sets no partial transpose, so Pi rho is the closest
    free state, and I/d is free."""

    def linear_form(self):
        return self.marginal_projection, None

    def full_rank_state(self):
        return np.eye(self.dim, dtype=complex) / self.dim


class Incoherent(_FixedStates):
    """Diagonal states in a fixed orthonormal basis."""

    kind = "incoherent"

    def __init__(self, dim: int, basis: np.ndarray | None = None):
        super().__init__(dim)
        self.basis = None if basis is None else as_complex(basis)

    def _to_frame(self, m: np.ndarray) -> np.ndarray:
        return m if self.basis is None else self.basis.conj().T @ m @ self.basis

    def _from_frame(self, m: np.ndarray) -> np.ndarray:
        return m if self.basis is None else self.basis @ m @ self.basis.conj().T

    def lmo(self, grad, rng=None):
        g = self._to_frame(as_complex(grad))
        e = np.eye(self.dim, dtype=complex)[np.argmin(np.real(np.diagonal(g, 0, -2, -1)), axis=-1)]
        return self._from_frame(e[..., :, None] * e[..., None, :])

    def random_state(self, rng):
        p = rng.dirichlet(np.ones(self.dim))
        return self._from_frame(np.diag(p).astype(complex))

    def extreme_points(self) -> list[np.ndarray]:
        return [
            self._from_frame(np.diag(np.eye(self.dim)[i]).astype(complex))
            for i in range(self.dim)
        ]

    def marginal_projection(self, m):
        return self._from_frame(self._to_frame(m) * np.eye(self.dim))

    def tensor_power(self, n):
        return Incoherent(self.dim**n, None if self.basis is None else kron_all([self.basis] * n))

    def to_json(self):
        out = {"kind": self.kind, "dim": self.dim}
        if self.basis is not None:
            out["basis"] = mat_to_json(self.basis)
        return out


class RealStates(_FixedStates):
    """States with real matrix elements in the computational basis."""

    kind = "real"

    def lmo(self, grad, rng=None):
        # Tr(G mu) for a real symmetric mu only sees the real part of G.
        r = np.real(as_complex(grad))
        _, v = np.linalg.eigh(0.5 * (r + np.swapaxes(r, -1, -2)))
        vec = v[..., :, 0] / np.linalg.norm(v[..., :, 0], axis=-1, keepdims=True)
        return (vec[..., :, None] * vec[..., None, :]).astype(complex)

    def random_state(self, rng):
        g = rng.normal(size=(self.dim, self.dim))
        m = g @ g.T
        return (m / np.trace(m)).astype(complex)

    def marginal_projection(self, m):
        # (m + m^T)/2 is linear, so a product acts with it on one tensor slot
        # alone; on Hermitian m it is the real part
        return (0.5 * (m + np.swapaxes(m, -1, -2))).astype(complex, copy=False)

    def tensor_power(self, n):
        return RealStates(self.dim**n)


class Singleton(FreeStateSet):
    """A single free state (Gibbs-preserving style theories)."""

    kind = "singleton"

    def __init__(self, gamma):
        g = as_matrix(gamma)
        super().__init__(g.shape[0])
        self.gamma = g

    def contains(self, rho, tol: float = MEMBERSHIP_TOL) -> bool:
        m = as_matrix(rho)
        self._check_dim(m)
        return trace_norm(m - self.gamma) <= tol

    def lmo(self, grad, rng=None):
        return np.broadcast_to(self.gamma, np.shape(grad))

    def closest_free_state(self, rho):
        m = as_matrix(rho)
        self._check_dim(m)
        return self.gamma, relative_entropy(m, self.gamma)

    def random_state(self, rng):
        return self.gamma

    def full_rank_state(self):
        w = np.linalg.eigvalsh(self.gamma)
        return self.gamma if w[0] > 1e-12 else None

    def extreme_points(self) -> list[np.ndarray]:
        return [self.gamma]

    def marginal_projection(self, m):
        return self.gamma

    def marginal_dual(self, w):
        return w, float(np.real(np.trace(w @ self.gamma)))

    def tensor_power(self, n):
        return Singleton(kron_all([self.gamma] * n))

    def to_json(self):
        return {"kind": self.kind, "dim": self.dim, "gamma": mat_to_json(self.gamma)}


class AllStates(_FixedStates):
    """No restriction: every density matrix is free."""

    kind = "all"

    def lmo(self, grad, rng=None):
        # Tr(G mu) for a Hermitian mu only sees the Hermitian part of G
        g = as_complex(grad)
        _, v = np.linalg.eigh(0.5 * (g + np.swapaxes(g.conj(), -1, -2)))
        vec = v[..., :, 0]
        return vec[..., :, None] * vec.conj()[..., None, :]

    def random_state(self, rng):
        return random_density_mat(rng, self.dim)

    def marginal_projection(self, m):
        return m

    def tensor_power(self, n):
        return AllStates(self.dim**n)


class FiniteSet(FreeStateSet):
    """An explicit finite list of states.

    It exists to express resource non-generation with respect to small
    hand-picked sets.  ``contains`` and ``closest_free_state`` treat the list
    itself (membership of a listed state, minimum over the list), while
    D_H, D_max and Frank-Wolfe optimise over the list's convex hull.
    """

    kind = "finite"

    def __init__(self, states: Sequence):
        mats = [as_matrix(s) for s in states]
        if not mats:
            raise ValueError("finite set needs at least one state")
        super().__init__(mats[0].shape[0])
        self.states = mats

    def contains(self, rho, tol: float = MEMBERSHIP_TOL) -> bool:
        m = as_matrix(rho)
        self._check_dim(m)
        return min(trace_norm(m - s) for s in self.states) <= tol

    def lmo(self, grad, rng=None):
        states = np.stack(self.states)
        vals = np.real(np.einsum("...ab,kba->...k", as_complex(grad), states))
        return states[np.argmin(vals, axis=-1)]

    def closest_free_state(self, rho):
        m = as_matrix(rho)
        best = min(self.states, key=lambda s: relative_entropy(m, s))
        return best, relative_entropy(m, best)

    def random_state(self, rng):
        return self.states[int(rng.integers(len(self.states)))]

    def extreme_points(self) -> list[np.ndarray]:
        return list(self.states)

    def to_json(self):
        return {"kind": self.kind, "dim": self.dim,
                "states": [mat_to_json(s) for s in self.states]}


# ---------------------------------------------------------------------------
# composite extremal sets


class _Composite(FreeStateSet):
    """A global set over labelled local parties, each with its own set."""

    def __init__(self, locals_: Sequence[FreeStateSet], labels: Sequence[str] | None = None):
        if len(locals_) < 2:
            raise ValueError("a composite needs at least two parties")
        self.locals = list(locals_)
        labels = list(labels) if labels else [str(i + 1) for i in range(len(locals_))]
        self.structure = TensorStructure(zip(labels, [s.dim for s in locals_]))
        super().__init__(self.structure.dim)

    @property
    def local_dims(self) -> tuple[int, ...]:
        return self.structure.dims

    def full_rank_state(self):
        parts = [s.full_rank_state() for s in self.locals]
        return None if any(p is None for p in parts) else kron_all(parts)

    def to_json(self):
        return {"kind": self.kind, "dim": self.dim, "labels": list(self.structure.labels),
                "locals": [s.to_json() for s in self.locals]}


class MinComposite(_Composite):
    """Convex hull of tensor products of locally free states."""

    kind = "min-composite"

    def hull_factors(self):
        return [f for s in self.locals for f in s.hull_factors()]

    def linear_form(self):
        """The tensor product Pi of the factors' projections, where every factor
        has one, with a partial transpose where two factors list no extreme
        points at 2x2 or 2x3; else None.  A projection set with finitely many
        extreme points has a commutative fixed algebra, so its projection is a
        dephasing.  Dephasing every slot but at most one fixes exactly the
        block-diagonal states sum_k |k><k| (x) X_k over a product basis, each
        X_k in the cone of the remaining factor's set, and these are the hull;
        over Incoherent (x) AllStates they are the quantum-incoherent states,
        where D(rho||S) = S(Delta_A rho) - S(rho) (Chitambar et al., PRL 116,
        070402, 2016).  The product is positive, as it acts blockwise, and it
        fixes log sigma blockwise, so the ``FreeStateSet.projection`` argument
        holds.  With two undephased factors at 2x2 or 2x3 a PPT X_k is separable
        (Horodecki, PLA 223, 1, 1996), and Pi maps each of its product terms
        onto a free one, so a nonnegative partial transpose on one of them
        decides membership.  A singleton or finite factor has no projection."""
        factors = self.hull_factors()
        proj = _product_projection(factors)
        unlisted = self._unlisted(factors)
        if proj is None or len(unlisted) <= 1:
            return None if proj is None else (proj, None)
        dims = tuple(f.dim for f in factors)
        if len(unlisted) == 2 and sorted(dims[i] for i in unlisted) in ([2, 2], [2, 3]):
            return proj, (dims, unlisted[1])
        return None

    @staticmethod
    def _unlisted(factors: Sequence[FreeStateSet]) -> list[int]:
        """The positions of the ``factors`` that list no extreme points."""
        return [i for i, f in enumerate(factors) if f.extreme_points() is None]

    @property
    def exact_lmo(self):
        factors = self.hull_factors()
        return len(self._unlisted(factors)) <= 1 and all(f.exact_lmo for f in factors)

    def lmo(self, grad, rng=None, restarts: int | None = None):
        """One batched see-saw over the flattened factors.

        Factors that list their extreme points are enumerated along the
        batch axis, all but the last one when every factor lists them.  The
        remaining factors are see-sawed, each by its own oracle, from
        ``restarts`` random starts per enumerated combination; all of them
        advance together.  With one such factor a single sweep is exact."""
        g = as_complex(grad)
        if g.ndim > 2:
            return np.stack([self.lmo(x, rng, restarts) for x in g])
        rng = rng or np.random.default_rng(0)
        factors = self.hull_factors()
        dims = [f.dim for f in factors]
        points = [f.extreme_points() for f in factors]
        free = [i for i, p in enumerate(points) if p is None] or [len(factors) - 1]
        listed = [i for i in range(len(factors)) if i not in free]
        seesaw = len(free) > 1
        n = max(1, SEESAW_RESTARTS if restarts is None else restarts) if seesaw else 1
        combos = list(itertools.product(*(points[i] for i in listed)))
        parts = [None] * len(factors)
        for k, i in enumerate(listed):
            parts[i] = np.stack([c[k] for c in combos for _ in range(n)])
        if seesaw:
            starts = [[factors[i].random_state(rng) for i in free] for _ in range(n)]
            for k, i in enumerate(free):
                parts[i] = np.stack([s[k] for _ in combos for s in starts])
        prev = np.inf
        for _ in range(30 if seesaw else 1):
            for i in free:
                h = _effective_local_operator(g, dims, parts, i)
                parts[i] = factors[i].lmo(h, rng)
            val = np.real(np.einsum("rab,rba->r", h, parts[free[-1]]))
            if np.all(prev - val < 1e-12):
                break
            prev = val
        best = int(np.argmin(val))
        return kron_all(p[best] for p in parts)

    def contains(self, rho, tol: float = MEMBERSHIP_TOL) -> bool:
        """Hull membership by the ``linear_form`` where there is one.  Else,
        where every factor has a ``projection``, the hull lies in the fixed
        space of their tensor product Pi, so max|rho - Pi rho| > tol rejects.
        A member's marginals are locally free (the hull sits inside the
        marginal set), and a product of free marginals is a member.  With at
        most one non-singleton factor conv(A (x) {gamma}) = conv(A) (x)
        {gamma}, so every member is such a product.  Else D_max(rho||S) <= b
        = log2(1 + tol/2) comes with a free witness sigma, rho <= 2^b sigma,
        hence ||rho - sigma||_1 <= 2(2^b - 1) = tol; a rejection is only as
        exact as the see-saw oracle inside ``dmax``."""
        if self.linear_form() is not None:
            return super().contains(rho, tol)
        m = as_matrix(rho)
        self._check_dim(m)
        proj = _product_projection(self.hull_factors())
        if proj is not None and float(np.max(np.abs(m - proj(m)))) > tol:
            return False
        dims = self.local_dims
        margs = [partial_trace_mat(m, dims, [i]) for i in range(len(dims))]
        if not all(s.contains(marg, tol) for s, marg in zip(self.locals, margs)):
            return False
        if trace_norm(m - kron_all(margs)) <= tol:
            return True
        if sum(len(s.extreme_points() or ()) != 1 for s in self.locals) <= 1:
            return False
        from .divergences import dmax  # divergences imports this module

        b = np.log2(1.0 + 0.5 * tol)
        return bool(dmax(m, self, tol=b).upper_bound <= b)

    def random_state(self, rng):
        k = int(rng.integers(1, 9))
        w = rng.dirichlet(np.ones(k))
        m = np.zeros((self.dim, self.dim), dtype=complex)
        for i in range(k):
            m += w[i] * kron_all(s.random_state(rng) for s in self.locals)
        return m


class SeparableTwoQubit(MinComposite):
    """Separable states across a 2x2 (or 2x3) cut: the hull of products of
    two unrestricted local states, where the PPT test is exact."""

    kind = "separable"

    def __init__(self, cut: tuple[int, int] = (2, 2)):
        if tuple(sorted(cut)) not in {(2, 2), (2, 3)}:
            raise ValueError("PPT is an exact separability test only for 2x2 and 2x3 cuts")
        self.cut = (int(cut[0]), int(cut[1]))
        super().__init__([AllStates(d) for d in self.cut], labels=["A", "B"])

    def marginal_projection(self, m):
        pt = partial_transpose_mat(m, self.cut, 1)
        w, v = np.linalg.eigh(check_hermitian(pt, tol=1e-8))
        clipped = (v * np.clip(w, 0.0, None)) @ v.conj().T
        return partial_transpose_mat(clipped, self.cut, 1)

    def boundary_pair(self):
        # a maximally entangled qubit pair, embedded in the cut if it is 2x3
        vec = np.zeros(self.dim, dtype=complex)
        vec[0] = vec[self.cut[1] + 1] = 1.0 / np.sqrt(2.0)
        return np.outer(vec, vec.conj()), np.eye(self.dim, dtype=complex) / self.dim

    def tensor_power(self, n):
        # copies must be supplied in the cut ordering (all A factors first)
        return MinComposite([AllStates(d**n) for d in self.cut], labels=["A", "B"])

    def to_json(self):
        return {"kind": self.kind, "dim": self.dim, "cut": list(self.cut)}


def _product_projection(factors: Sequence[FreeStateSet]) -> Callable[[np.ndarray], np.ndarray] | None:
    """The tensor product of the factors' projections, or None where one has none.

    Each factor's Pi acts on its own tensor slot, which needs it linear: the
    real part of a slot would also conjugate the other slots' coefficients,
    so the real states' Pi is (X + X^T)/2."""
    projs = [f.projection() for f in factors]
    if None in projs:
        return None
    dims = tuple(f.dim for f in factors)
    n = len(dims)

    def proj(m):
        t = m.reshape(m.shape[:-2] + dims * 2)
        for i, p in enumerate(projs):
            slots = (t.ndim - 2 * n + i, t.ndim - n + i)
            t = np.moveaxis(p(np.moveaxis(t, slots, (-2, -1))), (-2, -1), slots)
        return t.reshape(m.shape)

    return proj


def _effective_local_operator(g, dims, parts, i):
    """H with Tr[G (.. parts .. X at slot i ..)] = Tr[X H].

    Parts may carry leading stack axes, which H then carries too; parts[i]
    is not read."""
    n = len(dims)
    rows, cols = "abcdefghijkl"[:n], "mnopqrstuvwx"[:n]
    others = [j for j in range(n) if j != i]
    subs = ",".join([rows + cols] + ["..." + cols[j] + rows[j] for j in others])
    h = np.einsum(f"{subs}->...{rows[i]}{cols[i]}", g.reshape(tuple(dims) * 2),
                  *(parts[j] for j in others))
    return 0.5 * (h + np.swapaxes(h.conj(), -1, -2))


class MaxComposite(_Composite):
    """States whose every single-party marginal is locally free."""

    kind = "max-composite"
    exact_lmo = False  # projected subgradient, certified only by lmo_with_bound

    def contains(self, rho, tol: float = MEMBERSHIP_TOL) -> bool:
        m = as_matrix(rho)
        self._check_dim(m)
        dims = self.local_dims
        for i, s in enumerate(self.locals):
            if not s.contains(partial_trace_mat(m, dims, [i]), tol):
                return False
        return True

    def _split(self, i: int) -> tuple[int, int, int]:
        """Dimensions (left, d_i, right) around party i."""
        dims = self.local_dims
        return int(np.prod(dims[:i])), dims[i], int(np.prod(dims[i + 1:]))

    def _marginal_projector(self, i: int):
        left, d, right = self._split(i)
        d_rest = left * right

        def proj(y):
            # (left, d, right) on both indices: the marginal sums the
            # diagonal of the left and right factors, and the correction
            # delta (x) I / d_rest is added on that same diagonal
            out = y.copy().reshape(left, d, right, left, d, right)
            marg = np.einsum("iajibj->ab", out)
            fixed = self.locals[i].marginal_projection(marg)
            np.einsum("iajibj->ijab", out)[...] += (fixed - marg) / d_rest
            return out.reshape(y.shape)

        return proj

    def _projections(self):
        """Frobenius projections whose intersection is the feasible set;
        subclasses may append further convex constraints."""

        def psd(y):
            w, v = np.linalg.eigh(0.5 * (y + y.conj().T))
            return (v * np.clip(w, 0.0, None)) @ v.conj().T

        def unit_trace(y):
            d = y.shape[0]
            return y + (1.0 - np.trace(y)) / d * np.eye(d)

        return [psd, unit_trace] + [self._marginal_projector(i) for i in range(len(self.locals))]

    def _dykstra(self, x: np.ndarray, iters: int, tol: float = 1e-11):
        """Dykstra's projection of ``x`` onto the feasible set, and each
        constraint's increment. The increments sum to x minus the result and
        are the projection's KKT multipliers (Boyle & Dykstra 1986)."""
        projections = self._projections()
        incs = [np.zeros_like(x) for _ in projections]
        cur = x.copy()
        for _ in range(iters):
            prev = cur.copy()
            for s_idx, proj_fn in enumerate(projections):
                y = cur + incs[s_idx]
                proj = proj_fn(y)
                incs[s_idx] = y - proj
                cur = proj
            if float(np.max(np.abs(cur - prev))) < tol:
                break
        return cur, incs

    def project_feasible(self, x: np.ndarray, iters: int = 400) -> np.ndarray:
        """Dykstra projection onto {PSD, trace 1, all marginals locally free}."""
        return self._dykstra(x, iters)[0]

    def _dual_bound(self, g: np.ndarray, incs: list[np.ndarray], eta: float) -> float:
        """Lagrange dual of min Tr(g X): Tr(g X) >= lambda_min(g - sum_i w_i (x) I)
        + sum_i offset_i over the set, for (w_i, offset_i) from party i's
        ``marginal_dual``. Here w_i comes from the marginal increment
        N_i (x) I of the projection of x - eta g, as marginal_dual(-N_i / eta)."""
        h, offset = g, 0.0
        for i, (local, inc) in enumerate(zip(self.locals, incs[2:])):
            left, d, right = self._split(i)
            n = np.einsum("iajibj->ab", inc.reshape(left, d, right, left, d, right))
            w, off = local.marginal_dual(-n / (left * right * eta))
            h = h - kron_all([np.eye(left), w, np.eye(right)])
            offset += off
        return float(np.linalg.eigvalsh(h)[0]) + offset

    def lmo(self, grad, rng=None, iters: int = 250):
        """Linear minimization by projected subgradient over the feasible set,
        stopped early once ``lmo_with_bound`` proves its minimum."""
        g = as_complex(grad)
        if g.ndim > 2:
            return np.stack([self.lmo(x, rng, iters) for x in g])
        return self.lmo_with_bound(g, iters)[0]

    def lmo_with_bound(self, grad, iters: int = 250) -> tuple[np.ndarray, float, int]:
        """(mu, lower, steps): the projected-subgradient minimiser, a certified
        lower bound on Tr(grad X) over the set, and the steps taken.

        At steps 1, 2, 4, 8, ... the dual bound is read off that step's
        Dykstra multipliers; the run stops once the fully projected best
        iterate is within 1e-9 max|grad| of it.  ``lower`` is the best
        reading, so it is certified even where mu is not the minimiser."""
        g = as_complex(grad)
        g = 0.5 * (g + g.conj().T)
        x = self.full_rank_state()
        if x is None:
            x = self.project_feasible(np.eye(self.dim, dtype=complex) / self.dim)
        best, best_val, lower = None, np.inf, -np.inf
        scale = max(float(np.max(np.abs(g))), 1e-12)
        for t in range(1, iters + 1):
            eta = 0.9 / (scale * np.sqrt(t))
            x, incs = self._dykstra(x - eta * g, iters=160)
            val = float(np.real(np.trace(g @ x)))
            if val < best_val:
                best_val, best = val, x
            if t & (t - 1) == 0:
                # a best value far below the bound is an infeasible iterate
                reading = self._dual_bound(g, incs, eta)
                lower = max(lower, reading)
                if abs(best_val - reading) <= 1e-9 * scale:
                    mu = self.project_feasible(best, iters=800)
                    if float(np.real(np.trace(g @ mu))) - reading <= 1e-9 * scale:
                        return mu, lower, t
        return self.project_feasible(best, iters=800), lower, iters

    def random_state(self, rng):
        parts = []
        for s in self.locals:
            p = s.random_state(rng)
            fr = s.full_rank_state()
            if fr is not None:
                p = 0.5 * (p + fr)
            parts.append(p)
        base = kron_all(parts)
        corr = np.zeros_like(base)
        for _ in range(3):
            term = np.array([[1.0 + 0j]])
            for d in self.local_dims:
                c = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
                c = 0.5 * (c + c.conj().T)
                c -= np.trace(c) / d * np.eye(d)
                term = np.kron(term, c)
            corr += term
        nrm = float(np.linalg.norm(corr))
        if nrm < 1e-14:
            return base
        corr /= nrm
        lo, hi = 0.0, 1.0
        for _ in range(40):
            mid = 0.5 * (lo + hi)
            if np.linalg.eigvalsh(base + mid * corr)[0] >= 1e-10:
                lo = mid
            else:
                hi = mid
        t = lo * rng.uniform()
        return base + t * corr


# ---------------------------------------------------------------------------
# theory descriptor wire format


def set_from_json(obj: dict) -> FreeStateSet:
    kind = obj["kind"]
    if kind == "incoherent":
        basis = mat_from_json(obj["basis"]) if "basis" in obj else None
        return Incoherent(obj["dim"], basis)
    if kind == "real":
        return RealStates(obj["dim"])
    if kind == "singleton":
        return Singleton(mat_from_json(obj["gamma"]))
    if kind == "all":
        return AllStates(obj["dim"])
    if kind == "separable":
        return SeparableTwoQubit(tuple(obj.get("cut", (2, 2))))
    if kind == "finite":
        return FiniteSet([mat_from_json(s) for s in obj["states"]])
    if kind == "min-composite":
        return MinComposite([set_from_json(s) for s in obj["locals"]], obj.get("labels"))
    if kind == "max-composite":
        return MaxComposite([set_from_json(s) for s in obj["locals"]], obj.get("labels"))
    raise ValueError(f"unknown theory kind {kind!r}")


# ---------------------------------------------------------------------------
# free-operation classes


class FreeOpClass:
    kind = "abstract"

    def contains_channel(self, channel: ch.KrausChannel, tol: float = 1e-9) -> bool:
        raise NotImplementedError

    def sample_channel(self, rng: np.random.Generator, dim: int) -> ch.KrausChannel:
        raise NotImplementedError(f"{self.kind} has no channel sampler")

    def to_json(self) -> dict:
        return {"kind": self.kind}


def _sio_normal_form(k: np.ndarray, tol: float) -> bool:
    mask = np.abs(k) > tol
    return bool(np.all(mask.sum(axis=0) <= 1) and np.all(mask.sum(axis=1) <= 1))


class Sio(FreeOpClass):
    """Strictly incoherent operations, decided on the given Kraus family:
    every operator has at most one nonzero entry per row and per column."""

    kind = "sio"

    def __init__(self, basis: np.ndarray | None = None):
        self.basis = None if basis is None else as_complex(basis)

    def _frame(self, k):
        return k if self.basis is None else self.basis.conj().T @ k @ self.basis

    def contains_channel(self, channel, tol: float = 1e-9) -> bool:
        return all(_sio_normal_form(self._frame(k), tol) for k in channel.kraus)

    def sample_channel(self, rng, dim):
        n = int(rng.integers(1, 4))
        perms = [rng.permutation(dim) for _ in range(n)]
        cols = rng.normal(size=(n, dim)) + 1j * rng.normal(size=(n, dim))
        norms = np.sqrt(np.sum(np.abs(cols) ** 2, axis=0))
        cols = cols / norms
        ops = []
        for m in range(n):
            k = np.zeros((dim, dim), dtype=complex)
            for j in range(dim):
                k[perms[m][j], j] = cols[m, j]
            ops.append(k if self.basis is None else self.basis @ k @ self.basis.conj().T)
        return ch.KrausChannel(tuple(ops), single_party(dim), single_party(dim))


class RealOps(FreeOpClass):
    """Operations with an all-real Kraus decomposition (decided on the given one)."""

    kind = "real-ops"

    def contains_channel(self, channel, tol: float = 1e-9) -> bool:
        return all(float(np.max(np.abs(np.imag(k)))) <= tol for k in channel.kraus)

    def sample_channel(self, rng, dim):
        # the row blocks of a real isometry sum to K^T K = I to rounding,
        # however ill-conditioned the Gaussian draw
        n = int(rng.integers(1, 4))
        q, _ = np.linalg.qr(rng.normal(size=(n * dim, dim)))
        ops = tuple(q[m * dim:(m + 1) * dim].astype(complex) for m in range(n))
        return ch.KrausChannel(ops, single_party(dim), single_party(dim))


class UnitalOps(FreeOpClass):
    kind = "unital"

    def contains_channel(self, channel, tol: float = 1e-9) -> bool:
        return ch.is_unital(channel, tol)

    def sample_channel(self, rng, dim):
        n = int(rng.integers(1, 4))
        w = rng.dirichlet(np.ones(n))
        ops = tuple(np.sqrt(w[m]) * random_unitary(rng, dim) for m in range(n))
        return ch.KrausChannel(ops, single_party(dim), single_party(dim))


class AllOps(FreeOpClass):
    kind = "all-ops"

    def contains_channel(self, channel, tol: float = 1e-9) -> bool:
        return True

    def sample_channel(self, rng, dim):
        return ch.random_channel(rng, dim, dim, int(rng.integers(1, 4)))


class Rng(FreeOpClass):
    """Resource non-generating operations with respect to a free-state set.

    ``verify`` asks the set's ``maps_into`` whether the channel maps it into
    itself; the verdict's mode is ``extreme-points``, ``projection`` (exact),
    ``certified`` (sufficient) or ``sampled`` (``n_samples`` draws, ``seed``).
    """

    kind = "rng"

    def __init__(self, free_set: FreeStateSet, n_samples: int = 40, seed: int = 11):
        self.free_set = free_set
        self.n_samples = n_samples
        self.seed = seed

    def verify(self, channel: ch.KrausChannel, tol: float = MEMBERSHIP_TOL) -> RngVerdict:
        return self.free_set.maps_into(channel.apply_mat, self.free_set, tol, self.n_samples,
                                       np.random.default_rng(self.seed))

    def contains_channel(self, channel, tol: float = 1e-6) -> bool:
        return self.verify(channel, tol).ok

    def to_json(self):
        return {"kind": self.kind, "set": self.free_set.to_json()}


class Lfocc(FreeOpClass):
    """Round-based protocols whose per-round local families pass each acting
    party's local operation class."""

    kind = "lfocc"

    def __init__(self, local_classes: dict[str, FreeOpClass]):
        self.local_classes = dict(local_classes)

    def protocol_ok(self, protocol: ch.LfoccProtocol, tol: float = 1e-9) -> bool:
        for rnd in protocol.rounds:
            local = single_party(protocol.structure.local_dim(rnd.party), rnd.party)
            cls = self.local_classes[rnd.party]
            for family in rnd.branches.values():
                if not cls.contains_channel(ch.KrausChannel(tuple(family), local, local), tol):
                    return False
        return True

    def contains_channel(self, channel, tol: float = 1e-9) -> bool:
        raise NotImplementedError("membership is decided on protocols, not on flat channels")


def op_in_class(channel: ch.KrausChannel, cls: FreeOpClass, tol: float = 1e-9) -> bool:
    """Predicate dispatch; see each class for what exactly is being decided."""
    return cls.contains_channel(channel, tol)


def random_free_state(free_set: FreeStateSet, seed: int) -> DensityOperator:
    """Seeded sample of the set.

    It passes the set's own membership test wherever that test is exact:
    the single-party kinds, marginal sets, and hulls decided by the
    factors' projections (with a partial transpose at 2x2 and 2x3), by
    marginals or as products.  A hull sample that reaches the D_max step
    can be rejected when the see-saw inside ``dmax`` stalls (seen on
    mixtures over smin(Real3, All3))."""
    rng = np.random.default_rng(seed)
    m = free_set.random_state(rng)
    structure = free_set.structure or single_party(free_set.dim)
    return DensityOperator(m, structure)


def random_lfocc_protocol(
    rng: np.random.Generator,
    structure: TensorStructure,
    classes_by_party: dict[str, FreeOpClass],
    n_rounds: int,
    order: Sequence[str] | None = None,
) -> ch.LfoccProtocol:
    """Random protocol whose round families are drawn from the local classes."""
    labels = list(order) if order else list(structure.labels)
    rounds = []
    histories = [""]
    for r in range(n_rounds):
        party = labels[r % len(labels)]
        dim = structure.local_dim(party)
        cls = classes_by_party[party]
        branches = {}
        new_histories = []
        for hist in histories:
            fam = cls.sample_channel(rng, dim).kraus
            branches[hist] = fam
            for l in range(len(fam)):
                new_histories.append(f"{hist},{l}" if hist else str(l))
        rounds.append(ch.LfoccRound(party, branches))
        histories = new_histories
        if len(histories) > 32:
            break
    return ch.LfoccProtocol(structure, tuple(rounds))
