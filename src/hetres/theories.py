"""Catalog of local resource theories.

A :class:`FreeStateSet` describes a convex, closed set of density matrices
through three capabilities: membership testing, linear minimization over the
set (the oracle the divergence engines call), and a closed-form closest free
state; ``closest_free_state`` returns None where a kind has no closed form.
A kind with exact data states it once, as its :class:`Constraints` (a
projection Pi whose fixed set it is, or equalities Tr C_j rho = c_j, and
cones A(rho) >= 0): membership, the closed form Pi rho at S(Pi rho) - S(rho)
without cones, ``maps_into``, ``cone_basis`` and the marginal dual read it.  A
non-generation verdict's mode is ``extreme-points``, ``projection`` or
``certified`` (exact or sufficient certificates) or ``sampled``.  A
:class:`FreeOpClass` is a decidable predicate on explicit Kraus families.

SIO and real-operation membership are decided on the Kraus representation
that is handed in; the predicates are representation dependent and results
are reported as verdicts on the given decomposition, not as universal proofs.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from . import channels as ch
from .qcore import (
    EIG_FLOOR,
    TensorStructure,
    as_complex,
    as_matrix,
    hermitian_basis,
    kron_all,
    mat_from_json,
    mat_to_json,
    partial_trace_mat,
    partial_transpose_mat,
    random_density_mat,
    random_unitary,
    relative_entropy,
    single_party,
    spanning_states,
    trace_norm,
    von_neumann_entropy,
)

MEMBERSHIP_TOL = 1e-6
SEESAW_RESTARTS = 20


class FreeStateSet:
    """Base descriptor; concrete kinds override the capability methods."""

    kind = "abstract"
    exact_lmo = True  # lmo returns a true minimizer, not a heuristic one
    additive = False  # relative entropy of resource is additive on tensor powers
    structure: TensorStructure | None = None  # a composite's labelled parties
    constraints: Constraints | None = None  # the set's exact data, if any
    marginal_constraints: MarginalConstraints | None = None  # dual-solver data, if any

    def __init__(self, dim: int):
        self.dim = int(dim)

    def contains(self, rho, tol: float = MEMBERSHIP_TOL) -> bool | np.ndarray:
        """Membership at entrywise resolution ``tol``, read off the ``constraints``.

        Every kind takes a stack (..., d, d) and returns a bool array of
        shape (...); one matrix gives a bool."""
        if self.constraints is None:
            raise NotImplementedError(f"{self.kind} has no membership test")
        m = as_matrix(rho)
        self._check_dim(m)
        return _bools(self.constraints.holds(m, tol))

    def lmo(self, grad: np.ndarray, rng: np.random.Generator | None = None) -> np.ndarray:
        """A state mu in the set minimizing Tr(grad mu), within oracle tolerance.

        A stack of gradients (..., d, d) gives the stack of minimizers."""
        raise NotImplementedError(f"{self.kind} has no extreme-point oracle")

    def projection(self) -> Callable[[np.ndarray], np.ndarray] | None:
        """The ``constraints``' Pi when they set no cone, else None: the set
        is then exactly Pi's fixed density matrices, and Pi fixes log sigma
        for every free sigma, so Tr rho log sigma = Tr Pi(rho) log sigma and
        D(rho||sigma) = D(rho||Pi rho) + D(Pi rho||sigma)."""
        cons = self.constraints
        return cons.proj if cons is not None and not cons.cones else None

    def cone_basis(self) -> np.ndarray | None:
        """An orthonormal basis B_j of the Hermitian matrices meeting the
        ``constraints``' linear data: Pi's range, or the complement of all C_j
        - c_j I if ``max_support_state()`` is positive definite (a barrier
        needs an interior); else None.  The set's cone {t sigma : t >= 0} is
        {X = sum_j x_j B_j : X >= 0, A(X) >= 0 per cone A}."""
        cons, basis = self.constraints, hermitian_basis(self.dim, None)
        if cons is not None and cons.proj is not None:
            return _range(cons.proj, basis)
        if cons is None or np.linalg.eigvalsh(self.max_support_state())[0] <= EIG_FLOOR:
            return None
        shifted = cons.eqs - np.multiply.outer(cons.offsets, np.eye(self.dim))  # C_j - c_j I
        _, s, vh = np.linalg.svd(np.real(np.einsum("jab,kba->jk", shifted, basis)))
        return np.tensordot(vh[int(np.sum(s > 1e-10)):], basis, 1)

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
        raise NotImplementedError(f"{self.kind} has no sampler")

    def max_support_state(self) -> np.ndarray:
        """A member whose support holds every member's, so full rank wherever a
        member is: by default the mean of the ``extreme_points``."""
        points = self.extreme_points()
        if points is None:
            raise NotImplementedError(f"{self.kind} has no member of maximal support")
        return sum(points) / len(points)

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
        - ``projection``: this set's ``constraints`` have a Pi_in and
          ``target`` has some.  Pi_in of d^2 product pure states spanning the
          matrices (over the ``hull_factors`` given cones) are members, so an
          image ``target`` rejects is an exact rejection with its witness; as
          they span Pi_in's range, a pass means apply Pi_in meets its linear
          data (Liu, Hu & Lloyd, PRL 118, 060502, 2017), exact without cones.
        - ``certified``: per ``target`` cone A, a PSD Choi matrix of A apply or
          A apply Pi_in, or of either transposed on every other output slot
          (A(X) >= 0 iff A(X)^T >= 0) or after a cone T_in of this set (a
          partial transpose, PSD on its members), makes each image's A
          nonnegative: sufficient.  A candidate is PSD within ``tol`` where C
          + tol I has a Cholesky factor; the first one certifies A.
        - ``sampled``: otherwise, ``n_samples`` draws of the set's generators,
          a product of one ``random_state`` per ``hull_factors`` entry: a
          linear map sends a hull into a convex ``target`` iff it sends its
          products there.

        The listed or drawn states form one stack: ``apply`` and
        ``target.contains`` each run once on it, and the witness is the first
        state whose image fails.  All ``n_samples`` draws are made, in the
        order of one draw per factor per sample, also after a failure."""
        points, cons_in = self.extreme_points(), self.constraints
        if (points is None and cons_in is not None and cons_in.proj is not None
                and (cons_out := target.constraints) is not None):
            dims = tuple(f.dim for f in self.hull_factors()) if cons_in.cones else (self.dim,)
            states = cons_in.proj(spanning_states(dims))
            ok = cons_out.holds(apply(states), tol)
            if not np.all(ok):
                return RngVerdict(False, "projection", len(states), states[np.argmin(ok)])
            if not cons_out.cones:
                return RngVerdict(True, "projection", len(states))
            d = self.dim
            units = np.eye(d * d, dtype=complex).reshape(-1, d, d)
            images = apply(np.stack([cons_in.proj(units), units]))
            for cone in cons_out.cones:
                out = cone(images)
                n = out.shape[-1]
                blocks = out.reshape(2, d, d, n, n).transpose(0, 3, 4, 1, 2)  # input blocks at [., i, j]
                chois = np.concatenate([x.transpose(0, 3, 1, 4, 2).reshape(2, d * n, d * n)
                                        for x in [blocks] + [t(blocks) for t in cons_in.cones]])
                cands = (chois, partial_transpose_mat(chois, (d, n), 1))
                if not any(_psd_within(c, tol) for stack in cands for c in stack):
                    break
            else:
                return RngVerdict(True, "certified", len(states))
        if points is None:
            draws = [[f.random_state(rng) for f in self.hull_factors()] for _ in range(n_samples)]
            if not draws:
                return RngVerdict(True, "sampled", 0)
            states, mode = kron_all(map(np.stack, zip(*draws))), "sampled"
        else:
            states, mode = np.stack(points), "extreme-points"
        bad = np.flatnonzero(np.logical_not(target.contains(apply(states), tol)))
        return RngVerdict(not len(bad), mode, len(states), states[bad[0]] if len(bad) else None)

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
        if m.shape[-1] != self.dim:
            raise ValueError(f"dimension mismatch: state {m.shape[-1]}, set {self.dim}")


@dataclass
class RngVerdict:
    """A non-generation verdict, with a mode from ``FreeStateSet.maps_into``."""

    ok: bool
    mode: str
    n_states: int
    witness: np.ndarray | None = None


def _bools(ok) -> bool | np.ndarray:
    """A membership verdict: a bool for one matrix, the bool array for a stack."""
    return bool(ok) if np.ndim(ok) == 0 else ok


def _psd_within(m: np.ndarray, tol: float) -> bool:
    """Whether the Hermitian m + tol I has a Cholesky factor: lambda_min(m) > -tol,
    to rounding."""
    try:
        np.linalg.cholesky(m + tol * np.eye(len(m)))
    except np.linalg.LinAlgError:
        return False
    return True


def _range(op: Callable[[np.ndarray], np.ndarray], basis: np.ndarray) -> np.ndarray:
    """A Frobenius-orthonormal basis of the range of ``op``, a self-adjoint
    projection on the span of the orthonormal ``basis``, as combinations of it."""
    w, v = np.linalg.eigh(np.real(np.einsum("kab,lba->kl", basis, op(basis))))
    return np.tensordot(v[:, w > 0.5].T, basis, 1)


@dataclass(frozen=True)
class Constraints:
    """A set's exact data: the states with Pi rho = rho (``proj``), or else Tr
    C_j rho = c_j (orthonormal ``eqs`` C_j, ``offsets`` c_j), and A(rho) >= 0
    for each of the ``cones``, maps on stacks: a partial transpose of the
    state or of one party's marginal.  Pi is linear, positive, unital, trace
    preserving, self-adjoint and idempotent, and maps products of states
    over the ``hull_factors`` (all states, without cones) into the set."""

    proj: Callable[[np.ndarray], np.ndarray] | None
    cones: tuple[Callable[[np.ndarray], np.ndarray], ...]
    eqs: np.ndarray | None
    offsets: np.ndarray | None

    def holds(self, m: np.ndarray, tol: float) -> np.ndarray:
        """Whether ``m``, or each matrix of a stack, meets the data within
        ``tol``: max|m - Pi m|, or without Pi max|sum_j C_j (Tr C_j m - c_j Tr
        m)|, is <= tol, and lambda_min A(m) >= -tol for each cone A."""
        if self.proj is not None:
            ok = np.max(np.abs(m - self.proj(m)), axis=(-2, -1)) <= tol
        else:
            resid = np.einsum("jab,...ba->...j", self.eqs, m) - np.einsum("...aa,j->...j", m, self.offsets)
            ok = np.max(np.abs(np.tensordot(np.real(resid), self.eqs, 1)), axis=(-2, -1)) <= tol
        for cone in self.cones:
            ok = ok & (np.linalg.eigvalsh(cone(m))[..., 0] >= -tol)
        return ok


class _FixedStates(FreeStateSet):
    """The states fixed by a projection Pi, the set's ``marginal_projection``,
    and no cone: Pi rho is the closest free state, and I/d is free."""

    @functools.cached_property
    def constraints(self):
        return Constraints(self.marginal_projection, (), None, None)

    def max_support_state(self):
        return np.eye(self.dim, dtype=complex) / self.dim


class Incoherent(_FixedStates):
    """Diagonal states in a fixed orthonormal basis."""

    kind = "incoherent"
    additive = True

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
        self.states = np.stack(mats)
        self.states.flags.writeable = False  # lmo and the samplers hand out views of it

    def contains(self, rho, tol: float = MEMBERSHIP_TOL) -> bool | np.ndarray:
        """Whether ``rho``, or each matrix of a stack, is within trace distance
        ``tol`` of a listed state: one eigensolve of every difference."""
        m = as_matrix(rho)
        self._check_dim(m)
        return _bools(np.min(trace_norm(m[..., None, :, :] - self.states), axis=-1) <= tol)

    def lmo(self, grad, rng=None):
        vals = np.real(np.einsum("...ab,kba->...k", as_complex(grad), self.states))
        return self.states[np.argmin(vals, axis=-1)]

    def closest_free_state(self, rho):
        m = as_matrix(rho)
        self._check_dim(m)
        values = relative_entropy(m, self.states)
        best = int(np.argmin(values))
        return self.states[best], float(values[best])

    def random_state(self, rng):
        return self.states[int(rng.integers(len(self.states)))]

    def extreme_points(self) -> list[np.ndarray]:
        return list(self.states)

    def to_json(self):
        return {"kind": self.kind, "dim": self.dim,
                "states": [mat_to_json(s) for s in self.states]}


class Singleton(FiniteSet):
    """A single free state (Gibbs-preserving style theories): a one-point list."""

    kind = "singleton"
    additive = True

    def __init__(self, gamma):
        super().__init__([gamma])
        self.gamma = self.states[0]

    @functools.cached_property
    def constraints(self):
        """Every traceless C_j at offset Tr(C_j gamma); membership stays the list's."""
        d = self.dim
        eqs = _range(lambda x: x - np.einsum("...aa,bc->...bc", x, np.eye(d) / d), hermitian_basis(d, None))
        return Constraints(None, (), eqs, np.real(np.einsum("jab,ba->j", eqs, self.gamma)))

    def tensor_power(self, n):
        return Singleton(kron_all([self.gamma] * n))

    def to_json(self):
        return {"kind": self.kind, "dim": self.dim, "gamma": mat_to_json(self.gamma)}


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

    def contains(self, rho, tol: float = MEMBERSHIP_TOL) -> bool | np.ndarray:
        """By the ``constraints``, else (a local has none) by each marginal's membership in its local set."""
        if self.constraints is not None:
            return super().contains(rho, tol)
        m = as_matrix(rho)
        self._check_dim(m)
        return _bools(self._free_marginals(m, tol)[0])

    def _free_marginals(self, m: np.ndarray, tol: float) -> tuple[np.ndarray, list[np.ndarray]]:
        """(whether every marginal of m lies in its local set, the marginals)."""
        margs = [partial_trace_mat(m, self.local_dims, [i]) for i in range(len(self.locals))]
        return np.logical_and.reduce([s.contains(g, tol) for s, g in zip(self.locals, margs)]), margs

    def max_support_state(self):
        """The locals' product; it holds a marginal-set member's support too,
        as supp sigma lies in the product of its marginals' supports."""
        return kron_all(s.max_support_state() for s in self.locals)

    def to_json(self):
        return {"kind": self.kind, "dim": self.dim, "labels": list(self.structure.labels),
                "locals": [s.to_json() for s in self.locals]}


class MinComposite(_Composite):
    """Convex hull of tensor products of locally free states."""

    kind = "min-composite"

    def hull_factors(self):
        return [f for s in self.locals for f in s.hull_factors()]

    @functools.cached_property
    def constraints(self):
        """The tensor product Pi of the factors' projections, where every factor
        has one, with a partial-transpose cone where two factors list no
        extreme points at 2x2 or 2x3; else None.  A projection set with finitely many
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
            return None if proj is None else Constraints(proj, (), None, None)
        dims = tuple(f.dim for f in factors)
        if len(unlisted) == 2 and sorted(dims[i] for i in unlisted) in ([2, 2], [2, 3]):
            return Constraints(proj, (lambda m: partial_transpose_mat(m, dims, unlisted[1]),), None, None)
        return None

    @staticmethod
    def _unlisted(factors: Sequence[FreeStateSet]) -> list[int]:
        """The positions of the ``factors`` that list no extreme points."""
        return [i for i, f in enumerate(factors) if f.extreme_points() is None]

    @property
    def exact_lmo(self):
        factors = self.hull_factors()
        return len(self._unlisted(factors)) <= 1 and all(f.exact_lmo for f in factors)

    def lmo(self, grad, rng=None):
        """One batched see-saw over the flattened factors.

        Factors that list their extreme points are enumerated along the
        batch axis, all but the last one when every factor lists them.  The
        remaining factors are see-sawed, each by its own oracle, from
        ``SEESAW_RESTARTS`` random starts per enumerated combination; all of
        them advance together.  With one such factor a single sweep is exact."""
        g = as_complex(grad)
        if g.ndim > 2:
            return np.stack([self.lmo(x, rng) for x in g])
        rng = rng or np.random.default_rng(0)
        factors = self.hull_factors()
        dims = [f.dim for f in factors]
        points = [f.extreme_points() for f in factors]
        free = [i for i, p in enumerate(points) if p is None] or [len(factors) - 1]
        listed = [i for i in range(len(factors)) if i not in free]
        seesaw = len(free) > 1
        n = SEESAW_RESTARTS if seesaw else 1
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

    def contains(self, rho, tol: float = MEMBERSHIP_TOL) -> bool | np.ndarray:
        """Hull membership by the ``constraints`` where there are.  Else a
        member's marginals are locally free (the hull sits inside the
        marginal set); where every factor has a ``projection``, the hull lies
        in the fixed space of their tensor product Pi, so max|rho - Pi rho| >
        tol rejects; and a product of free marginals is a member.  With at
        most one non-singleton factor conv(A (x) {gamma}) = conv(A) (x)
        {gamma}, so every member is such a product.  Else D_max(rho||S) <= b
        = log2(1 + tol/2) comes with a free witness sigma, rho <= 2^b sigma,
        hence ||rho - sigma||_1 <= 2(2^b - 1) = tol; a rejection is only as
        exact as the see-saw oracle inside ``dmax``.  A stack runs every test
        but D_max at once; D_max runs on each matrix the others leave open."""
        if self.constraints is not None:
            return super().contains(rho, tol)
        m = as_matrix(rho)
        self._check_dim(m)
        stack = m.reshape(-1, self.dim, self.dim)
        ok, margs = self._free_marginals(stack, tol)
        proj = _product_projection(self.hull_factors())
        if proj is not None:
            ok = ok & (np.max(np.abs(stack - proj(stack)), axis=(-2, -1)) <= tol)
        product = trace_norm(stack - kron_all(margs)) <= tol
        if sum(len(s.extreme_points() or ()) != 1 for s in self.locals) > 1:
            from .divergences import dmax  # divergences imports this module

            b = np.log2(1.0 + 0.5 * tol)
            for i in np.flatnonzero(ok & ~product):
                product[i] = dmax(stack[i], self, tol=b).upper_bound <= b
        return _bools((ok & product).reshape(m.shape[:-2]))

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

    def boundary_pair(self):
        # a maximally entangled qubit pair, embedded in the cut if it is 2x3
        vec = np.zeros(self.dim, dtype=complex)
        vec[0] = vec[self.cut[1] + 1] = 1.0 / np.sqrt(2.0)
        return np.outer(vec, vec.conj()), np.eye(self.dim, dtype=complex) / self.dim

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
    """States whose every single-party marginal is locally free: ``constraints`` lift the locals'."""

    kind = "max-composite"

    @functools.cached_property
    def constraints(self):
        """Each local's lifted to its slot, or None where one has none: C_j as
        C_j (x) I at offset c_j (a Pi's as the range of id - Pi at offset 0),
        a cone A as A o Tr_rest."""
        if any(s.constraints is None for s in self.locals):
            return None
        eqs, offsets, cones = [], [], []
        for i, s in enumerate(self.locals):
            c = s.constraints
            local_eqs = c.eqs if c.proj is None else _range(lambda x: x - c.proj(x), hermitian_basis(s.dim, None))
            eqs.append(kron_all(local_eqs if j == i else np.eye(d) for j, d in enumerate(self.local_dims)))
            offsets.append(c.offsets if c.proj is None else np.zeros(len(local_eqs)))
            cones += [lambda m, a=a, i=i: a(partial_trace_mat(m, self.local_dims, [i])) for a in c.cones]
        return Constraints(None, tuple(cones), np.concatenate(eqs), np.concatenate(offsets))

    @functools.cached_property
    def marginal_constraints(self) -> MarginalConstraints:
        """The ``constraints`` for the dual solver, each cone A as A*(E), E the
        ``hermitian_basis``: A*(E)_ba = Tr(E A(|a><b|)) over the matrix units."""
        if self.constraints is None:
            raise NotImplementedError(f"{self.kind} has a local without constraints")
        units = np.eye(self.dim**2, dtype=complex).reshape((self.dim,) * 4)  # |a><b| at [a, b]
        adjoints = [np.einsum("eij,abji->eba", hermitian_basis(images.shape[-1], None), images)
                    for images in (cone(units) for cone in self.constraints.cones)]
        return MarginalConstraints(self.constraints.eqs, adjoints, self.max_support_state())

    def lmo(self, grad, rng=None):
        g = as_complex(grad)
        mus = [self.lmo_with_bound(x)[0] for x in g.reshape(-1, self.dim, self.dim)]
        return np.stack(mus).reshape(g.shape)

    def lmo_with_bound(self, grad) -> tuple[np.ndarray, float]:
        """(mu, lower): a minimising member and its certified bound, ``minimize`` at 1e-10 max|grad|."""
        return self.marginal_constraints.minimize(as_complex(grad), 1e-10 * float(np.max(np.abs(grad))))

    def random_state(self, rng):
        """Local samples plus a correlation traceless on every party, scaled
        to keep the state positive and inside every ``constraints`` cone.  A
        local with constraints mixes its sample half and half with its member
        of maximal support; one without (a listed set) keeps its sample, as
        the mixture may not be on its list.  The correlation sums three
        products of the traceless Hermitian parts of complex Gaussians C = X
        + iY, drawn in one call: term by term, party by party, X then Y."""
        base = kron_all(s.random_state(rng) if s.constraints is None
                        else 0.5 * (s.random_state(rng) + s.max_support_state()) for s in self.locals)
        dims = self.local_dims
        sizes = [2 * d * d for d in dims]
        parts = []
        for d, g in zip(dims, np.split(rng.normal(size=(3, sum(sizes))), np.cumsum(sizes)[:-1], axis=1)):
            x, y = np.swapaxes(g.reshape(3, 2, d, d), 0, 1)
            c = x + 1j * y
            trace = np.real(np.trace(c, axis1=-2, axis2=-1)) / d
            parts.append(0.5 * (c + np.swapaxes(c.conj(), -1, -2)) - trace[:, None, None] * np.eye(d))
        corr = sum(kron_all(parts))  # 0 + t0 + t1 + t2 in order, as a per-term loop adds them
        corr = corr / max(np.linalg.norm(corr), 1e-300)
        top = _whitened_top(base, corr)
        for cone in () if self.constraints is None else self.constraints.cones:
            top = max(top, _whitened_top(cone(base), cone(corr)))
        return base + 1.0 / max(top, 1.0) * rng.uniform() * corr


def _whitened_top(b: np.ndarray, c: np.ndarray) -> float:
    """lambda_max(-b^-1/2 c b^-1/2), so b + t c >= 0 for t <= 1/top; +inf unless b > 0."""
    w, v = np.linalg.eigh(b - 1e-10 * np.eye(len(b)))
    if w[0] <= 0.0:
        return np.inf
    root = v / np.sqrt(w)
    return np.linalg.eigvalsh(-root.conj().T @ c @ root)[-1]


class SmoothedDual:
    """The concave dual F(y) = c.y + psi(K - y.mats) + barrier sum_k ln det Z_k,
    smoothed at temperature tau (Nesterov, Math. Program. 103, 127, 2005), for
    ``cones`` of (slice, E) pairs: Z_k = y[slice].E stays positive definite.
    With ``softplus`` (D_H's dual), psi(H) = -tau sum_a softplus(lambda_a/tau)
    smooths -Tr H_+; else psi(H) = -tau ln Tr exp(-H/tau) smooths lambda_min(H).
    With ``orthant`` y stays positive and F adds barrier sum_i ln y_i."""

    def __init__(self, mats: np.ndarray, offsets: np.ndarray, cones: list, softplus: bool, orthant: bool):
        self.mats, self.offsets, self.cones = mats, offsets, cones
        self.softplus, self.orthant = softplus, orthant

    def _dual(self, k, tau, barrier, y):
        """(F(y), eigensystem of H, weights dpsi/dlambda, Z_k^-1), or None off the domain."""
        zs = [np.tensordot(y[sl], e, 1) for sl, e in self.cones]
        if (self.orthant and np.any(y <= 0.0)) or any(np.linalg.eigvalsh(z)[0] <= 0.0 for z in zs):
            return None
        logs = sum(np.linalg.slogdet(z)[1] for z in zs)
        if self.orthant:
            logs = logs + np.sum(np.log(y))
        w, v = np.linalg.eigh(k - np.tensordot(y, self.mats, 1))
        if self.softplus:
            psi, weights = -tau * np.sum(np.logaddexp(0.0, w / tau)), -0.5 * (1.0 + np.tanh(0.5 * w / tau))
        else:
            p = np.exp(-(w - w[0]) / tau)
            psi, weights = w[0] - tau * np.log(np.sum(p)), p / np.sum(p)
        val = psi + self.offsets @ y + barrier * logs
        return float(val), w, v, weights, [np.linalg.inv(z) for z in zs]

    def _derivatives(self, tau, barrier, y, state):
        """(gradient of F, minus its Hessian) at y from its ``_dual`` state, psi's
        Hessian through the divided differences of the weights (Daleckii-Krein)."""
        _, w, v, weights, zinv = state
        mh = v.conj().T @ self.mats @ v
        d = np.real(np.einsum("kaa->ka", mh)) @ weights
        grad, diff = self.offsets - d, w[:, None] - w[None, :]
        slopes = -weights * (1.0 + weights) if self.softplus else weights  # -tau dweights/dlambda
        gamma = np.divide(weights[:, None] - weights[None, :], diff, where=np.abs(diff) > 1e-9 * tau,
                          out=-0.5 * (slopes[:, None] + slopes[None, :]) / tau)
        flat = mh.reshape(len(y), len(w) ** 2)
        curv = -np.real((flat.conj() * gamma.ravel()) @ flat.T)
        if self.orthant:
            grad, curv = grad + barrier / y, curv + np.diag(barrier / y**2)
        if not self.softplus:
            curv -= np.outer(d, d) / tau
        for (sl, e), zi in zip(self.cones, zinv):
            grad[sl] += barrier * np.real(np.einsum("kab,ba->k", e, zi))
            curv[sl, sl] += barrier * np.real(np.einsum("kab,lba->kl", zi @ e, zi @ e))
        return grad, curv

    def newton(self, k: np.ndarray, tau: float, barrier: float, y: np.ndarray, tol: float):
        """(y, eigensystem of H, weights, steps) after Newton steps on F (the Hessian's
        pseudo-inverse, cut at 1e-13 of its top eigenvalue; at most 0.99 of the way to
        the orthant's boundary; Armijo backtracking within rounding) until the gradient
        is below ``tol`` or the weights' rounding floor, a line search fails, the last
        step gained no more than the rounding slack and did not shrink max|grad| (F's
        rounding floor), or 50 steps."""
        state, tol = self._dual(k, tau, barrier, y), max(tol, 1e-16 * np.max(np.abs(k)) / tau)
        gain, slack, last = np.inf, 0.0, np.inf  # the last step's rise in F, its slack, max|grad| before it
        for steps in range(51):
            grad, curv = self._derivatives(tau, barrier, y, state)
            size = float(np.max(np.abs(grad), initial=0.0))
            if steps == 50 or size <= tol or (gain <= slack and size >= last):
                break
            lam, vec = np.linalg.eigh(curv)
            step = vec @ np.divide(vec.T @ grad, lam, out=0.0 * lam, where=lam > 1e-13 * lam[-1])
            shrink = self.orthant & (step < 0.0)
            reach = min(1.0, 0.99 * float(np.min(-y[shrink] / step[shrink]))) if shrink.any() else 1.0
            rise, slack = 1e-4 * grad @ step, 1e-14 * (1.0 + abs(state[0]))
            for t in reach * 0.5 ** np.arange(20):
                trial = self._dual(k, tau, barrier, y + t * step)
                if trial is not None and trial[0] >= state[0] + t * rise - slack:
                    break
            else:
                break
            y, state, gain, last = y + t * step, trial, trial[0] - state[0], size
        return y, state[1], state[2], state[3], steps


class MarginalConstraints(SmoothedDual):
    """The states with Tr(C_j sigma) = Tr(C_j interior) = c_j for the ``eqs``
    C_j and A_k(sigma) >= 0 for ``cones`` A_k*(E), E a ``hermitian_basis``,
    compressed onto the support of ``interior``, which holds every member's,
    with the C_j re-orthonormalised there.  With y = (x, z), Z_k = z.E and H
    = K - y.mats, ``bound`` = lambda_min(H) + c.x <= min Tr(K sigma) where
    all Z_k >= 0.  ``solve`` is the log-sum-exp ``SmoothedDual``: at tau = 1
    and K = eta G - ln sigma its Gibbs state is the mirror step argmin eta
    Tr(G mu) + D(mu||sigma) over the set."""

    def __init__(self, eqs: np.ndarray, cones: list[np.ndarray], interior: np.ndarray):
        w, v = np.linalg.eigh(interior)
        self.interior, self.frame = interior, np.eye(len(w)) if w[0] > EIG_FLOOR else v[:, w > EIG_FLOOR]
        eqs, cones = self._compress(eqs), [self._compress(c) for c in cones]
        if w[0] <= EIG_FLOOR:  # on a proper support some C_j vanish or become dependent
            gw, gv = np.linalg.eigh(np.real(np.einsum("jab,kba->jk", eqs, eqs)))
            eqs = np.tensordot((gv[:, gw > 1e-10] / np.sqrt(gw[gw > 1e-10])).T, eqs, 1)
        self.n_eq, self._gram = len(eqs), np.real(np.einsum("jab,kba->jk", eqs, eqs))
        offsets = np.pad(np.real(np.einsum("kab,ba->k", eqs, self._compress(interior))),
                         (0, sum(map(len, cones))))
        ends = np.cumsum([self.n_eq] + [len(c) for c in cones])
        super().__init__(np.concatenate([eqs] + cones), offsets,
                         [(slice(a, b), hermitian_basis(math.isqrt(b - a), None))
                          for a, b in zip(ends[:-1], ends[1:])], False, False)
        self.origin = np.concatenate(  # x = 0 and every Z_k = I/n_k
            [np.zeros(self.n_eq)] + [np.real(np.einsum("kaa->k", e)) / len(e[0]) for _, e in self.cones])

    def _compress(self, x: np.ndarray) -> np.ndarray:
        return self.frame.conj().T @ x @ self.frame

    def bound(self, k: np.ndarray, y: np.ndarray) -> float:
        return float(np.linalg.eigvalsh(self._compress(k) - np.tensordot(y, self.mats, 1))[0] + self.offsets @ y)

    def solve(self, k: np.ndarray, tau: float, barrier: float, y: np.ndarray, tol: float):
        """(y, Gibbs state, Newton steps) after ``newton`` on K compressed to the support."""
        y, _, v, p, steps = self.newton(self._compress(k), tau, barrier, y, tol)
        return y, (self.frame @ v * p) @ (self.frame @ v).conj().T, steps

    def member(self, rho: np.ndarray) -> np.ndarray:
        """rho on the support corrected along the C_j, then mixed with ``interior`` into every cone."""
        rho, interior, eqs = self._compress(rho), self._compress(self.interior), self.mats[:self.n_eq]
        resid = np.real(np.einsum("kab,ba->k", eqs, rho)) - self.offsets[:self.n_eq]
        rho = rho - np.tensordot(np.linalg.solve(self._gram, resid), eqs, 1)
        rho = 0.5 * (rho + rho.conj().T)
        a, b = ([np.linalg.eigvalsh(m)[0] for m in [x] + [np.tensordot(
            np.real(np.einsum("kab,ba->k", self.mats[sl], x)), e, 1) for sl, e in self.cones]]
            for x in (rho, interior))
        t = max([0.0] + [-ai / (bi - ai) for ai, bi in zip(a, b) if ai < 0.0])
        return self.frame @ ((1.0 - t) * rho + t * interior) @ self.frame.conj().T

    def minimize(self, grad: np.ndarray, tol: float) -> tuple[np.ndarray, float]:
        """(mu, lower): ``solve`` from tau = max(lambda_max(G) - lambda_min(G),
        max|G|) (colder, the Gibbs weights start one-hot and y stays at the
        origin) down by tenfold steps at barrier tau/100 until the best member
        is within ``tol`` of the best bound, or a colder one ten times as far.
        Each rung polishes its bound once: each Z_k cut to its eigenvalues
        above sqrt(tau max|G|/100), x and that support move by least squares
        to make N^H H N a multiple of I, N the eigenvectors within 30 tau of
        lambda_min.  Its members are the ``member`` repairs of the Gibbs
        state, with cones of its extrapolation to barrier 0 from a solve at
        tau/1000, and of N S N^H, S fitted to Tr S = 1 and the equalities."""
        g = 0.5 * (grad + grad.conj().T)
        scale = max(float(np.max(np.abs(g))), 1e-300)
        top = max(float(np.ptp(np.linalg.eigvalsh(g))), scale)
        y, best, best_val, lower, grad_tol = self.origin, None, np.inf, -np.inf, 0.1 * tol / scale
        for e in range(14):
            tau = top * 10.0 ** -e
            y, gibbs, _ = self.solve(g, tau, 0.01 * tau, y, grad_tol)
            states = [gibbs] + [(10.0 * self.solve(g, tau, 0.001 * tau, y, grad_tol)[1] - gibbs) / 9.0
                                for _ in self.cones[:1]]
            z, lower = y.copy(), max(lower, self.bound(g, y))
            keep = np.eye(len(z))
            for sl, basis in self.cones:
                zw, zv = np.linalg.eigh(np.tensordot(z[sl], basis, 1))
                support = (zv * (zw > 0.1 * np.sqrt(tau * scale))) @ zv.conj().T
                keep[sl, sl] = np.real(np.einsum("lab,mba->lm", basis, support @ basis @ support))
            w, v = np.linalg.eigh(self._compress(g) - np.tensordot(keep @ z, self.mats, 1))
            on_face = w - w[0] <= 30.0 * tau
            face, hb = v[:, on_face], hermitian_basis(int(np.sum(on_face)), None)
            a = np.real(np.einsum("lab,kba->lk", hb, face.conj().T @ self.mats @ face)) @ keep
            a = np.column_stack([a, np.real(np.einsum("laa->l", hb))])
            rhs = np.real(np.einsum("laa,a->l", hb, w[on_face] - w[0]))
            z = keep @ (z + np.linalg.lstsq(a, rhs, rcond=None)[0][:-1])
            fill = np.linalg.lstsq(a[:, np.r_[:self.n_eq, -1]].T, np.r_[self.offsets[:self.n_eq], 1.0])[0]
            states.append(self.frame @ face @ np.tensordot(fill, hb, 1) @ face.conj().T @ self.frame.conj().T)
            for sl, basis in self.cones:
                zw, zv = np.linalg.eigh(np.tensordot(z[sl], basis, 1))
                clipped = (zv * np.clip(zw, 0.0, None)) @ zv.conj().T
                z[sl] = np.real(np.einsum("lab,ba->l", basis, clipped))
            lower = max(lower, self.bound(g, z))
            val, mu = min(((float(np.real(np.vdot(g, mu))), mu) for mu in map(self.member, states)),
                          key=lambda pair: pair[0])
            if val < best_val:
                best, best_val = mu, val
            if best_val - lower <= tol or val - lower > 10.0 * (best_val - lower):
                return best, lower
        return best, lower


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
