"""Extremal composite constructions and compatibility checking.

Given local theories, builds the minimal free-state set (hull of local-free
products), the maximal one (everything with locally free marginals), and
mixtures of product channels.  Checkers test the four compatibility
conditions between a candidate composite theory and its locals, and the
multi-copy closure axioms.  Every condition that is an inclusion of one free
set in another under a linear map (free products, free marginals, listed
operations, the sandwich, copy marginals and copy swaps) is one or more
``FreeStateSet.maps_into`` calls, and its verdict carries that engine's
mode: ``extreme-points``, ``projection`` or ``certified`` where it decides
exactly, ``sampled`` where the input set lists no extreme points and either
it has no projection or the target no ``constraints``.  Conditions over
operation classes and marginal channels (d) are sampled up to the first
counterexample, convexity and tensor closure up to the first stack of
samples that holds one; the full-rank axiom is read off a ``witness``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Iterable, Mapping, Sequence

import numpy as np

from . import channels as ch
from .qcore import (
    DensityOperator,
    TensorStructure,
    kron,
    kron_all,
    mat_to_json,
    partial_trace_mat,
    permutation_matrix,
    single_party,
)
from .theories import (
    FreeOpClass,
    FreeStateSet,
    Incoherent,
    MaxComposite,
    MinComposite,
    RngVerdict,
    Singleton,
)

DEFAULT_STATE_SAMPLES = 200
DEFAULT_CHANNEL_SAMPLES = 50


def smin(locals_: Sequence[FreeStateSet], labels: Sequence[str] | None = None) -> FreeStateSet:
    """Convex hull of products of locally free states.

    Products of one-point sets collapse to a singleton, and products of
    computational-basis dephasings (a ``projection`` whose extreme points
    are the basis projectors) to the product-basis incoherent set, which
    mixtures of diagonal products exhaust; otherwise a hull descriptor with
    a see-saw extreme-point oracle is returned.
    """
    if len(locals_) < 2:
        raise ValueError("need at least two local theories")
    if all(len(s.extreme_points() or ()) == 1 for s in locals_):
        return Singleton(kron_all(s.extreme_points()[0] for s in locals_))
    if all(s.projection() is not None
           and np.array_equal(s.extreme_points(), np.eye(s.dim)[:, None] * np.eye(s.dim))
           for s in locals_):
        return Incoherent(int(np.prod([s.dim for s in locals_])))
    return MinComposite(list(locals_), labels)


def smax(locals_: Sequence[FreeStateSet], labels: Sequence[str] | None = None) -> MaxComposite:
    """States whose every single-party marginal is locally free."""
    return MaxComposite(list(locals_), labels)


def fmin_element(
    terms: Sequence[Sequence[ch.KrausChannel]],
    weights: Sequence[float] | None = None,
) -> ch.KrausChannel:
    """A convex mixture of product channels, as one Kraus family.

    ``terms[k]`` lists one local channel per party; ``weights`` are the
    mixture probabilities (uniform when omitted).  Mixing is realized by
    scaling each product family with the square root of its weight.
    """
    if not terms:
        raise ValueError("need at least one product term")
    weights = [1.0 / len(terms)] * len(terms) if weights is None else [float(w) for w in weights]
    if len(weights) != len(terms):
        raise ValueError("one weight per term")
    if abs(sum(weights) - 1.0) > 1e-9 or any(w < 0 for w in weights):
        raise ValueError("weights must form a probability vector")
    products = [ch.product_channel(list(locals_k)) for locals_k in terms]
    ins, outs = products[0].in_structure, products[0].out_structure
    ops = []
    for w, prod in zip(weights, products):
        if w == 0.0:
            continue
        ops.extend(np.sqrt(w) * k for k in prod.kraus)
    return ch.KrausChannel(tuple(ops), ins, outs)


# ---------------------------------------------------------------------------
# reports


@dataclass
class ConditionVerdict:
    name: str
    passed: bool
    mode: str
    detail: str = ""
    counterexample: np.ndarray | None = field(default=None, repr=False)

    def to_json(self) -> dict:
        out = {"name": self.name, "verdict": "pass" if self.passed else "fail",
               "mode": self.mode, "detail": self.detail}
        if self.counterexample is not None:
            out["counterexample"] = mat_to_json(self.counterexample)
        return out


@dataclass
class AxiomReport:
    conditions: list[ConditionVerdict]
    seed: int

    @property
    def all_pass(self) -> bool:
        return all(c.passed for c in self.conditions)

    def to_json(self) -> dict:
        return {
            "seed": self.seed,
            "all_pass": self.all_pass,
            "conditions": [c.to_json() for c in self.conditions],
        }


def check_axioms(
    candidate_states: FreeStateSet,
    candidate_ops: FreeOpClass | Sequence[ch.KrausChannel],
    locals_: Sequence[tuple[FreeStateSet, FreeOpClass]],
    n_state_samples: int = DEFAULT_STATE_SAMPLES,
    n_channel_samples: int = DEFAULT_CHANNEL_SAMPLES,
    seed: int = 0,
) -> AxiomReport:
    """Test the four local-compatibility conditions of a candidate theory.

    (a) products of locally free states are free, ``smin(locals)`` inside
    the candidate; (b) products of locally free operations are free; (c)
    marginals of free states are locally free, the candidate inside
    ``smax(locals)``; (d) marginal channels of free operations, frozen on
    locally free inputs, are locally free.  (a) and (c) are ``maps_into``
    verdicts under the identity.  Over an operation class, (b) samples
    products of local channels against the class predicate and (d) is
    skipped.  Over an explicit list, membership of arbitrary products in
    the list is not decided; (b) instead asks ``maps_into`` whether each
    listed operation maps the candidate into itself, and (d) samples the
    frozen inputs.
    """
    rng = np.random.default_rng(seed)
    local_sets = [s for s, _ in locals_]
    local_classes = [c for _, c in locals_]
    labels = _labels_for(candidate_states, len(locals_))
    dims = [s.dim for s in local_sets]
    verdicts: list[ConditionVerdict] = []

    # (a) free product states
    verdicts.append(_inclusion(
        "free-product-states", [smin(local_sets).maps_into(_identity, candidate_states, 1e-6,
                                                           n_state_samples, rng)],
        "local free products lie in the candidate"))

    # (b) free product operations
    ops_is_class = isinstance(candidate_ops, FreeOpClass)
    if ops_is_class:
        draws = ([cls.sample_channel(rng, d) for cls, d in zip(local_classes, dims)]
                 for _ in range(n_channel_samples))
        channels = (ch.product_channel(parts, labels) for parts in draws)
        bad = first_failure(((c, c, candidate_ops.contains_channel) for c in channels), 1e-9)
        verdicts.append(ConditionVerdict(
            "free-product-operations", bad is None, "sampled",
            "a product of sampled local free channels failed the class predicate" if bad is not None
            else f"{n_channel_samples} sampled local free products pass the class predicate"))
    else:
        ops_list = list(candidate_ops)
        per_op = max(1, n_state_samples // max(len(ops_list), 1))
        verdicts.append(_inclusion(
            "free-product-operations",
            (candidate_states.maps_into(lam.apply_mat, candidate_states, 1e-5, per_op, rng)
             for lam in ops_list),
            "each listed operation maps the candidate free states into themselves; "
            "membership of products of local operations in the list is not decided"))

    # (c) free marginal states
    verdicts.append(_inclusion(
        "free-marginal-states", [candidate_states.maps_into(_identity, smax(local_sets), 1e-6,
                                                            n_state_samples, rng)],
        "candidate free states have locally free marginals"))

    # (d) free marginal operations
    if ops_is_class:
        verdicts.append(ConditionVerdict(
            "free-marginal-operations", True, "skipped",
            "no sampler over a bare class; provide explicit operations to probe (d)"))
    else:
        bad = first_failure(_marginal_channels(ops_list, locals_, labels, rng), 1e-6)
        verdicts.append(ConditionVerdict(
            "free-marginal-operations", bad is None, "sampled",
            bad or "all listed operations reduce to locally free marginals"))
    return AxiomReport(verdicts, seed)


def _marginal_channels(ops, locals_, labels, rng):
    """Cases of condition (d): each listed operation's marginal at each party,
    the other inputs frozen on freshly sampled locally free states; the
    witness is the failure's description."""
    structure = TensorStructure(zip(labels, [s.dim for s, _ in locals_]))
    for lam in ops:
        for i, (_, cls) in enumerate(locals_):
            frozen = {label: DensityOperator(s.random_state(rng), single_party(s.dim, label))
                      for j, ((s, _), label) in enumerate(zip(locals_, labels)) if j != i}
            marginal = ch.marginal_channel(_with_structure(lam, structure), labels[i], frozen)
            yield (f"marginal at party {labels[i]} with locally free frozen inputs "
                   f"fails the local class {cls.kind}"), marginal, cls.contains_channel


def _labels_for(candidate: FreeStateSet, n: int) -> list[str]:
    structure = candidate.structure
    if structure is not None and len(structure.labels) == n:
        return list(structure.labels)
    return [str(i + 1) for i in range(n)]


def _with_structure(channel: ch.KrausChannel, structure: TensorStructure) -> ch.KrausChannel:
    if channel.in_structure.dims == structure.dims and channel.in_structure.labels == structure.labels:
        return channel
    if channel.dim_in != structure.dim or channel.dim_out != structure.dim:
        raise ValueError("channel does not act on the composite space")
    return ch.KrausChannel(channel.kraus, structure, structure, check_tp=False)


def check_sandwich(
    candidate: FreeStateSet,
    locals_: Sequence[FreeStateSet],
    n_samples: int = DEFAULT_STATE_SAMPLES,
    seed: int = 0,
) -> AxiomReport:
    """Whether the candidate sits between the extremal sets: the hull of
    local products inside it (membership at 1e-5), and it inside the
    marginal set (at 1e-6), each decided by ``maps_into`` under the
    identity."""
    rng = np.random.default_rng(seed)
    verdicts = [
        _inclusion("hull-inside-candidate",
                   [smin(locals_).maps_into(_identity, candidate, 1e-5, n_samples, rng)],
                   "the hull of local products lies in the candidate"),
        _inclusion("candidate-inside-marginal-set",
                   [candidate.maps_into(_identity, smax(locals_), 1e-6, n_samples, rng)],
                   "candidate free states have locally free marginals"),
    ]
    return AxiomReport(verdicts, seed)


_MODES = ("extreme-points", "projection", "certified", "sampled")


def _identity(m: np.ndarray) -> np.ndarray:
    return m


def _inclusion(name: str, verdicts: Iterable[RngVerdict], detail: str) -> ConditionVerdict:
    """One condition from ``maps_into`` verdicts, drawn lazily up to the first
    failure, which it reports with that verdict's mode and witness; a pass
    takes the weakest mode read, so ``sampled`` if any part was sampled."""
    read = []
    for v in verdicts:
        read.append(v)
        if not v.ok:
            return ConditionVerdict(name, False, v.mode, detail, v.witness)
    mode = max((v.mode for v in read), key=_MODES.index, default=_MODES[0])
    return ConditionVerdict(name, True, mode, f"{detail} (states checked: {sum(v.n_states for v in read)})")


def first_failure(cases: Iterable[tuple[object, object, Callable]], tol: float) -> object | None:
    """The witness of the first case that fails its membership test, or None.

    A case is a triple ``(witness, x, contains)``, checked as
    ``contains(x, tol)``: a channel and a class's ``contains_channel``.
    Cases are drawn lazily, each after the previous one's check, so sampling
    stops at the first failure.  Sampled states are tested as stacks
    instead, by ``maps_into`` or ``_sampled``."""
    return next((w for w, x, contains in cases if not contains(x, tol)), None)


def _sampled(name: str, rows: Iterable[tuple[str, np.ndarray, FreeStateSet]], tol: float,
             detail: str) -> ConditionVerdict:
    """A sampled condition over rows ``(note, stack, set)``: every matrix of
    each stack lies in its row's set.  Rows are drawn lazily, each after the
    previous row's one membership test of its whole stack, so sampling stops
    at the first failing row; its first failing matrix is the counterexample,
    reported with the row's note, or ``detail`` where that is empty."""
    for note, stack, target in rows:
        out = np.flatnonzero(~target.contains(stack, tol))
        if out.size:
            return ConditionVerdict(name, False, "sampled", note or detail, stack[out[0]])
    return ConditionVerdict(name, True, "sampled", detail)


# ---------------------------------------------------------------------------
# multi-copy closure axioms


@dataclass
class BpReport:
    axioms: list[ConditionVerdict]
    seed: int

    @property
    def all_pass(self) -> bool:
        return all(a.passed for a in self.axioms)

    def to_json(self) -> dict:
        return {"seed": self.seed, "all_pass": self.all_pass,
                "axioms": [a.to_json() for a in self.axioms]}


def check_bp_axioms(
    family: Mapping[int, FreeStateSet],
    max_n: int = 2,
    n_samples: int = 60,
    seed: int = 0,
    probe_states: Mapping[int, Sequence[np.ndarray]] | None = None,
) -> BpReport:
    """Verdicts for the five multi-copy closure axioms of a family n -> S_n:
    convexity, a full-rank member, marginal closure, tensor closure S_m (x)
    S_n into S_{m+n}, and permutation closure.  The second is exact, read off
    each S_n's ``max_support_state``.  Marginal closure (S_n into S_{n-1}
    under each single-copy partial trace) and permutation closure (S_n into
    itself under each adjacent-copy swap) are ``maps_into`` verdicts;
    convexity and tensor closure sample mixtures and products of pools and
    test each copy number's mixtures, and each pool member's products with
    a fresh pool, as one stack.  Every membership test runs at 1e-5.

    ``probe_states`` optionally injects hand-picked states per copy number
    into those pools, so known witnesses are always exercised.
    """
    if max_n > 3:
        raise ValueError("max_n <= 3")
    rng = np.random.default_rng(seed)
    probe_states = {int(k): list(v) for k, v in (probe_states or {}).items()}
    loose = 1e-5

    def pool(n, count):
        states = [s for s in probe_states.get(n, []) if family[n].contains(s, loose)]
        while len(states) < count:
            states.append(family[n].random_state(rng))
        return states

    def mixtures():
        for n in range(1, max_n + 1):
            states = pool(n, 8)
            w = rng.dirichlet(np.ones(len(states)), n_samples // max_n + 1)
            yield "", sum(wi[:, None, None] * s for wi, s in zip(w.T, states)), family[n]

    def copy_marginals():
        # the n dropped copies share n_samples // 4 + 1 draws per copy number
        for n in range(2, max_n + 1):
            dims = [_copy_dim(family, n)] * n
            for drop in range(n):
                keep = [i for i in range(n) if i != drop]
                yield family[n].maps_into(lambda m: partial_trace_mat(m, dims, keep),
                                          family[n - 1], loose, max(1, (n_samples // 4 + 1) // n), rng)

    def products():
        for m in range(1, max_n):
            for n in range(1, max_n - m + 1):
                for a in pool(m, 10):
                    yield f"S_{m} (x) S_{n} leaves S_{m + n}", kron(a, np.stack(pool(n, 10))), family[m + n]

    def swaps():
        for n in range(2, max_n + 1):
            structure = TensorStructure([(f"c{i}", _copy_dim(family, n)) for i in range(n)])
            for k in range(n - 1):
                order = list(structure.labels)
                order[k], order[k + 1] = order[k + 1], order[k]
                perm = permutation_matrix(structure, order)
                yield family[n].maps_into(lambda m: perm @ m @ perm.conj().T,
                                          family[n], loose, 10, rng)

    axioms: list[ConditionVerdict] = []

    # 1: convexity
    axioms.append(_sampled("convexity", mixtures(), loose, "mixtures of members stay inside"))

    # 2: a full-rank member
    deficient = [n for n in range(1, max_n + 1)
                 if np.linalg.eigvalsh(family[n].max_support_state())[0] <= 1e-12]
    detail = f"no full-rank member at n in {deficient}" if deficient else "a full-rank member at every n"
    axioms.append(ConditionVerdict("full-rank-member", not deficient, "witness", detail))

    # 3: marginal closure (trace out one copy)
    axioms.append(_inclusion("marginal-closure", copy_marginals(),
                             "single-copy partial traces stay free"))

    # 4: tensor closure
    axioms.append(_sampled("tensor-closure", products(), loose, "sampled products stay free"))

    # 5: permutation closure (explicit swaps of adjacent copies)
    axioms.append(_inclusion("permutation-closure", swaps(), "adjacent-copy swaps stay free"))
    return BpReport(axioms, seed)


def _copy_dim(family: Mapping[int, FreeStateSet], n: int) -> int:
    d = family[n].dim
    root = round(d ** (1.0 / n))
    if root**n != d:
        raise ValueError("copy spaces must have equal dimensions")
    return root
