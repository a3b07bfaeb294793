"""Universal transformation laws for composite theories.

The single-shot law compares the divergence of the input from the hull set
against the divergence of the target from the marginal set; since the law is
a necessary condition only, verdicts are FORBIDDEN or NOT-EXCLUDED, never
"allowed".  Also here: the uncorrelated reduction to a single party, the
asymptotic rate and assisted-distillation bounds, correlation witnessing,
monotones induced across theories, the constructive separating channel
behind them, and the affine-basis no-go certificate for converting
correlations into local resources.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import channels as ch
from .composite import smax, smin
from .divergences import (
    DivergenceResult,
    hypothesis_testing,
    regularized_rel_entropy,
    rel_entropy_of_resource,
)
from .qcore import (
    DensityOperator,
    TensorStructure,
    as_matrix,
    bell_phi_plus_vec,
    kron,
    kron_all,
    mat_to_json,
    partial_trace_mat,
    spanning_states,
    trace_norm,
)
from .theories import AllStates, FreeStateSet

FORBIDDEN = "FORBIDDEN"
NOT_EXCLUDED = "NOT-EXCLUDED"


@dataclass
class BoundReport:
    lhs: DivergenceResult
    rhs: DivergenceResult
    verdict: str
    ratio: float | None = None
    extras: dict = field(default_factory=dict)

    def to_json(self) -> dict:
        out = {
            "lhs": self.lhs.to_json(),
            "rhs": self.rhs.to_json(),
            "gaps": [self.lhs.gap, self.rhs.gap],
            "verdict": self.verdict,
            "extras": dict(self.extras),
        }
        if self.ratio is not None:
            out["ratio"] = self.ratio
        return out


def _verdict(lhs: DivergenceResult, rhs: DivergenceResult) -> str:
    # The bound is necessary, not sufficient: only a certified strict
    # violation may be called FORBIDDEN.
    lhs_up = lhs.value + lhs.gap
    rhs_low = rhs.value - rhs.gap
    if math.isinf(rhs.value) and not math.isinf(lhs.value):
        return FORBIDDEN
    if lhs_up < rhs_low:
        return FORBIDDEN
    return NOT_EXCLUDED


def single_shot_verdict(
    rho: DensityOperator,
    sigma: DensityOperator,
    locals_: list[FreeStateSet],
    gap: float = 1e-3,
    seed: int = 0,
) -> BoundReport:
    """Necessary condition for rho -> sigma in any compatible composite
    theory: divergence from the hull set must dominate the target's
    divergence from the marginal set."""
    if rho.structure.dims != sigma.structure.dims:
        raise ValueError("states must share a tensor structure")
    return conversion_verdict(rho, smin(locals_), sigma, smax(locals_), gap, seed)


def conversion_verdict(
    rho1: DensityOperator,
    set1: FreeStateSet,
    rho2: DensityOperator,
    set2: FreeStateSet,
    gap: float = 1e-3,
    seed: int = 0,
) -> BoundReport:
    """Single-shot conversion between resources held by different parties,
    with locally free padding on the other side: compares the two local
    divergences."""
    lhs = rel_entropy_of_resource(rho1, set1, gap=gap, seed=seed)
    rhs = rel_entropy_of_resource(rho2, set2, gap=gap, seed=seed)
    return BoundReport(lhs, rhs, _verdict(lhs, rhs))


def uncorrelated_reduction(
    rho: DensityOperator,
    locals_: list[FreeStateSet],
    resourceful_party: str,
    gap: float = 1e-3,
    seed: int = 0,
) -> DivergenceResult:
    """For an explicit product state with every other party locally free,
    both extremal divergences collapse to the resourceful party's local
    value; computes all three and asserts the collapse within solver gaps."""
    labels = list(rho.structure.labels)
    dims = list(rho.structure.dims)
    margs = [partial_trace_mat(rho.mat, dims, [i]) for i in range(len(dims))]
    if trace_norm(rho.mat - kron_all(margs)) > 1e-8:
        raise ValueError("input is not a product state within tolerance")
    r_idx = labels.index(resourceful_party)
    for i, s in enumerate(locals_):
        if i != r_idx and not s.contains(margs[i], 1e-6):
            raise ValueError(f"party {labels[i]} marginal is not locally free")

    local = rel_entropy_of_resource(margs[r_idx], locals_[r_idx], gap=gap, seed=seed)
    low = rel_entropy_of_resource(rho, smin(locals_), gap=gap, seed=seed)
    high = rel_entropy_of_resource(rho, smax(locals_), gap=gap, seed=seed)
    spread = abs(low.value - high.value)
    budget = low.gap + high.gap + 1e-9
    out = DivergenceResult(
        local.value,
        local.lower_bound,
        local.upper_bound,
        local.iterations + low.iterations + high.iterations,
        local.converged and spread <= budget,
        local.optimizer,
        {
            "hull_value": low.value,
            "marginal_value": high.value,
            "extremal_spread": spread,
            "spread_budget": budget,
        },
    )
    if spread > budget:
        out.extras["warning"] = "extremal values did not collapse within gaps"
    return out


def _rate_bound(num: DivergenceResult, den: DivergenceResult) -> BoundReport:
    """The rate ceiling num/den: 0 when num is within its gap of zero, else
    +inf when den is."""
    if num.value <= num.gap + 1e-12:
        ratio = 0.0
    elif den.value <= den.gap + 1e-12:
        ratio = float("inf")
    else:
        ratio = num.value / den.value
    return BoundReport(num, den, "BOUND", ratio=ratio)


def asymptotic_rate_bound(
    rho1: DensityOperator,
    set1: FreeStateSet,
    sigma2: DensityOperator,
    set2: FreeStateSet,
    assume_additive: tuple[bool, bool] = (False, False),
    gap: float = 1e-3,
    seed: int = 0,
) -> BoundReport:
    """Upper bound on the asymptotic conversion rate between two local
    resources: the ratio of regularized divergences, evaluated where
    regularization collapses to single-copy values."""
    num = regularized_rel_entropy(
        rho1, set1, mode="declared-additive", assume_additive=assume_additive[0], gap=gap, seed=seed
    )
    den = regularized_rel_entropy(
        sigma2, set2, mode="declared-additive", assume_additive=assume_additive[1], gap=gap, seed=seed
    )
    return _rate_bound(num, den)


def assisted_distillation_bound(
    rho_ab: DensityOperator,
    b_theory: FreeStateSet,
    golden: DensityOperator,
    gap: float = 1e-3,
    seed: int = 0,
) -> BoundReport:
    """Rate ceiling for distilling golden units on the restricted party with
    an unrestricted assistant: hull divergence of the shared state over the
    golden unit's local divergence."""
    labels = list(rho_ab.structure.labels)
    d_a = rho_ab.structure.dims[0]
    hull = smin([AllStates(d_a), b_theory], labels=labels)
    num = rel_entropy_of_resource(rho_ab, hull, gap=gap, seed=seed)
    den = regularized_rel_entropy(golden, b_theory, mode="declared-additive", gap=gap, seed=seed)
    return _rate_bound(num, den)


def correlation_witness(
    rho_ab: DensityOperator,
    b_theory: FreeStateSet,
    golden: DensityOperator,
    observed_rate: float,
    gap: float = 1e-3,
    seed: int = 0,
) -> float:
    """Lower bound on the correlation content D(rho_AB || rho_A (x) rho_B)
    extracted from an observed assisted-distillation rate: the excess of the
    rate over the unassisted ceiling, in golden units, clamped at zero."""
    labels = list(rho_ab.structure.labels)
    rho_b = partial_trace_mat(rho_ab.mat, rho_ab.structure.dims, [1])
    den = regularized_rel_entropy(golden, b_theory, mode="declared-additive", gap=gap, seed=seed)
    unassisted_num = regularized_rel_entropy(
        rho_b, b_theory, mode="declared-additive", gap=gap, seed=seed
    )
    if den.value <= 1e-12:
        return 0.0
    witness = (observed_rate - unassisted_num.value / den.value) * den.value
    return max(0.0, witness)


# ---------------------------------------------------------------------------
# induced monotones and the separating channel behind their faithfulness


def induced_monotone(
    rho1,
    set1: FreeStateSet,
    set2: FreeStateSet,
    channel_family: list[ch.KrausChannel],
    mu2_samples: int = 6,
    gap: float = 1e-3,
    seed: int = 0,
) -> float:
    """Measure party 1's resource through party 2's monotone: the best
    divergence-from-set2 of the party-2 marginal over the given channel
    family and sampled locally free inputs.  Reports a lower bound on the
    supremum (the family is finite by construction)."""
    if not channel_family:
        raise ValueError("channel family must be nonempty")
    rng = np.random.default_rng(seed)
    m1 = as_matrix(rho1)
    best = 0.0
    for lam in channel_family:
        d1 = lam.in_structure.dims[0]
        if m1.shape[0] != d1:
            raise ValueError("state does not match the family's party-1 input")
        mus = [set2.random_state(rng) for _ in range(mu2_samples)] + [set2.max_support_state()]
        for mu2 in mus:
            joint = kron(m1, mu2)
            image = lam.apply_mat(joint)
            marg2 = partial_trace_mat(image, lam.out_structure.dims, [1])
            res = rel_entropy_of_resource(marg2, set2, gap=gap, seed=seed)
            best = max(best, res.value)
    return best


@dataclass
class WitnessChannelResult:
    channel: ch.KrausChannel
    witness: np.ndarray
    p_star: float
    sigma_out: np.ndarray
    tau_out: np.ndarray
    separation: float

    def to_json(self) -> dict:
        return {
            "p_star": self.p_star,
            "separation": self.separation,
            "witness": mat_to_json(self.witness),
        }


def witness_channel(
    rho,
    set1: FreeStateSet,
    set2: FreeStateSet,
    seed: int = 0,
    n_postcheck: int = 200,
) -> WitnessChannelResult:
    """Measure-and-prepare channel mapping set1 into set2 while carrying the
    given resource state outside set2.

    The separating witness is W = I - P, with P the optimal test of the
    hypothesis-testing divergence of rho against set1 at budget 1/2: then
    inf over set1 of Tr W mu = 1 - alpha exceeds Tr W rho = beta.  Shifting
    by that infimum (D_H's ``extras["alpha"]``) and scaling about 1/2 give a witness
    0 <= W <= 1 with Tr W rho < 1/2 <= inf over set1.  The output pair
    straddles set2's boundary, located by bisection along the segment from a
    known non-member to an interior point and recentered so the crossing
    sits at mixing parameter 1/2.  Both postconditions are verified, the first
    by ``set1.maps_into``, and the constructor fails loudly if either breaks.
    """
    m = as_matrix(rho)
    if set1.contains(m, 1e-8):
        raise ValueError("state is free for set1; nothing to witness")
    sigma0, tau0 = set2.boundary_pair()
    rng = np.random.default_rng(seed)

    d = m.shape[0]
    test = hypothesis_testing(m, set1, 0.5, seed=seed)
    w = np.eye(d, dtype=complex) - test.optimizer
    q_star = 1.0 - test.extras["alpha"]
    if q_star - float(np.real(np.trace(w @ m))) <= 1e-6:
        raise ValueError("failed to separate the state from set1 (is it on the boundary?)")

    shifted = w - q_star * np.eye(d)
    ew = np.linalg.eigvalsh(shifted)
    eps = 0.45 / max(abs(ew[0]), abs(ew[-1]), 1e-12)
    w_final = 0.5 * np.eye(d, dtype=complex) + eps * shifted

    p_star = _membership_bisection(set2, sigma0, tau0)
    delta = 1e-3
    sigma_out = (1 - p_star + delta) * sigma0 + (p_star - delta) * tau0
    tau_out = (1 - p_star - delta) * sigma0 + (p_star + delta) * tau0

    struct_in = TensorStructure([("in", d)])
    channel = ch.measure_prepare_channel(
        [np.eye(d) - w_final, w_final],
        [
            DensityOperator(sigma_out, _structure_for(set2)),
            DensityOperator(tau_out, _structure_for(set2)),
        ],
        struct_in,
    )

    if not set1.maps_into(channel.apply_mat, set2, 1e-7, n_postcheck, rng).ok:
        raise RuntimeError("postcondition failed: a free input left set2")
    if set2.contains(channel.apply_mat(m), 1e-9):
        raise RuntimeError("postcondition failed: the resource state landed inside set2")
    separation = 0.5 - float(np.real(np.trace(w_final @ m)))
    return WitnessChannelResult(channel, w_final, p_star, sigma_out, tau_out, separation)


def _structure_for(free_set: FreeStateSet) -> TensorStructure:
    return free_set.structure or TensorStructure([("out", free_set.dim)])


def _membership_bisection(set2: FreeStateSet, outside: np.ndarray, interior: np.ndarray) -> float:
    lo, hi = 0.0, 1.0
    while hi - lo > 1e-8:
        mid = 0.5 * (lo + hi)
        cand = (1 - mid) * outside + mid * interior
        if set2.contains(cand, 1e-9):
            hi = mid
        else:
            lo = mid
    return 0.5 * (lo + hi)


# ---------------------------------------------------------------------------
# the affine-basis no-go certificate


@dataclass
class NogoReport:
    certified: bool
    basis_offdiag: float
    direct_offdiag: float
    basis_condition: float
    n_free_inputs: int


def nogo_entanglement_to_coherence(
    channel: ch.KrausChannel,
    party1_set: FreeStateSet,
    n_free_inputs: int = 8,
    seed: int = 0,
) -> NogoReport:
    """Certify that the channel cannot push party-2 correlations into party-1
    coherence: the party-1 marginal of the output is incoherent, to 1e-9 in
    every off-diagonal entry, for every free product input in an affine
    basis of party-2 states (the 16 product states of ``spanning_states((2,
    2))``), hence, by affinity, for every party-2 input; confirmed directly
    on the maximally entangled input.

    Raises if the affine basis fails its spanning (condition-number) check.
    """
    basis = spanning_states((2, 2))
    cond = float(np.linalg.cond(basis.reshape(len(basis), -1).T))
    if cond > 1e6:
        raise ValueError(f"affine basis is not well conditioned ({cond:.2e})")
    rng = np.random.default_rng(seed)
    dims = channel.out_structure.dims

    # the party-1 marginals of every basis input and of the maximally
    # entangled one, for each free mu, from one stacked application
    mus = [party1_set.random_state(rng) for _ in range(n_free_inputs)]
    v = bell_phi_plus_vec(2)
    inputs = kron(np.reshape(mus, (len(mus), 1, party1_set.dim, party1_set.dim)),
                  np.concatenate([basis, np.outer(v, v.conj())[None]]))
    marg1 = partial_trace_mat(channel.apply_mat(inputs), dims, [0])
    off = np.max(np.abs(marg1 - marg1 * np.eye(dims[0])), axis=(-2, -1))
    worst_basis = float(np.max(off[:, :-1], initial=0.0))
    worst_direct = float(np.max(off[:, -1], initial=0.0))

    return NogoReport(
        certified=(worst_basis <= 1e-9 and worst_direct <= 1e-9),
        basis_offdiag=worst_basis,
        direct_offdiag=worst_direct,
        basis_condition=cond,
        n_free_inputs=len(mus),
    )
