"""Resource certification, local and remote.

Remote certification sends the suspect state through a preprocessing channel
and lets the other party measure; performance is the best type-II exponent
at a type-I budget.  The budget is a supremum of a linear functional over
the image of the free set, so the remote problem for each channel is a
hypothesis test against that image set, whose oracle pulls the gradient back
through the channel's adjoint to the free set's own oracle.  Every report
carries the data-processing ceiling alongside the achieved value.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import channels as ch
from .divergences import DivergenceResult, exponent, hypothesis_testing, rescaled_test
from .qcore import (
    TensorStructure,
    as_complex,
    as_matrix,
    check_hermitian,
    kron,
    kron_all,
    mat_to_json,
    partial_trace_mat,
    single_party,
)
from .theories import FreeStateSet, RealOps, Sio


@dataclass
class CertReport:
    value: float
    ceiling: DivergenceResult
    achiever: dict
    alpha: float
    beta: float
    floor: float
    extras: dict = field(default_factory=dict)

    def to_json(self) -> dict:
        achiever = dict(self.achiever, povm_element=mat_to_json(self.achiever["povm_element"]))
        return {
            "value": self.value,
            "ceiling": self.ceiling.to_json(),
            "achiever": achiever,
            "alpha": self.alpha,
            "beta": self.beta,
            "floor": self.floor,
            "extras": dict(self.extras),
        }


class _ImageSet(FreeStateSet):
    """The images of a free set under a preprocessing channel, on the measured
    space: a single-party channel sends the state straight through, a joint
    channel absorbs the maximally mixed state on the remaining input parties
    and the suspect party's output is traced away.  Its oracle pulls the
    gradient back through the adjoint, so it is exact wherever the base set's
    oracle is."""

    kind = "image"

    def __init__(self, base: FreeStateSet, lam: ch.KrausChannel):
        self.base, self.lam = base, lam
        others = lam.in_structure.dims[1:]
        self.aux = kron_all(np.eye(d, dtype=complex) / d for d in others) if others else None
        super().__init__(math.prod(lam.out_structure.dims[1:]) if others else lam.dim_out)

    def image(self, x: np.ndarray) -> np.ndarray:
        """x -> Tr_first Lambda(x (x) aux), or Lambda(x) for a single-party channel."""
        if self.aux is None:
            return self.lam.apply_mat(x)
        out = self.lam.apply_mat(kron(x, self.aux))
        return partial_trace_mat(out, self.lam.out_structure.dims,
                                 list(range(1, len(self.lam.out_structure.parties))))

    def pullback(self, grad: np.ndarray) -> np.ndarray:
        """The adjoint of ``image``, with Tr(G image(x)) = Tr(x pullback(G)):
        Tr_aux[(I (x) aux) sum_K K^dag (I_first (x) G) K]."""
        g = as_complex(grad)
        if self.aux is not None:
            g = kron(np.eye(self.lam.out_structure.dims[0]), g)
        pulled = self.lam.adjoint_mat(g)
        if self.aux is not None:
            d, n = self.lam.in_structure.dims[0], len(self.aux)
            pulled = np.einsum("rt,atbr->ab", self.aux, pulled.reshape(d, n, d, n))
        return pulled

    def lmo(self, grad, rng=None):
        return self.image(self.base.lmo(self.pullback(grad), rng))

    def random_state(self, rng):
        return self.image(self.base.random_state(rng))

    def max_support_state(self):
        # sigma <= c sigma_bar gives image(sigma) <= c image(sigma_bar)
        return self.image(self.base.max_support_state())

    @property
    def exact_lmo(self):
        return self.base.exact_lmo

    def extreme_points(self) -> list[np.ndarray] | None:
        points = self.base.extreme_points()
        return None if points is None else [self.image(p) for p in points]


def remote_certification(
    rho_a,
    set_a: FreeStateSet,
    b_measurements,
    preprocessing_family: list[ch.KrausChannel],
    epsilon: float,
    seed: int = 0,
) -> CertReport:
    """Best certification exponent over a family of preprocessing channels.

    Each channel maps the suspect party into the measuring party's space,
    either directly or as a joint operation whose other input slots are
    frozen maximally mixed.  The remote problem for one channel is the
    hypothesis test of the image of rho against the image of the whole free
    set, whose oracle is the set's own oracle pulled back through the
    channel's adjoint; the type-I budget therefore holds over the whole set
    whenever the set's oracle is exact.  The measurement is optimized within
    the measuring party's class ("all", "real", or "diagonal"); every test
    runs at ``hypothesis_testing``'s default tolerance, which also rejects an
    epsilon outside (0, 1) or any other measurement class before any solve.
    """
    if not preprocessing_family:
        raise ValueError("preprocessing family must be nonempty")
    m = as_matrix(rho_a)
    restrict = None if b_measurements == "all" else b_measurements
    best = None
    for idx, lam in enumerate(preprocessing_family):
        if lam.in_structure.parties[0][1] != m.shape[0]:
            raise ValueError("preprocessing channel does not accept the suspect state")
        image = _ImageSet(set_a, lam)
        res = hypothesis_testing(image.image(m), image, epsilon, seed=seed, restrict=restrict)
        if best is None or res.value > best[1].value:
            best = (idx, res)
    idx, res = best
    alpha, beta = float(res.extras["alpha"]), float(res.extras["beta"])
    return CertReport(
        value=res.value,
        ceiling=hypothesis_testing(m, set_a, epsilon, seed=seed),
        achiever={"channel_index": idx, "povm_element": res.optimizer},
        alpha=alpha,
        beta=beta,
        floor=exponent(1.0 - epsilon),
        extras={"restrict": restrict, "epsilon": epsilon},
    )


def lfocc_ceiling(
    rho_a,
    set_a: FreeStateSet,
    protocol: ch.LfoccProtocol,
    element: np.ndarray,
    epsilon: float,
    seed: int = 0,
) -> CertReport:
    """Certification through one local protocol; see ``lfocc_ceilings``."""
    return lfocc_ceilings(rho_a, set_a, [protocol], [element], epsilon, seed)[0]


def _local_rounds_ok(protocol: ch.LfoccProtocol) -> bool:
    """Whether every round's Kraus families pass the acting party's class:
    strictly incoherent on the suspect (first) party, real on the other."""
    structure = protocol.structure
    classes = dict(zip(structure.labels, (Sio(), RealOps())))
    for rnd in protocol.rounds:
        local = single_party(structure.local_dim(rnd.party), rnd.party)
        if not all(classes[rnd.party].contains_channel(ch.KrausChannel(tuple(family), local, local))
                   for family in rnd.branches.values()):
            return False
    return True


def lfocc_ceilings(
    rho_a,
    set_a: FreeStateSet,
    protocols: list[ch.LfoccProtocol],
    elements: list[np.ndarray],
    epsilon: float,
    seed: int,
) -> list[CertReport]:
    """Certification through a family of local protocols, against their one
    structural ceiling.

    Each protocol's first party holds the suspect state and its second party
    measures the matching element.  Every protocol and element is validated
    before any solve: the per-round classes (suspect party strictly
    incoherent, the measuring party real), the element's bounds, and the
    diagonality of the effective element, the measurement pulled back through
    the compiled protocol's image set to the suspect party.  Each report
    gives alpha/beta through its effective element (the worst free state from
    a fresh generator at ``seed``) alongside the diagonal-restricted
    hypothesis-testing ceiling, which depends on no protocol and is solved
    once for the whole family.
    """
    effectives = []
    for protocol, element in zip(protocols, elements, strict=True):
        if not _local_rounds_ok(protocol):
            raise ValueError("protocol violates the declared local operation classes")
        p = check_hermitian(element)
        w = np.linalg.eigvalsh(p)
        if w[0] < -1e-10 or w[-1] > 1 + 1e-10:
            raise ValueError("element must satisfy 0 <= P <= identity")
        effective = _ImageSet(set_a, ch.compile_lfocc(protocol)).pullback(p)
        off_norm = float(np.max(np.abs(effective - np.diag(np.diag(effective)))))
        if off_norm > 1e-10:
            raise AssertionError(
                f"effective element is not diagonal (off-diagonal {off_norm:.3e})"
            )
        effectives.append((effective, off_norm))

    m = as_matrix(rho_a)
    ceiling = hypothesis_testing(m, set_a, epsilon, seed=seed, restrict="diagonal")
    reports = []
    for effective, off_norm in effectives:
        scaled, alpha, beta = rescaled_test(m, effective, set_a, epsilon, np.random.default_rng(seed))
        reports.append(CertReport(
            value=exponent(beta),
            ceiling=ceiling,
            achiever={"channel_index": 0, "povm_element": scaled},
            alpha=min(alpha, epsilon),
            beta=beta,
            floor=exponent(1.0 - epsilon),
            extras={"effective_offdiag": off_norm, "raw_alpha": alpha, "epsilon": epsilon},
        ))
    return reports


def measure_and_forward_protocol(p_diag: np.ndarray) -> ch.LfoccProtocol:
    """Two-round protocol realizing a diagonal binary test remotely: the
    suspect party measures {diag(p), 1 - diag(p)} (strictly incoherent),
    the other party records the announced outcome on a qubit flag, and the
    final measurement reads that flag.  The effective element pulled back
    to the suspect party is exactly diag(p)."""
    p = np.clip(np.real(np.diag(as_complex(p_diag))), 0.0, 1.0)
    d = len(p)
    structure = TensorStructure([("A", d), ("B", 2)])
    k_yes = np.diag(np.sqrt(p)).astype(complex)
    k_no = np.diag(np.sqrt(1.0 - p)).astype(complex)
    round1 = ch.LfoccRound("A", {"": (k_yes, k_no)})
    flag_up = [np.outer(np.eye(2)[1], np.eye(2)[j]) for j in range(2)]
    flag_down = [np.outer(np.eye(2)[0], np.eye(2)[j]) for j in range(2)]
    round2 = ch.LfoccRound("B", {"0": flag_up, "1": flag_down})
    return ch.LfoccProtocol(structure, (round1, round2))


def move_and_replace_channel(mu_a: np.ndarray, dim: int) -> ch.KrausChannel:
    """Swap the suspect system to the measuring party and refill with mu_a.

    Kraus operators sqrt(lam_a) (|phi_a> (x) I) (I (x) <j|) move the A input
    into the B slot while preparing mu_a on A.
    """
    w, v = np.linalg.eigh(as_complex(mu_a))
    ops = []
    eye = np.eye(dim, dtype=complex)
    for a in range(dim):
        if w[a] <= 1e-14:
            continue
        left = kron(v[:, a].reshape(-1, 1), eye)
        for j in range(dim):
            right = kron(eye, eye[j].reshape(1, -1))
            ops.append(np.sqrt(w[a]) * (left @ right))
    structure = TensorStructure([("A", dim), ("B", dim)])
    return ch.KrausChannel(tuple(ops), structure, structure)


def rng_optimal_protocol(
    rho_a,
    set_a: FreeStateSet,
    set_b: FreeStateSet,
    mu_a,
    epsilon: float,
    seed: int = 0,
) -> tuple[ch.KrausChannel, CertReport]:
    """The move-and-replace strategy that saturates the certification ceiling.

    Valid when the suspect party's free states are free for the measuring
    party under the dimension identification (checked by ``maps_into``) and
    the refill state is free; then the remote value equals the unrestricted
    hypothesis-testing divergence.  The ceiling's optimal element is measured
    after the move: alpha over the image of the whole free set by one oracle
    call, the element rescaled where alpha exceeds eps, beta on the image of
    rho, and the report certifies the match within solver gaps.  As in
    ``lfocc_ceilings``, the report's element is the rescaled one and its
    alpha min(alpha, eps).
    """
    if set_a.dim != set_b.dim:
        raise ValueError("the construction identifies the two local spaces; dims must match")
    m = as_matrix(rho_a)
    mu = as_matrix(mu_a)
    rng = np.random.default_rng(seed)
    if not set_a.maps_into(lambda x: x, set_b, 1e-8, 24, rng).ok:
        raise ValueError("inclusion check failed: a free state of the suspect party "
                         "is not free for the measuring party")
    if not set_a.contains(mu, 1e-8):
        raise ValueError("the refill state must be free for the suspect party")

    channel = move_and_replace_channel(mu, set_a.dim)
    ceiling = hypothesis_testing(m, set_a, epsilon, seed=seed)

    image = _ImageSet(set_a, channel)
    scaled, alpha, beta = rescaled_test(image.image(m), ceiling.optimizer, image, epsilon, rng)
    value = exponent(beta)
    achieved_matches = (
        (math.isinf(value) and math.isinf(ceiling.value))
        or abs(value - ceiling.value) <= max(ceiling.gap, 1e-6) + 1e-9
    )
    report = CertReport(
        value=value,
        ceiling=ceiling,
        achiever={"channel_index": 0, "povm_element": scaled},
        alpha=min(alpha, epsilon),
        beta=beta,
        floor=exponent(1.0 - epsilon),
        extras={"saturates_ceiling": achieved_matches, "epsilon": epsilon},
    )
    return channel, report
