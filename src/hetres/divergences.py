"""Convex-optimization engines for the resource divergences.

Three quantities are computed against a free-state set S: the relative
entropy of resource min_{mu in S} D(rho||mu), the max-relative entropy
(log generalized robustness), and the hypothesis-testing relative entropy
at type-I budget epsilon.  Every result carries a certificate: the achieved
value, a lower and an upper bound, and the optimizer itself for audit.

Values are in bits throughout.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .qcore import (EIG_FLOOR, as_matrix, hermitian_basis, kron_all, mat_to_json, partial_trace_mat,
                    trace_norm, von_neumann_entropy)
from .theories import FreeStateSet, SmoothedDual

LN2 = math.log(2.0)
DEFAULT_GAP = 1e-4
ITER_CAP = 50_000
DH_ROUNDS = 32  # cutting-plane rounds of hypothesis_testing
LINE_SEARCH_TOL = 1e-10  # bracket width at which a Frank-Wolfe line search stops


@dataclass
class DivergenceResult:
    """Value in bits with a convergence certificate.

    ``lower_bound <= value <= upper_bound`` always holds; ``converged``
    additionally promises upper - lower within the requested gap.  The
    optimizer (closest state, feasible robustness state, or POVM element)
    is retained for audit.
    """

    value: float
    lower_bound: float
    upper_bound: float
    iterations: int
    converged: bool
    optimizer: np.ndarray | None = None
    extras: dict = field(default_factory=dict)

    @property
    def gap(self) -> float:
        if math.isinf(self.value):
            return 0.0
        return self.upper_bound - self.lower_bound

    def to_json(self) -> dict:
        out = {
            "value": self.value,
            "lower_bound": self.lower_bound,
            "upper_bound": self.upper_bound,
            "iterations": self.iterations,
            "converged": self.converged,
            "extras": {k: v for k, v in self.extras.items() if not isinstance(v, np.ndarray)},
        }
        if self.optimizer is not None:
            out["optimizer"] = mat_to_json(self.optimizer)
        return out


def _exact(value: float, optimizer: np.ndarray | None, **extras) -> DivergenceResult:
    return DivergenceResult(value, value, value, 0, True, optimizer, dict(extras))


# ---------------------------------------------------------------------------
# gradient of sigma -> -Tr rho log2 sigma (first divided differences of log2)


def _log_divided_differences(w: np.ndarray) -> np.ndarray:
    """(log2 w_i - log2 w_j)/(w_i - w_j), and 1/(w ln 2) where w_i = w_j.
    Within a factor 2, w_i - w_j is exact (Sterbenz), and log1p((w_i -
    w_j)/w_j)/((w_i - w_j) ln 2) keeps the digits the difference of logs loses."""
    wc = np.clip(w, EIG_FLOOR, None)
    lg, diff = np.log2(wc), wc[:, None] - wc[None, :]
    safe = np.where(diff == 0.0, 1.0, diff)
    close = np.abs(diff) <= np.minimum(wc[:, None], wc[None, :])
    quotient = np.where(close, np.log1p(safe / wc[None, :]) / LN2, lg[:, None] - lg[None, :]) / safe
    return np.where(diff == 0.0, 1.0 / (wc[:, None] * LN2), quotient)


def _eig_frame(rho: np.ndarray, sigma: np.ndarray):
    """(w, v, rho_hat, first): sigma = v diag(w) v^H, rho_hat = v^H rho v and
    first the divided differences of log2 at w, the input of the objective,
    the gradient and the line search's slope at sigma."""
    w, v = np.linalg.eigh(sigma)
    return w, v, v.conj().T @ rho @ v, _log_divided_differences(w)


def _log_gradient(w: np.ndarray, v: np.ndarray, rho_hat: np.ndarray, first: np.ndarray) -> np.ndarray:
    """The gradient of sigma -> -Tr rho log2 sigma from sigma's ``_eig_frame`` (w is not read)."""
    return v @ (-rho_hat * first) @ v.conj().T


def _objective_from_eig(rho_hat: np.ndarray, w: np.ndarray, s_rho: float) -> float:
    diag = np.real(np.diagonal(rho_hat))
    if np.any((w <= EIG_FLOOR) & (diag > 1e-10)):
        return float("inf")
    return s_rho - float(np.dot(diag, np.log2(np.clip(w, EIG_FLOOR, None))))


def _support_leak(m: np.ndarray, sigma_bar: np.ndarray):
    """(w, v, leaks): sigma_bar = v diag(w) v^H, and whether rho puts more
    than 1e-10 on its kernel (w <= EIG_FLOOR); over a set's ``max_support_state``
    a leak means that no member covers rho, so D and D_max are +inf."""
    w, v = np.linalg.eigh(sigma_bar)
    kernel = v[:, w <= EIG_FLOOR]
    return w, v, float(np.real(np.trace(kernel.conj().T @ m @ kernel))) > 1e-10


def _slope_curvature(frame, direction: np.ndarray) -> tuple[float, float]:
    """(h'(g), h''(g)) of h(g) = D(rho || sigma + g d) at sigma_g's ``_eig_frame``.

    With d_hat = v^H d v and A = d_hat o first, h' = -Re Tr(rho_hat A) and
    h'' = -2 Re sum_ik rho_hat_ki T_ik, T_ik = sum_j log2[w_i, w_j, w_k] d_hat_ij
    d_hat_jk (Daleckii-Krein): T = (A d_hat - d_hat A)/(w_i - w_k), and where
    w_i and w_k agree to 1e-5 (relative), T = (d_hat o dfirst) d_hat with
    dfirst_ij the derivative of first_ij in w_i."""
    w, v, rho_hat, first = frame
    d_hat = v.conj().T @ direction @ v
    a = d_hat * first
    wc = np.clip(w, EIG_FLOOR, None)
    diff = wc[:, None] - wc[None, :]
    near = np.abs(diff) <= 1e-5 * np.maximum(wc[:, None], wc[None, :])
    apart = np.where(near, 1.0, diff)
    tangent = (1.0 / (wc * LN2))[:, None]  # log2' at w_i
    dfirst = np.where(near, -0.5 * tangent / wc[:, None], (tangent - first) / apart)
    t = np.where(near, (d_hat * dfirst) @ d_hat, (a @ d_hat - d_hat @ a) / apart)
    return -float(np.real(np.vdot(rho_hat, a))), -2.0 * float(np.real(np.vdot(rho_hat, t)))


def _line_search(rho, s_rho, sigma, direction, frame, slope0):
    """Exact line search for the convex h(g) = D(rho || sigma + g*direction)
    on [0, 1], from sigma's ``_eig_frame`` and h'(0) = slope0 < 0.

    The minimiser is g = 1 when h'(1) <= 0, else the root of h'.  Each trial
    point costs one eigensolve, which gives h' and h'' (``_slope_curvature``).
    The first step is Newton's from g = 0.  Each later one starts from the
    trial point with the least |h'| and goes to the root of the model h'(g)
    = C + B/(g - p) through h' and h'' there and h' at the other latest point:
    near the boundary of the PSD cone h' has this pole, so Newton's step only
    doubles its distance to the root, while the model's step, the one More &
    Sorensen take on the trust-region secular equation (SIAM J. Sci. Stat.
    Comput. 4, 553, 1983), reaches it.  With r the ratio of the secant
    slope to h'', the step is -h'/(h'' + h'(1 - r)/(r delta)), delta the
    distance to the other point: Newton's as r -> 1.  A step that leaves the
    bracket, is longer than half the step before the last (Brent's guard), or
    that the model has no root for bisects the bracket; g = 1 is evaluated
    only when a step would reach it.  The search stops at a bracket narrower
    than ``LINE_SEARCH_TOL`` or at a step below half of it (rtsafe's rule,
    Numerical Recipes 9.4).  Returns (g, h(g), frame), frame the
    ``_eig_frame`` of sigma + g*direction, h computed there alone.
    """
    half_tol = LINE_SEARCH_TOL / 2.0
    lo, hi, open_top = 0.0, 1.0, True  # h' < 0 at lo and > 0 at hi, unless hi = 1 is not evaluated
    best = 0.0, slope0, _slope_curvature(frame, direction)[1], frame
    other = None  # (g, h'(g)) at the latest trial point other than best
    older = last = 2.0  # the last two step lengths (both the bisection's after one); 2 frees the first two
    while True:
        g, s, c, frame = best
        step = -s / c if c > 0.0 else math.nan
        if other is not None:
            delta = other[0] - g
            secant = (other[1] - s) / delta
            model = c + s * (c - secant) / (secant * delta) if secant > 0.0 else 0.0
            step = -s / model if model > 0.0 else math.nan
        trial = g + step
        if abs(step) < half_tol:
            break
        if open_top and trial >= 1.0 - half_tol:
            trial = 1.0
            older, last = last, 1.0 - g
        elif not lo < trial < hi or abs(step) > 0.5 * older:
            trial = 0.5 * (lo + hi)
            older = last = abs(trial - g)
        else:
            older, last = last, abs(step)
        trial_frame = _eig_frame(rho, sigma + trial * direction)
        s_t, c_t = _slope_curvature(trial_frame, direction)
        if trial == 1.0 and s_t <= 0.0:
            best = 1.0, s_t, c_t, trial_frame
            break
        if s_t < 0.0:
            lo = trial
        else:
            hi, open_top = trial, False
        if abs(s_t) <= abs(s):
            other, best = (g, s), (trial, s_t, c_t, trial_frame)
        else:
            other = trial, s_t
        if s_t == 0.0 or hi - lo < LINE_SEARCH_TOL:
            break
    g, _, _, frame = best
    return g, _objective_from_eig(frame[2], frame[0], s_rho), frame


# ---------------------------------------------------------------------------
# relative entropy of resource


def rel_entropy_of_resource(
    rho,
    free_set: FreeStateSet,
    gap: float = DEFAULT_GAP,
    seed: int = 0,
    force_engine: bool = False,
) -> DivergenceResult:
    """min_{mu in S} D(rho||mu): a closed form where the set has one, entropic
    mirror descent over a set with ``marginal_constraints`` (the marginal
    sets), else Frank-Wolfe against the set's linear-minimization oracle.

    A set with a ``projection`` Pi closes at Pi rho, at S(Pi rho) - S(rho)
    and zero iterations: the incoherent, real and unrestricted sets, and
    hulls of such factors all but one of them incoherent, e.g. smin(Inc,
    Real) or the quantum-incoherent smin(All, Inc), where the value is
    S(Delta_B rho) - S(rho).

    +inf is decided by support before either engine runs: a rho that leaks
    out of the support of sigma_bar, the set's ``max_support_state``, is an
    exact +inf with method "support" and zero iterations.

    Frank-Wolfe takes away steps (Lacoste-Julien & Jaggi, NeurIPS 2015):
    the iterate sigma is kept as an active set, members a_k with convex
    weights w_k, starting from the oracle's answer at -rho and sigma_bar.
    Each iteration compares the Frank-Wolfe gap Tr G(sigma - mu) with the
    away gap max_k Tr G a_k - Tr G sigma.  The larger one picks the
    direction: towards mu, or away from the worst atom a_j along sigma - a_j,
    capped where w_j reaches its floor: 0 for the oracle's atoms, which then
    leave the active set, and keep = gap ln2/4 for sigma_bar, which keeps
    sigma off the boundary at a cost of at most about gap/4 (an atom of
    weight 1 takes no away step).  The step along either direction is an
    exact line search by the derivative: it minimises h(g) = D(rho || sigma
    + g d) on [0, 1], d the direction at its cap, as g = 1 when h'(1) <= 0,
    else as the root of h' by rational-Newton steps on h' and h'', at one
    eigensolve per trial step and about three per search (``_line_search``).
    ``extras["stop"]`` says "gap" or "iteration-cap",
    ``extras["away_steps"]`` counts the away steps.

    Both engines certify by f - Tr G sigma + a lower bound on min Tr G mu:
    mirror descent's comes from its own step's multipliers; Frank-Wolfe's is
    its oracle's minimum, which over a set without an exact oracle
    (``exact_lmo`` False: a see-saw hull) is the best of the see-saw's
    ``SEESAW_RESTARTS`` starts, as ``extras["oracle_limited"]`` says.
    ``force_engine`` skips an available closed form (cross-validation).
    """
    m = as_matrix(rho)
    free_set._check_dim(m)
    closed = None if force_engine else free_set.closest_free_state(m)
    if closed is not None:
        return _exact(closed[1], closed[0], method="closed-form")
    if not force_engine and free_set.contains(m, 1e-9):
        return _exact(0.0, m, method="member")
    if _support_leak(m, free_set.max_support_state())[2]:
        return _exact(float("inf"), None, method="support")
    if free_set.marginal_constraints is not None:
        return _mirror_rel_entropy(m, free_set, gap)
    return _fw_rel_entropy(m, free_set, gap, seed)


def _interior_start(m: np.ndarray, free_set: FreeStateSet, rng, delta: float = 1e-3):
    """Two members, the oracle's answer at -rho and the set's member of
    maximal support, stacked, with the weights (1 - delta, delta) of the start."""
    return np.stack([free_set.lmo(-m, rng), free_set.max_support_state()]), np.array([1.0 - delta, delta])


def _fw_rel_entropy(m, free_set, gap, seed) -> DivergenceResult:
    """Away-step Frank-Wolfe (Lacoste-Julien & Jaggi, NeurIPS 2015): the
    iterate sigma = sum_k w_k a_k is kept as its atoms a_k and weights w_k."""
    rng = np.random.default_rng(seed)
    s_rho = -von_neumann_entropy(m)
    atoms, weights = _interior_start(m, free_set, rng)
    sigma = sum(w * a for w, a in zip(weights, atoms))
    # an away step leaves the maximal-support atom at least the weight keep,
    # at a cost of at most -log2(1 - keep) ~ gap/4 in the objective: it keeps
    # sigma off the boundary, where the gradient, clipped at EIG_FLOOR, shows
    # a gap that no step closes
    keep = gap * LN2 / 4.0
    floor = np.array([0.0, keep])
    best_lb = -np.inf
    f = np.inf
    iters, away_steps, stop = 0, 0, "iteration-cap"
    frame = None  # the line search's _eig_frame of the current sigma
    for t in range(1, ITER_CAP + 1):
        iters = t
        frame = frame or _eig_frame(m, sigma)
        w, _, rho_hat, _ = frame
        f = _objective_from_eig(rho_hat, w, s_rho)
        if not np.isfinite(f):
            restart, restart_weights = _interior_start(m, free_set, rng, delta=0.1)
            sigma = 0.5 * sigma + 0.5 * sum(w * a for w, a in zip(restart_weights, restart))
            atoms = np.concatenate([atoms, restart])
            weights = 0.5 * np.concatenate([weights, restart_weights])
            floor = np.append(floor, [0.0, keep])
            frame = None
            continue
        grad = _log_gradient(*frame)
        mu = free_set.lmo(grad, rng)
        fw_gap = float(np.real(np.trace(grad @ (sigma - mu))))
        best_lb = max(best_lb, f - max(fw_gap, 0.0))
        if f - best_lb <= gap:
            stop = "gap"
            break
        # step away from the atom the gradient rates worst when that gains
        # more than stepping towards mu; the step (w_j - floor_j)/(1 - w_j)
        # along sigma - a_j, the longest that keeps w_j >= floor_j, is the
        # search's g = 1
        on_atoms = np.where(weights > floor, np.real(np.einsum("kab,ba->k", atoms, grad)), -np.inf)
        j = int(np.argmax(on_atoms))
        away_gap = float(on_atoms[j] - np.real(np.trace(grad @ sigma)))
        away = away_gap > fw_gap and weights[j] < 1.0
        if away:
            longest = (weights[j] - floor[j]) / (1.0 - weights[j])
            direction, slope0 = longest * (sigma - atoms[j]), -longest * away_gap
        else:
            direction, slope0 = mu - sigma, -fw_gap
        gamma, h_gamma, frame = _line_search(m, s_rho, sigma, direction, frame, slope0)
        if h_gamma > f:
            gamma, frame = min(2.0 / (t + 2.0), 0.5), None
        sigma = sigma + gamma * direction
        if away:
            away_steps += 1
            weights = (1.0 + gamma * longest) * weights
            weights[j] = floor[j] if gamma == 1.0 else weights[j] - gamma * longest
        else:
            weights = (1.0 - gamma) * weights
            equal = np.flatnonzero(np.all(atoms == mu, axis=(1, 2)))
            if equal.size:
                weights[equal[0]] += gamma
            else:
                atoms, weights = np.concatenate([atoms, mu[None]]), np.append(weights, gamma)
                floor = np.append(floor, 0.0)
        kept = weights > 0.0
        atoms, weights, floor = atoms[kept], weights[kept], floor[kept]
    value = float(f)
    lb = max(best_lb, _marginal_lower_bound(m, free_set))
    lb = min(lb, value)
    extras = {"method": "frank-wolfe", "lmo": free_set.kind, "requested_gap": gap,
              "oracle_limited": not free_set.exact_lmo, "stop": stop, "away_steps": away_steps}
    return DivergenceResult(
        value,
        lb,
        value,
        iters,
        converged=(value - lb) <= gap,
        optimizer=sigma,
        extras=extras,
    )


def _marginal_lower_bound(m: np.ndarray, free_set: FreeStateSet) -> float:
    """Data processing under partial trace: D(rho||S) >= D(rho_i||S_i) for
    either extremal composite set, over the locals with a closed form."""
    if free_set.structure is None:
        return -np.inf
    dims = free_set.structure.dims
    best = -np.inf
    for i, local in enumerate(free_set.locals):
        closed = local.closest_free_state(partial_trace_mat(m, dims, [i]))
        if closed is not None:
            best = max(best, closed[1])
    return best


def _mirror_rel_entropy(m, free_set: FreeStateSet, gap) -> DivergenceResult:
    """Entropic mirror descent over a set with ``marginal_constraints``: a
    step is its solver at tau = 1 on eta G - ln sigma at barrier 1e-6 eta,
    repaired to a member; eta halves until f(mu) <= min(f, f + Tr G(mu - sigma)
    + D(mu||sigma)/eta), D in nats (Bauschke, Bolte & Teboulle, Math. Oper.
    Res. 42, 330, 2017), then grows by half.  The lower bound is f - Tr G sigma
    + ``bound`` at the step's multipliers over eta (certified: the barrier
    keeps every Z_k > 0), joined by the partial-trace bound.  ``extras["stop"]``
    says "gap", "iteration-cap" (600 steps) or "stall" (eta below 1e-12, or
    an objective that is not finite); ``extras["newton_steps"]`` sums the
    solver's steps over every trial step."""
    cons, s_rho, newton_steps = free_set.marginal_constraints, -von_neumann_entropy(m), []

    def step(k, barrier, y):
        y, gibbs, n = cons.solve(k, 1.0, barrier, y, 1e-12)
        newton_steps.append(n)
        sigma = cons.member(gibbs)
        w, v, rho_hat, _ = frame = _eig_frame(m, sigma)
        log_sigma = (v * np.log(np.clip(w, 1e-300, None))) @ v.conj().T
        return y, sigma, _objective_from_eig(rho_hat, w, s_rho), frame, log_sigma

    w, v = np.linalg.eigh(0.7 * cons.interior + 0.3 * m)
    scaled, sigma, f, frame, log_sigma = step(-(v * np.log(np.clip(w, 1e-300, None))) @ v.conj().T,
                                             1e-6, cons.origin)
    best_lb, eta, stop = _marginal_lower_bound(m, free_set), 1.0, "iteration-cap"
    for iters in range(1, 601):
        if not np.isfinite(f):
            stop = "stall"
            break
        grad = _log_gradient(*frame)
        grad = 0.5 * (grad + grad.conj().T)
        linear = float(np.real(np.vdot(grad, sigma)))
        best_lb = max(best_lb, f - linear + cons.bound(grad, scaled))
        if f - best_lb <= gap:
            stop = "gap"
            break
        while eta > 1e-12:
            trial = step(eta * grad - log_sigma, 1e-6 * eta, eta * scaled)
            mu, f_mu, log_mu = trial[1], trial[2], trial[4]
            bregman = float(np.real(np.vdot(mu, log_mu - log_sigma))) / eta
            if f_mu <= min(f, f + float(np.real(np.vdot(grad, mu - sigma))) + bregman):
                break
            eta *= 0.5
        else:
            stop = "stall"
            break
        (scaled, sigma, f, frame, log_sigma), eta = (trial[0] / eta, *trial[1:]), 1.5 * eta
    lb = min(best_lb, f)
    return DivergenceResult(float(f), float(lb), float(f), iters, not f - lb > gap, sigma,
                            {"method": "mirror-descent", "requested_gap": gap, "stop": stop,
                             "newton_steps": sum(newton_steps)})


# ---------------------------------------------------------------------------
# max-relative entropy


def dmax(rho, free_set: FreeStateSet, tol: float = 1e-4, seed: int = 0) -> DivergenceResult:
    """D_max(rho||S) = inf { log2 t : rho <= t sigma, sigma in S }, the log
    generalized robustness.

    sigma_bar is the set's member of maximal support: a rho that leaks out of
    it is an exact +inf (method "support"), and a one-point set closes at
    lambda_max(sigma_bar^-1/2 rho sigma_bar^-1/2).  Any other set is one
    ``hypothesis_testing`` call at budget eps = lambda_min(sigma_bar)/2 (on
    its support) and tolerance eps*tol: 2^D_max = max { Tr rho Y : Y >= 0,
    Tr sigma Y <= 1 on S } is its test program at P = eps*Y, where
    lambda_max(P) <= 1/2, so the cap P <= I never binds.

    D_H's route is D_max's.  At D_H's dual point y over its constraint
    states mu_i, cover = sum_i y_i mu_i (the cone point X on the cone route)
    and delta = lambda_max(rho - cover)+ / lambda_min(sigma_bar) give rho <=
    cover + delta*sigma_bar: 2^upper = sum(y) + delta, and the optimizer
    (cover + delta*sigma_bar)/2^upper is a free witness whatever the oracle.
    2^lower = max(1, (1 - beta)/eps) at D_H's best test is only as exact as
    the LMO's maximum (heuristic on see-saw hulls).  ``stop``, ``cuts`` and
    ``method`` are D_H's."""
    m = as_matrix(rho)
    free_set._check_dim(m)
    sigma_bar = free_set.max_support_state()
    w, v, leaks = _support_leak(m, sigma_bar)
    if leaks:
        return _exact(float("inf"), None, method="support")
    support = w > EIG_FLOOR
    points = free_set.extreme_points()
    if points is not None and len(points) == 1:
        inv_half = (v[:, support] * (1.0 / np.sqrt(w[support]))) @ v[:, support].conj().T
        lam = float(np.linalg.eigvalsh(inv_half @ m @ inv_half)[-1])
        return _exact(math.log2(max(lam, EIG_FLOOR)), sigma_bar, method="singleton")
    lam_min = float(w[support][0])
    epsilon = 0.5 * lam_min

    # 2^D_max lies in [lower, upper], and 1 <= 2^D_max for any witness
    dh = hypothesis_testing(m, free_set, epsilon, tol=epsilon * tol, seed=seed)
    y = np.array(dh.extras["dual_y"])
    cover = np.tensordot(y, dh.extras["constraint_states"][:len(y)], 1)
    delta = max(float(np.linalg.eigvalsh(m - cover)[-1]), 0.0) / lam_min
    upper = float(np.sum(y)) + delta
    lower = min(max(1.0, (1.0 - dh.extras["beta"]) / epsilon), upper)
    lo, hi = math.log2(lower), math.log2(upper)
    return DivergenceResult(hi, lo, hi, dh.iterations, hi - lo <= tol, (cover + delta * sigma_bar) / upper,
                            {"method": dh.extras["method"], "requested_gap": tol, "stop": dh.extras["stop"],
                             "cuts": dh.extras["cuts"]})


# ---------------------------------------------------------------------------
# hypothesis-testing relative entropy


def _clip_povm(p: np.ndarray) -> np.ndarray:
    w, v = np.linalg.eigh(0.5 * (p + p.conj().T))
    return (v * np.clip(w, 0.0, 1.0)) @ v.conj().T


def _cone(x: np.ndarray, restrict: str | None) -> np.ndarray:
    """Projection onto the tests allowed by ``restrict``: Hermitian, or (as
    real arrays) real symmetric or diagonal."""
    if restrict == "diagonal":
        return np.diag(np.real(np.diag(x)))
    if restrict == "real":
        return 0.5 * (np.real(x) + np.real(x).T)
    return 0.5 * (x + x.conj().T)


def _clip_test(p: np.ndarray, restrict: str | None) -> np.ndarray:
    """p clipped into 0 <= P <= I within the tests ``restrict`` allows."""
    return _cone(_clip_povm(_cone(p, restrict)), restrict)


def _alpha(p: np.ndarray, free_set: FreeStateSet, rng) -> tuple[float, np.ndarray]:
    sigma = free_set.lmo(-p, rng)
    return float(np.real(np.trace(sigma @ p))), sigma


def rescaled_test(m: np.ndarray, p: np.ndarray, free_set: FreeStateSet, epsilon: float,
                  rng) -> tuple[np.ndarray, float, float]:
    """(P, alpha, beta) for the test p of rho = m against a free set: alpha =
    max_S Tr(sigma p) by the set's LMO, P = p rescaled by eps/alpha where
    alpha > eps, so that P keeps the type-I budget, and beta = 1 - Tr(rho P),
    its type-II error."""
    return _rescale(m, p, _alpha(p, free_set, rng)[0], epsilon)


def _rescale(m: np.ndarray, p: np.ndarray, alpha: float, epsilon: float) -> tuple[np.ndarray, float, float]:
    """``rescaled_test`` of a test p whose alpha is known."""
    if alpha > epsilon:
        p = p * (epsilon / alpha)
    return p, alpha, 1.0 - float(np.real(np.trace(m @ p)))


def exponent(beta: float) -> float:
    """The type-II exponent -log2 beta in bits, +inf at beta <= 1e-12."""
    return float("inf") if beta <= 1e-12 else -math.log2(beta)


def _repair(p, free_set, epsilon, rng, restrict):
    """Up to 40 repairs of the test p against the worst free states
    the LMO finds: clip p into [0, I], stop once alpha = max_S Tr(sigma p) <=
    eps + 1e-10, else keep sigma as a cut and subtract the multiple of it that
    meets its constraint.  Returns the last p and the cuts."""
    cuts = []
    for _ in range(40):
        p = _clip_test(p, restrict)
        a, sigma = _alpha(p, free_set, rng)
        if a <= epsilon + 1e-10:
            break
        cuts.append(sigma)
        p = p - ((a - epsilon) / max(float(np.real(np.trace(sigma @ sigma))), 1e-14)) * sigma
    return p, cuts


def _plane_dual(m, free_set, epsilon, tol, restrict, rng):
    """The dual over the set's extreme points where it lists them, in one
    round; else over two probes, the LMO at -rho and the member of maximal
    support, grown by cutting planes.  Returns ((P, alpha, beta) of the best
    test, route, Newton steps, dual value, extras)."""
    points = free_set.extreme_points()
    exact = points is not None
    points = list(points) if exact else [free_set.lmo(-m, rng), free_set.max_support_state()]
    extras: dict = {}
    n_start, dual_value, steps, best = len(points), np.inf, 0, (None, np.nan, np.inf)
    for _ in range(DH_ROUNDS):
        y, f, p, _, n = _extreme_point_dual(m, points, epsilon, restrict)
        steps += n
        if f < dual_value:
            dual_value, extras["dual_y"] = f, [float(t) for t in y]
        # the dual over all extreme points needs no repair
        p, cuts = (p, []) if exact else _repair(p, free_set, epsilon, rng, restrict)
        scored = rescaled_test(m, _clip_test(p, restrict), free_set, epsilon, rng)
        if scored[2] < best[2]:
            best = scored
        stop = _stop(best[2], dual_value, tol, "no-violation" if not cuts else "round-cap")
        if stop != "round-cap":
            break
        points += cuts[:4]
    extras.update(cuts=len(points) - n_start, stop=stop, constraint_states=np.stack(points))
    return best, "exact-dual" if exact else "cutting-plane", steps, dual_value, extras


def _cone_dual(m, free_set, basis, epsilon, tol, restrict, rng):
    """The dual over the set's cone K = {X = sum_j x_j B_j : X >= 0, A(X) >=
    0 per ``constraints`` cone A}, B_j its ``cone_basis``: min_{X in K} eps
    Tr X + Tr(rho - X)_+, one barrier block per X and A(X), in one solve from
    the ``max_support_state()``.  Returns ((P, alpha, beta) of the test, its
    alpha the ladder's, route, Newton steps, dual value, extras), the cover X
    as dual_y = [Tr X] over the one constraint state X / Tr X, a set member."""
    traces = np.real(np.einsum("kaa->k", basis))
    blocks = [(slice(None), e) for e in [basis, *(a(basis) for a in free_set.constraints.cones)]]
    smoothed = SmoothedDual(np.stack([_cone(b, restrict) for b in basis]), -epsilon * traces, blocks, True)
    start = np.real(np.einsum("kab,ba->k", basis, free_set.max_support_state()))
    x, f, p, alpha, steps = _smoothed_test(_cone(m, restrict), smoothed, start, epsilon,
                                           lambda p: _alpha(_clip_test(p, restrict), free_set, rng)[0])
    cover, size = np.tensordot(x, basis, 1), float(traces @ x)
    scored = _rescale(m, _clip_test(p, restrict), alpha, epsilon)
    return scored, "cone-dual", steps, f, {"dual_y": [size], "cuts": 0,
                                           "stop": _stop(scored[2], f, tol, "ladder-end"),
                                           "constraint_states": (cover / max(size, 1e-300))[None]}


def _stop(beta: float, dual_value: float, tol: float, otherwise: str) -> str:
    """"gap" where the test's beta is within tol bits of the dual bound, else ``otherwise``."""
    return "gap" if beta <= max(1e-12, (1.0 - dual_value) * 2.0**tol) else otherwise


def hypothesis_testing(
    rho,
    free_set: FreeStateSet,
    epsilon: float,
    tol: float = 1e-6,
    seed: int = 0,
    restrict: str | None = None,
) -> DivergenceResult:
    """D_H^eps(rho||S): -log2 of the least type-II error beta subject to the
    worst-case type-I error alpha over the free set staying within epsilon.

    One dual, min_{X in cone(S)} eps*Tr X + Tr(rho - X)_+ (Wang & Renner, PRL
    108, 200501, 2012), on one of three routes:

    - "exact-dual": a set listing its extreme points mu_i has X = sum_i y_i
      mu_i, y >= 0; one round is exact.
    - "cone-dual": a set with data, a ``cone_basis`` B_j, is solved once over
      X = sum_j x_j B_j >= 0 with each ``constraints`` cone A(X) >= 0.
    - "cutting-plane": a set without (see-saw hulls, a marginal set with a
      singular member of maximal support) starts from the LMO's answer at
      -rho and the member of maximal support, and adds cutting planes
      (Kelley, J. SIAM 8, 703): each round repairs the dual's test by up to
      40 steps against the worst free state its LMO finds and adds the first
      four states visited.

    ``extras["stop"]`` is "gap" (upper - lower <= tol), "no-violation",
    "round-cap" or, on the cone route, "ladder-end".  The least dual value
    (at ``extras["dual_y"]`` over the first len(dual_y) states of the array
    ``extras["constraint_states"]``) bounds from above; the lower bound is
    the best test's exponent after rescaling to alpha <= eps, alpha being
    only as exact as the LMO (heuristic on see-saw hulls).  The eps*identity
    test and the support projector are backstops.  Each test's alpha is
    found once: the route finds its own, the floor's is eps on any set of
    states, and the support projector's is the one its early exit found;
    ``extras["alpha"]`` is the winning test's, min(alpha, eps) after
    rescaling.  ``extras["method"]`` names the route, or "floor" or
    "support" where a backstop scores best.  beta below 1e-12 is +inf.

    ``restrict`` confines the test to "diagonal" or "real" POVM elements.
    """
    if not (0.0 < epsilon < 1.0):
        raise ValueError("epsilon must lie strictly between 0 and 1")
    if restrict not in (None, "real", "diagonal"):
        raise ValueError(f"unsupported measurement restriction {restrict!r}")
    m = as_matrix(rho)
    free_set._check_dim(m)
    rng = np.random.default_rng(seed)
    backstops = [(_rescale(m, epsilon * np.eye(len(m), dtype=complex), epsilon, epsilon), "floor")]

    w, v = np.linalg.eigh(m)
    support = _cone(v[:, w > EIG_FLOOR] @ v[:, w > EIG_FLOOR].conj().T, restrict)
    if trace_norm(support @ m @ support - m) <= 1e-10:
        a_supp, _ = _alpha(support, free_set, rng)
        if a_supp <= epsilon + 1e-12:
            return _exact(float("inf"), support, method="support-projector", alpha=a_supp,
                          beta=0.0, epsilon=epsilon)
        backstops.append((_rescale(m, support, a_supp, epsilon), "support"))

    basis = free_set.cone_basis() if free_set.extreme_points() is None else None
    test, route, steps, dual_value, dual = (_plane_dual(m, free_set, epsilon, tol, restrict, rng) if basis is None
                                            else _cone_dual(m, free_set, basis, epsilon, tol, restrict, rng))
    (best_p, best_alpha, best_beta), how = min([(test, route)] + backstops, key=lambda pair: pair[0][2])
    extras = {"method": how, "alpha": min(best_alpha, epsilon), "beta": max(best_beta, 0.0),
              "epsilon": epsilon, "restrict": restrict, **dual}

    value = exponent(best_beta)
    upper = max(value, exponent(1.0 - dual_value))
    return DivergenceResult(value, value, upper, steps, math.isinf(value) or upper - value <= tol,
                            best_p, extras)


# The dual over finitely many constraint states mu_1..mu_k:
#   max Tr(rho P) s.t. 0 <= P <= I, Tr(mu_i P) <= eps
#   = min_{y >= 0} f(y),  f(y) = eps*sum(y) + Tr(X(y))_+,  X(y) = rho - sum_i y_i mu_i;
# over a cone, y = x is free with sum_j x_j B_j >= 0 in place of the mu_i and
# Tr sum_j x_j B_j in place of sum(y).  A restricted test sees only the
# projections of rho and mu_i (B_j) onto its cone, where X and X_+ stay.

DUAL_TEMPERATURES = tuple(10.0 ** (-e / 2) for e in range(2, 21))  # 1e-1 .. 1e-10


def _extreme_point_dual(m, points, epsilon, restrict):
    """min_{y >= 0} f(y) by ``_smoothed_test`` over the orthant y > 0, the mu_i
    as its matrices at offsets -eps.  From tau = 1e-3 on, ``_polish_face``
    solves the optimality system of the face found so far (eigenvalues
    within 100*tau of zero; active constraints y_i > sqrt(tau), as an
    inactive one sits at y_i = eps*tau/slack <= tau), which closes the gap to
    rounding once the face is right."""
    rho = _cone(m, restrict)
    mus = np.stack([_cone(p, restrict) for p in points])

    def polish(tau, y, lam, v, p):
        active = np.where(y > math.sqrt(tau), y, 0.0)
        if tau > 1e-3 or not np.any(active > 0.0):
            return []
        n_null = int(np.sum(np.abs(lam) <= 100.0 * tau))
        return [_polish_face(active, lam, v, n_null, p, rho, mus, epsilon, restrict)]

    return _smoothed_test(rho, SmoothedDual(mus, np.full(len(mus), -epsilon), [], True),
                          np.full(len(mus), 1.0 / len(mus)), epsilon,
                          lambda p: float(np.max(np.real(np.einsum("kab,ba->k", mus, p)))), polish)


def _smoothed_test(rho, smoothed, y, epsilon, alpha, polish=None):
    """min_y f(y) = -offsets.y + Tr(rho - y.mats)_+ from the start y, with a
    test recovered from the optimum, where each of ``smoothed``'s offsets is
    -eps times its variable's trace (so -offsets.y is eps Tr X); ``alpha`` is
    a test's worst type-I error over the set.

    The dual is followed along its softplus smoothing -offsets.y +
    tau*Tr log(1 + exp(X/tau)) minus eps*tau times the barrier of
    ``smoothed`` as tau falls through ``DUAL_TEMPERATURES``, each rung
    maximising its negative by ``SmoothedDual.newton`` (K = rho); each
    smoothed optimum gives the test sigmoid(X/tau): the projector onto X_+
    plus a fractional fill of its near-null eigenvectors, and ``polish(tau,
    y, lam, v, P)`` may add (y, P) candidates.  The barrier and Newton's
    gradient tolerance scale with eps, so the same holds at small budgets.
    The ladder stops early once the best dual value is within 1e-12 (relative
    to 1 - value) of the best rescaled test.

    Returns (y, f(y), P, alpha(P), Newton steps): the lowest dual value and
    the test best after rescaling (the caller rescales P).
    """
    def dual_value(y):
        lam = np.linalg.eigh(rho - np.tensordot(y, smoothed.mats, 1))[0]
        return float(-smoothed.offsets @ y) + float(np.sum(lam[lam > 0.0]))

    origin = np.zeros(len(y))
    best_y, best_f, best_p, best_a, best_t = origin, dual_value(origin), np.zeros_like(rho), 0.0, 0.0
    steps = 0
    for tau in DUAL_TEMPERATURES:
        y, lam, v, weights, n = smoothed.newton(rho, tau, epsilon * tau, y, 1e-12 * epsilon)
        steps += n
        found = [(y, -(v * weights) @ v.conj().T)]
        if polish is not None:
            found += polish(tau, y, lam, v, found[0][1])
        for cand_y, cand_p in found:
            f, a = dual_value(cand_y), alpha(cand_p)
            t = float(np.real(np.trace(rho @ cand_p))) * min(1.0, epsilon / max(a, 1e-300))
            if f < best_f:
                best_y, best_f = cand_y, f
            if t > best_t:
                best_p, best_a, best_t = cand_p, a, t
        if best_f - best_t <= 1e-12 * (1.0 - best_t):
            break
    return best_y, best_f, best_p.astype(complex), best_a, steps


def _polish_face(y, lam, v, n_null, p, rho, mus, epsilon, restrict):
    """Newton steps on the optimality system of one face of the dual.

    The face is the n_null eigenvalues of X nearest zero (eigenvectors N)
    with the active constraints y_i > 0; the test on it is P = Q + N Z N^H,
    Q the projector onto the rest of the positive part.  The unknowns (active
    y_i, fill Z) solve N^H X N = 0 and Tr(mu_i P) = eps for active i; the
    eigenvectors move by first-order perturbation theory.  Four steps reach
    rounding when the face is right.  Returns (y, P) with Z clipped into
    [0, I].
    """
    act = np.flatnonzero(y > 0.0)
    y, basis = y.copy(), hermitian_basis(n_null, restrict)

    def spectrum(y):
        return np.linalg.eigh(rho - np.tensordot(y, mus, 1))

    null_vecs = v[:, np.argsort(np.abs(lam))[:n_null]]
    fill = null_vecs.conj().T @ p @ null_vecs
    for r in range(5):
        lam, v = spectrum(y)
        order = np.argsort(np.abs(lam))
        null, rest = order[:n_null], order[n_null:]
        overlap = v[:, null].conj().T @ null_vecs
        fill, null_vecs = overlap @ fill @ overlap.conj().T, v[:, null]
        pos, neg = rest[lam[rest] > 0.0], rest[lam[rest] <= 0.0]
        mv = v.conj().T @ mus[act] @ v
        a_nn = mv[:, null][:, :, null]
        residual = np.concatenate([
            lam[null] @ np.real(np.einsum("paa->pa", basis)).T,
            np.real(np.einsum("kaa->k", mv[:, pos][:, :, pos])
                    + np.einsum("kab,ba->k", a_nn, fill)) - epsilon,
        ])
        if r == 4 or float(np.max(np.abs(residual))) <= 1e-15:
            break
        coords = np.real(np.einsum("pab,jba->pj", basis, a_nn))
        # -d Tr(mu_i P) / d y_j: positive/negative pairs, then rest/null pairs
        cross = 2.0 * np.real(np.einsum(
            "iba,jab,ab->ij", mv[:, neg][:, :, pos], mv[:, pos][:, :, neg],
            1.0 / (lam[pos][:, None] - lam[neg][None, :])))
        c_rn = mv[:, rest][:, :, null]
        e_rn = (lam[rest] > 0.0)[None, :, None] * c_rn - c_rn @ fill
        with np.errstate(divide="ignore", invalid="ignore"):
            cross += 2.0 * np.real(np.einsum("jac,ica,a->ij", e_rn, mv[:, null][:, :, rest], 1.0 / lam[rest]))
        jac = np.block([[-coords, np.zeros((len(basis), len(basis)))], [-cross, coords.T]])
        if not np.all(np.isfinite(jac)):
            break  # a zero eigenvalue outside the face: the face is wrong
        delta, *_ = np.linalg.lstsq(jac, -residual, rcond=None)
        y[act] = np.clip(y[act] + delta[:len(act)], 0.0, None)
        fill = fill + np.tensordot(delta[len(act):], basis, 1)
    return y, v[:, pos] @ v[:, pos].conj().T + null_vecs @ _clip_povm(fill) @ null_vecs.conj().T


# ---------------------------------------------------------------------------
# regularization (evaluated only where it collapses)


def regularized_rel_entropy(
    rho,
    free_set: FreeStateSet,
    mode: str = "declared-additive",
    n: int = 2,
    assume_additive: bool = False,
    gap: float = DEFAULT_GAP,
    seed: int = 0,
) -> DivergenceResult:
    """Per-copy limit of the relative entropy of resource.

    "declared-additive" returns the single-copy value, allowed for sets that
    declare their relative entropy of resource ``additive`` (incoherent,
    singleton) or when the caller explicitly asserts additivity.  Real states
    are not additive: |+i> is one bit from Real_2, and |+i>^(x)2 one bit from
    Real_4.  "evaluate-n" computes (1/n) D(rho^(x)n || S_n) for n <= 2 as a
    non-certified upper-bound estimate.
    """
    if mode == "declared-additive":
        if not (free_set.additive or assume_additive):
            raise ValueError(
                f"additivity is not declared for kind {free_set.kind!r}; "
                "pass assume_additive=True to assert it"
            )
        res = rel_entropy_of_resource(rho, free_set, gap=gap, seed=seed)
        res.extras["regularization"] = "declared-additive"
        return res
    if mode != "evaluate-n":
        raise ValueError("mode must be 'declared-additive' or 'evaluate-n'")
    if not 1 <= n <= 2:
        raise ValueError("evaluate-n supports n = 1 or 2 only")
    m = as_matrix(rho)
    power = kron_all([m] * n)
    big_set = free_set if n == 1 else free_set.tensor_power(n)
    res = rel_entropy_of_resource(power, big_set, gap=gap, seed=seed)
    per_copy = res.value / n
    return DivergenceResult(
        per_copy,
        -np.inf if math.isinf(per_copy) else 0.0,
        per_copy,
        res.iterations,
        converged=False,
        optimizer=res.optimizer,
        extras={"regularization": f"evaluate-{n}", "note": "upper-bound estimate, not certified"},
    )
