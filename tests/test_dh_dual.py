"""The dual engine for D_H: exact over sets with finitely many extreme
points, one cone solve over sets with constraint data, and cutting planes
over every other set.

A seeded random corpus over incoherent (computational and random basis),
singleton and finite sets, every measurement restriction and three type-I
budgets.  Each result is checked against its own certificate: the returned
test is feasible and attains the lower bound, alpha is exact over the
extreme points, the upper bound is the weak-duality value at the recorded
dual point, and no feasible test beats it.  A second corpus over real,
unrestricted and hull sets checks alpha over the whole set through the
set's exact LMO, and the upper bound at the recorded dual point over the
constraint states the engine returns.  A third solves those sets on the
cone route and, with the cone data hidden, by cutting planes: two
independent routes whose converged intervals must overlap.
"""

import copy
import math

import numpy as np
import pytest

from hetres import divergences as dv
from hetres import theories as th
from hetres.composite import smax, smin
from hetres.qcore import random_density_mat, random_unitary

EPSILONS = (0.1, 0.25, 0.5)
KINDS = ("incoherent", "incoherent-basis", "singleton", "finite")
TOL = 1e-6


def _cone(x, restrict):
    if restrict == "diagonal":
        return np.diag(np.real(np.diag(x)))
    if restrict == "real":
        r = np.real(x)
        return 0.5 * (r + r.T)
    return 0.5 * (x + x.conj().T)


def _make_set(kind, dim, rng):
    if kind == "incoherent":
        return th.Incoherent(dim)
    if kind == "incoherent-basis":
        return th.Incoherent(dim, random_unitary(rng, dim))
    if kind == "singleton":
        return th.Singleton(random_density_mat(rng, dim))
    k = int(rng.integers(2, 5))
    return th.FiniteSet([random_density_mat(rng, dim, int(rng.integers(1, dim + 1)))
                         for _ in range(k)])


def _exponent(rho, p):
    return -math.log2(1.0 - float(np.real(np.trace(rho @ p))))


def _random_tests(rng, dim, restrict, n):
    """n tests 0 <= P <= I inside the restriction's cone."""
    weights = rng.uniform(0.0, 1.0, size=(n, dim))
    if restrict == "diagonal":
        return np.stack([np.diag(w) for w in weights]).astype(complex)
    out = []
    for w in weights:
        if restrict == "real":
            q, _ = np.linalg.qr(rng.normal(size=(dim, dim)))
        else:
            q = random_unitary(rng, dim)
        out.append((q * w) @ q.conj().T)
    return np.array(out, dtype=complex)


def _rescaled(tests, points, epsilon):
    alphas = np.max(np.real(np.einsum("kab,nba->nk", np.array(points), tests)), axis=1)
    return tests * np.minimum(1.0, epsilon / np.maximum(alphas, 1e-300))[:, None, None]


def _dual_bound(rho, points, epsilon, restrict, y):
    x = _cone(rho, restrict) - sum(t * _cone(mu, restrict) for t, mu in zip(y, points))
    lam = np.linalg.eigvalsh(x)
    f = epsilon * float(np.sum(y)) + float(np.sum(lam[lam > 0.0]))
    return -math.log2(1.0 - f)


def _threshold_test_value(rho, gamma, epsilon, restrict):
    """Neyman-Pearson for one alternative, by bisection on the threshold:
    the projector onto {rho - t gamma > 0} plus a fractional fill of its
    kernel, all inside the restriction's cone."""
    r, g = _cone(rho, restrict), _cone(gamma, restrict)

    def parts(t):
        w, v = np.linalg.eigh(r - t * g)
        pos, bnd = v[:, w > 1e-12], v[:, np.abs(w) <= 1e-12]
        return pos @ pos.conj().T, bnd @ bnd.conj().T

    def alpha(p):
        return float(np.real(np.trace(g @ p)))

    lo, hi = 0.0, 1.0
    while alpha(parts(hi)[0]) > epsilon:
        hi *= 2.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if alpha(parts(mid)[0]) <= epsilon:
            hi = mid
        else:
            lo = mid
    pos, bnd = parts(hi)
    denom = alpha(bnd)
    fill = min(1.0, (epsilon - alpha(pos)) / denom) if denom > 1e-14 else 0.0
    return _exponent(rho, pos + fill * bnd)


def _check_result(res, rho, free_set, epsilon, restrict, rng):
    points = free_set.extreme_points()
    p = res.optimizer
    assert res.converged, (res.value, res.gap)
    assert res.converged == (res.gap <= TOL)
    assert res.lower_bound <= res.value <= res.upper_bound
    # the test is in the cone, between 0 and I, and feasible on every extreme point
    assert np.max(np.abs(p - _cone(p, restrict))) <= 1e-12
    w = np.linalg.eigvalsh(0.5 * (p + p.conj().T))
    assert w[0] >= -1e-12 and w[-1] <= 1.0 + 1e-12
    alphas = [float(np.real(np.trace(mu @ p))) for mu in points]
    assert max(alphas) <= epsilon + 1e-12
    assert abs(res.extras["alpha"] - max(alphas)) <= 1e-12
    if math.isinf(res.value):
        assert float(np.real(np.trace(rho @ p))) >= 1.0 - 1e-12
        return
    # the lower bound is attained by the returned test
    assert abs(_exponent(rho, p) - res.lower_bound) <= 1e-12
    # the upper bound is the weak-duality value at the recorded y >= 0
    y = np.array(res.extras["dual_y"])
    assert y.shape == (len(points),) and np.all(y >= 0.0)
    assert abs(_dual_bound(rho, points, epsilon, restrict, y) - res.upper_bound) <= 1e-9
    # no feasible test, random or near the optimum, beats the upper bound
    tests = _random_tests(rng, rho.shape[0], restrict, 100)
    near = p[None] + 0.05 * _random_tests(rng, rho.shape[0], restrict, 100)
    near = np.array([_cone(dv._clip_povm(t), restrict) for t in near], dtype=complex)
    for cand in _rescaled(np.concatenate([tests, near]), points, epsilon):
        assert _exponent(rho, cand) <= res.upper_bound + 1e-12


@pytest.mark.parametrize("restrict", [None, "real", "diagonal"])
@pytest.mark.parametrize("dim", [2, 3, 4])
@pytest.mark.parametrize("kind", KINDS)
def test_random_corpus(kind, dim, restrict):
    seed = 1000 * KINDS.index(kind) + 10 * dim + [None, "real", "diagonal"].index(restrict)
    rng = np.random.default_rng(seed)
    for epsilon in EPSILONS:
        free_set = _make_set(kind, dim, rng)
        rank = int(rng.integers(1, dim + 1))
        rho = random_density_mat(rng, dim, rank)
        res = dv.hypothesis_testing(rho, free_set, epsilon, tol=TOL, seed=seed, restrict=restrict)
        assert "dual_y" in res.extras or res.extras["method"] == "support-projector"
        _check_result(res, rho, free_set, epsilon, restrict, rng)
        if kind == "singleton" and not math.isinf(res.value):
            ref = _threshold_test_value(rho, free_set.gamma, epsilon, restrict)
            assert abs(res.value - ref) <= 1e-7


def test_qubit_incoherent_certificates_close():
    # the projected-subgradient solver left gaps of 3e-5 to 4e-2 bits here
    rng = np.random.default_rng(2026)
    inc2 = th.Incoherent(2)
    for _ in range(10):
        rho = random_density_mat(rng, 2)
        res = dv.hypothesis_testing(rho, inc2, 0.1)
        assert res.extras["method"] == "exact-dual"
        assert res.converged and res.gap <= 1e-6


def test_small_budget_closes():
    # with an unscaled barrier the dual stalled at eps = 1e-6 and the
    # eps*identity floor was returned with a gap as large as the value
    rho = random_density_mat(np.random.default_rng(1), 3)
    res = dv.hypothesis_testing(rho, th.Incoherent(3), 1e-6)
    assert res.extras["method"] == "exact-dual"
    assert res.converged and res.gap <= 1e-12


def test_linearly_dependent_constraints_do_not_break_newton():
    # a cut that is nearly a combination of the others made the undamped
    # Newton system singular at tau ~ 3e-10 ("Singular matrix")
    rho = random_density_mat(np.random.default_rng(4), 3, 1)
    real3 = th.RealStates(3)
    points = [real3.lmo(-rho), np.eye(3) / 3, np.real(rho).astype(complex)]
    p = dv._extreme_point_dual(rho, points, 0.1, None)[2]
    points.append(real3.lmo(-dv._clip_povm(p)))
    free_set = th.FiniteSet(points)
    res = dv.hypothesis_testing(rho, free_set, 0.1, tol=TOL)
    _check_result(res, rho, free_set, 0.1, None, np.random.default_rng(4))


def _set_alphas(free_set, tests):
    """max over the whole set of Tr(sigma P), through the set's exact LMO."""
    return np.real(np.einsum("nab,nba->n", free_set.lmo(-tests), tests))


def _check_cut_result(res, rho, free_set, epsilon, restrict, rng, alpha_tol=1e-12):
    # alpha_tol: how far the set's LMO may fall short of the true alpha; the
    # rescaled test's exponent, and so the reported upper bound, carry it
    p = res.optimizer
    assert res.converged and res.gap <= TOL, (res.value, res.gap, res.extras["stop"])
    assert res.lower_bound <= res.value <= res.upper_bound
    assert np.max(np.abs(p - _cone(p, restrict))) <= 1e-12
    w = np.linalg.eigvalsh(0.5 * (p + p.conj().T))
    assert w[0] >= -1e-12 and w[-1] <= 1.0 + 1e-12
    assert _set_alphas(free_set, p[None])[0] <= epsilon + alpha_tol
    assert "constraint_states" not in res.to_json()["extras"]
    if math.isinf(res.value):
        return
    assert abs(_exponent(rho, p) - res.lower_bound) <= 1e-12
    # the upper bound is the weak-duality value at the recorded y over the
    # first len(y) returned constraint states
    y = np.array(res.extras["dual_y"])
    points = res.extras["constraint_states"][:len(y)]
    assert np.all(y >= 0.0)
    assert abs(_dual_bound(rho, points, epsilon, restrict, y) - res.upper_bound) <= max(1e-9, 10.0 * alpha_tol)
    tests = _random_tests(rng, rho.shape[0], restrict, 200)
    alphas = _set_alphas(free_set, tests)
    for cand in tests * np.minimum(1.0, epsilon / np.maximum(alphas, 1e-300))[:, None, None]:
        assert _exponent(rho, cand) <= res.upper_bound + 1e-12


@pytest.mark.parametrize("restrict", [None, "real", "diagonal"])
@pytest.mark.parametrize("dim", [2, 3, 4])
def test_real_states_cutting_planes_close(dim, restrict):
    seed = 5000 + 10 * dim + [None, "real", "diagonal"].index(restrict)
    rng = np.random.default_rng(seed)
    free_set = th.RealStates(dim)
    assert free_set.extreme_points() is None
    for epsilon in (0.1, 0.5):
        for rank in (1, dim):
            rho = random_density_mat(rng, dim, rank)
            res = dv.hypothesis_testing(rho, free_set, epsilon, tol=TOL, seed=seed, restrict=restrict)
            assert res.extras["stop"] in {"gap", "no-violation"}
            _check_cut_result(res, rho, free_set, epsilon, restrict, rng)


@pytest.mark.parametrize("make", [lambda: th.AllStates(2), lambda: th.AllStates(3),
                                  lambda: smin([th.Incoherent(2), th.RealStates(2)])],
                         ids=["all2", "all3", "min-inc2-real2"])
def test_other_sets_cutting_planes_close(make):
    free_set = make()
    rng = np.random.default_rng(6000 + free_set.dim)
    for epsilon in (0.1, 0.5):
        for rank in (1, free_set.dim):
            rho = random_density_mat(rng, free_set.dim, rank)
            res = dv.hypothesis_testing(rho, free_set, epsilon, tol=TOL)
            _check_cut_result(res, rho, free_set, epsilon, None, rng)


def test_real_states_value_matches_the_subgradient_solver():
    # computed with the 1200-step projected-subgradient loop this engine replaced
    rho = random_density_mat(np.random.default_rng(5), 2)
    res = dv.hypothesis_testing(rho, th.RealStates(2), 0.2)
    assert abs(res.value - 0.6026586284765482) <= 1e-9


def _without_data(free_set):
    """The same set with its cone data hidden: D_H then takes cutting planes."""
    class Hidden(type(free_set)):
        def cone_basis(self):
            return None

    hidden = copy.copy(free_set)
    hidden.__class__ = Hidden
    return hidden


DIFFERENTIAL_SETS = {
    "real2": lambda: th.RealStates(2),
    "real3": lambda: th.RealStates(3),
    "real4": lambda: th.RealStates(4),
    "all2": lambda: th.AllStates(2),
    "all3": lambda: th.AllStates(3),
    "min-inc2-real2": lambda: smin([th.Incoherent(2), th.RealStates(2)]),
    "min-real2-real2": lambda: smin([th.RealStates(2), th.RealStates(2)]),
    "separable": lambda: th.SeparableTwoQubit(),
    "max-inc2-real2": lambda: smax([th.Incoherent(2), th.RealStates(2)]),
}
# sets whose LMO gives alpha only to about 1e-10 (a see-saw, or the marginal
# oracle at 1e-10 max|G|): cutting planes over them can stop short of the gap,
# at their round cap or on the oracle's word that no cut is violated
APPROXIMATE_LMO = {"min-real2-real2", "separable", "max-inc2-real2"}


# cutting planes over the APPROXIMATE_LMO sets take 6-26 s per restriction,
# so those sets run unrestricted only
@pytest.mark.parametrize("name, restrict", [(n, r) for n in DIFFERENTIAL_SETS
                                            for r in ([None] if n in APPROXIMATE_LMO else [None, "real", "diagonal"])])
def test_cone_dual_agrees_with_cutting_planes(name, restrict):
    free_set = DIFFERENTIAL_SETS[name]()
    hidden = _without_data(free_set)
    assert hidden.cone_basis() is None and free_set.cone_basis() is not None
    seed = 7000 + 10 * free_set.dim + [None, "real", "diagonal"].index(restrict)
    rng = np.random.default_rng(seed)
    for epsilon in (0.1, 0.5):
        for rank in (1, free_set.dim):
            rho = random_density_mat(rng, free_set.dim, rank)
            cone = dv.hypothesis_testing(rho, free_set, epsilon, tol=TOL, seed=seed, restrict=restrict)
            planes = dv.hypothesis_testing(rho, hidden, epsilon, tol=TOL, seed=seed, restrict=restrict)
            if "cuts" in cone.extras:  # not an exact +inf
                assert cone.extras["cuts"] == 0 and len(cone.extras["dual_y"]) == 1
                assert cone.extras["stop"] == "gap"
            approximate = name in APPROXIMATE_LMO
            _check_cut_result(cone, rho, free_set, epsilon, restrict, rng, 1e-9 if approximate else 1e-12)
            assert planes.converged or approximate
            assert max(cone.lower_bound, planes.lower_bound) <= min(cone.upper_bound, planes.upper_bound) + 1e-9


class _PlaneRoute(Exception):
    pass


def test_cone_route_is_taken_where_data_and_no_extreme_points_are(monkeypatch):
    def plane_route(m, free_set, *args):
        raise _PlaneRoute("exact-dual" if free_set.extreme_points() is not None else "cutting-plane")

    monkeypatch.setattr(dv, "_plane_dual", plane_route)
    rho = random_density_mat(np.random.default_rng(8), 4, 2)
    sets = {"real": th.RealStates(4), "all": th.AllStates(4),
            "min-inc-real": smin([th.Incoherent(2), th.RealStates(2)]),
            "min-inc-all": smin([th.Incoherent(2), th.AllStates(2)]),
            "incoherent": th.Incoherent(4), "separable": th.SeparableTwoQubit(),
            "min-real-real": smin([th.RealStates(2), th.RealStates(2)]),
            "max-inc-real": smax([th.Incoherent(2), th.RealStates(2)]),
            "min-real-singleton": th.MinComposite([th.RealStates(2), th.Singleton(np.diag([0.7, 0.3]))]),
            "max-pure-inc": smax([th.Singleton(np.diag([1.0, 0.0])), th.Incoherent(2)])}
    routes = {}
    for name, free_set in sets.items():
        try:
            res = dv.hypothesis_testing(rho, free_set, 0.1, tol=TOL)
        except _PlaneRoute as route:
            routes[name] = str(route)
            continue
        routes[name] = "cone-dual"
        # the one constraint state, the cover X / Tr X, is a member
        assert res.converged and len(res.extras["dual_y"]) == 1
        assert free_set.contains(res.extras["constraint_states"][0], 1e-9)
    # no data (a singleton factor of a hull), or a singular member of maximal
    # support (a pure singleton local), leaves cutting planes
    assert routes == {"real": "cone-dual", "all": "cone-dual", "min-inc-real": "cone-dual",
                      "min-inc-all": "cone-dual", "incoherent": "exact-dual", "separable": "cone-dual",
                      "min-real-real": "cone-dual", "max-inc-real": "cone-dual",
                      "min-real-singleton": "cutting-plane", "max-pure-inc": "cutting-plane"}


@pytest.mark.parametrize("quantity", ["dh", "dmax"])
def test_marginal_set_with_a_mixed_singleton_closes_on_the_cone_route(quantity):
    # smax(Singleton(diag(0.7, 0.3)), Inc2) has a full-rank member of maximal
    # support, so the cone dual has an interior; with diag(1, 0) it has none
    free_set = smax([th.Singleton(np.diag([0.7, 0.3])), th.Incoherent(2)])
    assert smax([th.Singleton(np.diag([1.0, 0.0])), th.Incoherent(2)]).cone_basis() is None
    rho = random_density_mat(np.random.default_rng(10), 4, 2)
    if quantity == "dh":
        res = dv.hypothesis_testing(rho, free_set, 0.1, tol=TOL)
    else:
        res = dv.dmax(rho, free_set, tol=1e-4)
        assert free_set.contains(res.optimizer, 1e-9)
    assert res.extras["method"] == "cone-dual" and res.extras["stop"] == "gap"
    assert res.converged and res.extras["cuts"] == 0


# the lower bounds cutting planes reached at their 32-round cap (128 cuts, no
# convergence) on random_density_mat(default_rng([9, i]), 9, 3) at eps = 0.1
PLANE_LOWER_AT_NINE = {0: 0.29909801793505636, 1: 0.2612425824930262}


@pytest.mark.parametrize("i", sorted(PLANE_LOWER_AT_NINE))
def test_real_states_at_nine_converge(i):
    rho = random_density_mat(np.random.default_rng([9, i]), 9, 3)
    free_set = th.RealStates(9)
    res = dv.hypothesis_testing(rho, free_set, 0.1, tol=TOL)
    assert res.extras["stop"] == "gap" and res.extras["cuts"] == 0
    _check_cut_result(res, rho, free_set, 0.1, None, np.random.default_rng(i))
    assert res.lower_bound >= PLANE_LOWER_AT_NINE[i]


@pytest.mark.parametrize("make", [
    lambda: smin([th.Incoherent(2), th.RealStates(2)]), lambda: smin([th.RealStates(2), th.RealStates(2)]),
    lambda: th.SeparableTwoQubit(), lambda: smax([th.Incoherent(2), th.RealStates(2)]),
], ids=["min-inc2-real2", "min-real2-real2", "separable", "max-inc2-real2"])
def test_dmax_over_the_cone_agrees_with_cutting_planes(make):
    free_set = make()
    for k in range(3):
        rho = random_density_mat(np.random.default_rng([4, k]), 4, 1 + 3 * (k % 2))
        res = dv.dmax(rho, free_set, tol=1e-4)
        planes = dv.dmax(rho, _without_data(free_set), tol=1e-4)
        assert res.converged and res.extras["cuts"] == 0
        assert max(res.lower_bound, planes.lower_bound) <= min(res.upper_bound, planes.upper_bound) + 1e-9
        assert free_set.contains(res.optimizer, 1e-9)
        assert np.linalg.eigvalsh(2.0 ** res.upper_bound * res.optimizer - rho)[0] >= -1e-9


@pytest.mark.parametrize("make, calls", [(lambda: th.RealStates(3), 20), (lambda: th.Incoherent(3), 2)],
                         ids=["real3", "inc3"])
def test_each_test_is_scored_once(make, calls):
    # the support projector's alpha is found once, for its early exit, and
    # the route's once per test; the floor eps*I and the reported alpha need
    # no call: the cone ladder's 19 rungs and the support on RealStates(3),
    # the exact dual's one test and the support on Incoherent(3)
    free_set, count = make(), []
    lmo = free_set.lmo
    free_set.lmo = lambda grad, rng=None: count.append(1) or lmo(grad, rng)
    res = dv.hypothesis_testing(random_density_mat(np.random.default_rng([3, 1]), 3), free_set, 0.1)
    assert res.converged and len(count) == calls
