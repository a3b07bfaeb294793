import math

import numpy as np
import pytest

from hetres import divergences as dv
from hetres import theories as th
from hetres.composite import smin
from hetres.qcore import (
    KET_PLUS,
    KET_PLUS_Y,
    bell_phi_plus_vec,
    partial_trace_mat,
    partial_transpose_mat,
    random_density_mat,
    random_pure_vec,
    random_unitary,
    relative_entropy,
    von_neumann_entropy,
)

PHI = np.outer(bell_phi_plus_vec(2), bell_phi_plus_vec(2).conj())
PLUS = np.outer(KET_PLUS, KET_PLUS.conj())
PLUS_Y = np.outer(KET_PLUS_Y, KET_PLUS_Y.conj())
INC2 = th.Incoherent(2)


class TestRelEntropyOfResource:
    def test_coherence_golden_unit(self):
        res = dv.rel_entropy_of_resource(PLUS, INC2)
        assert abs(res.value - 1.0) < 1e-12
        assert res.converged and res.gap == 0.0

    def test_engine_matches_closed_form_on_golden_unit(self):
        res = dv.rel_entropy_of_resource(PLUS, INC2, gap=1e-4, force_engine=True)
        assert abs(res.value - 1.0) < 1e-3
        assert res.converged

    def test_entanglement_golden_unit(self):
        res = dv.rel_entropy_of_resource(PHI, th.SeparableTwoQubit(), gap=5e-4, seed=1)
        assert abs(res.value - 1.0) < 1e-3
        assert res.converged
        assert res.lower_bound <= res.value <= res.upper_bound

    def test_free_state_gives_zero(self):
        rng = np.random.default_rng(0)
        mu = INC2.random_state(rng)
        res = dv.rel_entropy_of_resource(mu, INC2)
        assert abs(res.value) < 1e-10

    def test_assisted_hull_identity_single_case(self):
        rng = np.random.default_rng(1)
        psi = random_pure_vec(rng, 4)
        rho = np.outer(psi, psi.conj())
        hull = th.MinComposite([th.AllStates(2), th.Incoherent(2)], labels=["A", "B"])
        res = dv.rel_entropy_of_resource(rho, hull, gap=1e-3, seed=2)
        target = von_neumann_entropy(np.diag(np.diag(partial_trace_mat(rho, (2, 2), [1]))))
        assert abs(res.value - target) < 1e-3

    def test_closed_form_vs_engine_random_states(self):
        rng = np.random.default_rng(3)
        for dim in (2, 3, 4):
            inc = th.Incoherent(dim)
            for _ in range(34):
                rho = random_density_mat(rng, dim)
                _, closed = inc.closest_free_state(rho)
                res = dv.rel_entropy_of_resource(rho, inc, gap=1e-4, force_engine=True)
                assert abs(res.value - closed) < 1e-3

    def test_real_closed_form_vs_engine(self):
        rng = np.random.default_rng(4)
        real = th.RealStates(2)
        for _ in range(20):
            rho = random_density_mat(rng, 2)
            _, closed = real.closest_free_state(rho)
            res = dv.rel_entropy_of_resource(rho, real, gap=1e-4, force_engine=True)
            assert abs(res.value - closed) < 1e-3

    def test_frank_wolfe_flags_a_heuristic_oracle(self):
        res = dv.rel_entropy_of_resource(PHI, th.SeparableTwoQubit(), gap=5e-4, seed=1)
        assert res.extras["method"] == "frank-wolfe"
        assert res.extras["oracle_limited"] is True
        # the hull has a closed form, so only a forced solve reaches Frank-Wolfe
        res = dv.rel_entropy_of_resource(PHI, smin([INC2, th.RealStates(2)]), gap=1e-3,
                                         force_engine=True)
        assert res.extras["method"] == "frank-wolfe"
        assert res.extras["oracle_limited"] is False

    def test_see_saw_lower_bound_stays_below_a_separable_member(self):
        # a Frank-Wolfe gap certifies only at the oracle's minimum, so a
        # see-saw with too few starts can certify a lower bound above
        # D(rho||sigma) = 0.01683 at the separable sigma below (4 starts gave 0.04723)
        rho = random_density_mat(np.random.default_rng([5, 6]), 4, 3)
        sigma = np.array([
            [0.3102, 0.1142 - 0.0066j, -0.0233 - 0.0020j, -0.1055 - 0.0618j],
            [0.1142 + 0.0066j, 0.3912, -0.0893 - 0.0824j, 0.1642 + 0.1541j],
            [-0.0233 + 0.0020j, -0.0893 + 0.0824j, 0.0409, -0.0811 + 0.0093j],
            [-0.1055 + 0.0618j, 0.1642 - 0.1541j, -0.0811 - 0.0093j, 0.2577]])
        # a 2x2 state is separable iff its partial transpose is PSD (Horodecki)
        assert abs(np.trace(sigma) - 1.0) <= 1e-12
        assert np.linalg.eigvalsh(sigma)[0] > 0.0
        assert np.linalg.eigvalsh(partial_transpose_mat(sigma, (2, 2), 1))[0] > 0.0
        res = dv.rel_entropy_of_resource(rho, th.SeparableTwoQubit(), gap=1e-3, seed=6)
        assert res.converged and res.extras["oracle_limited"] is True
        assert res.lower_bound <= float(relative_entropy(rho, sigma))

    def test_optimizer_is_free(self):
        res = dv.rel_entropy_of_resource(PHI, th.SeparableTwoQubit(), gap=1e-3, seed=5)
        assert th.SeparableTwoQubit().contains(res.optimizer, 1e-6)

    def test_marginal_set_engine_bounded_by_hull_value(self):
        rng = np.random.default_rng(6)
        smax = th.MaxComposite([INC2, th.Incoherent(2)])
        for _ in range(10):
            rho = random_density_mat(rng, 4)
            hi = dv.rel_entropy_of_resource(rho, smax, gap=1e-3)
            _, low = th.Incoherent(4).closest_free_state(rho)
            assert hi.value <= low + 1e-6
            assert hi.lower_bound <= hi.value

    def test_marginal_set_engine_gap_rests_on_the_dual_bound(self):
        # the gap is Tr G sigma - lower, with lower the exact oracle's
        # certified bound: at the returned optimizer it closes the gap
        target = np.kron(np.diag([1.0, 0.0]), PHI).astype(complex)
        xc = th.MaxComposite([INC2, th.SeparableTwoQubit()])
        res = dv.rel_entropy_of_resource(target, xc, gap=2e-3)
        assert res.extras["method"] == "mirror-descent"
        assert res.converged and abs(res.value - 1.0) <= 2e-3
        g = dv._log_gradient(*dv._eig_frame(target, res.optimizer))
        g = 0.5 * (g + g.conj().T)
        oracle_gap = float(np.real(np.trace(g @ res.optimizer))) - xc.lmo_with_bound(g)[1]
        assert 0.0 <= oracle_gap <= 2e-3
        # the input on which the projected-gradient engine reported a false
        # and then an open gap now converges
        rho = random_density_mat(np.random.default_rng([0, 3, 9]), 9, rank=9)
        res = dv.rel_entropy_of_resource(
            rho, th.MaxComposite([th.Incoherent(3), th.RealStates(3)]), gap=1e-3
        )
        assert res.converged and res.gap <= 1e-3
        assert np.isfinite(res.lower_bound) and res.lower_bound <= res.value

    @pytest.mark.parametrize(
        "locals_, rank",
        [([th.Incoherent(d), th.RealStates(d)], r) for d in (2, 3, 4) for r in (1, d * d)]
        + [([INC2, th.SeparableTwoQubit()], 8), ([INC2, th.Singleton(np.diag([0.7, 0.3]))], 4),
           ([INC2, th.Incoherent(2)], 1)],
        ids=["inc2-real2-r1", "inc2-real2-r4", "inc3-real3-r1", "inc3-real3-r9", "inc4-real4-r1",
             "inc4-real4-r16", "inc2-sep", "inc2-singleton", "inc2-inc2"],
    )
    def test_marginal_set_corpus_converges_with_members(self, locals_, rank):
        # every solve is certified at gap 1e-3, returns an exact member,
        # sits at or below the hull's closed form, and keeps the partial-
        # trace lower bound
        xc = th.MaxComposite(locals_)
        rho = random_density_mat(np.random.default_rng([xc.dim, rank, 17]), xc.dim, rank)
        res = dv.rel_entropy_of_resource(rho, xc, gap=1e-3)
        assert res.converged and res.gap <= 1e-3
        assert xc.contains(res.optimizer, 1e-9)
        hull = th.MinComposite(locals_).closest_free_state(rho)
        if hull is not None:
            assert res.value <= hull[1]
        assert res.lower_bound >= dv._marginal_lower_bound(rho, xc)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            dv.rel_entropy_of_resource(PLUS, th.Incoherent(3))

    def test_support_infeasibility_is_infinite(self):
        # every free state is rank deficient off the input's support
        res = dv.rel_entropy_of_resource(
            np.eye(2, dtype=complex) / 2, th.Singleton(np.diag([1.0, 0.0]))
        )
        assert math.isinf(res.value)
        finite_set = th.FiniteSet([np.diag([1.0, 0.0]), np.diag([0.0, 1.0])])
        res = dv.rel_entropy_of_resource(np.eye(2, dtype=complex) / 2, finite_set)
        assert math.isinf(res.value)

    @pytest.mark.parametrize("rho, free_set, force", [
        # a hull with a rank-deficient singleton factor: Frank-Wolfe ran to
        # its 50,000-iteration cap and returned +inf unconverged
        (np.eye(4) / 4, th.MinComposite([th.Singleton(np.diag([1.0, 0.0])), th.RealStates(2)]), False),
        # a forced engine over a finite list: it returned lower bound -inf
        (np.diag([0.5, 0.0, 0.5]), th.FiniteSet([np.diag([1.0, 0.0, 0.0]), np.diag([0.0, 1.0, 0.0])]), True),
    ], ids=["hull-with-rank-deficient-singleton", "forced-finite-list"])
    def test_support_leak_is_an_exact_infinity(self, rho, free_set, force):
        # the member of maximal support leaves rho's support uncovered
        res = dv.rel_entropy_of_resource(rho, free_set, gap=1e-3, force_engine=force)
        assert math.isinf(res.value) and math.isinf(res.lower_bound)
        assert res.converged and res.iterations == 0
        assert res.extras["method"] == "support"

    def test_mirror_descent_says_why_it_stopped(self):
        rho = random_density_mat(np.random.default_rng([8, 1]), 4, 1)
        res = dv.rel_entropy_of_resource(rho, th.MaxComposite([INC2, th.RealStates(2)]), gap=1e-3)
        assert res.converged and res.extras["stop"] == "gap"
        assert res.iterations < 600
        # the step size underflows before the gap closes here
        rho = random_density_mat(np.random.default_rng([6, 3]), 8, 1)
        res = dv.rel_entropy_of_resource(rho, th.MaxComposite([INC2, th.SeparableTwoQubit()]), gap=1e-3)
        assert not res.converged and res.extras["stop"] == "stall"
        assert res.iterations < 600


HADAMARD = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2)
# the eigenbasis (1, +-i)/sqrt(2) of sigma_y: a basis with non-real entries
Y_BASIS = np.array([[1, 1], [1j, -1j]], dtype=complex) / np.sqrt(2)


def _projection_hulls():
    inc, real = th.Incoherent, th.RealStates
    hulls = {
        "inc2-real2": [inc(2), real(2)],
        "inc3-real3": [inc(3), real(3)],
        "all2-inc2": [th.AllStates(2), inc(2)],
        "inc2hadamard-real2": [inc(2, HADAMARD), real(2)],
        "inc2y-real2": [inc(2, Y_BASIS), real(2)],
        "inc3fourier-real3": [inc(3, np.fft.fft(np.eye(3)) / np.sqrt(3)), real(3)],
        "real2-inc2unitary": [real(2), inc(2, random_unitary(np.random.default_rng(14), 2))],
        "inc2-inc2-real2": [inc(2), inc(2), real(2)],
        "real3-inc2": [real(3), inc(2)],
    }
    return [pytest.param(th.MinComposite(locals_), id=name) for name, locals_ in hulls.items()]


class TestProjectionHulls:
    """Hulls whose factors are projection sets, all but one incoherent: the
    closest free state is Pi rho for Pi the product of the projections."""

    @pytest.mark.parametrize("hull", _projection_hulls())
    def test_closed_form_lies_in_the_frank_wolfe_certificate(self, hull):
        rng = np.random.default_rng([14, hull.dim])
        for _ in range(3):
            rho = random_density_mat(rng, hull.dim)
            res = dv.rel_entropy_of_resource(rho, hull)
            assert res.extras["method"] == "closed-form"
            fw = dv.rel_entropy_of_resource(rho, hull, gap=1e-4, force_engine=True)
            assert fw.converged and fw.extras["method"] == "frank-wolfe"
            assert fw.lower_bound - 1e-9 <= res.value <= fw.upper_bound + 1e-9
            assert hull.contains(res.optimizer, 1e-12)
            assert abs(relative_entropy(rho, res.optimizer) - res.value) <= 1e-9

    def test_complex_basis_dephases_only_its_own_slot(self):
        # the real part taken over the whole matrix would keep a
        # sigma_y (x) sigma_y term here, which no hull member has
        hull = smin([th.Incoherent(2, Y_BASIS), th.RealStates(2)])
        b0 = np.outer(Y_BASIS[:, 0], Y_BASIS[:, 0].conj())
        res = dv.rel_entropy_of_resource(np.kron(b0, PLUS_Y), hull)
        assert np.max(np.abs(res.optimizer - np.kron(b0, np.eye(2) / 2))) <= 1e-12
        assert abs(res.value - 1.0) <= 1e-12

    def test_rank_one_input_closes_without_iterations(self):
        rng = np.random.default_rng(14)
        hull = smin([th.Incoherent(3), th.RealStates(3)])
        res = dv.rel_entropy_of_resource(random_density_mat(rng, 9, 1), hull, gap=1e-9)
        assert res.extras["method"] == "closed-form"
        assert res.iterations == 0 and res.converged


def _line_search_corpus():
    """(kind, rho, sigma, mu) as Frank-Wolfe meets them: rho full rank and
    sigma an interior free state.  "vertex": mu is the LMO's rank-one answer,
    so h(1) = inf.  "past-optimum": mu lies halfway to the closest free
    state, so h falls all the way and the minimiser is g = 1.  "mixed": mu
    averages the two and is full rank."""
    cases = []
    for dim in (2, 4, 9):
        rng = np.random.default_rng([11, dim])
        for free_set in (th.Incoherent(dim), th.RealStates(dim)):
            rho = random_density_mat(rng, dim)
            sigma = 0.9 * free_set.random_state(rng) + 0.1 * np.eye(dim) / dim
            vertex = free_set.lmo(dv._log_gradient(*dv._eig_frame(rho, sigma)), rng)
            closest, _ = free_set.closest_free_state(rho)
            for kind, mu in (("vertex", vertex), ("past-optimum", 0.5 * (sigma + closest)),
                             ("mixed", 0.5 * (vertex + closest))):
                cases.append(pytest.param(kind, rho, sigma, mu,
                                          id=f"{free_set.kind}{dim}-{kind}"))
    return cases


def _segment_objective(rho, sigma, mu):
    s_rho = -von_neumann_entropy(rho)

    def h(g):
        w, _, rho_hat, _ = dv._eig_frame(rho, sigma + g * (mu - sigma))
        return dv._objective_from_eig(rho_hat, w, s_rho)

    return s_rho, h


def _reference_minimiser(h, probe=1e-5):
    """Ternary search for the minimiser of a convex h on [0, 1] that compares
    h at g +- probe, so its comparisons stay well above the rounding in h."""
    lo, hi = 0.0, 1.0
    while hi - lo > 1e-13:
        g = 0.5 * (lo + hi)
        if h(min(g + probe, 1.0)) < h(max(g - probe, 0.0)):
            lo = g
        else:
            hi = g
    return 0.5 * (lo + hi)


class TestFrankWolfeLineSearch:
    @pytest.mark.parametrize("kind, rho, sigma, mu", _line_search_corpus())
    def test_returns_the_minimiser_of_the_segment(self, kind, rho, sigma, mu):
        s_rho, h = _segment_objective(rho, sigma, mu)
        slope0 = float(np.real(np.trace(dv._log_gradient(*dv._eig_frame(rho, sigma)) @ (mu - sigma))))
        assert slope0 < 0.0
        gamma, h_gamma, frame = dv._line_search(rho, s_rho, sigma, mu - sigma, dv._eig_frame(rho, sigma), slope0)
        assert h_gamma == h(gamma)
        # the eigendecomposition and rho in its frame, reused at the next iterate
        expected = dv._eig_frame(rho, sigma + gamma * (mu - sigma))
        assert all(np.array_equal(a, b) for a, b in zip(frame, expected))
        if kind == "vertex":
            assert math.isinf(h(1.0))
        if kind == "past-optimum":
            assert gamma == 1.0
        assert abs(gamma - _reference_minimiser(h)) <= 1e-8
        assert h_gamma <= min(h(g) for g in np.linspace(0.0, 1.0, 2001)) + 1e-12

    def test_log_divided_differences_keep_close_pairs_exact(self):
        # the difference of logs cancels on close pairs: 1e-13 apart it gave
        # 4.814815, 1.2e-3 off log1p(delta)/(w delta ln 2)
        close = dv._log_divided_differences(np.array([0.3, 0.3 * (1.0 + 1e-13)]))
        assert abs(close[0, 1] / 4.808983469629639 - 1.0) <= 1e-12
        assert close[0, 0] == 1.0 / (0.3 * math.log(2.0))
        far = dv._log_divided_differences(np.array([1.0, 1e-12]))
        assert abs(far[0, 1] / ((math.log2(1.0) - math.log2(1e-12)) / (1.0 - 1e-12)) - 1.0) <= 1e-15

    @pytest.mark.parametrize("dim", [2, 4, 9, 16])
    @pytest.mark.parametrize("spectrum", ["random", "maximally-mixed", "repeated"])
    def test_curvature_is_the_derivative_of_the_slope(self, dim, spectrum):
        # h'' against central differences of h', and h' against those of h,
        # along sigma -> mu with mu rank one (h(1) = inf); degenerate sigma
        # take the near-pair branch of the curvature
        rng = np.random.default_rng([12, dim])
        rho = random_density_mat(rng, dim)
        if spectrum == "random":
            sigma = random_density_mat(rng, dim)
        elif spectrum == "maximally-mixed":
            sigma = np.eye(dim, dtype=complex) / dim
        else:
            w = np.repeat(rng.uniform(0.5, 1.5, size=(dim + 1) // 2), 2)[:dim]
            sigma = np.diag(w / np.sum(w)).astype(complex)
        mu = random_density_mat(rng, dim, 1)
        _, h = _segment_objective(rho, sigma, mu)
        assert math.isinf(h(1.0))

        def slope_curvature(g):
            return dv._slope_curvature(dv._eig_frame(rho, sigma + g * (mu - sigma)), mu - sigma)

        step = 1e-6
        for g in (0.0, 0.5):
            slope, curvature = slope_curvature(g)
            assert curvature > 0.0
            ahead, behind = slope_curvature(g + step)[0], slope_curvature(g - step)[0]
            assert abs(curvature - (ahead - behind) / (2 * step)) <= 1e-5 * curvature
            assert abs(slope - (h(g + step) - h(g - step)) / (2 * step)) <= 1e-5 * max(abs(slope), 1.0)

    def test_a_frank_wolfe_step_costs_few_eigensolves(self, monkeypatch):
        calls = []
        eigh = np.linalg.eigh

        def counted(*args, **kwargs):
            calls.append(None)
            return eigh(*args, **kwargs)

        real = th.RealStates(9)
        rho = random_density_mat(np.random.default_rng(9), 9)
        monkeypatch.setattr(np.linalg, "eigh", counted)
        res = dv.rel_entropy_of_resource(rho, real, gap=1e-3, force_engine=True)
        monkeypatch.undo()
        # golden-section search took about 52 per iteration, Brent's method
        # about 10, the rational-Newton search about 4
        assert len(calls) / res.iterations <= 6
        _, closed = real.closest_free_state(rho)
        assert res.converged
        assert res.lower_bound <= closed <= res.upper_bound


class TestAwayStepFrankWolfe:
    def test_result_says_why_it_stopped(self, monkeypatch):
        rho = random_density_mat(np.random.default_rng([4, 0]), 4)
        res = dv.rel_entropy_of_resource(rho, th.Incoherent(4), gap=1e-4, force_engine=True)
        assert res.converged and res.extras["stop"] == "gap"
        assert res.extras["away_steps"] == 6
        monkeypatch.setattr(dv, "ITER_CAP", 3)
        res = dv.rel_entropy_of_resource(rho, th.Incoherent(4), gap=1e-4, force_engine=True)
        assert res.iterations == 3 and not res.converged
        assert res.extras["stop"] == "iteration-cap"

    @pytest.mark.parametrize("free_set", [th.Incoherent(9), th.RealStates(9)], ids=["inc9", "real9"])
    @pytest.mark.parametrize("rank", [1, 9])
    def test_forced_solve_at_d9_closes_in_few_iterations(self, free_set, rank):
        # vanilla Frank-Wolfe took 76-139 iterations on these inputs
        rho = random_density_mat(np.random.default_rng([9, rank, 0]), 9, rank)
        res = dv.rel_entropy_of_resource(rho, free_set, gap=1e-3, force_engine=True)
        _, closed = free_set.closest_free_state(rho)
        assert res.converged and res.gap <= 1e-3
        assert res.lower_bound - 1e-12 <= closed <= res.upper_bound + 1e-12
        assert res.iterations <= 60

    @pytest.mark.parametrize("s", [27, 28])
    def test_full_rank_atom_keeps_the_iterate_off_the_boundary(self, s):
        # with away steps free to empty the full-rank atom, these rank-2
        # inputs drove sigma's least eigenvalues below 1e-10, where the
        # clipped gradient's Frank-Wolfe gap (0.07-0.14) stays above the
        # requested gap while its line search finds no descent
        real = th.RealStates(9)
        rho = random_density_mat(np.random.default_rng([9, 2, s]), 9, 2)
        res = dv.rel_entropy_of_resource(rho, real, gap=1e-3, force_engine=True)
        _, closed = real.closest_free_state(rho)
        assert res.converged and res.extras["stop"] == "gap"
        assert res.lower_bound - 1e-12 <= closed <= res.upper_bound + 1e-12
        assert res.iterations <= 60

    def test_finite_hull_closes_in_few_iterations(self):
        # vanilla Frank-Wolfe zig-zagged inside a face of the hull of 4
        # points for 437 iterations
        rng = np.random.default_rng([99, 3, 4, 1])
        hull = th.FiniteSet([random_density_mat(rng, 4) for _ in range(4)])
        rho = random_density_mat(rng, 4, 1)
        res = dv.rel_entropy_of_resource(rho, hull, gap=1e-3, seed=3, force_engine=True)
        assert res.converged and res.gap <= 1e-3
        assert res.iterations <= 50
        # away steps move along sigma - a_j, yet the iterate stays in the hull
        points = np.stack(hull.extreme_points()).reshape(4, -1).T
        weights, *_ = np.linalg.lstsq(points, res.optimizer.ravel(), rcond=None)
        assert np.max(np.abs(points @ weights - res.optimizer.ravel())) <= 1e-12
        assert np.min(weights.real) >= -1e-12 and abs(np.sum(weights) - 1.0) <= 1e-12


class TestDmax:
    def test_self_singleton_zero(self):
        rng = np.random.default_rng(7)
        rho = random_density_mat(rng, 2)
        res = dv.dmax(rho, th.Singleton(rho))
        assert abs(res.value) < 1e-9

    def test_plus_against_incoherent_is_one(self):
        # oracle: bisection over a dense grid of diagonal reference states
        def feasible_grid(lam):
            for p in np.linspace(1e-4, 1 - 1e-4, 4001):
                if np.linalg.eigvalsh(lam * np.diag([p, 1 - p]) - PLUS)[0] >= -1e-12:
                    return True
            return False

        lo, hi = 1.0, 4.0
        for _ in range(40):
            mid = 0.5 * (lo + hi)
            if feasible_grid(mid):
                hi = mid
            else:
                lo = mid
        assert abs(math.log2(hi) - 1.0) < 1e-3

        res = dv.dmax(PLUS, INC2, tol=1e-4)
        assert abs(res.value - 1.0) < 1e-3
        assert res.converged

    def test_pure_against_mixed_singleton(self):
        res = dv.dmax(np.diag([1.0, 0.0]).astype(complex), th.Singleton(np.eye(2) / 2))
        assert abs(res.value - 1.0) < 1e-12

    def test_dominates_relative_entropy(self):
        rng = np.random.default_rng(8)
        for _ in range(15):
            rho = random_density_mat(rng, 2)
            d_rel = dv.rel_entropy_of_resource(rho, INC2).value
            d_max = dv.dmax(rho, INC2, tol=1e-4).value
            assert d_max >= d_rel - 1e-4
            assert d_rel >= -1e-12

    def test_unsupported_singleton_infinite(self):
        res = dv.dmax(np.eye(2, dtype=complex) / 2, th.Singleton(np.diag([1.0, 0.0])))
        assert math.isinf(res.value) and res.extras["method"] == "support"

    def test_bell_pair_robustness_is_one(self):
        # generalized robustness of the maximally entangled pair: the
        # smallest scaling covering it with a separable state is exactly 2
        res = dv.dmax(PHI, th.SeparableTwoQubit(), tol=1e-3, seed=2)
        assert abs(res.value - 1.0) < 2e-3
        assert res.converged
        # the witness is a genuine separable state dominating the input
        assert th.SeparableTwoQubit().contains(res.optimizer, 1e-7)
        scale = 2.0 ** res.value
        assert np.linalg.eigvalsh(scale * res.optimizer - PHI)[0] > -1e-9


DMAX_TOL = 1e-6


def _pure(vec):
    return np.outer(vec, vec.conj())


def _imaginarity_robustness(rho):
    # log2(1 + ||rho - rho^T||_1 / 2) (Hickey & Gour, J. Phys. A 51, 414009)
    return math.log2(1.0 + 0.5 * float(np.sum(np.abs(np.linalg.eigvalsh(rho - rho.T)))))


def _phi_plus_entries():
    phi = np.zeros((4, 4))
    phi[[0, 0, 3, 3], [0, 3, 0, 3]] = 0.5
    return phi


DMAX_REFERENCES = (
    # pure states: the robustness of coherence 2 log2 ||psi||_1 (Piani et al.,
    # PRA 93, 042107)
    [pytest.param(_pure(random_pure_vec(np.random.default_rng(d), d)), th.Incoherent(d),
                  2.0 * math.log2(np.sum(np.abs(random_pure_vec(np.random.default_rng(d), d)))),
                  id=f"incoherent-pure-{d}") for d in (2, 3, 4, 9, 16)]
    + [pytest.param(rho, th.RealStates(d), _imaginarity_robustness(rho), id=f"real-{d}-{i}")
       for d, i in ((3, 0), (4, 0), (4, 1), (9, 0), (16, 0))
       for rho in [random_density_mat(np.random.default_rng([d, i]), d, rank=d)]]
    + [pytest.param(PHI, th.SeparableTwoQubit(), 1.0, id="phi-plus-vector"),
       pytest.param(_phi_plus_entries(), th.SeparableTwoQubit(), 1.0, id="phi-plus-entries")]
)


def _check_dmax_witness(res, rho, free_set):
    sigma = res.optimizer
    assert abs(float(np.real(np.trace(sigma))) - 1.0) <= 1e-9
    assert np.linalg.eigvalsh(0.5 * (sigma + sigma.conj().T))[0] >= -1e-12
    assert free_set.contains(sigma, 1e-7)
    assert np.linalg.eigvalsh(2.0 ** res.upper_bound * sigma - rho)[0] >= -1e-9


class TestDmaxReferenceCorpus:
    """D_max against closed-form references; the bisection it replaced gave
    false certificates on the real-state and entry-built Bell inputs."""

    @pytest.mark.parametrize("rho, free_set, reference", DMAX_REFERENCES)
    def test_brackets_reference(self, rho, free_set, reference):
        res = dv.dmax(rho, free_set, tol=DMAX_TOL)
        assert res.lower_bound <= reference + 1e-12
        assert reference <= res.upper_bound + 1e-12
        assert res.converged and res.gap <= DMAX_TOL
        _check_dmax_witness(res, rho, free_set)

    def test_hull_of_incoherent_and_real_qubits(self):
        # the bisection certified [0.6567383, 0.6567993] here, above a witness
        # found independently at 0.6567295
        rng = np.random.default_rng([2, 0])
        free_set = smin([th.Incoherent(2), th.RealStates(2)])
        rho = random_density_mat(rng, 4, 4)
        res = dv.dmax(rho, free_set, tol=DMAX_TOL)
        assert res.converged and res.gap <= DMAX_TOL
        assert res.upper_bound <= 0.6567296
        _check_dmax_witness(res, rho, free_set)

    def test_rank_deficient_set_reads_its_support(self):
        # no full-rank free state and no listed extreme points: the member of
        # maximal support is |0><0| (x) I/2, the product of the locals' ones
        zero, one = np.diag([1.0, 0.0]), np.diag([0.0, 1.0])
        free_set = th.MinComposite([th.Singleton(zero), INC2])
        res = dv.dmax(np.kron(zero, PLUS), free_set, tol=DMAX_TOL)
        assert res.converged and abs(res.value - 1.0) <= DMAX_TOL
        _check_dmax_witness(res, np.kron(zero, PLUS), free_set)
        assert math.isinf(dv.dmax(np.kron(one, np.eye(2) / 2), free_set).value)

    def test_marginal_set_lower_bound_stays_below_a_member_witness(self):
        # an oracle ladder started below the gradient's spectral width left
        # its multipliers at the origin: D_max certified [0.832559, 0.832559]
        # here, above a member witness found independently at 0.822277
        rho = random_density_mat(np.random.default_rng([8, 1]), 4, 1)
        free_set = th.MaxComposite([INC2, th.RealStates(2)])
        res = dv.dmax(rho, free_set, tol=1e-2)
        assert res.lower_bound <= 0.8230
        _check_dmax_witness(res, rho, free_set)


class TestHypothesisTesting:
    @pytest.mark.parametrize("eps", [0.1, 0.25, 0.5])
    def test_floor_for_free_states(self, eps):
        rng = np.random.default_rng(9)
        for _ in range(5):
            mu = INC2.random_state(rng)
            res = dv.hypothesis_testing(mu, INC2, eps)
            assert abs(res.value + math.log2(1.0 - eps)) < 1e-4
            assert res.converged

    def test_plus_y_annihilation(self):
        res = dv.hypothesis_testing(PLUS_Y, INC2, 0.5)
        assert math.isinf(res.value)
        assert abs(res.extras["alpha"] - 0.5) < 1e-12
        assert res.extras["beta"] <= 1e-12

    def test_plus_y_below_threshold_is_finite(self):
        res = dv.hypothesis_testing(PLUS_Y, INC2, 0.25)
        # P = |+y><+y| scaled to alpha = 1/4 gives beta = 1/2; the dual
        # certifies optimality
        assert abs(res.value - 1.0) < 1e-6
        assert res.converged

    def test_binary_diagonal_reduction(self):
        # co-diagonal case: maximize p0 subject to (p0+p1)/2 <= eps solved
        # exactly as a 2-variable linear program
        rho = np.diag([1.0, 0.0]).astype(complex)
        gamma = np.eye(2) / 2
        eps = 0.25
        best = 0.0
        for p0 in np.linspace(0, 1, 201):
            for p1 in np.linspace(0, 1, 201):
                if 0.5 * (p0 + p1) <= eps + 1e-12:
                    best = max(best, p0)
        assert abs(best - 0.5) < 1e-9
        res = dv.hypothesis_testing(rho, th.Singleton(gamma), eps)
        assert abs(res.value - (-math.log2(1.0 - best))) < 1e-6
        assert res.converged

    def test_data_processing_under_channels(self):
        # exact Neyman-Pearson on both sides makes the comparison sharp
        rng = np.random.default_rng(10)
        from hetres import channels as ch

        for _ in range(10):
            rho = random_density_mat(rng, 2)
            gamma = random_density_mat(rng, 2) + 0.2 * np.eye(2)
            gamma = gamma / np.trace(gamma)
            lam = ch.random_channel(rng, 2, 2, 2)
            before = dv.hypothesis_testing(rho, th.Singleton(gamma), 0.3)
            after = dv.hypothesis_testing(
                lam.apply_mat(rho), th.Singleton(lam.apply_mat(gamma)), 0.3
            )
            assert after.value <= before.value + 1e-6

    def test_monotone_in_epsilon(self):
        rng = np.random.default_rng(11)
        for _ in range(5):
            rho = random_density_mat(rng, 2)
            vals = [dv.hypothesis_testing(rho, INC2, eps).value for eps in (0.1, 0.25, 0.5)]
            assert vals[0] <= vals[1] + 1e-9 <= vals[2] + 2e-9

    def test_diagonal_restriction_incoherent_floor(self):
        res = dv.hypothesis_testing(PLUS_Y, INC2, 0.3, restrict="diagonal")
        assert abs(res.value + math.log2(0.7)) < 1e-9

    def test_epsilon_range_enforced(self):
        with pytest.raises(ValueError):
            dv.hypothesis_testing(PLUS, INC2, 1.5)

    @pytest.mark.parametrize("restrict", ["Diagonal", "all", "imaginary"])
    def test_unknown_restriction_rejected(self, restrict):
        with pytest.raises(ValueError, match="unsupported measurement restriction"):
            dv.hypothesis_testing(PLUS, INC2, 0.25, restrict=restrict)


class TestRegularized:
    def test_declared_additive_coherence(self):
        res = dv.regularized_rel_entropy(PLUS, INC2, mode="declared-additive")
        assert abs(res.value - 1.0) < 1e-12
        assert res.extras["regularization"] == "declared-additive"

    def test_singleton_self_zero(self):
        gamma = np.diag([0.6, 0.4]).astype(complex)
        res = dv.regularized_rel_entropy(gamma, th.Singleton(gamma), mode="declared-additive")
        assert abs(res.value) < 1e-10

    def test_two_copy_rate_of_plus(self):
        res = dv.regularized_rel_entropy(PLUS, INC2, mode="evaluate-n", n=2)
        # closed form on the four-dimensional doubled state: 2 bits total,
        # so rate 1 per copy
        assert abs(res.value - 1.0) < 1e-9
        assert not res.converged  # explicitly non-certified

    def test_non_additive_kind_needs_flag(self):
        with pytest.raises(ValueError):
            dv.regularized_rel_entropy(PHI, th.SeparableTwoQubit(), mode="declared-additive")
        res = dv.regularized_rel_entropy(
            PHI, th.SeparableTwoQubit(), mode="declared-additive", assume_additive=True,
            gap=1e-3,
        )
        assert abs(res.value - 1.0) < 2e-3

    def test_real_states_are_not_declared_additive(self):
        # |+i> is one bit from Real_2, and two copies are one bit from Real_4,
        # so the per-copy value halves and no single-copy value may stand in
        real2 = th.RealStates(2)
        assert abs(dv.rel_entropy_of_resource(PLUS_Y, real2).value - 1.0) < 1e-12
        two = dv.regularized_rel_entropy(PLUS_Y, real2, mode="evaluate-n", n=2)
        assert abs(two.value - 0.5) < 1e-9
        with pytest.raises(ValueError):
            dv.regularized_rel_entropy(PLUS_Y, real2, mode="declared-additive")

    def test_n_above_two_rejected(self):
        with pytest.raises(ValueError):
            dv.regularized_rel_entropy(PLUS, INC2, mode="evaluate-n", n=3)

    @pytest.mark.parametrize("n", [0, -1])
    def test_n_below_one_rejected(self, n):
        # n comes from scenario JSON
        with pytest.raises(ValueError, match="evaluate-n supports n = 1 or 2 only"):
            dv.regularized_rel_entropy(PLUS, INC2, mode="evaluate-n", n=n)

    def test_separable_set_has_no_two_copy_set(self):
        # a hull over the slots (A1 B1)|(A2 B2) would hold PHI (x) PHI, which
        # evaluate-n passes in copy order, and put its value at 0, not 1
        with pytest.raises(ValueError, match="no multi-copy construction for kind 'separable'"):
            dv.regularized_rel_entropy(PHI, th.SeparableTwoQubit(), mode="evaluate-n", n=2)

    def test_two_copy_singleton_is_one_copy_divergence(self):
        gamma = np.diag([0.7, 0.3]).astype(complex)
        rho = random_density_mat(np.random.default_rng(21), 2)
        res = dv.regularized_rel_entropy(rho, th.Singleton(gamma), mode="evaluate-n", n=2)
        assert abs(res.value - float(relative_entropy(rho, gamma))) < 1e-9

    def test_two_copy_all_states_is_zero(self):
        rho = random_density_mat(np.random.default_rng(22), 2)
        res = dv.regularized_rel_entropy(rho, th.AllStates(2), mode="evaluate-n", n=2)
        assert abs(res.value) < 1e-9


class TestCertificates:
    def test_result_json_shape(self):
        res = dv.rel_entropy_of_resource(PLUS, INC2)
        blob = res.to_json()
        assert {"value", "lower_bound", "upper_bound", "iterations", "converged"} <= set(blob)
        assert "optimizer" in blob

    def test_bounds_ordering(self):
        rng = np.random.default_rng(12)
        for _ in range(5):
            rho = random_density_mat(rng, 4)
            res = dv.rel_entropy_of_resource(
                rho, th.MinComposite([th.AllStates(2), th.Incoherent(2)]), gap=1e-3
            )
            assert res.lower_bound <= res.value <= res.upper_bound

    def test_sandwich_ordering_small(self):
        rng = np.random.default_rng(13)
        smax = th.MaxComposite([INC2, th.Incoherent(2)])
        smin_closed = th.Incoherent(4)
        for _ in range(10):
            rho = random_density_mat(rng, 4)
            hi = dv.rel_entropy_of_resource(rho, smax, gap=1e-3)
            _, lo = smin_closed.closest_free_state(rho)
            assert hi.value <= lo + hi.gap + 1e-9
