import itertools

import numpy as np
import pytest

from hetres import certify as ct
from hetres import channels as ch
from hetres import composite as co
from hetres import theories as th
from hetres.scenarios import rng_verified_channel_family
from hetres.qcore import (
    CNOT,
    DensityOperator,
    KET_PLUS,
    KET_PLUS_Y,
    PAULI_X,
    bell_phi_plus_vec,
    density,
    hermitian_basis,
    kron_all,
    TensorStructure,
    partial_trace_mat,
    partial_transpose_mat,
    permutation_matrix,
    pure_state,
    random_density_mat,
    random_hermitian,
    random_unitary,
    relative_entropy,
    single_party,
    trace_norm,
)

PHI = np.outer(bell_phi_plus_vec(2), bell_phi_plus_vec(2).conj())
PLUS = np.outer(KET_PLUS, KET_PLUS.conj())
PLUS_Y = np.outer(KET_PLUS_Y, KET_PLUS_Y.conj())
HADAMARD = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2)
Y_BASIS = np.array([[1, 1], [1j, -1j]], dtype=complex) / np.sqrt(2)


class TestMembership:
    def test_mixed_is_incoherent(self):
        assert th.Incoherent(2).contains(np.eye(2) / 2)

    def test_plus_y_is_not_real(self):
        assert not th.RealStates(2).contains(PLUS_Y)
        assert th.RealStates(2).contains(PLUS)

    def test_bell_not_separable(self):
        assert not th.SeparableTwoQubit().contains(PHI)

    def test_separable_cut_restriction(self):
        with pytest.raises(ValueError):
            th.SeparableTwoQubit((3, 3))

    def test_qubit_qutrit_cut(self):
        sep = th.SeparableTwoQubit((2, 3))
        rng = np.random.default_rng(23)
        for _ in range(20):
            assert sep.contains(sep.random_state(rng), 1e-8)
        # a maximally entangled qubit pair embedded in the 2x3 cut
        vec = np.zeros(6, dtype=complex)
        vec[0] = vec[4] = 1.0 / np.sqrt(2.0)  # |0>|0> + |1>|1> with a 3-level side
        embedded = np.outer(vec, vec.conj())
        assert not sep.contains(embedded, 1e-8)
        mu = sep.lmo(-embedded, rng)
        assert float(np.real(np.trace(mu @ embedded))) <= 0.5 + 1e-9

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            th.Incoherent(2).contains(np.eye(4) / 4)


def _members_then_outsiders(free_set, rng, n=4):
    """n members, products of one sample per hull factor (so a hull never
    needs D_max for them), then n generic states."""
    members = [kron_all(f.random_state(rng) for f in free_set.hull_factors()) for _ in range(n)]
    return np.stack(members + [random_density_mat(rng, free_set.dim) for _ in range(n)])


class TestStackedMembership:
    @pytest.mark.parametrize(
        "factory",
        [
            lambda: th.Incoherent(3),
            lambda: th.RealStates(3),
            lambda: th.AllStates(3),
            lambda: th.FiniteSet([np.eye(2) / 2, np.diag([1.0, 0.0]), PLUS]),
            lambda: th.Singleton(np.diag([0.6, 0.4])),
            lambda: th.SeparableTwoQubit(),
            lambda: th.MinComposite([th.Incoherent(2), th.RealStates(2)]),
            lambda: th.MinComposite([th.RealStates(3), th.AllStates(3)]),
            lambda: th.MinComposite([th.Incoherent(2), th.Singleton(np.diag([0.3, 0.7]))]),
            lambda: th.MaxComposite([th.Incoherent(2), th.RealStates(2)]),
        ],
        ids=["incoherent", "real", "all", "finite", "singleton", "separable", "min-form",
             "min-no-form", "min-singleton", "max"],
    )
    def test_a_stack_equals_per_matrix_calls(self, factory, monkeypatch):
        from hetres import divergences as dv

        def no_dmax(*args, **kwargs):
            raise AssertionError("contains reached the D_max step")

        monkeypatch.setattr(dv, "dmax", no_dmax)
        free_set = factory()
        d = free_set.dim
        stack = _members_then_outsiders(free_set, np.random.default_rng([29, d]))
        per_matrix = [free_set.contains(m, 1e-8) for m in stack]
        assert all(type(v) is bool for v in per_matrix)
        got = free_set.contains(stack, 1e-8)
        assert got.dtype == bool and got.tolist() == per_matrix
        assert free_set.contains(stack.reshape(2, 4, d, d), 1e-8).tolist() == [per_matrix[:4], per_matrix[4:]]
        assert all(per_matrix[:4])
        assert not all(per_matrix) or isinstance(free_set, th.AllStates)

    @pytest.mark.parametrize("dim", [2, 4, 9, 16])
    def test_finite_membership_matches_a_trace_norm_loop(self, dim):
        rng = np.random.default_rng([69, dim])
        listed = [random_density_mat(rng, dim, rank) for rank in (1, 2, dim)]
        finite = th.FiniteSet(listed)
        step = random_hermitian(rng, dim)
        step = step / trace_norm(step)
        probes = [listed[1], listed[2] + 0.5e-6 * step, listed[2] + 2e-6 * step]
        probes += [random_density_mat(rng, dim) for _ in range(3)]

        def reference(m):
            return min(trace_norm(m - s) for s in listed) <= 1e-6

        expected = [reference(m) for m in probes]
        assert expected == [True, True, False, False, False, False]
        assert [finite.contains(m, 1e-6) for m in probes] == expected
        assert finite.contains(np.stack(probes), 1e-6).tolist() == expected
        assert finite.contains(np.stack(probes).reshape(3, 2, dim, dim), 1e-6).tolist() == [
            expected[:2], expected[2:4], expected[4:]]


class TestLinearMinimization:
    def test_incoherent_picks_smallest_diagonal(self):
        mu = th.Incoherent(2).lmo(np.diag([0.3, -0.2]).astype(complex))
        assert np.allclose(mu, np.diag([0.0, 1.0]))

    def test_singleton_returns_its_state(self):
        gamma = np.diag([0.8, 0.2]).astype(complex)
        assert np.allclose(th.Singleton(gamma).lmo(np.eye(2)), gamma)

    def test_separable_overlap_with_bell_is_half(self):
        # independent oracle: dense grid over product Bloch angles, every
        # (a, b) pair of the 625 grid vectors per party in one contraction
        angles = np.linspace(0, np.pi, 25)
        phases = np.linspace(0, 2 * np.pi, 25)
        ta, pa = np.meshgrid(angles, phases, indexing="ij")
        vecs = np.stack([np.cos(ta / 2), np.exp(1j * pa) * np.sin(ta / 2)], axis=-1).reshape(-1, 2)
        overlaps = np.einsum("ni,mj,ijkl,nk,ml->nm", vecs.conj(), vecs.conj(),
                             PHI.reshape(2, 2, 2, 2), vecs, vecs)
        best_grid = max(0.0, float(np.max(np.real(overlaps))))
        assert best_grid <= 0.5 + 1e-9
        rng = np.random.default_rng(0)
        mu = th.SeparableTwoQubit().lmo(-PHI, rng)
        overlap = float(np.real(np.trace(mu @ PHI)))
        assert abs(overlap - 0.5) < 1e-9
        assert overlap >= best_grid - 1e-9

    def test_incoherent_rotated_basis(self):
        h = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2)
        inc_h = th.Incoherent(2, basis=h)
        assert inc_h.contains(PLUS)
        assert not inc_h.contains(np.diag([1.0, 0.0]))
        sigma, val = inc_h.closest_free_state(np.diag([1.0, 0.0]).astype(complex))
        assert abs(val - 1.0) < 1e-12
        assert np.allclose(sigma, np.eye(2) / 2)
        rng = np.random.default_rng(17)
        for _ in range(20):
            assert inc_h.contains(inc_h.random_state(rng), 1e-9)

    @pytest.mark.parametrize("cut", [(2, 2), (2, 3)])
    def test_separable_lmo_beats_a_bloch_grid(self, cut):
        # reference: a Bloch grid over party A, each point's party-B
        # subproblem solved exactly by an eigensolve
        sep = th.SeparableTwoQubit(cut)
        theta, phi = np.meshgrid(np.linspace(0, np.pi, 25), np.linspace(0, 2 * np.pi, 25))
        grid = np.stack([np.cos(theta / 2), np.exp(1j * phi) * np.sin(theta / 2)], axis=-1)
        grid = grid.reshape(-1, 2)
        rng = np.random.default_rng(31)
        for _ in range(20):
            g = random_hermitian(rng, sep.dim)
            mu = sep.lmo(g, rng)
            val = float(np.real(np.trace(g @ mu)))
            product = np.kron(partial_trace_mat(mu, cut, [0]), partial_trace_mat(mu, cut, [1]))
            assert np.max(np.abs(mu - product)) <= 1e-9
            assert sep.contains(mu, 1e-9)
            assert val >= np.linalg.eigvalsh(g)[0] - 1e-12
            h_b = np.einsum("ni,ikjl,nj->nkl", grid.conj(), g.reshape(cut + cut), grid)
            assert val <= float(np.min(np.linalg.eigvalsh(h_b)[:, 0])) + 1e-9

    @pytest.mark.parametrize(
        "factory",
        [
            lambda: th.Incoherent(3),
            lambda: th.Incoherent(2, basis=np.array([[1, 1], [1, -1]]) / np.sqrt(2)),
            lambda: th.RealStates(3),
            lambda: th.Singleton(np.diag([0.6, 0.4])),
            lambda: th.AllStates(4),
            lambda: th.FiniteSet([np.eye(2) / 2, np.diag([1.0, 0.0]), PLUS]),
            lambda: th.SeparableTwoQubit((2, 3)),
            lambda: th.MinComposite([th.RealStates(2), th.AllStates(3)]),
            lambda: th.MinComposite([th.Incoherent(2), th.SeparableTwoQubit()]),
            lambda: th.MaxComposite([th.Incoherent(2), th.Singleton(np.eye(2) / 2)]),
        ],
        ids=["incoherent", "incoherent-rotated", "real", "singleton", "all", "finite",
             "separable", "min-composite", "min-composite-enumerable", "max-composite"],
    )
    def test_lmo_on_a_stack_equals_per_gradient_calls(self, factory):
        free_set = factory()
        rng = np.random.default_rng(41)
        grads = np.stack([random_hermitian(rng, free_set.dim) for _ in range(2)])
        stacked = free_set.lmo(grads, np.random.default_rng(5))
        one_rng = np.random.default_rng(5)
        single = np.stack([free_set.lmo(g, one_rng) for g in grads])
        assert stacked.shape == grads.shape
        assert np.max(np.abs(stacked - single)) <= 1e-12

    def test_real_lmo_minimizes_real_part(self):
        rng = np.random.default_rng(1)
        g = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        g = 0.5 * (g + g.conj().T)
        mu = th.RealStates(3).lmo(g)
        target = np.linalg.eigvalsh(0.5 * (np.real(g) + np.real(g).T))[0]
        assert abs(float(np.real(np.trace(g @ mu))) - target) < 1e-10

    def test_all_states_lmo_minimizes_the_hermitian_part(self):
        rng = np.random.default_rng(2)
        g = rng.normal(size=(3, 3, 3)) + 1j * rng.normal(size=(3, 3, 3))
        herm = 0.5 * (g + np.swapaxes(g.conj(), -1, -2))
        mus = th.AllStates(3).lmo(g)
        assert np.array_equal(mus, th.AllStates(3).lmo(herm))
        for x, mu in zip(herm, mus):
            assert abs(float(np.real(np.trace(x @ mu))) - np.linalg.eigvalsh(x)[0]) < 1e-12


class TestClosestFreeState:
    def test_plus_against_incoherent(self):
        sigma, val = th.Incoherent(2).closest_free_state(PLUS)
        assert np.allclose(sigma, np.eye(2) / 2)
        assert abs(val - 1.0) < 1e-12

    def test_member_distance_zero(self):
        rng = np.random.default_rng(2)
        mu = th.Incoherent(3).random_state(rng)
        _, val = th.Incoherent(3).closest_free_state(mu)
        assert abs(val) < 1e-10

    def test_plus_y_against_incoherent(self):
        sigma, val = th.Incoherent(2).closest_free_state(PLUS_Y)
        assert np.allclose(sigma, np.eye(2) / 2)
        assert abs(val - 1.0) < 1e-12

    def test_plus_y_against_real(self):
        sigma, val = th.RealStates(2).closest_free_state(PLUS_Y)
        assert np.allclose(sigma, np.eye(2) / 2)
        assert abs(val - 1.0) < 1e-12

    def test_incoherent_closed_form_never_beaten(self):
        rng = np.random.default_rng(3)
        for dim in (2, 3):
            inc = th.Incoherent(dim)
            for _ in range(50):
                rho = random_density_mat(rng, dim)
                _, closed = inc.closest_free_state(rho)
                for _ in range(40):
                    mu = inc.random_state(rng)
                    assert relative_entropy(rho, mu) >= closed - 1e-9

    @pytest.mark.parametrize("dim", [2, 3, 4])
    @pytest.mark.parametrize("kind", ["incoherent", "incoherent-fourier", "real", "all"])
    def test_projection_sets_close_at_their_projection(self, kind, dim):
        # the Fourier basis is the Hadamard basis at dim 2
        fourier = np.fft.fft(np.eye(dim)) / np.sqrt(dim)
        free_set = {"incoherent": th.Incoherent(dim),
                    "incoherent-fourier": th.Incoherent(dim, basis=fourier),
                    "real": th.RealStates(dim), "all": th.AllStates(dim)}[kind]
        rng = np.random.default_rng([5, dim])
        for _ in range(5):
            rho = random_density_mat(rng, dim)
            sigma, val = free_set.closest_free_state(rho)
            assert np.array_equal(sigma, free_set.marginal_projection(rho))
            assert abs(val - relative_entropy(rho, sigma)) < 1e-9
            assert free_set.contains(sigma, 1e-12)

    @pytest.mark.parametrize(
        "free_set",
        [th.MinComposite([th.RealStates(2), th.RealStates(2)]),
         th.MinComposite([th.Incoherent(2), th.SeparableTwoQubit()]),
         th.MaxComposite([th.Incoherent(2), th.RealStates(2)]),
         th.SeparableTwoQubit(),
         ct._ImageSet(th.Incoherent(2), ch.unitary_channel(HADAMARD, single_party(2)))],
        ids=["min-real-real", "min-inc-separable", "max-composite", "separable", "image"],
    )
    def test_no_closed_form_is_none(self, free_set):
        assert free_set.closest_free_state(np.eye(free_set.dim) / free_set.dim) is None
        # the cone dual still reads the constraint data where a set has some
        assert (free_set.cone_basis() is None) == (free_set.constraints is None)

    @pytest.mark.parametrize("factory, size", [
        (lambda: th.Incoherent(3, basis=random_unitary(np.random.default_rng(3), 3)), 3),
        (lambda: th.RealStates(9), 45),
        (lambda: th.AllStates(4), 16),
        (lambda: th.MinComposite([th.Incoherent(2), th.RealStates(2)]), 6),
        (lambda: th.MinComposite([th.Incoherent(2), th.AllStates(3)]), 18),
    ], ids=["incoherent-basis", "real9", "all4", "min-inc2-real2", "min-inc2-all3"])
    def test_cone_basis_spans_the_projection_fixed_space(self, factory, size):
        free_set = factory()
        basis, proj = free_set.cone_basis(), free_set.projection()
        assert basis.shape == (size, free_set.dim, free_set.dim)
        gram = np.einsum("kab,lba->kl", basis, basis)
        assert np.allclose(gram, np.eye(size), atol=1e-12)
        assert np.allclose(basis, np.swapaxes(basis.conj(), 1, 2), atol=1e-15)
        assert np.allclose(proj(basis), basis, atol=1e-12)
        # a random Hermitian matrix's projection is its expansion in the basis
        h = random_hermitian(np.random.default_rng(size), free_set.dim)
        coords = np.real(np.einsum("kab,ba->k", basis, h))
        assert np.allclose(np.tensordot(coords, basis, 1), proj(h), atol=1e-12)


class TestOpClasses:
    def test_pauli_x_preserves_only_the_point(self):
        x_chan = ch.unitary_channel(PAULI_X, single_party(2, "A"))
        assert th.Rng(th.Singleton(np.eye(2) / 2)).verify(x_chan).ok
        finite = th.FiniteSet([np.eye(2) / 2, np.diag([1.0, 0.0])])
        verdict = th.Rng(finite).verify(x_chan)
        assert not verdict.ok
        assert (verdict.n_states, verdict.mode) == (2, "extreme-points")

    @pytest.mark.parametrize(
        "free_set, mode, n_states",
        [(th.Incoherent(3), "extreme-points", 3), (th.Singleton(np.eye(2) / 2), "extreme-points", 1),
         (th.FiniteSet([np.eye(2) / 2, np.diag([1.0, 0.0])]), "extreme-points", 2),
         (th.RealStates(3), "projection", 9), (th.MinComposite([th.Incoherent(2), th.AllStates(2)]), "projection", 16),
         (th.SeparableTwoQubit(), "certified", 16), (th.MinComposite([th.Incoherent(2), th.SeparableTwoQubit()]), "certified", 64),
         (th.MaxComposite([th.Incoherent(2), th.RealStates(2)]), "sampled", 40)],
        ids=["incoherent", "singleton", "finite", "real", "inc-all", "separable", "inc-sep", "max-composite"],
    )
    def test_verdict_mode_follows_the_set(self, free_set, mode, n_states):
        # listed extreme points first, then the linear form, then samples
        verdict = th.Rng(free_set).verify(ch.identity_channel(single_party(free_set.dim)))
        assert (verdict.ok, verdict.mode, verdict.n_states) == (True, mode, n_states)

    def test_exact_verdicts_match_the_sampled_corpus(self):
        # SAMPLED_VERDICTS are the verdicts the sampled check (40 pure
        # products of local samples, seed 11) gave on this corpus before
        # non-generation was decided from the linear forms
        corpus = _rng_corpus()
        assert len(corpus) == len(SAMPLED_VERDICTS) >= 150
        modes = set()
        for (name, free_set, lam), expected in zip(corpus, SAMPLED_VERDICTS):
            verdict = th.Rng(free_set).verify(lam)
            assert verdict.ok == (expected == "1"), name
            modes.add(verdict.mode)
            if not verdict.ok and verdict.mode != "sampled":
                assert free_set.contains(verdict.witness)
                assert not free_set.contains(lam.apply_mat(verdict.witness))
        # party swaps over partial-transpose sets certify through the
        # transpose on the other slots, so nothing here is left to samples
        assert modes == {"extreme-points", "projection", "certified"}

    def test_inclusion_between_sets(self):
        ident = lambda x: x  # noqa: E731
        rng = np.random.default_rng(0)
        inc2, real2 = th.Incoherent(2), th.RealStates(2)
        verdict = real2.maps_into(ident, inc2, 1e-8, 24, rng)
        assert (verdict.ok, verdict.mode) == (False, "projection")
        assert real2.contains(verdict.witness) and not inc2.contains(verdict.witness)
        assert inc2.maps_into(ident, real2, 1e-8, 24, rng).mode == "extreme-points"

    @pytest.mark.parametrize("source, target, unitary, expected", [
        (lambda: th.MinComposite([th.Incoherent(2), th.RealStates(2)]),
         lambda: th.MaxComposite([th.Incoherent(2), th.RealStates(2)]), np.eye(4), (True, "projection", 16)),
        (lambda: th.MinComposite([th.Incoherent(2), th.RealStates(2)]),
         lambda: th.MaxComposite([th.Incoherent(2), th.RealStates(2)]),
         np.kron(HADAMARD, np.eye(2)), (False, "projection", 16)),
        (lambda: th.MinComposite([th.Incoherent(2), th.SeparableTwoQubit()]),
         lambda: th.MaxComposite([th.Incoherent(2), th.SeparableTwoQubit()]), np.eye(8), (True, "certified", 64)),
        (lambda: th.SeparableTwoQubit(),
         lambda: th.MaxComposite([th.AllStates(2), th.AllStates(2)]), np.eye(4), (True, "projection", 16)),
        (lambda: th.MaxComposite([th.Incoherent(2), th.RealStates(2)]),
         lambda: th.MinComposite([th.Incoherent(2), th.RealStates(2)]), np.eye(4), (False, "sampled", 40)),
    ], ids=["hull-into-marginal", "hadamard-hull-into-marginal", "separable-hull-into-marginal",
            "separable-into-all-marginals", "marginal-into-hull"])
    def test_inclusions_read_the_constraints(self, source, target, unitary, expected):
        # a source with a projection decides inclusions into any set with
        # constraints exactly; the marginal set has none, so it is sampled
        source, target = source(), target()
        apply = lambda x: unitary @ x @ unitary.conj().T  # noqa: E731
        verdict = source.maps_into(apply, target, 1e-6, 40, np.random.default_rng(5))
        assert (verdict.ok, verdict.mode, verdict.n_states) == expected
        if not verdict.ok:
            assert source.contains(verdict.witness) and not target.contains(apply(verdict.witness))

    def test_marginal_set_with_a_listed_local(self):
        # a finite local has no constraints, so the marginal set tests each
        # marginal against its own set, and inclusions into it are checked
        # on listed or sampled states
        finite, inc2 = th.FiniteSet([np.diag([1.0, 0.0]), np.eye(2) / 2]), th.Incoherent(2)
        free_set = th.MaxComposite([finite, inc2])
        assert free_set.constraints is None
        assert free_set.contains(np.eye(4) / 4)
        assert not free_set.contains(np.diag([0.25, 0.0, 0.75, 0.0]))
        verdict = th.Incoherent(4).maps_into(lambda x: x, free_set, 1e-6, 40, np.random.default_rng(5))
        assert verdict.mode == "extreme-points"
        rep = co.check_axioms(free_set, th.Sio(), [(finite, th.AllOps()), (inc2, th.Sio())],
                              n_state_samples=20, n_channel_samples=5, seed=3)
        assert [(c.name, c.mode) for c in rep.conditions][:3] == [
            ("free-product-states", "sampled"), ("free-product-operations", "sampled"),
            ("free-marginal-states", "sampled")]
        assert rep.conditions[0].passed and rep.conditions[2].passed
        # the listed local's marginal of a sample is a listed state
        rng = np.random.default_rng(0)
        assert all(free_set.contains(free_set.random_state(rng)) for _ in range(5))

    def test_image_set_maps_into_by_samples(self):
        # a reset channel's image set has neither a linear form nor extreme
        # points, so its inclusion is decided on images of base samples
        zero = np.diag([1.0, 0.0])
        reset = ch.prepare_channel(DensityOperator(zero, single_party(2)), single_party(2))
        image = ct._ImageSet(th.RealStates(2), reset)
        verdict = image.maps_into(lambda x: x, th.Incoherent(2), 1e-8, 8, np.random.default_rng(0))
        assert (verdict.ok, verdict.mode) == (True, "sampled")

    def test_sampled_inclusion_hands_the_target_products(self):
        # a hull without a linear form is sampled on its generators, the
        # products of one local sample per factor, never on their mixtures,
        # and the target tests them all in one stacked call
        class Recording(th.FreeStateSet):
            def __init__(self, dim):
                super().__init__(dim)
                self.seen = []

            def contains(self, rho, tol=th.MEMBERSHIP_TOL):
                self.seen.append(rho)
                return np.ones(rho.shape[:-2], bool)

        hull = th.MinComposite([th.RealStates(3), th.AllStates(3)])
        target = Recording(9)
        verdict = hull.maps_into(lambda x: x, target, 1e-8, 30, np.random.default_rng(4))
        assert (verdict.ok, verdict.mode, verdict.n_states) == (True, "sampled", 30)
        assert [m.shape for m in target.seen] == [(30, 9, 9)]
        for m in target.seen[0]:
            margs = [partial_trace_mat(m, (3, 3), [i]) for i in range(2)]
            assert trace_norm(m - kron_all(margs)) <= 1e-12

    def test_failing_sampled_inclusion_keeps_the_lazy_witness(self):
        # the stacked engine draws all 30 samples, but its witness is the one
        # the per-sample loop it replaced stopped at
        class Shallow(th.FreeStateSet):
            def contains(self, rho, tol=th.MEMBERSHIP_TOL):
                return np.real(rho[..., 0, 0]) <= 0.25 + tol

        hull = th.MinComposite([th.RealStates(3), th.AllStates(3)])
        target, rng = Shallow(9), np.random.default_rng(0)
        for first in range(30):
            mu = kron_all(f.random_state(rng) for f in hull.hull_factors())
            if not target.contains(mu, 1e-8):
                break
        assert first == 13
        verdict = hull.maps_into(lambda x: x, target, 1e-8, 30, np.random.default_rng(0))
        assert (verdict.ok, verdict.mode, verdict.n_states) == (False, "sampled", 30)
        assert np.array_equal(verdict.witness, mu)

    @pytest.mark.parametrize(
        "source",
        [th.MaxComposite([th.Incoherent(2), th.RealStates(2)]),
         th.MinComposite([th.RealStates(3), th.AllStates(3)])],
        ids=["max", "min-no-form"],
    )
    def test_zero_samples_are_a_vacuous_pass(self, source):
        identity = ch.unitary_channel(np.eye(source.dim), single_party(source.dim))
        verdict = th.Rng(source, n_samples=0).verify(identity)
        assert (verdict.ok, verdict.mode, verdict.n_states, verdict.witness) == (True, "sampled", 0, None)

    def test_cholesky_certificate_at_its_boundary(self):
        tol = 1e-6
        u = random_unitary(np.random.default_rng(5), 6)
        for lam_min, certified in ((-0.5 * tol, True), (-2.0 * tol, False)):
            m = u @ np.diag([lam_min, 0.0, 0.1, 0.2, 0.5, 1.0]) @ u.conj().T
            assert th._psd_within(m, tol) is certified

    def test_verified_channel_family_stays_certified(self):
        hull = th.MinComposite([th.Incoherent(2), th.SeparableTwoQubit()], labels=["1", "2"])
        checker = th.Rng(hull, seed=51000)
        modes = [checker.verify(lam).mode for lam in rng_verified_channel_family(6, seed=51000)]
        assert modes == ["certified"] * 6

    def test_a_set_without_sampler_says_so(self):
        with pytest.raises(NotImplementedError, match="abstract has no sampler"):
            th.FreeStateSet(2).random_state(np.random.default_rng(0))

    def test_prepare_channel_rng_cases(self):
        prep = ch.prepare_channel(pure_state(KET_PLUS), single_party(2, "A"))
        assert th.Rng(th.AllStates(2)).verify(prep).ok
        assert not th.Rng(th.Singleton(np.diag([1.0, 0.0]))).verify(prep).ok

    def test_cnot_is_real(self):
        lam = ch.unitary_channel(CNOT, single_party(4, "A"))
        assert th.RealOps().contains_channel(lam)

    def test_real_ops_sampler_is_trace_preserving(self):
        # ill-conditioned Gaussian draws at these seeds once left a trace
        # deviation that the channel constructor rejected
        for seed in (1331, 2267, 6657):
            lam = th.RealOps().sample_channel(np.random.default_rng(seed), 3)
            assert th.RealOps().contains_channel(lam)
            assert np.max(np.abs(sum(k.conj().T @ k for k in lam.kraus) - np.eye(3))) <= 1e-12

    def test_dephasing_is_sio(self):
        deph = ch.KrausChannel(
            (np.diag([1.0, 0.0]).astype(complex), np.diag([0.0, 1.0]).astype(complex)),
            single_party(2),
            single_party(2),
        )
        assert th.Sio().contains_channel(deph)

    def test_sio_normal_form_closed_under_products(self):
        rng = np.random.default_rng(4)
        sio = th.Sio()
        for _ in range(100):
            a = sio.sample_channel(rng, 3)
            b = sio.sample_channel(rng, 3)
            assert sio.contains_channel(ch.compose(b, a))

    def test_rng_closed_under_mixing(self):
        rng = np.random.default_rng(5)
        inc = th.Incoherent(2)
        checker = th.Rng(inc)
        sio = th.Sio()
        for _ in range(20):
            c1 = sio.sample_channel(rng, 2)
            c2 = sio.sample_channel(rng, 2)
            assert checker.verify(c1).ok and checker.verify(c2).ok
            w = float(rng.uniform(0.1, 0.9))
            mixed = ch.KrausChannel(
                tuple(np.sqrt(w) * k for k in c1.kraus)
                + tuple(np.sqrt(1 - w) * k for k in c2.kraus),
                c1.in_structure,
                c1.out_structure,
            )
            assert checker.verify(mixed).ok

    def test_unital_class(self):
        rng = np.random.default_rng(6)
        lam = th.UnitalOps().sample_channel(rng, 3)
        assert th.UnitalOps().contains_channel(lam)
        prep = ch.prepare_channel(pure_state(KET_PLUS), single_party(2))
        assert not th.UnitalOps().contains_channel(prep)


SAMPLED_VERDICTS = (
    "11111111100000000011111100000000000001111110000111000000111111111111111111111111"
    "10000000000000111111000000000000001111100000000000001111110000000000000001"
)


def _rng_corpus():
    """(set name, set, channel) over eight sets: products of each factor's
    free channels, SIO, real, unitary and random channels on the whole
    space, and a basis permutation or every swap of two parties."""
    inc2, real2, sep = th.Incoherent(2), th.RealStates(2), th.SeparableTwoQubit()
    sets = [
        ("inc3", th.Incoherent(3), [th.Sio()]),
        ("inc2-rotated", th.Incoherent(2, basis=HADAMARD), [th.Sio(HADAMARD)]),
        ("real3", th.RealStates(3), [th.RealOps()]),
        ("all2", th.AllStates(2), [th.AllOps()]),
        ("sep", sep, [th.AllOps(), th.AllOps()]),
        ("inc-real", th.MinComposite([inc2, real2]), [th.Sio(), th.RealOps()]),
        ("real-real", th.MinComposite([real2, real2]), [th.RealOps(), th.RealOps()]),
        ("inc-sep", th.MinComposite([inc2, sep]), [th.Sio(), th.AllOps(), th.AllOps()]),
    ]
    out = []
    for i, (name, free_set, classes) in enumerate(sets):
        rng = np.random.default_rng([16, i])
        d = free_set.dim
        dims = [d] if len(classes) == 1 else [2] * len(classes)
        whole = single_party(d)
        chans = [ch.KrausChannel(ch.product_channel([c.sample_channel(rng, k) for c, k in zip(classes, dims)]).kraus,
                                 whole, whole) for _ in range(5)]
        chans += [th.Sio().sample_channel(rng, d) for _ in range(4)]
        chans += [th.RealOps().sample_channel(rng, d) for _ in range(3)]
        chans += [ch.unitary_channel(random_unitary(rng, d), whole) for _ in range(3)]
        chans += [ch.random_channel(rng, d, d, int(rng.integers(1, 4))) for _ in range(3)]
        if len(dims) == 1:
            perms = [np.eye(d)[rng.permutation(d)]]
        else:
            parties = TensorStructure([(str(j), k) for j, k in enumerate(dims)])
            perms = []
            for a, b in itertools.combinations(range(len(dims)), 2):
                order = list(parties.labels)
                order[a], order[b] = order[b], order[a]
                perms.append(permutation_matrix(parties, order))
        chans += [ch.unitary_channel(p.astype(complex), whole) for p in perms]
        out += [(name, free_set, lam) for lam in chans]
    return out


class TestSamplers:
    @pytest.mark.parametrize(
        "factory",
        [
            lambda: th.Incoherent(3),
            lambda: th.RealStates(3),
            lambda: th.Singleton(np.diag([0.6, 0.4])),
            lambda: th.AllStates(4),
            lambda: th.SeparableTwoQubit(),
            lambda: th.FiniteSet([np.eye(2) / 2, np.diag([1.0, 0.0])]),
        ],
        ids=["incoherent", "real", "singleton", "all", "separable", "finite"],
    )
    def test_random_states_pass_membership(self, factory):
        free_set = factory()
        for seed in range(2000):
            state = density(free_set.random_state(np.random.default_rng(seed)))
            assert free_set.contains(state.mat, 1e-8)

    def test_composite_samplers_pass_membership(self):
        mc = th.MinComposite([th.Incoherent(2), th.SeparableTwoQubit()])
        rng = np.random.default_rng(7)
        for _ in range(60):
            assert mc.contains(mc.random_state(rng), 1e-6)
        xc = th.MaxComposite([th.Incoherent(2), th.Incoherent(2)])
        for _ in range(300):
            assert xc.contains(xc.random_state(rng), 1e-7)

    def test_max_composite_sampler_reaches_correlated_states(self):
        xc = th.MaxComposite([th.Singleton(np.eye(2) / 2), th.Singleton(np.eye(2) / 2)])
        rng = np.random.default_rng(8)
        seen_correlated = False
        for _ in range(50):
            m = xc.random_state(rng)
            prod = np.kron(
                partial_trace_mat(m, (2, 2), [0]), partial_trace_mat(m, (2, 2), [1])
            )
            if np.max(np.abs(m - prod)) > 1e-3:
                seen_correlated = True
        assert seen_correlated


class TestSingletonIsOnePointList:
    """A singleton answers every capability as the one-point finite list."""

    GAMMA = np.diag([0.6, 0.4]).astype(complex) + 0.1 * PAULI_X

    def _pair(self):
        return th.Singleton(self.GAMMA), th.FiniteSet([self.GAMMA])

    def test_membership_and_oracle(self):
        single, listed = self._pair()
        rng = np.random.default_rng(3)
        for rho in (self.GAMMA, self.GAMMA + 1e-7 * PAULI_X, self.GAMMA + 1e-3 * PAULI_X,
                    random_density_mat(rng, 2)):
            assert single.contains(rho) == listed.contains(rho)
        grads = np.stack([random_hermitian(rng, 2) for _ in range(3)])
        assert np.array_equal(single.lmo(grads), listed.lmo(grads))
        assert np.array_equal(single.lmo(grads), np.broadcast_to(self.GAMMA, grads.shape))
        assert np.array_equal(single.lmo(grads[0]), self.GAMMA)

    def test_closest_state_points_and_sampler(self):
        single, listed = self._pair()
        rho = random_density_mat(np.random.default_rng(4), 2)
        (s_state, s_val), (l_state, l_val) = single.closest_free_state(rho), listed.closest_free_state(rho)
        assert np.array_equal(s_state, l_state) and s_val == l_val == relative_entropy(rho, self.GAMMA)
        assert all(np.array_equal(a, b) for a, b in zip(single.extreme_points(), listed.extreme_points()))
        assert np.array_equal(single.max_support_state(), listed.max_support_state())
        # drawing the one listed state takes nothing from the generator
        rngs = [np.random.default_rng(9) for _ in range(3)]
        assert np.array_equal(single.random_state(rngs[0]), listed.random_state(rngs[1]))
        assert rngs[0].random() == rngs[1].random() == rngs[2].random()

    def test_divergences(self):
        from hetres import divergences as dv

        single, listed = self._pair()
        rho = random_density_mat(np.random.default_rng(5), 2)
        a, b = dv.dmax(rho, single), dv.dmax(rho, listed)
        assert (a.value, a.lower_bound, a.upper_bound) == (b.value, b.lower_bound, b.upper_bound)
        a, b = dv.hypothesis_testing(rho, single, 0.2), dv.hypothesis_testing(rho, listed, 0.2)
        assert (a.value, a.upper_bound, a.extras["alpha"]) == (b.value, b.upper_bound, b.extras["alpha"])

    def test_closest_state_takes_one_stacked_relative_entropy(self, monkeypatch):
        calls = []

        def counted(rho, sigma):
            calls.append(sigma)
            return relative_entropy(rho, sigma)

        monkeypatch.setattr(th, "relative_entropy", counted)
        listed = th.FiniteSet([np.eye(2) / 2, np.diag([0.9, 0.1]), np.diag([0.2, 0.8]), np.diag([0.9, 0.1])])
        state, value = listed.closest_free_state(np.diag([0.85, 0.15]))
        assert len(calls) == 1 and calls[0].shape == (4, 2, 2)
        # the first of two equal minima wins, as with min over the list
        assert np.shares_memory(state, listed.states[1])
        assert np.array_equal(state, np.diag([0.9, 0.1])) and value == relative_entropy(np.diag([0.85, 0.15]), state)


def _max_support_cases():
    zero = np.diag([1.0, 0.0])
    reset = ch.prepare_channel(DensityOperator(zero, single_party(2)), single_party(2))
    image = ct._ImageSet(th.RealStates(2), reset)
    cases = {
        "incoherent": th.Incoherent(3),
        "real": th.RealStates(3),
        "all": th.AllStates(2),
        "rank-deficient-singleton": th.Singleton(np.diag([0.6, 0.4, 0.0])),
        "finite": th.FiniteSet([zero, PLUS]),
        "smin-singleton-real": th.MinComposite([th.Singleton(zero), th.RealStates(2)]),
        "smax-singleton-inc": th.MaxComposite([th.Singleton(zero), th.Incoherent(2)]),
        "separable": th.SeparableTwoQubit(),
        "reset-image": image,
    }
    # FiniteSet.contains tests the list, and the image set has no membership test
    unchecked = ("finite", "reset-image")
    return [pytest.param(s, name not in unchecked, id=name) for name, s in cases.items()]


@pytest.mark.parametrize("free_set, convex", _max_support_cases())
def test_max_support_state_covers_every_sample(free_set, convex):
    sigma_bar = free_set.max_support_state()
    w, v = np.linalg.eigh(sigma_bar)
    kernel = v[:, w <= 1e-12]
    rng = np.random.default_rng(3)
    samples = [free_set.random_state(rng) for _ in range(20)]
    for mu in samples:
        assert np.max(np.abs(kernel.conj().T @ mu @ kernel), initial=0.0) <= 1e-12
    # full rank wherever a sampled member is
    if any(np.linalg.eigvalsh(mu)[0] > 1e-9 for mu in samples):
        assert w[0] > 1e-12
    if convex:
        assert free_set.contains(sigma_bar, 1e-9)


class TestComposites:
    def test_min_composite_contains_bell_fails(self):
        mc = th.MinComposite([th.AllStates(2), th.AllStates(2)])
        assert not mc.contains(PHI, 1e-6)
        assert mc.contains(np.eye(4) / 4, 1e-6)

    def test_min_composite_singleton_fast_path(self):
        mc = th.MinComposite(
            [th.MaxComposite([th.Singleton(np.eye(2) / 2), th.Singleton(np.eye(2) / 2)]),
             th.Singleton(np.eye(4) / 4)],
            labels=["c0", "c1"],
        )
        ok = np.kron(PHI, np.eye(4) / 4)
        assert mc.contains(ok, 1e-8)
        assert not mc.contains(np.kron(PHI, PHI), 1e-6)

    @pytest.mark.parametrize("dims", [(2, 3), (3, 2)])
    @pytest.mark.parametrize("side", [0, 1])
    def test_block_rule_matches_a_per_block_check(self, dims, side):
        locals_ = [th.RealStates(d) for d in dims]
        locals_[side] = th.Incoherent(dims[side])
        hull, other, n = th.MinComposite(locals_), locals_[1 - side], dims[side]
        rng = np.random.default_rng([13, *dims, side])

        def member():
            p = rng.dirichlet(np.ones(n))
            terms = [[p[i] * np.diag(np.eye(n)[i]), other.random_state(rng)] for i in range(n)]
            return sum(kron_all(t if side == 0 else t[::-1]) for t in terms)

        def per_block(m, tol):
            t = m.reshape(dims + dims)
            blocks = {(i, j): t[i, :, j, :] if side == 0 else t[:, i, :, j]
                      for i in range(n) for j in range(n)}
            for (i, j), block in blocks.items():
                if i != j and np.max(np.abs(block)) > tol:
                    return False
            for i in range(n):
                p = np.real(np.trace(blocks[i, i]))
                if p > 1e-12 and not other.contains(blocks[i, i] / p, max(tol, tol / max(p, 1e-6))):
                    return False
            return True

        # a real perturbation reaches the off-diagonal blocks only
        corpus = []
        for _ in range(30):
            mu, noise = member(), random_hermitian(rng, hull.dim)
            corpus += [mu, mu + 1e-7 * noise / np.max(np.abs(noise)),
                       mu + 1e-7 * np.real(noise) / np.max(np.abs(np.real(noise))),
                       random_density_mat(rng, hull.dim)]
        for tol in (1e-8, 1e-6):
            verdicts = [hull.contains(m, tol) for m in corpus]
            assert verdicts == [per_block(m, tol) for m in corpus]
            assert set(verdicts) == {True, False}

    def test_max_composite_membership_is_marginal_check(self):
        xc = th.MaxComposite([th.Singleton(np.eye(2) / 2), th.Singleton(np.eye(2) / 2)])
        assert xc.contains(PHI, 1e-8)
        assert not xc.contains(np.kron(np.diag([1.0, 0.0]), np.eye(2) / 2), 1e-6)

    def test_max_composite_lmo_feasible_and_minimizing(self):
        xc = th.MaxComposite([th.Incoherent(2), th.Incoherent(2)])
        rng = np.random.default_rng(9)
        g = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        g = 0.5 * (g + g.conj().T)
        mu = xc.lmo(g)
        assert xc.contains(mu, 1e-5)
        # must do at least as well as the best product of local frees
        probe = np.kron(
            th.Incoherent(2).lmo(partial_trace_mat(g @ np.kron(np.eye(2), np.eye(2) / 2), (2, 2), [0])),
            np.eye(2) / 2,
        )
        assert float(np.real(np.trace(g @ mu))) <= float(np.real(np.trace(g @ probe))) + 1e-4

    @pytest.mark.parametrize(
        "locals_",
        [
            [th.Incoherent(2), th.RealStates(2)],
            [th.Incoherent(2, basis=HADAMARD), th.Singleton(np.diag([0.7, 0.3]))],
            [th.RealStates(2), th.AllStates(3)],
            [th.Incoherent(2), th.SeparableTwoQubit()],
            [th.Incoherent(2), th.RealStates(2), th.Singleton(np.eye(2) / 2)],
            [th.Incoherent(2, basis=HADAMARD), th.AllStates(2), th.SeparableTwoQubit()],
        ],
        ids=["inc-real", "inc-rotated-singleton", "real-all", "inc-sep",
             "inc-real-singleton", "inc-rotated-all-sep"],
    )
    def test_dual_bound_is_below_every_member(self, locals_):
        # the oracle returns an exact member, its bound never exceeds the
        # objective at sampled members, and the two meet within 1e-9 max|G|
        xc = th.MaxComposite(locals_)
        rng = np.random.default_rng(xc.dim + len(locals_))
        members = np.stack([xc.random_state(rng) for _ in range(50)])
        for _ in range(2):
            g = random_hermitian(rng, xc.dim)
            mu, lower = xc.lmo_with_bound(g)
            val = float(np.real(np.trace(g @ mu)))
            member_vals = np.real(np.einsum("ij,nji->n", g, members))
            assert xc.contains(mu, 1e-9)
            assert lower <= float(np.min(member_vals)) + 1e-12
            assert lower <= val <= lower + 1e-9 * float(np.max(np.abs(g)))

    def test_suite_marginal_set_gradient_certifies_early(self):
        # the gradient at the optimum of D(|0><0| (x) Phi+ || smax(Inc2, Sep)),
        # the marginal-set side of the built-in single-shot scenarios
        from hetres import divergences as dv

        target = np.kron(np.diag([1.0, 0.0]), PHI).astype(complex)
        xc = th.MaxComposite([th.Incoherent(2), th.SeparableTwoQubit()])
        res = dv.rel_entropy_of_resource(target, xc, gap=2e-3)
        g = dv._log_gradient(*dv._eig_frame(target, res.optimizer))
        g = 0.5 * (g + g.conj().T)
        mu, lower = xc.lmo_with_bound(g)
        val = float(np.real(np.trace(g @ mu)))
        assert abs(val - lower) <= 1e-9 * float(np.max(np.abs(g)))
        assert xc.contains(mu, 1e-9)

    def test_newton_stops_at_its_rounding_floor(self):
        # with tol = 0 only the rounding-floor stop ends the loop before its
        # 50-step cap; without it this problem ran all 50 steps
        cone = partial_transpose_mat(hermitian_basis(4, None), (2, 2), 1)
        cons = th.MarginalConstraints(np.zeros((0, 4, 4), complex), [cone], np.eye(4) / 4)
        k = random_hermitian(np.random.default_rng(0), 4)
        y, *_, steps = cons.newton(k, 1.0, 0.01, cons.origin, 0.0)
        grad = cons._derivatives(1.0, 0.01, y, cons._dual(k, 1.0, 0.01, y))[0]
        assert steps < 50
        assert float(np.max(np.abs(grad))) <= 1e-10

    def test_suite_marginal_set_solves_stop_before_the_cap(self, monkeypatch):
        # the built-in single-shot input: 3 of its 4 mirror-descent solves ran
        # into the 50-step cap at max|grad| ~ 1e-11; the bounds are unchanged
        from hetres import divergences as dv

        steps, newton = [], th.SmoothedDual.newton

        def counted(self, *args):
            out = newton(self, *args)
            steps.append(out[-1])
            return out

        monkeypatch.setattr(th.SmoothedDual, "newton", counted)
        target = np.kron(np.diag([1.0, 0.0]), PHI).astype(complex)
        xc = th.MaxComposite([th.Incoherent(2), th.SeparableTwoQubit()])
        res = dv.rel_entropy_of_resource(target, xc, gap=2e-3)
        assert steps and max(steps) < 50
        assert res.extras["newton_steps"] == sum(steps)
        assert res.converged
        assert abs(res.value - 1.0000011535250297) <= 1e-12
        assert abs(res.upper_bound - 1.0000011535250297) <= 1e-12
        assert abs(res.lower_bound - 0.9999113493638263) <= 1e-12

    def test_exact_lmo_reaches_below_the_subgradient_minimum(self):
        # on this gradient the deleted projected-subgradient oracle ran all
        # its 220 steps without a certificate and returned -1.8333749484987731;
        # the exact oracle certifies a minimum at or below it
        xc = th.MaxComposite([th.Incoherent(2), th.RealStates(2)])
        g = random_hermitian(np.random.default_rng(0), 4)
        mu, lower = xc.lmo_with_bound(g)
        val = float(np.real(np.trace(g @ mu)))
        assert xc.contains(mu, 1e-9)
        assert val <= -1.8333749484987731 + 1e-9
        assert lower <= val <= lower + 1e-9 * float(np.max(np.abs(g)))

    @pytest.mark.parametrize("seed", range(1, 6))
    def test_rank_deficient_singleton_local_closes(self, seed):
        # every member lies on the 2-dimensional support of |0><0| (x) I/2,
        # where 2 of the 5 marginal equalities vanish; solved on the full
        # space, the seed-1 member sat 0.0504 above its bound
        xc = th.MaxComposite([th.Singleton(np.diag([1.0, 0.0])), th.Incoherent(2)])
        g = random_hermitian(np.random.default_rng(seed), 4)
        mu, lower = xc.lmo_with_bound(g)
        val = float(np.real(np.trace(g @ mu)))
        assert xc.marginal_constraints.n_eq == 3
        assert xc.contains(mu, 1e-9)
        assert lower <= val <= lower + 1e-10 * float(np.max(np.abs(g)))

    @pytest.mark.parametrize("kind", ["softplus-orthant", "log-sum-exp-cone", "softplus-cone"])
    def test_smoothed_dual_derivatives_match_finite_differences(self, kind):
        rng = np.random.default_rng(12)
        k, tau, barrier = random_hermitian(rng, 4), 0.3, 0.05
        if kind == "softplus-orthant":
            mats = np.stack([random_density_mat(rng, 4) for _ in range(3)])
            dual = th.SmoothedDual(mats, np.full(3, -0.1), [], True, True)
            y = rng.uniform(0.2, 1.0, 3)
        elif kind == "softplus-cone":
            # D_H's dual over the real states' cone, the test restricted to real
            basis = th.RealStates(4).cone_basis()
            dual = th.SmoothedDual(np.real(basis), -0.1 * np.real(np.einsum("kaa->k", basis)),
                                   [(slice(None), basis)], True, False)
            y = np.real(np.einsum("lab,ba->l", basis, np.eye(4) / 4 + 0.05 * np.real(random_hermitian(rng, 4))))
        else:
            basis = hermitian_basis(4, None)
            eqs = np.stack([random_hermitian(rng, 4) for _ in range(2)])
            mats = np.concatenate([eqs, partial_transpose_mat(basis, (2, 2), 1)])
            dual = th.SmoothedDual(mats, rng.normal(size=18), [(slice(2, 18), basis)], False, False)
            z = np.eye(4) / 4 + 0.05 * random_hermitian(rng, 4)
            y = np.concatenate([rng.normal(size=2), np.real(np.einsum("lab,ba->l", basis, z))])

        def value(x):
            return dual._dual(k, tau, barrier, x)[0]

        def gradient(x):
            return dual._derivatives(tau, barrier, x, dual._dual(k, tau, barrier, x))[0]

        grad, curv = dual._derivatives(tau, barrier, y, dual._dual(k, tau, barrier, y))
        h, unit = 1e-6, np.eye(len(y))
        fd_grad = np.array([(value(y + h * e) - value(y - h * e)) / (2 * h) for e in unit])
        fd_hess = np.stack([(gradient(y + h * e) - gradient(y - h * e)) / (2 * h) for e in unit], axis=1)
        assert np.allclose(fd_grad, grad, rtol=1e-6, atol=1e-7)
        assert np.allclose(fd_hess, -curv, rtol=1e-5, atol=1e-6)
        assert np.allclose(curv, curv.T, atol=1e-12)

    @pytest.mark.parametrize("dims", [(2, 2), (2, 4), (3, 3), (2, 2, 2)])
    def test_effective_operator_matches_kron_reference(self, dims):
        # reference: the identity at slot i, the other parts kron-ed around
        # it, then the partial trace onto slot i
        rng = np.random.default_rng(sum(dims))
        g = random_hermitian(rng, int(np.prod(dims)))
        parts = [np.stack([random_density_mat(rng, d) for _ in range(3)]) for d in dims]
        for i in range(len(dims)):
            h = th._effective_local_operator(g, dims, parts, i)
            for r in range(3):
                full = np.array([[1.0 + 0j]])
                for j, d in enumerate(dims):
                    full = np.kron(full, np.eye(d) if j == i else parts[j][r])
                ref = partial_trace_mat(g @ full, dims, [i])
                assert np.max(np.abs(h[r] - 0.5 * (ref + ref.conj().T))) <= 1e-13

    @pytest.mark.parametrize("other", [th.RealStates(2), th.AllStates(2)])
    def test_real_factor_hull_rejects_yy_correlations(self, other):
        # Tr[(Y (x) Y) mu (x) nu] = 0 whenever mu is real, so no state with
        # <Y (x) Y> != 0 lies in the hull; the mixture is still separable
        hull = th.MinComposite([th.RealStates(2), other])
        noisy = 0.3 * PHI + 0.7 * np.eye(4) / 4
        assert not hull.contains(PHI, 1e-6)
        assert not hull.contains(noisy, 1e-6)
        assert th.SeparableTwoQubit().contains(noisy, 1e-6)

    @pytest.mark.parametrize(
        "locals_, entangled",
        [
            ([th.Incoherent(2, basis=HADAMARD), th.RealStates(2)], None),
            ([th.Incoherent(2, basis=Y_BASIS), th.RealStates(2)], None),
            ([th.Incoherent(2), th.Incoherent(2), th.RealStates(2)], None),
            ([th.RealStates(2), th.RealStates(2)], None),
            ([th.RealStates(2), th.AllStates(3)], None),
            ([th.AllStates(2), th.AllStates(2)], PHI),
            ([th.Incoherent(2), th.SeparableTwoQubit()], np.kron(np.diag([1.0, 0.0]), PHI)),
        ],
        ids=["inc-hadamard-real", "inc-y-real", "inc-inc-real", "real-real", "real-all3",
             "all-all", "inc-sep"],
    )
    def test_exact_rule_hulls_never_reach_dmax(self, locals_, entangled, monkeypatch):
        # seeded members pass; states off the fixed space of the factors'
        # projections fail; Pi-invariant entangled states fail by partial
        # transpose.  None of them needs the D_max witness.
        from hetres import divergences as dv

        def no_dmax(*args, **kwargs):
            raise AssertionError("contains reached the D_max step")

        monkeypatch.setattr(dv, "dmax", no_dmax)
        hull = th.MinComposite(locals_)
        proj = th._product_projection(hull.hull_factors())
        rng = np.random.default_rng([17, hull.dim, len(locals_)])
        for _ in range(20):
            assert hull.contains(hull.random_state(rng), 1e-8)
        outside = [random_density_mat(rng, hull.dim) for _ in range(20)]
        outside = [m for m in outside if np.max(np.abs(m - proj(m))) > 1e-6]
        assert outside or entangled is not None  # Pi is the identity on all-all
        assert not any(hull.contains(m, 1e-6) for m in outside)
        if entangled is not None:
            assert np.max(np.abs(entangled - proj(entangled))) <= 1e-15
            assert not hull.contains(entangled, 1e-6)
            # the blocks of the mixture are separable Werner states
            assert hull.contains(0.15 * entangled + 0.85 * np.eye(hull.dim) / hull.dim, 1e-8)

    def test_real_hull_samples_pass_the_dmax_test(self, monkeypatch):
        # at 2x4 a partial transpose does not decide the hull, so a correlated
        # sample is accepted by the D_max witness
        from hetres import divergences as dv

        calls = []
        dmax = dv.dmax
        monkeypatch.setattr(dv, "dmax", lambda *a, **k: calls.append(1) or dmax(*a, **k))
        hull = th.MinComposite([th.RealStates(2), th.RealStates(4)])
        mu = hull.random_state(np.random.default_rng(0))
        margs = [partial_trace_mat(mu, (2, 4), [i]) for i in (0, 1)]
        assert np.max(np.abs(mu - np.kron(*margs))) > 1e-3  # not decided as a product
        assert hull.contains(mu, 1e-5)
        assert calls

    def test_singleton_factor_hull_holds_only_products(self):
        hull = th.MinComposite([th.Singleton(np.eye(2) / 2), th.RealStates(2)])
        classical = np.diag([0.5, 0.0, 0.0, 0.5]).astype(complex)
        assert not hull.contains(classical, 1e-6)
        assert hull.contains(np.kron(np.eye(2) / 2, np.array([[0.7, 0.2], [0.2, 0.3]])), 1e-6)

    def test_nested_hull_runs_the_flat_see_saw(self):
        # conv(Inc2 (x) Sep) = conv(Inc2 (x) All2 (x) All2): one see-saw over
        # the flattened factors, with the same draws
        nested = th.MinComposite([th.Incoherent(2), th.SeparableTwoQubit()])
        flat = th.MinComposite([th.Incoherent(2), th.AllStates(2), th.AllStates(2)])
        assert [f.kind for f in nested.hull_factors()] == ["incoherent", "all", "all"]
        for seed in range(20):
            g = random_hermitian(np.random.default_rng([7, seed]), 8)
            mu = nested.lmo(g, np.random.default_rng(seed))
            assert np.array_equal(mu, flat.lmo(g, np.random.default_rng(seed)))

    def test_listed_factors_are_enumerated_exactly(self):
        # reference: every product of the singleton, an incoherent basis
        # state and the real factor's exact minimizer, by kron and partial trace
        gamma = np.diag([0.7, 0.3]).astype(complex)
        hull = th.MinComposite([th.Singleton(gamma), th.Incoherent(2), th.RealStates(2)])
        assert hull.exact_lmo
        rng = np.random.default_rng(12)
        for _ in range(10):
            g = random_hermitian(rng, 8)
            best = np.inf
            for e in np.eye(2):
                fixed = np.kron(np.kron(gamma, np.diag(e)), np.eye(2))
                h = partial_trace_mat(g @ fixed, (2, 2, 2), [2])
                best = min(best, float(np.linalg.eigvalsh(np.real(h + h.conj().T) / 2)[0]))
            mu = hull.lmo(g, rng)
            assert abs(float(np.real(np.trace(g @ mu))) - best) <= 1e-12
            assert th.RealStates(8).contains(mu, 1e-12)

    def test_exact_lmo_by_kind(self):
        inc2, real2, all2 = th.Incoherent(2), th.RealStates(2), th.AllStates(2)
        single = [inc2, real2, all2, th.Singleton(np.eye(2) / 2), th.FiniteSet([PLUS])]
        assert all(s.exact_lmo for s in single)
        smax = th.MaxComposite([inc2, real2])
        assert smax.exact_lmo
        assert not th.SeparableTwoQubit().exact_lmo
        assert th.MinComposite([inc2, real2]).exact_lmo
        assert th.MinComposite([inc2, inc2, inc2]).exact_lmo
        assert not th.MinComposite([real2, real2]).exact_lmo
        assert not th.MinComposite([inc2, th.SeparableTwoQubit()]).exact_lmo
        assert th.MinComposite([inc2, smax]).exact_lmo  # one unlisted, exact
        # an image set's oracle is its base set's, pulled back
        assert ct._ImageSet(real2, ch.identity_channel(single_party(2))).exact_lmo
        hull = th.MinComposite([real2, real2])
        assert not ct._ImageSet(hull, ch.identity_channel(single_party(4))).exact_lmo


def test_theory_descriptor_roundtrip():
    sets = [
        th.Incoherent(3),
        th.RealStates(2),
        th.Singleton(np.diag([0.7, 0.3])),
        th.SeparableTwoQubit(),
        th.SeparableTwoQubit((2, 3)),
        th.MinComposite([th.Incoherent(2), th.Incoherent(2)]),
        th.MaxComposite([th.Incoherent(2), th.RealStates(2)]),
        th.Incoherent(3, basis=random_unitary(np.random.default_rng(2), 3)),
        th.FiniteSet([np.diag([1.0, 0.0]), PLUS_Y]),
        th.AllStates(3),
        th.MinComposite([th.RealStates(2), th.AllStates(3)], labels=["A", "B"]),
        th.MaxComposite([th.Singleton(np.diag([0.7, 0.3])), th.AllStates(3)]),
    ]
    for s in sets:
        again = th.set_from_json(s.to_json())
        assert again.kind == s.kind
        assert again.dim == s.dim
        assert again.to_json() == s.to_json()
    assert th.set_from_json({"kind": "separable", "cut": [2, 3]}).cut == (2, 3)
