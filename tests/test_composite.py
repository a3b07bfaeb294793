import numpy as np
import pytest

from hetres import channels as ch
from hetres import composite as co
from hetres import theories as th
from hetres.qcore import (
    HADAMARD,
    KET_PLUS,
    TensorStructure,
    bell_phi_plus_vec,
    partial_trace_mat,
    random_density_mat,
    single_party,
    trace_norm,
)
from hetres.scenarios import rotated_bell_preparation

PHI = np.outer(bell_phi_plus_vec(2), bell_phi_plus_vec(2).conj())
PLUS = np.outer(KET_PLUS, KET_PLUS.conj())
S12 = TensorStructure([("1", 2), ("2", 2)])


class TestSmin:
    def test_unrestricted_locals_give_separable_hull(self):
        hull = co.smin([th.AllStates(2), th.AllStates(2)])
        rng = np.random.default_rng(0)
        sep = th.SeparableTwoQubit()
        for _ in range(20):
            mu = sep.random_state(rng)
            assert hull.contains(mu, 1e-6)
        assert not hull.contains(PHI, 1e-6)

    def test_singleton_product_collapses(self):
        g1 = np.diag([0.7, 0.3]).astype(complex)
        g2 = np.diag([0.2, 0.8]).astype(complex)
        out = co.smin([th.Singleton(g1), th.Singleton(g2)])
        assert out.kind == "singleton"
        assert np.allclose(out.gamma, np.kron(g1, g2))

    def test_one_point_sets_collapse_to_a_singleton(self):
        g1 = np.diag([0.7, 0.3]).astype(complex)
        g2 = np.diag([0.2, 0.3, 0.5]).astype(complex)
        out = co.smin([th.FiniteSet([g1]), th.Singleton(g2)])
        assert out.kind == "singleton"
        assert np.array_equal(out.gamma, np.kron(g1, g2))

    def test_incoherent_product_collapses(self):
        out = co.smin([th.Incoherent(2), th.Incoherent(2)])
        assert out.kind == "incoherent" and out.dim == 4

    def test_only_computational_basis_dephasings_collapse(self):
        out = co.smin([th.Incoherent(2), th.Incoherent(3)])
        assert out.kind == "incoherent" and out.dim == 6 and out.basis is None
        # another basis, or the basis projectors as a list without a projection
        basis_list = th.FiniteSet([np.diag([1.0, 0.0]), np.diag([0.0, 1.0])])
        for first in (th.Incoherent(2, HADAMARD), basis_list):
            assert co.smin([first, th.Incoherent(2)]).kind == "min-composite"

    def test_assisted_hull_contains_conditional_products(self):
        hull = co.smin([th.AllStates(2), th.Incoherent(2)])
        rng = np.random.default_rng(1)
        mix = np.zeros((4, 4), dtype=complex)
        for i, p in enumerate(rng.dirichlet(np.ones(2))):
            mix += p * np.kron(random_density_mat(rng, 2), np.diag(np.eye(2)[i]))
        assert hull.contains(mix, 1e-6)
        assert not hull.contains(np.kron(np.eye(2) / 2, PLUS), 1e-6)


class TestSmax:
    def test_unital_pair_contains_bell(self):
        top = co.smax([th.Singleton(np.eye(2) / 2), th.Singleton(np.eye(2) / 2)])
        assert top.contains(PHI, 1e-8)

    def test_products_of_free_states_inside(self):
        top = co.smax([th.Incoherent(2), th.RealStates(2)])
        rng = np.random.default_rng(2)
        for _ in range(20):
            mu = np.kron(th.Incoherent(2).random_state(rng), th.RealStates(2).random_state(rng))
            assert top.contains(mu, 1e-8)

    def test_coherent_marginal_excluded(self):
        top = co.smax([th.Incoherent(2), th.AllStates(2)])
        rng = np.random.default_rng(3)
        assert not top.contains(np.kron(PLUS, random_density_mat(rng, 2)), 1e-6)


class TestFmin:
    def test_identity_product(self):
        ident = ch.identity_channel(single_party(2))
        lam = co.fmin_element([[ident, ident]])
        rng = np.random.default_rng(4)
        rho = random_density_mat(rng, 4)
        assert np.max(np.abs(lam.apply_mat(rho) - rho)) < 1e-12

    def test_mixture_of_unitary_products_is_unital(self):
        rng = np.random.default_rng(5)
        unital = th.UnitalOps()
        terms = [
            [unital.sample_channel(rng, 2), unital.sample_channel(rng, 2)]
            for _ in range(3)
        ]
        lam = co.fmin_element(terms, weights=[0.5, 0.3, 0.2])
        assert ch.is_unital(lam)

    def test_dephasing_product_is_sio_product(self):
        deph = ch.KrausChannel(
            (np.diag([1.0, 0.0]).astype(complex), np.diag([0.0, 1.0]).astype(complex)),
            single_party(2),
            single_party(2),
        )
        lam = co.fmin_element([[deph, deph]])
        assert th.Sio().contains_channel(lam)

    def test_weights_validated(self):
        ident = ch.identity_channel(single_party(2))
        with pytest.raises(ValueError):
            co.fmin_element([[ident, ident]], weights=[0.5, 0.4])

    def test_hull_states_stay_inside(self):
        rng = np.random.default_rng(6)
        sio = th.Sio()
        locals_ = [th.Incoherent(2), th.Incoherent(2)]
        hull = co.smin(locals_)
        for _ in range(10):
            lam = co.fmin_element(
                [[sio.sample_channel(rng, 2), sio.sample_channel(rng, 2)]]
            )
            for _ in range(10):
                mu = np.kron(locals_[0].random_state(rng), locals_[1].random_state(rng))
                assert hull.contains(lam.apply_mat(mu), 1e-7)

    def test_fmin_maps_hull_into_marginal_set(self):
        rng = np.random.default_rng(7)
        sio = th.Sio()
        locals_ = [th.Incoherent(2), th.Incoherent(2)]
        top = co.smax(locals_)
        hull_sampler = th.MinComposite(locals_)
        for _ in range(10):
            lam = co.fmin_element(
                [[sio.sample_channel(rng, 2), sio.sample_channel(rng, 2)]]
            )
            for _ in range(10):
                mu = hull_sampler.random_state(rng)
                assert top.contains(lam.apply_mat(mu), 1e-7)

    def test_fmin_marginals_are_locally_free_operations(self):
        rng = np.random.default_rng(8)
        sio = th.Sio()
        locals_ = [(th.Incoherent(2), th.Sio()), (th.Incoherent(2), th.Sio())]
        from hetres.qcore import DensityOperator, TensorStructure

        for _ in range(10):
            lam = co.fmin_element(
                [[sio.sample_channel(rng, 2), sio.sample_channel(rng, 2)]]
            )
            frozen = {
                "2": DensityOperator(
                    locals_[1][0].random_state(rng), TensorStructure([("2", 2)])
                )
            }
            marg = ch.marginal_channel(lam, "1", frozen)
            assert th.Sio().contains_channel(marg, 1e-9)


class TestCheckAxioms:
    def test_minimal_theory_passes(self):
        rng = np.random.default_rng(9)
        locals_ = [(th.Incoherent(2), th.Sio()), (th.Incoherent(2), th.Sio())]
        hull = co.smin([s for s, _ in locals_])
        ops = [
            co.fmin_element(
                [[th.Sio().sample_channel(rng, 2), th.Sio().sample_channel(rng, 2)]]
            )
            for _ in range(4)
        ]
        rep = co.check_axioms(hull, ops, locals_, n_state_samples=80, seed=1)
        assert rep.all_pass
        # the dephased hull lists its extreme points, so (a)-(c) are exact
        modes = {c.name: c.mode for c in rep.conditions}
        assert modes == {
            "free-product-states": "extreme-points",
            "free-product-operations": "extreme-points",
            "free-marginal-states": "extreme-points",
            "free-marginal-operations": "sampled",
        }

    def test_class_candidate_product_operations(self):
        locals_ = [(th.Singleton(np.eye(2) / 2), th.UnitalOps())] * 2
        rep = co.check_axioms(
            co.smax([s for s, _ in locals_]), th.UnitalOps(), locals_,
            n_state_samples=40, n_channel_samples=15, seed=2,
        )
        by_name = {c.name: c for c in rep.conditions}
        assert by_name["free-product-operations"].passed
        assert by_name["free-marginal-operations"].mode == "skipped"

    def test_rotated_preparation_fails_condition_d(self):
        lam = rotated_bell_preparation()
        locals_ = [(th.Singleton(np.eye(2) / 2), th.UnitalOps())] * 2
        rep = co.check_axioms(co.smax([s for s, _ in locals_]), [lam], locals_, seed=3)
        by_name = {c.name: c for c in rep.conditions}
        assert not by_name["free-marginal-operations"].passed
        assert "unital" in by_name["free-marginal-operations"].detail

    def test_conversion_channel_is_admissible(self):
        # the coherence-to-entanglement map passes every compatibility
        # condition against its heterogeneous locals, with non-generation
        # standing in for the entangled party's operation class
        from hetres.scenarios import coherence_to_entanglement_channel

        lam = coherence_to_entanglement_channel()
        locals_ = [
            (th.Incoherent(2), th.Sio()),
            (th.SeparableTwoQubit(), th.Rng(th.SeparableTwoQubit())),
        ]
        hull = co.smin([s for s, _ in locals_])
        rep = co.check_axioms(hull, [lam], locals_, n_state_samples=40, seed=12)
        assert rep.all_pass

    def test_listed_operations_stop_at_the_first_failure(self):
        # a repeated failing operation reports the same counterexample as
        # one copy of it: sampling ends at the first state it sends out
        locals_ = [(th.Incoherent(2), th.Sio()), (th.Incoherent(2), th.Sio())]
        hadamard = ch.unitary_channel(np.kron(HADAMARD, np.eye(2)), S12)

        def witness(ops):
            rep = co.check_axioms(co.smin([s for s, _ in locals_]), ops, locals_,
                                  n_state_samples=10, seed=3)
            cond = next(c for c in rep.conditions if c.name == "free-product-operations")
            assert not cond.passed
            return cond.counterexample

        assert np.array_equal(witness([hadamard, hadamard]), witness([hadamard]))

    def test_report_json(self):
        locals_ = [(th.Incoherent(2), th.Sio()), (th.Incoherent(2), th.Sio())]
        rep = co.check_axioms(co.smin([s for s, _ in locals_]), [], locals_,
                              n_state_samples=10, seed=4)
        blob = rep.to_json()
        assert "conditions" in blob and blob["seed"] == 4


class TestCheckSandwich:
    def test_extremal_sets_pass(self):
        locals_ = [th.Incoherent(2), th.Incoherent(2)]
        assert co.check_sandwich(co.smin(locals_), locals_, n_samples=60, seed=5).all_pass
        assert co.check_sandwich(co.smax(locals_), locals_, n_samples=60, seed=6).all_pass

    def test_dropped_constraint_detected(self):
        # keeps party 1's marginal condition, forgets party 2's
        locals_ = [th.Incoherent(2), th.Incoherent(2)]
        sloppy = co.smax([th.Incoherent(2), th.AllStates(2)])
        rep = co.check_sandwich(sloppy, locals_, n_samples=120, seed=7)
        by_name = {c.name: c for c in rep.conditions}
        assert not by_name["candidate-inside-marginal-set"].passed
        assert by_name["candidate-inside-marginal-set"].counterexample is not None

    def test_real_hull_samples_are_members(self):
        # the hull's linear form sets a partial transpose, so its inclusion
        # in itself is certified from the Choi matrix, not sampled
        locals_ = [th.RealStates(2), th.RealStates(2)]
        rep = co.check_sandwich(co.smin(locals_), locals_, n_samples=2, seed=1003)
        assert rep.all_pass
        assert rep.conditions[0].mode == "certified"

    def test_dephased_hull_inclusion_is_a_projection_verdict(self):
        locals_ = [th.Incoherent(2), th.RealStates(2)]
        rep = co.check_sandwich(co.smin(locals_), locals_, n_samples=40, seed=5)
        assert rep.all_pass
        assert rep.conditions[0].name == "hull-inside-candidate"
        assert rep.conditions[0].mode == "projection"

    def test_hull_without_a_linear_form_passes_on_products(self):
        # MinComposite.contains can reject a genuine hull mixture at this
        # seed (its D_max step stops at the round cap), so the hull must be
        # tested on products of local samples, which it decides exactly
        locals_ = [th.RealStates(3), th.AllStates(3)]
        rep = co.check_sandwich(co.smin(locals_), locals_, n_samples=40, seed=2000)
        assert [(c.passed, c.mode) for c in rep.conditions] == [(True, "sampled")] * 2


class TestBpAxioms:
    def _unital_pair_smax(self):
        return co.smax([th.Singleton(np.eye(2) / 2), th.Singleton(np.eye(2) / 2)])

    def test_hull_family_passes(self):
        fam = {
            1: th.Incoherent(2),
            2: th.Incoherent(4),
        }
        rep = co.check_bp_axioms(fam, max_n=2, n_samples=30, seed=8)
        assert rep.all_pass

    def test_mixed_composition_breaks_tensor_closure(self):
        smax1 = self._unital_pair_smax()
        fam = {
            1: smax1,
            2: th.MinComposite([smax1, th.Singleton(np.eye(4) / 4)], labels=["c0", "c1"]),
        }
        rep = co.check_bp_axioms(
            fam, max_n=2, n_samples=30, seed=9, probe_states={1: [PHI]}
        )
        by_name = {a.name: a for a in rep.axioms}
        assert not by_name["tensor-closure"].passed
        witness = by_name["tensor-closure"].counterexample
        assert witness is not None
        assert trace_norm(witness - np.kron(PHI, PHI)) < 1e-9
        assert by_name["tensor-closure"].detail == "S_1 (x) S_1 leaves S_2"
        # the witness fails because its second-copy marginal is the
        # entangled pair, not the fixed maximally mixed factor
        marg2 = partial_trace_mat(witness, (4, 4), [1])
        assert trace_norm(marg2 - np.eye(4) / 4) > 0.5
        assert by_name["convexity"].passed
        assert by_name["marginal-closure"].passed

    def test_non_convex_family_reports_the_first_failing_mixture(self):
        # a finite list is not convex; the sequential sampler, written out
        # here, draws a pool of 8 and then one Dirichlet weight vector per
        # mixture, and its first mixture already leaves the list
        basis = [np.diag([1.0, 0.0]).astype(complex), np.diag([0.0, 1.0]).astype(complex)]
        fam = {1: th.FiniteSet(basis), 2: th.FiniteSet([np.kron(a, b) for a in basis for b in basis])}
        rep = co.check_bp_axioms(fam, max_n=2, n_samples=6, seed=3)
        rng = np.random.default_rng(3)
        pool = [fam[1].random_state(rng) for _ in range(8)]
        first = sum(wi * s for wi, s in zip(rng.dirichlet(np.ones(8)), pool))
        assert not fam[1].contains(first, 1e-5)
        cond = next(a for a in rep.axioms if a.name == "convexity")
        assert (cond.passed, cond.mode, cond.detail) == (False, "sampled", "mixtures of members stay inside")
        assert np.array_equal(cond.counterexample, first)
        assert [a.name for a in rep.axioms] == ["convexity", "full-rank-member", "marginal-closure",
                                                "tensor-closure", "permutation-closure"]

    def test_marginal_closure_reports_the_first_copy_number_that_fails(self):
        # real two-copy states have non-diagonal marginals, and generic
        # three-copy states complex ones; the search stops at n = 2
        fam = {1: th.Incoherent(2), 2: th.RealStates(4), 3: th.AllStates(8)}
        rep = co.check_bp_axioms(fam, max_n=3, n_samples=8, seed=1)
        cond = next(a for a in rep.axioms if a.name == "marginal-closure")
        assert not cond.passed and cond.counterexample.shape == (4, 4)

    def test_full_rank_member_is_read_off_the_member_of_maximal_support(self):
        # a hull with a rank-deficient singleton factor has no full-rank member
        zero = np.diag([1.0, 0.0])
        fam = {1: th.RealStates(2), 2: th.MinComposite([th.Singleton(zero), th.RealStates(2)])}
        rep = co.check_bp_axioms(fam, max_n=2, n_samples=4, seed=0)
        cond = next(a for a in rep.axioms if a.name == "full-rank-member")
        assert not cond.passed and cond.mode == "witness"
        assert cond.detail == "no full-rank member at n in [2]"

    def test_max_n_limit(self):
        with pytest.raises(ValueError):
            co.check_bp_axioms({1: th.Incoherent(2)}, max_n=4)

    def test_hull_of_unital_pair_family_passes(self):
        # the hull composition of two maximally mixed singletons is itself a
        # singleton at every copy number, trivially closed
        base = co.smin([th.Singleton(np.eye(2) / 2), th.Singleton(np.eye(2) / 2)])
        fam = {
            1: base,
            2: th.Singleton(np.kron(base.gamma, base.gamma)),
        }
        rep = co.check_bp_axioms(fam, max_n=2, n_samples=20, seed=11)
        assert rep.all_pass


def test_hull_inside_marginal_set_sampled():
    rng = np.random.default_rng(10)
    for locals_ in ([th.Incoherent(2), th.Incoherent(2)],
                    [th.Singleton(np.eye(2) / 2), th.RealStates(2)]):
        hull = th.MinComposite(locals_)
        top = co.smax(locals_)
        for _ in range(1000):
            assert top.contains(hull.random_state(rng), 1e-7)
