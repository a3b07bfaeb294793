import math

import numpy as np
import pytest

from hetres import channels as ch
from hetres import laws
from hetres import theories as th
from hetres.qcore import (
    KET_PLUS,
    KET_PLUS_Y,
    DensityOperator,
    TensorStructure,
    bell_phi_plus_vec,
    density,
    partial_trace_mat,
    partial_transpose_mat,
    pure_state,
    random_pure_vec,
    random_unitary,
    single_party,
    spanning_states,
    von_neumann_entropy,
)
from hetres.scenarios import coherence_to_entanglement_channel, rng_verified_channel_family

PHI_VEC = bell_phi_plus_vec(2)
PHI = np.outer(PHI_VEC, PHI_VEC.conj())
PLUS = np.outer(KET_PLUS, KET_PLUS.conj())
INC2 = th.Incoherent(2)
SEP = th.SeparableTwoQubit()


def _state_12(first: np.ndarray, second: np.ndarray) -> DensityOperator:
    struct = TensorStructure([("1", 2), ("2", 4)])
    return DensityOperator(np.kron(first, second), struct)


KET00 = np.zeros(4)
KET00[0] = 1.0
P00 = np.outer(KET00, KET00)


class TestSingleShot:
    def test_conversion_pair_not_excluded(self):
        rho = _state_12(PLUS, P00)
        sigma = _state_12(np.diag([1.0, 0.0]), PHI)
        rep = laws.single_shot_verdict(rho, sigma, [INC2, SEP], gap=2e-3, seed=0)
        assert abs(rep.lhs.value - 1.0) < 2e-3
        assert abs(rep.rhs.value - 1.0) < 2e-3
        assert rep.verdict == laws.NOT_EXCLUDED

    def test_free_to_resourceful_forbidden(self):
        rho = _state_12(np.diag([1.0, 0.0]), P00)
        sigma = _state_12(np.diag([1.0, 0.0]), PHI)
        rep = laws.single_shot_verdict(rho, sigma, [INC2, SEP], gap=1e-3, seed=0)
        assert rep.verdict == laws.FORBIDDEN

    def test_reverse_direction_not_excluded_by_divergences_alone(self):
        rho = _state_12(np.diag([1.0, 0.0]), PHI)
        sigma = _state_12(PLUS, P00)
        rep = laws.single_shot_verdict(rho, sigma, [INC2, SEP], gap=2e-3, seed=0)
        # both sides equal one bit: the divergence law cannot exclude the
        # reverse map; the affine-basis argument below still forbids it
        assert rep.verdict == laws.NOT_EXCLUDED

    def test_structure_mismatch(self):
        with pytest.raises(ValueError):
            laws.single_shot_verdict(
                pure_state(KET_PLUS, single_party(2, "1")),
                _state_12(PLUS, P00),
                [INC2, SEP],
            )


class TestConversionVerdict:
    def test_golden_units_balance(self):
        rep = laws.conversion_verdict(
            pure_state(KET_PLUS),
            INC2,
            DensityOperator(PHI, TensorStructure([("A", 2), ("B", 2)])),
            SEP,
            gap=2e-3,
        )
        assert abs(rep.lhs.value - 1.0) < 1e-9
        assert abs(rep.rhs.value - 1.0) < 2e-3
        assert rep.verdict == laws.NOT_EXCLUDED

    def test_free_to_resourceful_forbidden(self):
        rep = laws.conversion_verdict(
            density(np.diag([0.5, 0.5])),
            INC2,
            DensityOperator(PHI, TensorStructure([("A", 2), ("B", 2)])),
            SEP,
            gap=1e-3,
        )
        assert rep.verdict == laws.FORBIDDEN

    def test_coherence_vs_imaginarity_units(self):
        py = pure_state(KET_PLUS_Y)
        rep = laws.conversion_verdict(py, INC2, py, th.RealStates(2))
        assert abs(rep.lhs.value - 1.0) < 1e-9
        assert abs(rep.rhs.value - 1.0) < 1e-9


class TestUncorrelatedReduction:
    def test_free_padding_reduces_to_local_value(self):
        struct = TensorStructure([("A", 2), ("B", 2)])
        rho = DensityOperator(np.kron(np.eye(2) / 2, PLUS), struct)
        res = laws.uncorrelated_reduction(
            rho, [th.AllStates(2), INC2], "B", gap=1e-3, seed=0
        )
        assert abs(res.value - 1.0) < 1e-9
        assert res.extras["extremal_spread"] <= res.extras["spread_budget"]

    def test_all_free_product_is_zero(self):
        struct = TensorStructure([("A", 2), ("B", 2)])
        rho = DensityOperator(np.kron(np.diag([0.3, 0.7]), np.diag([0.6, 0.4])), struct)
        res = laws.uncorrelated_reduction(rho, [INC2, th.Incoherent(2)], "A", gap=1e-3)
        assert abs(res.value) < 1e-8

    def test_singleton_partner(self):
        gamma = np.diag([0.8, 0.2]).astype(complex)
        struct = TensorStructure([("A", 2), ("B", 2)])
        rho = DensityOperator(np.kron(PLUS, gamma), struct)
        res = laws.uncorrelated_reduction(rho, [INC2, th.Singleton(gamma)], "A", gap=1e-3)
        assert abs(res.value - 1.0) < 1e-9

    def test_correlated_input_rejected(self):
        struct = TensorStructure([("A", 2), ("B", 2)])
        rho = DensityOperator(PHI, struct)
        with pytest.raises(ValueError, match="product"):
            laws.uncorrelated_reduction(rho, [th.AllStates(2), INC2], "B")

    def test_non_free_partner_rejected(self):
        struct = TensorStructure([("A", 2), ("B", 2)])
        rho = DensityOperator(np.kron(PLUS, PLUS), struct)
        with pytest.raises(ValueError, match="free"):
            laws.uncorrelated_reduction(rho, [INC2, th.Incoherent(2)], "A")


class TestAsymptotic:
    def test_golden_unit_rate_bound(self):
        rep = laws.asymptotic_rate_bound(
            pure_state(KET_PLUS),
            INC2,
            DensityOperator(PHI, TensorStructure([("A", 2), ("B", 2)])),
            SEP,
            assume_additive=(False, True),
            gap=1e-3,
        )
        assert abs(rep.ratio - 1.0) < 5e-3

    def test_free_target_unbounded(self):
        rep = laws.asymptotic_rate_bound(
            pure_state(KET_PLUS), INC2, density(np.eye(2) / 2), th.Incoherent(2)
        )
        assert math.isinf(rep.ratio)

    def test_free_source_zero(self):
        rep = laws.asymptotic_rate_bound(
            density(np.eye(2) / 2), INC2, pure_state(KET_PLUS), th.Incoherent(2)
        )
        assert rep.ratio == 0.0


class TestAssistedDistillation:
    def test_shared_pair_rate_one(self):
        struct = TensorStructure([("A", 2), ("B", 2)])
        rep = laws.assisted_distillation_bound(
            DensityOperator(PHI, struct), INC2, pure_state(KET_PLUS), gap=1e-3
        )
        assert abs(rep.ratio - 1.0) < 2e-3

    def test_free_b_part_zero(self):
        struct = TensorStructure([("A", 2), ("B", 2)])
        rho = DensityOperator(np.kron(np.eye(2) / 2, np.diag([0.2, 0.8])), struct)
        rep = laws.assisted_distillation_bound(rho, INC2, pure_state(KET_PLUS), gap=1e-3)
        assert rep.ratio == 0.0

    def test_pure_state_identity_small_batch(self):
        rng = np.random.default_rng(0)
        struct = TensorStructure([("A", 2), ("B", 2)])
        for _ in range(5):
            psi = random_pure_vec(rng, 4)
            rho = DensityOperator(np.outer(psi, psi.conj()), struct)
            rep = laws.assisted_distillation_bound(rho, INC2, pure_state(KET_PLUS), gap=1e-3, seed=3)
            rho_b = np.diag(np.diag(rho.mat.reshape(2, 2, 2, 2).trace(axis1=0, axis2=2)))
            target = von_neumann_entropy(rho_b)
            assert abs(rep.lhs.value - target) < 1e-3


class TestCorrelationWitness:
    def test_uncorrelated_at_unassisted_rate_gives_zero(self):
        struct = TensorStructure([("A", 2), ("B", 2)])
        rho = DensityOperator(np.kron(np.eye(2) / 2, PLUS), struct)
        # B part is the golden unit itself: unassisted rate bound is one
        val = laws.correlation_witness(rho, INC2, pure_state(KET_PLUS), observed_rate=1.0)
        assert abs(val) < 1e-9

    def test_shared_pair_witnesses_one_bit(self):
        struct = TensorStructure([("A", 2), ("B", 2)])
        rho = DensityOperator(PHI, struct)
        val = laws.correlation_witness(rho, INC2, pure_state(KET_PLUS), observed_rate=1.0)
        assert abs(val - 1.0) < 1e-9

    def test_rate_below_unassisted_clamps(self):
        struct = TensorStructure([("A", 2), ("B", 2)])
        rho = DensityOperator(np.kron(np.eye(2) / 2, PLUS), struct)
        assert laws.correlation_witness(rho, INC2, pure_state(KET_PLUS), observed_rate=0.2) == 0.0


class TestWitnessChannel:
    def test_construction_for_plus(self):
        res = laws.witness_channel(pure_state(KET_PLUS), INC2, SEP, n_postcheck=200)
        assert abs(res.p_star - 2.0 / 3.0) < 1e-6
        out = res.channel.apply_mat(PLUS)
        assert np.linalg.eigvalsh(partial_transpose_mat(out, (2, 2), 1))[0] < -1e-9
        rng = np.random.default_rng(1)
        for _ in range(50):
            mu = INC2.random_state(rng)
            assert SEP.contains(res.channel.apply_mat(mu), 1e-7)

    def test_construction_for_qubit_qutrit_target(self):
        # the boundary pair is a qubit Bell state embedded in the 2x3 cut and
        # I/6, whose PPT boundary sits at mixing parameter 3/4
        sep23 = th.SeparableTwoQubit((2, 3))
        res = laws.witness_channel(pure_state(KET_PLUS), INC2, sep23, n_postcheck=100)
        assert abs(res.p_star - 0.75) < 1e-6
        assert res.channel.out_structure.dims == (2, 3)
        assert not sep23.contains(res.channel.apply_mat(PLUS), 1e-9)

    def test_free_input_rejected(self):
        with pytest.raises(ValueError, match="free"):
            laws.witness_channel(density(np.eye(2) / 2), INC2, SEP)

    def test_flat_target_rejected(self):
        with pytest.raises(ValueError, match="full-dimensional"):
            laws.witness_channel(pure_state(KET_PLUS_Y), INC2, th.RealStates(4))


class TestInducedMonotone:
    def _lift_witness(self, seed=0):
        res = laws.witness_channel(pure_state(KET_PLUS), INC2, SEP, seed=seed)
        # embed the qubit-to-pair map as a two-party operation: measure
        # party 1, prepare the output on party 2, refill party 1
        refill = density(np.diag([1.0, 0.0]))
        struct = TensorStructure([("1", 2), ("2", 4)])
        ops = []
        for k in res.channel.kraus:
            for b in range(4):
                bra = np.zeros((1, 4), dtype=complex)
                bra[0, b] = 1.0
                pick1 = np.kron(np.eye(2, dtype=complex), bra)  # drop party 2
                lift = np.kron(np.array([[1.0], [0.0]], dtype=complex), k)
                ops.append(lift @ pick1)
        return ch.KrausChannel(tuple(ops), struct, struct)

    def test_witness_family_detects_coherence(self):
        # the boundary-hugging rescaling inside the construction makes the
        # detected value small; positivity is certified exactly through the
        # negative partial transpose of the achieving marginal
        lam = self._lift_witness()
        val = laws.induced_monotone(PLUS, INC2, SEP, [lam], mu2_samples=3, gap=2e-3)
        assert val > 1e-7
        marg = lam.apply_mat(np.kron(PLUS, np.eye(4) / 4)).reshape(2, 4, 2, 4).trace(
            axis1=0, axis2=2
        )
        assert np.linalg.eigvalsh(partial_transpose_mat(marg, (2, 2), 1))[0] < -1e-4

    def test_free_input_measures_zero(self):
        lam = self._lift_witness()
        rng = np.random.default_rng(2)
        mu = INC2.random_state(rng)
        val = laws.induced_monotone(mu, INC2, SEP, [lam], mu2_samples=3, gap=2e-3)
        assert val < 1e-6

    def test_local_protocols_never_convert(self):
        # round-based local operations with classical communication cannot
        # move resource across the cut: the induced value stays zero
        rng = np.random.default_rng(3)
        struct = TensorStructure([("1", 2), ("2", 2)])
        classes = {"1": th.Sio(), "2": th.Sio()}
        family = []
        for _ in range(6):
            proto = th.random_lfocc_protocol(rng, struct, classes, int(rng.integers(1, 4)))
            family.append(ch.compile_lfocc(proto))
        val = laws.induced_monotone(
            PLUS, INC2, th.Incoherent(2), family, mu2_samples=4, gap=1e-3
        )
        assert val < 1e-8

    def test_empty_family_rejected(self):
        with pytest.raises(ValueError):
            laws.induced_monotone(PLUS, INC2, SEP, [])

    def test_monotone_under_local_free_preprocessing(self):
        lam = self._lift_witness()
        rng = np.random.default_rng(4)
        sio = th.Sio()
        base = laws.induced_monotone(PLUS, INC2, SEP, [lam], mu2_samples=3, gap=2e-3)
        for _ in range(5):
            pre = sio.sample_channel(rng, 2)
            processed = pre.apply_mat(PLUS)
            after = laws.induced_monotone(processed, INC2, SEP, [lam], mu2_samples=3, gap=2e-3)
            assert after <= base + 5e-3


class TestNogo:
    def test_conversion_channel_certified(self):
        rep = laws.nogo_entanglement_to_coherence(
            coherence_to_entanglement_channel(), INC2, n_free_inputs=6
        )
        assert rep.certified
        assert rep.basis_offdiag <= 1e-9
        assert rep.direct_offdiag <= 1e-9

    def test_offdiagonals_match_a_per_input_reference(self):
        # a random unitary generates coherence; the stacked marginals must
        # equal the party-1 marginals of each input taken one at a time
        rng = np.random.default_rng(12)
        struct = TensorStructure([("1", 2), ("2", 4)])
        lam = ch.unitary_channel(random_unitary(rng, 8), struct)
        rep = laws.nogo_entanglement_to_coherence(lam, INC2, n_free_inputs=3, seed=7)
        free_rng = np.random.default_rng(7)
        mus = [INC2.random_state(free_rng) for _ in range(3)]

        def offdiag(x):
            marg = partial_trace_mat(lam.apply_mat(x), (2, 4), [0])
            return float(np.max(np.abs(marg - np.diag(np.diag(marg)))))

        basis = max(offdiag(np.kron(mu, b)) for mu in mus for b in spanning_states((2, 2)))
        direct = max(offdiag(np.kron(mu, PHI)) for mu in mus)
        assert not rep.certified and basis > 1e-3
        assert abs(rep.basis_offdiag - basis) <= 1e-12
        assert abs(rep.direct_offdiag - direct) <= 1e-12

    def test_verified_family_certified(self):
        for lam in rng_verified_channel_family(5, seed=5):
            rep = laws.nogo_entanglement_to_coherence(lam, INC2, n_free_inputs=4)
            assert rep.certified

    def test_product_preparation_certified(self):
        diag = density(np.diag([0.4, 0.6]))
        sep_state = density(th.SeparableTwoQubit().random_state(np.random.default_rng(6)),
                            single_party(4))
        struct = TensorStructure([("1", 2), ("2", 4)])
        prep = ch.product_channel(
            [ch.prepare_channel(diag, single_party(2)),
             ch.prepare_channel(sep_state, single_party(4))],
            ["1", "2"],
        )
        rep = laws.nogo_entanglement_to_coherence(prep, INC2, n_free_inputs=4)
        assert rep.certified
