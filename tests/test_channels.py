import numpy as np
import pytest

from hetres import certify as ct
from hetres import channels as ch
from hetres import theories as th
from hetres.qcore import (
    KET0,
    KET_PLUS,
    PAULI_X,
    TensorStructure,
    bell_phi_plus_vec,
    density,
    embed_operator,
    maximally_mixed,
    partial_trace_mat,
    pure_state,
    random_density_mat,
    random_hermitian,
    random_pure_vec,
    single_party,
    trace_norm,
)
from hetres.scenarios import coherence_to_entanglement_channel, rotated_bell_preparation

S1 = single_party(2, "1")
S12 = TensorStructure([("1", 2), ("2", 2)])


class TestApplyCompose:
    def test_identity(self):
        rng = np.random.default_rng(0)
        rho = density(random_density_mat(rng, 4), S12)
        out = ch.apply(ch.identity_channel(S12), rho)
        assert np.max(np.abs(out.mat - rho.mat)) < 1e-14

    def test_pauli_x_flips(self):
        out = ch.apply(ch.unitary_channel(PAULI_X, S1), pure_state(KET0, S1))
        assert np.allclose(out.mat, np.diag([0.0, 1.0]))

    def test_conversion_channel_forward(self):
        lam = coherence_to_entanglement_channel()
        ket00 = np.zeros(4)
        ket00[0] = 1.0
        inp = np.kron(np.outer(KET_PLUS, KET_PLUS.conj()), np.outer(ket00, ket00))
        v = bell_phi_plus_vec(2)
        target = np.kron(np.diag([1.0, 0.0]), np.outer(v, v.conj()))
        assert trace_norm(lam.apply_mat(inp) - target) < 1e-12

    def test_compose_with_identity(self):
        rng = np.random.default_rng(1)
        lam = ch.random_channel(rng, 2, 2, 2)
        composed = ch.compose(ch.identity_channel(single_party(2, "0")), lam)
        rho = random_density_mat(rng, 2)
        assert np.max(np.abs(composed.apply_mat(rho) - lam.apply_mat(rho))) < 1e-12

    def test_rotated_preparation_is_constant(self):
        lam_p = rotated_bell_preparation()
        rng = np.random.default_rng(2)
        target = np.zeros((4, 4))
        target[0, 0] = 1.0
        for _ in range(5):
            rho = random_density_mat(rng, 4)
            assert trace_norm(lam_p.apply_mat(rho) - target) < 1e-10

    def test_double_dephasing_idempotent(self):
        deph = ch.KrausChannel(
            (np.diag([1.0, 0.0]).astype(complex), np.diag([0.0, 1.0]).astype(complex)),
            S1,
            S1,
        )
        twice = ch.compose(deph, deph)
        rng = np.random.default_rng(3)
        rho = random_density_mat(rng, 2)
        assert np.max(np.abs(twice.apply_mat(rho) - deph.apply_mat(rho))) < 1e-14

    def test_dimension_mismatch(self):
        lam = ch.identity_channel(S1)
        with pytest.raises(ValueError):
            lam.apply_mat(np.eye(4) / 4)


SUPEROP_DIMS = [(1, 1), (2, 3), (3, 2), (2, 6), (4, 4), (9, 9)]


def _random_mats(rng, *shape):
    return rng.normal(size=shape) + 1j * rng.normal(size=shape)


class TestSuperoperator:
    """The superoperator paths against loops over the Kraus family."""

    @pytest.mark.parametrize("d_in,d_out", SUPEROP_DIMS)
    @pytest.mark.parametrize("lead", [(), (5,), (2, 3)])
    def test_apply_matches_kraus_loop(self, d_in, d_out, lead):
        rng = np.random.default_rng(d_in * 10 + d_out)
        lam = ch.random_channel(rng, d_in, d_out, n_kraus=3)
        m = _random_mats(rng, *lead, d_in, d_in)
        ref = np.zeros((*lead, d_out, d_out), dtype=complex)
        for k in lam.kraus:
            ref += k @ m @ k.conj().T
        out = lam.apply_mat(m)
        assert out.shape == ref.shape
        assert np.max(np.abs(out - ref)) < 1e-13

    @pytest.mark.parametrize("d_in,d_out", SUPEROP_DIMS)
    @pytest.mark.parametrize("lead", [(0,), (0, 3), (3, 0)])
    def test_empty_stack_maps_to_an_empty_stack(self, d_in, d_out, lead):
        lam = ch.random_channel(np.random.default_rng(d_in * 10 + d_out), d_in, d_out, n_kraus=3)
        assert lam.apply_mat(np.zeros((*lead, d_in, d_in))).shape == (*lead, d_out, d_out)
        assert lam.adjoint_mat(np.zeros((*lead, d_out, d_out))).shape == (*lead, d_in, d_in)

    @pytest.mark.parametrize("d_in,d_out", SUPEROP_DIMS)
    def test_adjoint_matches_kraus_loop(self, d_in, d_out):
        rng = np.random.default_rng(d_in * 10 + d_out + 1)
        lam = ch.random_channel(rng, d_in, d_out, n_kraus=3)
        g, x = _random_mats(rng, d_out, d_out), _random_mats(rng, d_in, d_in)
        ref = np.zeros((d_in, d_in), dtype=complex)
        for k in lam.kraus:
            ref += k.conj().T @ g @ k
        assert np.max(np.abs(lam.adjoint_mat(g) - ref)) < 1e-13
        lhs = np.trace(g @ lam.apply_mat(x))
        assert abs(lhs - np.trace(lam.adjoint_mat(g) @ x)) < 1e-12

    @pytest.mark.parametrize("joint", [False, True])
    def test_pullback_is_adjoint_of_reference_image(self, joint):
        rng = np.random.default_rng(14)
        if joint:
            struct = TensorStructure([("A", 3), ("B", 2)])
            lam = ch.KrausChannel(ch.random_channel(rng, 6, 6, n_kraus=3).kraus, struct, struct)
            aux_mat = np.eye(2) / 2
            image = ct._ImageSet(th.Incoherent(3), lam)
        else:
            lam = ch.random_channel(rng, 3, 2, n_kraus=3)
            image = ct._ImageSet(th.Incoherent(3), lam)

        def reference_image(x):
            full = np.kron(x, aux_mat) if joint else x
            out = np.zeros((lam.dim_out, lam.dim_out), dtype=complex)
            for k in lam.kraus:
                out += k @ full @ k.conj().T
            return partial_trace_mat(out, (3, 2), [1]) if joint else out

        g = random_hermitian(rng, 2)
        units = np.eye(9, dtype=complex).reshape(9, 3, 3)
        # Tr(x P) = sum_ab x[a, b] P[b, a], so P[b, a] = Tr(G image(|a><b|))
        ref = np.array([np.trace(g @ reference_image(u)) for u in units]).reshape(3, 3).T
        assert np.max(np.abs(image.pullback(g) - ref)) < 1e-13

    @pytest.mark.parametrize("d_in,d_out", SUPEROP_DIMS)
    def test_choi_matches_outer_products(self, d_in, d_out):
        rng = np.random.default_rng(d_in * 10 + d_out + 2)
        lam = ch.random_channel(rng, d_in, d_out, n_kraus=3)
        ref = np.zeros((d_in * d_out, d_in * d_out), dtype=complex)
        for k in lam.kraus:
            v = k.T.reshape(-1)
            ref += np.outer(v, v.conj())
        assert np.max(np.abs(ch.choi_matrix(lam) - ref)) < 1e-13

    def test_superoperator_is_cached(self):
        lam = ch.random_channel(np.random.default_rng(15), 2, 3)
        assert lam.superoperator is lam.superoperator
        assert lam.superoperator.shape == (9, 4)

    def test_small_trace_deviation_rejected(self):
        with pytest.raises(ValueError, match="not trace preserving"):
            ch.KrausChannel((np.sqrt(1 + 2e-9) * np.eye(2),), S1, S1)
        ch.KrausChannel((np.sqrt(1 + 5e-10) * np.eye(2),), S1, S1)


class TestMarginalChannel:
    def test_recovers_local_factor(self):
        rng = np.random.default_rng(4)
        ca = ch.random_channel(rng, 2, 2, 2)
        cb = ch.random_channel(rng, 3, 3, 2)
        prod = ch.product_channel([ca, cb], ["1", "2"])
        frozen = {"2": density(random_density_mat(rng, 3), single_party(3, "2"))}
        marg = ch.marginal_channel(prod, "1", frozen)
        for i in range(2):
            for j in range(2):
                unit = np.zeros((2, 2), dtype=complex)
                unit[i, j] = 1.0
                assert np.max(np.abs(marg.apply_mat(unit) - ca.apply_mat(unit))) < 1e-12

    def test_rotated_preparation_marginal_not_unital(self):
        lam_p = rotated_bell_preparation()
        marg = ch.marginal_channel(lam_p, "1", {"2": maximally_mixed(single_party(2, "2"))})
        image = marg.apply_mat(np.eye(2, dtype=complex) / 2)
        assert abs(trace_norm(image - np.eye(2) / 2) - 1.0) < 1e-10
        assert not ch.is_unital(marg)

    def test_swap_then_prepare_reduces_to_preparation(self):
        # swap the parties, then overwrite party 2 with a fixed state: the
        # marginal at party 1 prepares whatever was frozen there
        rng = np.random.default_rng(5)
        omega = density(random_density_mat(rng, 2), single_party(2, "2"))
        mu = density(random_density_mat(rng, 2), single_party(2, "2"))
        swap = np.eye(4)[[0, 2, 1, 3]].astype(complex)
        prep2 = ch.product_channel(
            [ch.identity_channel(single_party(2)), ch.prepare_channel(omega, single_party(2))],
            ["1", "2"],
        )
        lam = ch.compose(prep2, ch.unitary_channel(swap, S12))
        marg = ch.marginal_channel(lam, "1", {"2": mu})
        for i in range(2):
            for j in range(2):
                unit = np.zeros((2, 2), dtype=complex)
                unit[i, j] = 1.0
                expected = unit.trace() * mu.mat
                assert np.max(np.abs(marg.apply_mat(unit) - expected)) < 1e-12

    def test_direct_matches_choi(self):
        # every party as target, 1-dimensional parties and frozen inputs of
        # every rank, rank-deficient ones included
        rng = np.random.default_rng(6)
        for dims in [(2, 2), (3, 2), (1, 3), (2, 2, 2), (2, 1, 3)]:
            labels = [str(i + 1) for i in range(len(dims))]
            struct = TensorStructure(zip(labels, dims))
            raw = ch.random_channel(rng, struct.dim, struct.dim, 3)
            lam = ch.KrausChannel(raw.kraus, struct, struct)
            for target, d_t in zip(labels, dims):
                frozen = {
                    lbl: density(random_density_mat(rng, d, 1 + i % d), single_party(d, lbl))
                    for i, (lbl, d) in enumerate(zip(labels, dims)) if lbl != target
                }
                direct = ch.marginal_channel(lam, target, frozen)
                choi = ch._marginal_choi(lam, target, frozen, d_t)
                d_out = choi.shape[0] // d_t
                via_choi = ch.KrausChannel(tuple(ch.kraus_from_choi(choi, d_t, d_out)),
                                           single_party(d_t, target), single_party(d_out, target))
                for i in range(d_t):
                    for j in range(d_t):
                        unit = np.zeros((d_t, d_t), dtype=complex)
                        unit[i, j] = 1.0
                        diff = direct.apply_mat(unit) - via_choi.apply_mat(unit)
                        assert np.max(np.abs(diff)) < 1e-11

    def test_missing_frozen_input(self):
        lam = ch.identity_channel(S12)
        with pytest.raises(ValueError):
            ch.marginal_channel(lam, "1", {})


class TestPrepare:
    @pytest.mark.parametrize("d", [1, 2, 3, 4, 8, 16])
    def test_identity_eigenbasis_is_exact(self, d):
        # the trivial POVM {I} measures in the basis eigh returns for I
        w, v = np.linalg.eigh(np.eye(d))
        assert np.array_equal(w, np.ones(d)) and np.array_equal(v, np.eye(d))

    @pytest.mark.parametrize("seed, rank", [(0, 1), (1, 2), (2, 3), (3, 1)])
    def test_kraus_set_is_trivial_measure_and_prepare(self, seed, rank):
        rng = np.random.default_rng(seed)
        state = density(random_density_mat(rng, 3, rank))
        ins = single_party(2)
        prep = ch.prepare_channel(state, ins)
        mp = ch.measure_prepare_channel([np.eye(2)], [state], ins)
        assert len(prep.kraus) == 2 * rank
        assert all(np.array_equal(a, b) for a, b in zip(prep.kraus, mp.kraus))
        # sqrt(w_a) |v_a><b| for every eigenpair of the state and input basis state b
        w, v = np.linalg.eigh(state.mat)
        ref = [np.sqrt(w[a]) * np.outer(v[:, a], np.eye(2)[b]) for a in range(3) if w[a] > 1e-14
               for b in range(2)]
        key = lambda k: tuple(np.round(np.abs(k).ravel(), 12))
        assert np.allclose(sorted(prep.kraus, key=key), sorted(ref, key=key), atol=1e-15)
        x = random_density_mat(rng, 2)
        assert np.max(np.abs(prep.apply_mat(x) - state.mat)) < 1e-14


class TestUnital:
    def test_unitary_is_unital(self):
        rng = np.random.default_rng(7)
        from hetres.qcore import random_unitary

        lam = ch.unitary_channel(random_unitary(rng, 3), single_party(3))
        assert ch.is_unital(lam)

    def test_constant_map_is_not(self):
        prep = ch.prepare_channel(pure_state(KET0, S1), S1)
        assert not ch.is_unital(prep)

    def test_dephasing_is_unital(self):
        deph = ch.KrausChannel(
            (np.diag([1.0, 0.0]).astype(complex), np.diag([0.0, 1.0]).astype(complex)),
            S1,
            S1,
        )
        assert ch.is_unital(deph)


class TestChoi:
    def test_kraus_roundtrip(self):
        rng = np.random.default_rng(8)
        lam = ch.random_channel(rng, 3, 2, 2)
        ops = ch.kraus_from_choi(ch.choi_matrix(lam), 3, 2)
        again = ch.KrausChannel(tuple(ops), lam.in_structure, lam.out_structure)
        rho = random_density_mat(rng, 3)
        assert np.max(np.abs(again.apply_mat(rho) - lam.apply_mat(rho))) < 1e-12


def _teleportation_protocol():
    """Shared-pair teleportation as a two-round protocol: party B measures
    its two qubits in the maximally entangled basis, party A applies the
    conditioned correction."""
    struct = TensorStructure([("A", 2), ("B", 4)])
    v = bell_phi_plus_vec(2)
    x = np.array([[0, 1], [1, 0]], dtype=complex)
    z = np.diag([1.0, -1.0]).astype(complex)
    paulis = [np.eye(2, dtype=complex), x, z, x @ z]
    bell_vecs = [np.kron(np.eye(2), p) @ v for p in paulis]
    measure = {"": [np.outer(b, b.conj()) for b in bell_vecs]}
    round1 = ch.LfoccRound("B", measure)
    corrections = {str(i): [p.conj().T] for i, p in enumerate(paulis)}
    round2 = ch.LfoccRound("A", corrections)
    return ch.LfoccProtocol(struct, (round1, round2))


class TestLfocc:
    def test_identity_rounds_compile_to_identity(self):
        struct = S12
        rnd = ch.LfoccRound("1", {"": [np.eye(2, dtype=complex)]})
        proto = ch.LfoccProtocol(struct, (rnd,))
        lam = ch.compile_lfocc(proto)
        rng = np.random.default_rng(9)
        rho = random_density_mat(rng, 4)
        assert np.max(np.abs(lam.apply_mat(rho) - rho)) < 1e-12

    def test_teleportation_prepares_pure_state(self):
        proto = _teleportation_protocol()
        lam = ch.compile_lfocc(proto)
        rng = np.random.default_rng(10)
        psi = random_pure_vec(rng, 2)
        # input: shared pair on (A, first B qubit), teleported state on the
        # second B qubit
        v = bell_phi_plus_vec(2)
        inp = np.kron(np.outer(v, v.conj()), np.outer(psi, psi.conj()))
        perm = np.eye(8).reshape(2, 2, 2, 8)
        perm = np.transpose(perm, (0, 1, 2, 3)).reshape(8, 8)  # (A, b1, psi) already ordered
        out = lam.apply_mat(inp)
        marg_a = partial_trace_mat(out, (2, 4), [0])
        fidelity = float(np.real(psi.conj() @ marg_a @ psi))
        assert fidelity > 1 - 1e-10

    def test_compile_matches_branch_enumeration(self):
        rng = np.random.default_rng(11)
        struct = S12
        classes = {"1": th.Sio(), "2": th.RealOps()}
        proto = th.random_lfocc_protocol(rng, struct, classes, 3, order=["1", "2", "1"])
        lam = ch.compile_lfocc(proto)
        rho = random_density_mat(rng, 4)
        total = np.zeros((4, 4), dtype=complex)
        branches = [("", np.eye(4, dtype=complex))]
        for rnd in proto.rounds:
            nxt = []
            for hist, op in branches:
                for l, k in enumerate(rnd.branches[hist]):
                    full = embed_operator(k, struct, rnd.party)
                    nxt.append((f"{hist},{l}" if hist else str(l), full @ op))
            branches = nxt
        for _, op in branches:
            total += op @ rho @ op.conj().T
        assert np.max(np.abs(total - lam.apply_mat(rho))) < 1e-12

    def test_branch_cap(self):
        struct = S12
        fam = {"": [np.eye(2, dtype=complex) / np.sqrt(3)] * 3}
        rounds = []
        histories = [""]
        for r in range(5):
            branches = {}
            new_hist = []
            for h in histories:
                branches[h] = [np.eye(2, dtype=complex) / np.sqrt(3)] * 3
                for l in range(3):
                    new_hist.append(f"{h},{l}" if h else str(l))
            rounds.append(ch.LfoccRound("1", branches))
            histories = new_hist
        proto = ch.LfoccProtocol(struct, tuple(rounds))
        with pytest.raises(ValueError, match="branch cap"):
            ch.compile_lfocc(proto)

    def test_missing_history_rejected(self):
        struct = S12
        r1 = ch.LfoccRound("1", {"": [np.eye(2, dtype=complex) / np.sqrt(2)] * 2})
        r2 = ch.LfoccRound("2", {"0": [np.eye(2, dtype=complex)]})
        proto = ch.LfoccProtocol(struct, (r1, r2))
        with pytest.raises(ValueError, match="history"):
            ch.compile_lfocc(proto)

    def test_nonlocal_round_rejected(self):
        struct = S12
        cnot = np.array(
            [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]], dtype=complex
        )
        with pytest.raises(ValueError, match="Kraus shape"):
            ch.LfoccProtocol(struct, (ch.LfoccRound("1", {"": (cnot,)}),))

    def test_branch_not_trace_preserving_on_its_party_rejected(self):
        # a projector alone drops the weight on |1>
        half = np.diag([1.0, 0.0]).astype(complex)
        with pytest.raises(ValueError, match="history '0'.*not trace preserving"):
            ch.LfoccProtocol(S12, (
                ch.LfoccRound("1", {"": [np.eye(2, dtype=complex)]}),
                ch.LfoccRound("2", {"0": [half]}),
            ))


def test_channel_json_roundtrip():
    rng = np.random.default_rng(13)
    lam = ch.random_channel(rng, 2, 3, 2)
    again = ch.channel_from_json(lam.to_json())
    rho = random_density_mat(rng, 2)
    assert np.max(np.abs(again.apply_mat(rho) - lam.apply_mat(rho))) < 1e-12
