import dataclasses
import pickle

import numpy as np
import pytest

from hetres import qcore
from hetres.qcore import (
    KET0,
    KET1,
    KET_PLUS,
    KET_PLUS_Y,
    PAULI_X,
    TensorStructure,
    bell_phi_plus_vec,
    dephase,
    density,
    eig_hermitian,
    hermitian_basis,
    kron,
    kron_all,
    mat_from_json,
    mat_to_json,
    maximally_mixed,
    partial_trace,
    partial_trace_mat,
    partial_transpose,
    permute_parties,
    pure_state,
    random_density_mat,
    random_hermitian,
    relative_entropy,
    single_party,
    spanning_states,
    tensor,
    trace_norm,
    trace_norm_distance,
    von_neumann_entropy,
)

S1 = single_party(2, "1")
AB = TensorStructure([("A", 2), ("B", 2)])


def bell_state():
    return pure_state(bell_phi_plus_vec(2), AB)


class TestTensor:
    def test_basis_product(self):
        out = tensor(pure_state(KET0, single_party(2, "a")), pure_state(KET0, single_party(2, "b")))
        expected = np.zeros((4, 4))
        expected[0, 0] = 1.0
        assert np.allclose(out.mat, expected)

    def test_mixed_product(self):
        out = tensor(maximally_mixed(single_party(2, "a")), maximally_mixed(single_party(2, "b")))
        assert np.allclose(out.mat, np.eye(4) / 4)

    def test_plus_with_pair_is_rank_one(self):
        ket00 = np.zeros(4)
        ket00[0] = 1.0
        out = tensor(pure_state(KET_PLUS, single_party(2, "1")), pure_state(ket00, single_party(4, "2")))
        assert out.dim == 8
        lam = np.linalg.eigvalsh(out.mat)
        assert abs(lam[-1] - 1.0) < 1e-12 and np.all(lam[:-1] < 1e-12)

    def test_label_collision_rejected(self):
        with pytest.raises(ValueError):
            tensor(maximally_mixed(S1), maximally_mixed(S1))


class TestTensorStructure:
    @pytest.mark.parametrize("make", [
        lambda: single_party(3, "A"),
        lambda: TensorStructure([("A", 2), ("B", 3)]),
        lambda: single_party(2, "A").concat(TensorStructure([("B", 3), ("C", 4)])),
    ], ids=["single-party", "two-party", "concat"])
    def test_derived_fields_follow_the_parties(self, make):
        # labels, dims and dim are set once at construction; equality and
        # hashing stay on parties, and a pickle round trip keeps everything
        struct = make()
        labels, dims = tuple(lbl for lbl, _ in struct.parties), tuple(d for _, d in struct.parties)
        twins = [struct, make(), pickle.loads(pickle.dumps(struct))]
        for twin in twins:
            assert twin.parties == struct.parties
            assert (twin.labels, twin.dims, twin.dim) == (labels, dims, int(np.prod(dims)))
            assert type(twin.dim) is int
        assert len({twin: None for twin in twins}) == 1
        assert len({hash(twin) for twin in twins}) == 1
        assert struct != TensorStructure((lbl + "'", d) for lbl, d in struct.parties)  # same dims
        with pytest.raises(dataclasses.FrozenInstanceError):
            struct.dim = 1


class TestPartialTrace:
    def test_product_factors(self):
        rng = np.random.default_rng(0)
        a = density(random_density_mat(rng, 2), single_party(2, "A"))
        b = density(random_density_mat(rng, 3), single_party(3, "B"))
        joint = tensor(a, b)
        assert np.max(np.abs(partial_trace(joint, ["A"]).mat - a.mat)) < 1e-12
        assert np.max(np.abs(partial_trace(joint, ["B"]).mat - b.mat)) < 1e-12

    def test_bell_marginal_maximally_mixed(self):
        assert np.allclose(partial_trace(bell_state(), ["A"]).mat, np.eye(2) / 2)

    def test_three_party_factor(self):
        rng = np.random.default_rng(1)
        parts = [density(random_density_mat(rng, 2), single_party(2, lbl)) for lbl in "xyz"]
        joint = tensor(tensor(parts[0], parts[1]), parts[2])
        assert np.max(np.abs(partial_trace(joint, ["y"]).mat - parts[1].mat)) < 1e-12

    def test_unknown_label(self):
        with pytest.raises(KeyError):
            partial_trace(bell_state(), ["C"])

    @pytest.mark.parametrize("keep", [[0], [1], [2], [0, 2], [1, 2], []])
    def test_stack_equals_the_per_matrix_loop(self, keep):
        rng = np.random.default_rng(5)
        dims = (2, 3, 2)
        stack = np.stack([random_density_mat(rng, 12) for _ in range(6)]).reshape(2, 3, 12, 12)
        out = partial_trace_mat(stack, dims, keep)
        d_keep = int(np.prod([dims[i] for i in keep]))
        assert out.shape == (2, 3, d_keep, d_keep)
        for idx in np.ndindex(2, 3):
            assert np.array_equal(out[idx], partial_trace_mat(stack[idx], dims, keep))


class TestKron:
    def test_equals_numpy_kron_exactly(self):
        rng = np.random.default_rng(6)
        shapes = [(m, n) for m in range(1, 5) for n in range(1, 5)]  # bras (1, n) and kets (m, 1) too
        for sa in shapes:
            for sb in shapes:
                a = rng.normal(size=sa) + 1j * rng.normal(size=sa)
                b = rng.normal(size=sb) + 1j * rng.normal(size=sb)
                assert np.array_equal(kron(a, b), np.kron(a, b))
                assert np.array_equal(kron(a.real, b), np.kron(a.real, b))

    def test_stack_equals_the_loop(self):
        rng = np.random.default_rng(7)
        a = rng.normal(size=(5, 1, 2, 3)) + 1j * rng.normal(size=(5, 1, 2, 3))
        b = rng.normal(size=(4, 3, 2)) + 1j * rng.normal(size=(4, 3, 2))
        out = kron(a, b)
        assert out.shape == (5, 4, 6, 6)
        for i, j in np.ndindex(5, 4):
            assert np.array_equal(out[i, j], np.kron(a[i, 0], b[j]))

    def test_kron_all(self):
        assert np.array_equal(kron_all([]), np.array([[1.0]]))
        rng = np.random.default_rng(8)
        mats = [random_density_mat(rng, d) for d in (2, 3, 2)]
        assert np.array_equal(kron_all(mats), np.kron(np.kron(np.kron([[1.0 + 0j]], mats[0]), mats[1]), mats[2]))


class TestSpanningStates:
    @pytest.mark.parametrize("dims", [(2, 2), (3,), (2, 3)])
    def test_product_states_span_the_matrices(self, dims):
        states = spanning_states(dims)
        d = int(np.prod(dims))
        assert states.shape == (d * d, d, d)
        assert np.linalg.matrix_rank(states.reshape(d * d, -1)) == d * d
        assert np.allclose(np.einsum("kaa->k", states), 1.0)
        assert np.allclose(states @ states, states)  # pure

    def test_qubit_pair_order(self):
        # |0>, |1>, |+>, |+i> on each qubit, the first qubit's index outermost
        singles = [np.outer(k, k.conj()) for k in (KET0, KET1, KET_PLUS, KET_PLUS_Y)]
        expected = np.stack([np.kron(a, b) for a in singles for b in singles])
        assert np.array_equal(spanning_states((2, 2)), expected)


def _hermitian_basis_loop(n, restrict):
    """The unit-by-unit construction the vectorised basis must reproduce bit for bit."""
    out = []
    for a in range(n):
        for b in range(a, a + 1 if restrict == "diagonal" else n):
            e = np.zeros((n, n), dtype=float if restrict else complex)
            e[a, b] = e[b, a] = 1.0 if a == b else np.sqrt(0.5)
            out.append(e)
            if restrict is None and a != b:
                out.append(1j * (np.triu(e) - np.tril(e)))
    return np.stack(out) if out else np.zeros((0, n, n))


class TestHermitianBasis:
    @pytest.mark.parametrize("restrict", [None, "real", "diagonal"])
    @pytest.mark.parametrize("n", range(7))
    def test_matches_the_unit_by_unit_loop(self, n, restrict):
        got, expected = hermitian_basis(n, restrict), _hermitian_basis_loop(n, restrict)
        assert (got.dtype, got.shape) == (expected.dtype, expected.shape)
        assert got.tobytes() == expected.tobytes()  # signed zeros included


class TestEig:
    def test_pauli_x(self):
        w, _ = eig_hermitian(PAULI_X)
        assert np.allclose(w, [-1.0, 1.0])

    def test_mixed_and_pure(self):
        w, _ = eig_hermitian(np.eye(2) / 2)
        assert np.allclose(w, [0.5, 0.5])
        w, _ = eig_hermitian(np.outer(KET_PLUS_Y, KET_PLUS_Y.conj()))
        assert np.allclose(w, [0.0, 1.0], atol=1e-12)

    @pytest.mark.parametrize("dim", [2, 3, 4, 8, 16])
    def test_reconstruction_residual(self, dim):
        rng = np.random.default_rng(dim)
        for _ in range(1000):
            m = random_hermitian(rng, dim)
            w, v = eig_hermitian(m)
            recon = (v * w) @ v.conj().T
            assert np.max(np.abs(recon - m)) < 1e-9
            assert np.max(np.abs(v.conj().T @ v - np.eye(dim))) < 1e-9

    def test_non_hermitian_rejected(self):
        with pytest.raises(ValueError):
            eig_hermitian(np.array([[0, 1], [0, 0]], dtype=complex))


class TestEntropies:
    def test_pure_zero(self):
        assert abs(von_neumann_entropy(pure_state(KET_PLUS, S1))) < 1e-12

    def test_mixed(self):
        assert abs(von_neumann_entropy(maximally_mixed(S1)) - 1.0) < 1e-12
        s4 = single_party(4)
        assert abs(von_neumann_entropy(maximally_mixed(s4)) - 2.0) < 1e-12

    def test_relative_entropy_self(self):
        rng = np.random.default_rng(2)
        rho = random_density_mat(rng, 3)
        assert abs(relative_entropy(rho, rho)) < 1e-10

    def test_relative_entropy_pure_vs_mixed(self):
        assert abs(relative_entropy(pure_state(KET0, S1), maximally_mixed(S1)) - 1.0) < 1e-12

    def test_relative_entropy_vs_dephased(self):
        # independent check: D(rho||diag rho) from the defining formula,
        # term by term
        plus = pure_state(KET_PLUS, S1)
        deph = dephase(plus)
        lam = np.linalg.eigvalsh(plus.mat)
        lam = lam[lam > 1e-12]
        direct = float(np.sum(lam * np.log2(lam)))
        direct -= float(
            np.real(np.trace(plus.mat @ np.diag(np.log2(np.diag(deph.mat).real))))
        )
        assert abs(direct - 1.0) < 1e-12
        assert abs(relative_entropy(plus, deph) - direct) < 1e-12

    def test_support_mismatch_infinite(self):
        assert relative_entropy(pure_state(KET0, S1), pure_state(KET1, S1)) == float("inf")

    @staticmethod
    def _one_pair(rho, sigma):
        # the single-matrix formula term by term: the kernel's trace overlap, then
        # sum lambda log2 lambda - <v_j|rho|v_j> log2 w_j over sigma's eigenpairs
        wb, vb = np.linalg.eigh(sigma)
        kernel = vb[:, wb <= 1e-12]
        if kernel.shape[1] and np.real(np.trace(kernel.conj().T @ rho @ kernel)) > 1e-10:
            return float("inf")
        lam = np.linalg.eigvalsh(rho)
        lam = lam[lam > 1e-12]
        diag = np.real(np.einsum("ij,jk,ki->i", vb.conj().T, rho, vb))
        return float(np.sum(lam * np.log2(lam)) - np.dot(diag, np.log2(np.clip(wb, 1e-12, None))))

    @pytest.mark.parametrize("d", [2, 4, 9, 16])
    @pytest.mark.parametrize("full_rank", [False, True])
    def test_relative_entropy_over_a_stack(self, d, full_rank):
        rng = np.random.default_rng([d, int(full_rank)])
        rho = random_density_mat(rng, d, d if full_rank else 1)
        top = np.linalg.eigh(rho)[1][:, -1]
        leaking = (np.eye(d) - np.outer(top, top.conj())) / (d - 1)
        stack = np.stack([random_density_mat(rng, d), leaking, rho, np.eye(d) / d])
        values = relative_entropy(rho, stack)
        assert values.shape == (4,) and values[1] == float("inf")
        expected = [self._one_pair(rho, s) for s in stack]
        assert np.isinf(expected[1])
        finite, expected = np.delete(values, 1), np.delete(expected, 1)
        assert np.all(np.isfinite(finite)) and np.max(np.abs(finite - expected)) <= 1e-14
        assert np.array_equal(relative_entropy(rho, stack.reshape(2, 2, d, d)), values.reshape(2, 2))

    def test_relative_entropy_takes_rho_entropy_from_the_one_rule(self, monkeypatch):
        # the -S(rho) term is von_neumann_entropy's, so D(rho||I/d) = log2 d - S(rho)
        rho = random_density_mat(np.random.default_rng(7), 4)
        seen = []
        monkeypatch.setattr(qcore, "von_neumann_entropy", lambda m: seen.append(m) or 0.25)
        assert abs(relative_entropy(rho, np.eye(4) / 4) - (2.0 - 0.25)) <= 1e-14
        assert len(seen) == 1 and np.array_equal(seen[0], rho)


class TestDephase:
    def test_diagonal_fixed(self):
        rho = density(np.diag([0.7, 0.3]), S1)
        assert np.allclose(dephase(rho).mat, rho.mat)

    def test_plus_to_mixed(self):
        assert np.allclose(dephase(pure_state(KET_PLUS, S1)).mat, np.eye(2) / 2)
        assert np.allclose(dephase(pure_state(KET_PLUS_Y, S1)).mat, np.eye(2) / 2)

    def test_rotated_basis(self):
        h = np.array([[1, 1], [1, -1]]) / np.sqrt(2)
        rho = pure_state(KET_PLUS, S1)
        out = dephase(rho, basis=h)
        assert np.max(np.abs(out.mat - rho.mat)) < 1e-12

    def test_non_orthonormal_rejected(self):
        with pytest.raises(ValueError):
            dephase(pure_state(KET0, S1), basis=np.array([[1, 1], [0, 1]], dtype=complex))


class TestPartialTranspose:
    def test_product_stays_psd(self):
        rng = np.random.default_rng(3)
        joint = tensor(
            density(random_density_mat(rng, 2), single_party(2, "A")),
            density(random_density_mat(rng, 2), single_party(2, "B")),
        )
        pt = partial_transpose(joint, "B")
        assert np.linalg.eigvalsh(pt)[0] > -1e-12

    def test_bell_negative_eigenvalue(self):
        pt = partial_transpose(bell_state(), "B")
        assert abs(np.linalg.eigvalsh(pt)[0] + 0.5) < 1e-12

    def test_separable_mixture_psd(self):
        rng = np.random.default_rng(4)
        mix = np.zeros((4, 4), dtype=complex)
        for _ in range(6):
            a = random_density_mat(rng, 2, rank=1)
            b = random_density_mat(rng, 2, rank=1)
            mix += np.kron(a, b) / 6
        pt = partial_transpose(density(mix, AB), "B")
        assert np.linalg.eigvalsh(pt)[0] > -1e-10


class TestTraceNorm:
    def test_identical(self):
        rho = maximally_mixed(S1)
        assert trace_norm_distance(rho, rho) == 0.0

    def test_orthogonal_pure(self):
        assert abs(trace_norm_distance(pure_state(KET0, S1), pure_state(KET1, S1)) - 2.0) < 1e-12

    def test_pure_vs_mixed(self):
        # eigensolve oracle: diff = diag(1/2, -1/2)
        assert abs(trace_norm_distance(pure_state(KET0, S1), maximally_mixed(S1)) - 1.0) < 1e-12

    def test_stack_equals_the_per_matrix_loop(self):
        rng = np.random.default_rng(8)
        stack = np.stack([random_hermitian(rng, 5) for _ in range(6)]).reshape(2, 3, 5, 5)
        out = trace_norm(stack)
        assert out.shape == (2, 3)
        for idx in np.ndindex(2, 3):
            one = trace_norm(stack[idx])
            assert isinstance(one, float)
            assert out[idx] == one
            assert abs(one - np.sum(np.abs(np.linalg.eigvalsh(stack[idx])))) < 1e-12


class TestInvariants:
    def test_trace_commutes_with_tensor(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            a = density(random_density_mat(rng, 2), single_party(2, "A"))
            b = density(random_density_mat(rng, 2), single_party(2, "B"))
            joint = tensor(a, b)
            assert np.max(np.abs(partial_trace(joint, ["A"]).mat - a.mat)) < 1e-12

    def test_data_processing_partial_trace(self):
        rng = np.random.default_rng(6)
        for _ in range(50):
            rho = density(random_density_mat(rng, 4), AB)
            sig = density(random_density_mat(rng, 4), AB)
            joint = relative_entropy(rho, sig)
            local = relative_entropy(partial_trace(rho, ["A"]), partial_trace(sig, ["A"]))
            assert joint >= local - 1e-8

    def test_splitting_against_product_reference(self):
        rng = np.random.default_rng(7)
        for _ in range(30):
            rho = density(random_density_mat(rng, 4), AB)
            sa = density(random_density_mat(rng, 2), single_party(2, "A"))
            sb = density(random_density_mat(rng, 2), single_party(2, "B"))
            lhs = relative_entropy(rho, tensor(sa, sb))
            ra, rb = partial_trace(rho, ["A"]), partial_trace(rho, ["B"])
            rhs = (
                relative_entropy(rho, tensor(ra, rb))
                + relative_entropy(ra, sa)
                + relative_entropy(rb, sb)
            )
            assert abs(lhs - rhs) < 1e-8

    def test_permutation_roundtrip(self):
        rng = np.random.default_rng(8)
        rho = density(random_density_mat(rng, 6), TensorStructure([("A", 2), ("B", 3)]))
        back = permute_parties(permute_parties(rho, ["B", "A"]), ["A", "B"])
        assert np.max(np.abs(back.mat - rho.mat)) < 1e-12


class TestValidation:
    def test_trace_enforced(self):
        with pytest.raises(ValueError):
            density(np.eye(2))

    def test_positivity_enforced(self):
        with pytest.raises(ValueError):
            density(np.diag([1.5, -0.5]))

    def test_structure_dim_must_match(self):
        with pytest.raises(ValueError):
            density(np.eye(2) / 2, TensorStructure([("A", 4)]))


def test_matrix_literal_roundtrip():
    rng = np.random.default_rng(9)
    m = random_density_mat(rng, 3)
    again = mat_from_json(mat_to_json(m))
    assert np.max(np.abs(again - m)) < 1e-15
