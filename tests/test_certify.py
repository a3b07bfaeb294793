import math

import numpy as np
import pytest

from hetres import certify as ct
from hetres import channels as ch
from hetres import divergences as dv
from hetres import scenarios as sc
from hetres import theories as th
from hetres.qcore import (
    KET_PLUS_Y,
    PAULI_X,
    TensorStructure,
    random_density_mat,
    random_hermitian,
    rotation_z,
    single_party,
)

PLUS_Y = np.outer(KET_PLUS_Y, KET_PLUS_Y.conj())
INC2 = th.Incoherent(2)
STRUCT_AB = TensorStructure([("A", 2), ("B", 2)])


def identity_send():
    return ch.unitary_channel(np.eye(2), single_party(2, "A"), single_party(2, "B"))


def rz_send():
    return ch.unitary_channel(rotation_z(np.pi / 2), single_party(2, "A"), single_party(2, "B"))


class TestStandard:
    def test_delegates_to_hypothesis_testing(self):
        # the "standard" certification scenario reports D_H itself
        for state, eps in (("plus_y", 0.5), ("plus", 0.25)):
            report = sc.run_scenario({"name": "standard", "kind": "certification",
                                      "inputs": {"sub": "standard", "state": state,
                                                 "theory": INC2.to_json()},
                                      "params": {"seed": 3, "epsilon": eps}})
            ref = dv.hypothesis_testing(sc.resolve_state(state), INC2, eps, seed=3)
            assert report["results"] == {"value": ref.value, "converged": ref.converged}
            assert report["certificates"] == [ref.to_json()]
        assert math.isinf(dv.hypothesis_testing(PLUS_Y, INC2, 0.5).value)


class TestRemote:
    def test_identity_family_pins_to_floor(self):
        # sending the suspect qubit untouched leaves real measurements
        # blind: the imaginary part is invisible, so performance equals the
        # trivial floor at every budget
        for eps in (0.1, 0.25, 0.5):
            rep = ct.remote_certification(PLUS_Y, INC2, "real", [identity_send()], eps)
            assert abs(rep.value - rep.floor) < 1e-6

    def test_quarter_rotation_saturates(self):
        rep = ct.remote_certification(PLUS_Y, INC2, "real", [rz_send()], 0.5)
        assert math.isinf(rep.value)
        assert abs(rep.alpha - 0.5) < 1e-9
        assert rep.beta <= 1e-12
        assert math.isinf(rep.ceiling.value)

    def test_explicit_x_measurement_achieves_it(self):
        lam = rz_send()
        p = (np.eye(2) - PAULI_X) / 2.0
        alpha = max(
            float(np.real(np.trace(lam.apply_mat(np.diag([1.0, 0.0]).astype(complex)) @ p))),
            float(np.real(np.trace(lam.apply_mat(np.diag([0.0, 1.0]).astype(complex)) @ p))),
        )
        beta = 1.0 - float(np.real(np.trace(lam.apply_mat(PLUS_Y) @ p)))
        assert abs(alpha - 0.5) < 1e-12
        assert abs(beta) < 1e-12

    def test_free_state_never_beats_floor(self):
        rng = np.random.default_rng(0)
        for eps in (0.25, 0.5):
            mu = INC2.random_state(rng)
            rep = ct.remote_certification(mu, INC2, "all", [identity_send(), rz_send()], eps)
            assert rep.value <= rep.floor + 1e-9

    def test_ceiling_universality(self):
        rng = np.random.default_rng(1)
        family = [identity_send(), rz_send()]
        for _ in range(3):
            u = np.linalg.qr(rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)))[0]
            family.append(ch.unitary_channel(u, single_party(2, "A"), single_party(2, "B")))
        for eps in (0.1, 0.25, 0.5):
            rho = random_density_mat(rng, 2)
            rep = ct.remote_certification(rho, INC2, "all", family, eps)
            if math.isinf(rep.ceiling.value):
                continue
            assert rep.value <= rep.ceiling.value + 1e-6

    def test_monotone_in_epsilon(self):
        vals = []
        for eps in (0.1, 0.25, 0.5):
            rep = ct.remote_certification(PLUS_Y, INC2, "real", [rz_send()], eps)
            vals.append(rep.value)
        assert vals[0] <= vals[1] + 1e-9
        assert vals[1] <= vals[2] + 1e-9 or math.isinf(vals[2])

    def test_frank_wolfe_over_an_image_of_a_see_saw_hull(self):
        # the image set's oracle is the see-saw's, through the same call; an
        # isotropic state of fidelity F has D(rho||Sep) = 1 - h(F) (Vedral &
        # Plenio, PRA 57, 1619, 1998)
        image = ct._ImageSet(th.SeparableTwoQubit(), ch.identity_channel(single_party(4, "AB")))
        phi = np.zeros(4, dtype=complex)
        phi[[0, 3]] = 2.0 ** -0.5
        f = 0.925
        rho = 0.9 * np.outer(phi, phi.conj()) + 0.1 * np.eye(4) / 4
        res = dv.rel_entropy_of_resource(rho, image, gap=1e-3, force_engine=True)
        exact = 1.0 + f * math.log2(f) + (1.0 - f) * math.log2(1.0 - f)
        assert res.converged and res.extras["method"] == "frank-wolfe" and res.extras["oracle_limited"]
        assert res.lower_bound <= exact <= res.upper_bound + 1e-12

    def test_empty_family_rejected(self):
        with pytest.raises(ValueError):
            ct.remote_certification(PLUS_Y, INC2, "all", [], 0.5)

    @pytest.mark.parametrize("eps", [0.1, 0.25, 0.5])
    def test_diagonal_measurements_through_identity(self, eps):
        # sending the qubit untouched makes the image set the set itself, so
        # diagonal measurements reach exactly the diagonal-restricted D_H
        rho = random_density_mat(np.random.default_rng(6), 2)
        rep = ct.remote_certification(rho, INC2, "diagonal", [identity_send()], eps)
        ref = dv.hypothesis_testing(rho, INC2, eps, restrict="diagonal")
        assert rep.extras["restrict"] == "diagonal"
        assert abs(rep.value - ref.value) <= 1e-12
        assert abs(rep.beta - ref.extras["beta"]) <= 1e-12
        assert np.max(np.abs(np.diag(np.diag(rep.achiever["povm_element"]))
                             - rep.achiever["povm_element"])) == 0.0

    def test_measurement_restriction_names_only(self):
        with pytest.raises(ValueError):
            ct.remote_certification(PLUS_Y, INC2, th.Sio(), [identity_send()], 0.5)
        with pytest.raises(ValueError, match="unsupported measurement restriction 'Diagonal'"):
            ct.remote_certification(PLUS_Y, INC2, "Diagonal", [identity_send()], 0.5)

    def test_joint_preprocessing_channel(self):
        # an AB -> AB preprocessing (move the suspect system across, refill
        # with a free state) saturates the unrestricted ceiling
        mover = ct.move_and_replace_channel(np.eye(2, dtype=complex) / 2, 2)
        rep = ct.remote_certification(PLUS_Y, INC2, "all", [mover], 0.25)
        assert abs(rep.value - rep.ceiling.value) < 1e-6
        rep = ct.remote_certification(PLUS_Y, INC2, "all", [mover], 0.5)
        assert math.isinf(rep.value)


    @pytest.mark.parametrize("seed", [0, 2])
    @pytest.mark.parametrize("preprocess", ["identity", "move-and-replace"])
    def test_budget_holds_over_the_whole_set(self, seed, preprocess):
        # RealStates lists no extreme points; the type-I budget must still
        # hold over all real states, so the remote value stays below the
        # data-processing ceiling
        real3 = th.RealStates(3)
        lam = (ch.identity_channel(single_party(3, "A")) if preprocess == "identity"
               else ct.move_and_replace_channel(np.eye(3, dtype=complex) / 3, 3))
        rho = random_density_mat(np.random.default_rng(seed), 3)
        rep = ct.remote_certification(rho, real3, "all", [lam], 0.1)
        assert rep.value <= rep.ceiling.upper_bound + 1e-9
        p = rep.achiever["povm_element"]
        assert float(np.real(np.trace(real3.lmo(-p) @ p))) <= 0.1 + 1e-12


class TestImageSet:
    @pytest.mark.parametrize("joint", [True, False])
    def test_oracle_matches_the_images_of_extreme_points(self, joint):
        rng = np.random.default_rng(11)
        inc3 = th.Incoherent(3)
        if joint:
            struct = TensorStructure([("A", 3), ("B", 2)])
            lam = ch.random_channel(rng, 6, 6, n_kraus=3)
            lam = ch.KrausChannel(lam.kraus, struct, struct)
            image = ct._ImageSet(inc3, lam)
        else:
            image = ct._ImageSet(inc3, ch.random_channel(rng, 3, 2, n_kraus=3))
        points = image.extreme_points()
        assert image.dim == 2 and len(points) == 3
        for _ in range(5):
            g = random_hermitian(rng, 2)
            best = min(float(np.real(np.trace(g @ x))) for x in points)
            assert abs(float(np.real(np.trace(g @ image.lmo(g)))) - best) <= 1e-12

    def test_identity_pullback_returns_same_element(self):
        image = ct._ImageSet(INC2, ch.identity_channel(single_party(2, "A")))
        p = np.array([[0.7, 0.1], [0.1, 0.2]], dtype=complex)
        assert np.max(np.abs(image.pullback(p) - p)) < 1e-12

    def test_swap_pullback_moves_element(self):
        # the measured party's element lands on the suspect party
        swap = np.eye(4)[[0, 2, 1, 3]].astype(complex)
        image = ct._ImageSet(INC2, ch.unitary_channel(swap, STRUCT_AB))
        p = np.array([[0.6, 0.2j], [-0.2j, 0.3]], dtype=complex)
        assert np.max(np.abs(image.pullback(p) - p)) < 1e-12

    def test_sio_real_protocols_pull_back_to_diagonal_elements(self):
        rng = np.random.default_rng(12)
        classes = {"A": th.Sio(), "B": th.RealOps()}
        for _ in range(40):
            proto = th.random_lfocc_protocol(
                rng, STRUCT_AB, classes, int(rng.integers(1, 4)), order=["A", "B", "A"]
            )
            image = ct._ImageSet(INC2, ch.compile_lfocc(proto))
            eff = image.pullback(random_density_mat(rng, 2))
            assert np.max(np.abs(eff - np.diag(np.diag(eff)))) < 1e-10
            w = np.linalg.eigvalsh(eff)
            assert w[0] > -1e-10 and w[-1] < 1 + 1e-10


class TestLfoccCeiling:
    def _protocol(self, rng, rounds=2):
        classes = {"A": th.Sio(), "B": th.RealOps()}
        return th.random_lfocc_protocol(rng, STRUCT_AB, classes, rounds, order=["A", "B", "A"])

    def test_effective_elements_diagonal_and_capped(self):
        rng = np.random.default_rng(2)
        for _ in range(60):
            proto = self._protocol(rng, int(rng.integers(1, 4)))
            p = random_density_mat(rng, 2)
            rep = ct.lfocc_ceiling(PLUS_Y, INC2, proto, p, 0.5)
            assert rep.extras["effective_offdiag"] <= 1e-10
            if not math.isinf(rep.ceiling.value):
                assert rep.value <= rep.ceiling.value + 1e-6

    def test_coherent_state_stuck_at_guessing(self):
        # a diagonal effective test sees only the flat diagonal of the
        # suspect state, identical to the maximally mixed free state
        rng = np.random.default_rng(3)
        proto = self._protocol(rng)
        p = random_density_mat(rng, 2)
        rep = ct.lfocc_ceiling(PLUS_Y, INC2, proto, p, 0.25)
        assert rep.beta >= 1.0 - 0.25 - 1e-9
        assert abs(rep.ceiling.value - (-math.log2(0.75))) < 1e-9

    def test_element_bounds_validated(self):
        proto = self._protocol(np.random.default_rng(5))
        with pytest.raises(ValueError, match="0 <= P"):
            ct.lfocc_ceiling(PLUS_Y, INC2, proto, 2.0 * np.eye(2), 0.5)

    def test_class_violation_rejected(self):
        rng = np.random.default_rng(4)
        classes = {"A": th.AllOps(), "B": th.RealOps()}
        proto = th.random_lfocc_protocol(rng, STRUCT_AB, classes, 1, order=["A"])
        with pytest.raises(ValueError, match="classes"):
            ct.lfocc_ceiling(PLUS_Y, INC2, proto, np.eye(2) / 2, 0.5)

    def test_measure_and_forward_achieves_the_ceiling(self):
        # the announce-the-outcome strategy realizes any diagonal test
        # remotely, so the structural ceiling is attained, not just bounded
        rng = np.random.default_rng(7)
        for rho in (PLUS_Y, random_density_mat(rng, 2)):
            for eps in (0.25, 0.5):
                ceiling = dv.hypothesis_testing(rho, INC2, eps, restrict="diagonal")
                p_opt = np.real(np.diag(ceiling.optimizer))
                proto = ct.measure_and_forward_protocol(np.diag(p_opt))
                rep = ct.lfocc_ceiling(rho, INC2, proto, np.diag([0.0, 1.0]).astype(complex), eps)
                assert abs(rep.value - ceiling.value) < 1e-6
                assert rep.extras["effective_offdiag"] <= 1e-12


class TestLfoccFamily:
    CLASSES = {"A": th.Sio(), "B": th.RealOps()}

    def _family(self, rng, b_dim, n):
        structure = TensorStructure([("A", 2), ("B", b_dim)])
        protocols = [th.random_lfocc_protocol(rng, structure, self.CLASSES, int(rng.integers(1, 4)),
                                              order=["A", "B", "A"]) for _ in range(n)]
        return protocols, [random_density_mat(rng, b_dim) for _ in range(n)]

    @pytest.mark.parametrize("b_dim", [2, 3])
    def test_family_matches_one_call_per_protocol(self, b_dim):
        rng = np.random.default_rng(30 + b_dim)
        rho = random_density_mat(rng, 2)
        protocols, elements = self._family(rng, b_dim, 10)
        family = ct.lfocc_ceilings(rho, INC2, protocols, elements, 0.3, 4)
        assert len({id(rep.ceiling) for rep in family}) == 1
        for rep, proto, element in zip(family, protocols, elements):
            one = ct.lfocc_ceiling(rho, INC2, proto, element, 0.3, seed=4)
            assert (rep.value, rep.alpha, rep.beta, rep.floor, rep.extras) == (
                one.value, one.alpha, one.beta, one.floor, one.extras)
            assert rep.achiever["channel_index"] == one.achiever["channel_index"]
            assert np.array_equal(rep.achiever["povm_element"], one.achiever["povm_element"])
            assert (rep.ceiling.value, rep.ceiling.lower_bound, rep.ceiling.upper_bound,
                    rep.ceiling.iterations) == (one.ceiling.value, one.ceiling.lower_bound,
                                                one.ceiling.upper_bound, one.ceiling.iterations)

    @pytest.mark.parametrize("bad", ["classes", "element"])
    def test_invalid_member_raises_before_any_solve(self, bad, monkeypatch):
        solves = []
        monkeypatch.setattr(ct, "hypothesis_testing", lambda *a, **k: solves.append(a))
        rng = np.random.default_rng(6)
        protocols, elements = self._family(rng, 2, 3)
        if bad == "classes":
            protocols[2] = th.random_lfocc_protocol(
                rng, STRUCT_AB, {"A": th.AllOps(), "B": th.RealOps()}, 1, order=["A"])
        else:
            elements[1] = 2.0 * np.eye(2)
        with pytest.raises(ValueError, match="classes" if bad == "classes" else "0 <= P"):
            ct.lfocc_ceilings(PLUS_Y, INC2, protocols, elements, 0.5, 0)
        assert solves == []


class TestRngOptimal:
    def test_incoherent_inside_real_saturates(self):
        for eps in (0.25, 0.5):
            _, rep = ct.rng_optimal_protocol(
                PLUS_Y, INC2, th.RealStates(2), np.eye(2) / 2, eps
            )
            assert rep.extras["saturates_ceiling"]
            if eps == 0.5:
                assert math.isinf(rep.value)
            else:
                assert abs(rep.value - 1.0) < 1e-6

    def test_free_state_floor_on_both_sides(self):
        rng = np.random.default_rng(5)
        mu = INC2.random_state(rng)
        _, rep = ct.rng_optimal_protocol(mu, INC2, th.RealStates(2), np.eye(2) / 2, 0.25)
        assert abs(rep.value - rep.floor) < 1e-6
        assert abs(rep.ceiling.value - rep.floor) < 1e-6

    def test_inclusion_checked(self):
        with pytest.raises(ValueError, match="inclusion"):
            ct.rng_optimal_protocol(
                PLUS_Y, th.RealStates(2), th.Incoherent(2), np.eye(2) / 2, 0.5
            )

    def test_inclusion_is_decided_without_samples(self, monkeypatch):
        # Inc2 lists its extreme points and Real2 has a linear form, so
        # neither direction of the inclusion check draws a random state
        def no_draw(self, rng):
            raise AssertionError("the inclusion check drew a sample")

        monkeypatch.setattr(th.Incoherent, "random_state", no_draw)
        monkeypatch.setattr(th.RealStates, "random_state", no_draw)
        with pytest.raises(ValueError, match="inclusion"):
            ct.rng_optimal_protocol(PLUS_Y, th.RealStates(2), INC2, np.eye(2) / 2, 0.5)
        _, rep = ct.rng_optimal_protocol(PLUS_Y, INC2, th.RealStates(2), np.eye(2) / 2, 0.25)
        assert rep.extras["saturates_ceiling"]

    def test_report_holds_the_rescaled_element(self):
        # the built-in optimal_rng_strategy: the ceiling's element has alpha
        # 0.25000000000000006 > eps after the move, so, as in lfocc_ceilings,
        # the report holds the element rescaled to eps and alpha min(alpha, eps)
        channel, rep = ct.rng_optimal_protocol(PLUS_Y, INC2, th.RealStates(2), np.eye(2) / 2, 0.25, seed=15)
        image = ct._ImageSet(INC2, channel)
        raw = rep.ceiling.optimizer
        raw_alpha = max(float(np.real(np.trace(mu @ raw))) for mu in image.extreme_points())
        assert raw_alpha > 0.25
        p = rep.achiever["povm_element"]
        assert np.allclose(p, raw * (0.25 / raw_alpha), rtol=0.0, atol=1e-16)
        assert rep.alpha == 0.25
        assert max(float(np.real(np.trace(mu @ p))) for mu in image.extreme_points()) <= 0.25 + 1e-16
        moved = image.image(PLUS_Y)
        assert rep.beta == 1.0 - float(np.real(np.trace(moved @ p)))
        report = sc.run_scenario(sc.builtin_scenarios()["optimal_rng_strategy"])
        assert report["certificates"][0]["alpha"] == 0.25

    def test_refill_must_be_free(self):
        with pytest.raises(ValueError, match="refill"):
            ct.rng_optimal_protocol(PLUS_Y, INC2, th.RealStates(2), PLUS_Y, 0.5)

    def test_channel_moves_and_replaces(self):
        chan = ct.move_and_replace_channel(np.eye(2, dtype=complex) / 2, 2)
        rng = np.random.default_rng(6)
        x = random_density_mat(rng, 2)
        y = random_density_mat(rng, 2)
        out = chan.apply_mat(np.kron(x, y))
        expected = np.kron(np.eye(2) / 2, x)
        assert np.max(np.abs(out - expected)) < 1e-12


def test_cert_report_json():
    rep = ct.remote_certification(PLUS_Y, INC2, "real", [rz_send()], 0.5)
    blob = rep.to_json()
    assert {"value", "ceiling", "achiever", "alpha", "beta", "floor"} <= set(blob)
