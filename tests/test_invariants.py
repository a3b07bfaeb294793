"""Cross-module invariants tying the engines to the transformation laws."""

import math

import numpy as np

from hetres import channels as ch
from hetres import composite as co
from hetres import divergences as dv
from hetres import laws
from hetres import theories as th
from hetres.qcore import (
    KET_PLUS,
    DensityOperator,
    TensorStructure,
    bell_phi_plus_vec,
    hermitian_basis,
    kron_all,
    partial_trace_mat,
    partial_transpose_mat,
    pure_state,
    random_density_mat,
)

PHI = np.outer(bell_phi_plus_vec(2), bell_phi_plus_vec(2).conj())
INC2 = th.Incoherent(2)


class PptRestrictedMarginalSet(th.MaxComposite):
    """An intermediate composite set between the two extremal constructions:
    locally-free marginals plus global positivity of the partial transpose."""

    kind = "max-composite-ppt"

    def _cones(self):
        # the global partial transpose is its own adjoint; the inherited
        # contains and random_state both read the cone
        return [partial_transpose_mat(hermitian_basis(self.dim, None), self.local_dims, 1)]


def test_sandwich_through_an_intermediate_set():
    # hull <= intermediate <= marginal set, so the divergences order the
    # other way around, each within solver gaps
    rng = np.random.default_rng(0)
    locals_ = [INC2, th.Incoherent(2)]
    top = th.MaxComposite(locals_)
    mid = PptRestrictedMarginalSet(locals_)
    hull_closed = th.Incoherent(4)
    for _ in range(10):
        rho = random_density_mat(rng, 4)
        d_top = dv.rel_entropy_of_resource(rho, top, gap=1e-3)
        d_mid = dv.rel_entropy_of_resource(rho, mid, gap=1e-3)
        _, d_hull = hull_closed.closest_free_state(rho)
        assert d_top.value <= d_mid.value + d_top.gap + 1e-9
        assert d_mid.value <= d_hull + d_mid.gap + 1e-9


def test_intermediate_set_samples_are_members():
    # the sampler's correlation is scaled into the partial-transpose cone too
    mid = PptRestrictedMarginalSet([INC2, th.Incoherent(2)])
    rng = np.random.default_rng(0)
    assert all(mid.contains(mid.random_state(rng)) for _ in range(200))


def test_intermediate_set_tests_its_cone_on_stacks():
    # the inherited contains reads the partial-transpose cone through the
    # image map, on a stack as on one matrix
    mid = PptRestrictedMarginalSet([INC2, th.Incoherent(2)])
    rng = np.random.default_rng(1)
    stack = np.stack([mid.random_state(rng) for _ in range(6)]
                     + [random_density_mat(rng, 4) for _ in range(6)] + [0.5 * PHI + 0.125 * np.eye(4)])
    per_matrix = [mid.contains(m) for m in stack]
    assert mid.contains(stack).tolist() == per_matrix
    assert all(per_matrix[:6]) and not per_matrix[-1]
    inc = th.MaxComposite([INC2, th.Incoherent(2)])
    ppt = np.linalg.eigvalsh(partial_transpose_mat(stack, (2, 2), 1))[:, 0] >= -1e-6
    assert per_matrix == (inc.contains(stack) & ppt).tolist()


def _per_party_random_state(xc, rng):
    """MaxComposite.random_state as one traceless draw per term and party."""
    base = kron_all(0.5 * (s.random_state(rng) + s.max_support_state()) for s in xc.locals)

    def traceless(d):
        c = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
        return 0.5 * (c + c.conj().T) - np.real(np.trace(c)) / d * np.eye(d)

    corr = sum(kron_all(traceless(d) for d in xc.local_dims) for _ in range(3))
    corr = corr / max(np.linalg.norm(corr), 1e-300)
    top = th._whitened_top(base, corr)
    for a in xc._cones():
        basis = hermitian_basis(math.isqrt(len(a)), None)
        image = [np.tensordot(np.real(np.einsum("kab,ba->k", a, x)), basis, 1) for x in (base, corr)]
        top = max(top, th._whitened_top(*image))
    return base + 1.0 / max(top, 1.0) * rng.uniform() * corr


def test_marginal_set_sampler_matches_the_per_party_loop():
    # one flat normal draw per sample keeps the random stream bit for bit
    for xc in (th.MaxComposite([INC2, th.RealStates(2)]),
               th.MaxComposite([INC2, th.SeparableTwoQubit()]),
               PptRestrictedMarginalSet([INC2, th.Incoherent(2)])):
        fast, loop = np.random.default_rng(9), np.random.default_rng(9)
        for _ in range(50):
            assert xc.random_state(fast).tobytes() == _per_party_random_state(xc, loop).tobytes()


def test_intermediate_set_is_sandwiched():
    locals_ = [INC2, th.Incoherent(2)]
    mid = PptRestrictedMarginalSet(locals_)
    rep = co.check_sandwich(mid, locals_, n_samples=60, seed=1)
    assert rep.all_pass


def test_free_operations_respect_the_single_shot_law():
    # every product of locally free operations passes the compatibility
    # check, and mapping any state through it cannot raise the target-side
    # divergence above the source-side one
    rng = np.random.default_rng(2)
    locals_ = [INC2, th.Incoherent(2)]
    top = th.MaxComposite(locals_)
    hull_closed = th.Incoherent(4)
    sio = th.Sio()
    for _ in range(10):
        lam = co.fmin_element([[sio.sample_channel(rng, 2), sio.sample_channel(rng, 2)]])
        for _ in range(10):
            rho = random_density_mat(rng, 4)
            _, before = hull_closed.closest_free_state(rho)
            after = dv.rel_entropy_of_resource(lam.apply_mat(rho), top, gap=1e-3)
            assert after.value <= before + after.gap + 1e-8


def test_uncorrelated_assisted_equals_unassisted():
    # with an uncorrelated input the assisted numerator collapses to the
    # unassisted local divergence
    rng = np.random.default_rng(3)
    struct = TensorStructure([("A", 2), ("B", 2)])
    for _ in range(10):
        rho_a = random_density_mat(rng, 2)
        rho_b = random_density_mat(rng, 2)
        joint = DensityOperator(np.kron(rho_a, rho_b), struct)
        rep = laws.assisted_distillation_bound(joint, INC2, pure_state(KET_PLUS), gap=1e-3, seed=3)
        _, local = INC2.closest_free_state(rho_b)
        assert abs(rep.lhs.value - local) < 2e-3


def test_bell_pair_against_assisted_hull_is_one_bit():
    hull = th.MinComposite([th.AllStates(2), INC2], labels=["A", "B"])
    res = dv.rel_entropy_of_resource(PHI, hull, gap=1e-3, seed=4)
    assert abs(res.value - 1.0) < 1e-3


def test_marginal_bound_is_valid_lower_bound():
    # data processing under partial trace anchors the composite divergences
    rng = np.random.default_rng(6)
    top = th.MaxComposite([INC2, th.Incoherent(2)])
    for _ in range(10):
        rho = random_density_mat(rng, 4)
        res = dv.rel_entropy_of_resource(rho, top, gap=1e-3)
        for i in range(2):
            marg = partial_trace_mat(rho, (2, 2), [i])
            _, local = INC2.closest_free_state(marg)
            assert res.value >= local - 1e-8
