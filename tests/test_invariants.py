"""Cross-module invariants tying the engines to the transformation laws."""

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

    def contains(self, rho, tol=1e-6):
        m = rho.mat if isinstance(rho, DensityOperator) else np.asarray(rho, dtype=complex)
        if not super().contains(m, tol):
            return False
        pt = partial_transpose_mat(m, self.local_dims, 1)
        return float(np.linalg.eigvalsh(pt)[0]) >= -tol

    def _cones(self):
        # the global partial transpose is its own adjoint
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
