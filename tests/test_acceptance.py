"""End-to-end acceptance suite.

Each test implements one acceptance criterion at its stated tolerance and
prints a PASS line; run with ``pytest tests/test_acceptance.py -s`` to see
them.  All randomness is seeded here, and every solver call records its
certificate.
"""

import math
import time

import numpy as np

from hetres import certify as ct
from hetres import channels as ch
from hetres import composite as co
from hetres import divergences as dv
from hetres import laws
from hetres import theories as th
from hetres.qcore import (
    KET_PLUS,
    KET_PLUS_Y,
    PAULI_X,
    DensityOperator,
    TensorStructure,
    bell_phi_plus_vec,
    partial_trace_mat,
    partial_transpose_mat,
    pure_state,
    random_density_mat,
    random_pure_vec,
    rotation_z,
    single_party,
    trace_norm,
    von_neumann_entropy,
)
from hetres.scenarios import (
    coherence_to_entanglement_channel,
    rng_verified_channel_family,
    rotated_bell_preparation,
)

PHI_VEC = bell_phi_plus_vec(2)
PHI = np.outer(PHI_VEC, PHI_VEC.conj())
PLUS = np.outer(KET_PLUS, KET_PLUS.conj())
PLUS_Y = np.outer(KET_PLUS_Y, KET_PLUS_Y.conj())
INC2 = th.Incoherent(2)
SEP = th.SeparableTwoQubit()


def _report(n, text):
    print(f"PASS criterion {n}: {text}")


def test_criterion_01_coherence_golden_unit():
    t0 = time.perf_counter()
    closed = dv.rel_entropy_of_resource(PLUS, INC2)
    engine = dv.rel_entropy_of_resource(PLUS, INC2, gap=1e-4, force_engine=True)
    elapsed = time.perf_counter() - t0
    assert abs(closed.value - 1.0) < 1e-12
    assert abs(engine.value - 1.0) < 1e-3
    assert elapsed < 1.0
    _report(1, f"coherence of the flat superposition = 1 bit "
               f"(closed {abs(closed.value - 1):.2e} off, engine {abs(engine.value - 1):.2e} off, {elapsed:.2f}s)")


def test_criterion_02_entanglement_golden_unit():
    t0 = time.perf_counter()
    res = dv.rel_entropy_of_resource(PHI, SEP, gap=5e-4, seed=1)
    elapsed = time.perf_counter() - t0
    assert abs(res.value - 1.0) < 1e-3
    assert res.converged and res.gap <= 5e-4 + 1e-12
    assert elapsed < 30.0
    _report(2, f"entanglement of the maximally entangled pair = 1 bit "
               f"(value {res.value:.6f}, certified gap {res.gap:.1e}, {elapsed:.1f}s)")


def test_criterion_03_forward_conversion():
    lam = coherence_to_entanglement_channel()
    ket00 = np.zeros(4)
    ket00[0] = 1.0
    inp = np.kron(PLUS, np.outer(ket00, ket00))
    target = np.kron(np.diag([1.0, 0.0]), PHI)
    dist = trace_norm(lam.apply_mat(inp) - target)
    assert dist <= 1e-10
    hull = th.MinComposite([INC2, SEP], labels=["1", "2"])
    verdict = th.Rng(hull).verify(lam)
    assert verdict.ok
    assert (verdict.n_states, verdict.mode) == (64, "certified")
    _report(3, f"forward conversion exact (trace distance {dist:.1e}), resource "
               f"non-generation verified on {verdict.n_states} states ({verdict.mode})")


def test_criterion_04_reverse_nogo():
    chans = rng_verified_channel_family(50, seed=4)
    worst_direct = 0.0
    worst_basis = 0.0
    for lam in chans:
        rep = laws.nogo_entanglement_to_coherence(lam, INC2, n_free_inputs=4, seed=4)
        assert rep.certified
        worst_direct = max(worst_direct, rep.direct_offdiag)
        worst_basis = max(worst_basis, rep.basis_offdiag)
    assert worst_direct <= 1e-9 and worst_basis <= 1e-9
    _report(4, f"reverse conversion impossible for 50 verified channels "
               f"(worst marginal off-diagonal {max(worst_direct, worst_basis):.1e})")


def test_criterion_05_rng_counterexamples():
    x_chan = ch.unitary_channel(PAULI_X, single_party(2, "A"))
    small = th.Singleton(np.eye(2, dtype=complex) / 2)
    bigger = th.FiniteSet([np.eye(2, dtype=complex) / 2, np.diag([1.0, 0.0]).astype(complex)])
    assert th.Rng(small).verify(x_chan).ok
    assert not th.Rng(bigger).verify(x_chan).ok
    prep = ch.prepare_channel(pure_state(KET_PLUS), single_party(2, "A"))
    assert th.Rng(th.AllStates(2)).verify(prep).ok
    assert not th.Rng(th.Singleton(np.diag([1.0, 0.0]).astype(complex))).verify(prep).ok
    _report(5, "non-generation is not monotone under growing or shrinking the free set")


def test_criterion_06_no_maximal_operations():
    lam = rotated_bell_preparation()
    marg = ch.marginal_channel(
        lam, "1", {"2": DensityOperator(np.eye(2, dtype=complex) / 2, single_party(2, "2"))}
    )
    dist = trace_norm(marg.apply_mat(np.eye(2, dtype=complex) / 2) - np.eye(2) / 2)
    assert abs(dist - 1.0) <= 1e-10
    assert not ch.is_unital(marg)
    _report(6, f"concatenated extremal-preserving maps violate the marginal condition "
               f"(non-unitality distance {dist:.12f})")


def test_criterion_07_sandwich_property():
    rng = np.random.default_rng(7)
    smax = th.MaxComposite([INC2, th.Incoherent(2)])
    smin_closed = th.Incoherent(4)
    worst = -np.inf
    for _ in range(100):
        rho = random_density_mat(rng, 4)
        hi = dv.rel_entropy_of_resource(rho, smax, gap=1e-3)
        _, lo = smin_closed.closest_free_state(rho)
        worst = max(worst, hi.value - lo)
        assert hi.value <= lo + hi.gap + 1e-9
    sio = th.Sio()
    hull_sampler = th.MinComposite([INC2, th.Incoherent(2)])
    for _ in range(20):
        lam = co.fmin_element([[sio.sample_channel(rng, 2), sio.sample_channel(rng, 2)]])
        for _ in range(20):
            mu = hull_sampler.random_state(rng)
            assert smax.contains(lam.apply_mat(mu), 1e-7)
    _report(7, f"marginal-set divergence never exceeds hull divergence on 100 states "
               f"(worst margin {worst:.2e}); 400 product-map images stay in the marginal set")


def test_criterion_08_uncorrelated_reduction():
    rng = np.random.default_rng(8)
    locals_ = [INC2, th.Incoherent(2)]
    struct = TensorStructure([("1", 2), ("2", 2)])
    worst_spread = 0.0
    worst_local = 0.0
    for _ in range(50):
        rho1 = random_density_mat(rng, 2)
        mu2 = np.diag(rng.dirichlet(np.ones(2)) + 0.05).astype(complex)
        mu2 = mu2 / np.trace(mu2)
        prod = DensityOperator(np.kron(rho1, mu2), struct)
        res = laws.uncorrelated_reduction(prod, locals_, "1", gap=1e-3, seed=8)
        spread = res.extras["extremal_spread"]
        assert spread <= res.extras["spread_budget"]
        _, local = INC2.closest_free_state(rho1)
        assert abs(res.extras["hull_value"] - local) < 1e-3
        assert abs(res.extras["marginal_value"] - local) < 1e-3
        worst_spread = max(worst_spread, spread)
        worst_local = max(worst_local, abs(res.extras["marginal_value"] - local))
    _report(8, f"both extremal divergences collapse to the local value on 50 products "
               f"(worst spread {worst_spread:.2e}, worst local deviation {worst_local:.2e})")


def test_criterion_09_assisted_distillation_identity():
    rng = np.random.default_rng(9)
    hull = th.MinComposite([th.AllStates(2), INC2], labels=["A", "B"])
    worst = 0.0
    for _ in range(50):
        psi = random_pure_vec(rng, 4)
        rho = np.outer(psi, psi.conj())
        res = dv.rel_entropy_of_resource(rho, hull, gap=1e-3, seed=9)
        target = von_neumann_entropy(np.diag(np.diag(partial_trace_mat(rho, (2, 2), [1]))))
        worst = max(worst, abs(res.value - target))
        assert abs(res.value - target) < 1e-9
    _report(9, f"assisted-distillation identity holds for 50 random pure states "
               f"(worst deviation {worst:.2e})")


def test_criterion_10_multicopy_closure_violation():
    smax1 = co.smax([th.Singleton(np.eye(2, dtype=complex) / 2),
                     th.Singleton(np.eye(2, dtype=complex) / 2)])
    family = {
        1: smax1,
        2: th.MinComposite([smax1, th.Singleton(np.eye(4, dtype=complex) / 4)],
                           labels=["c0", "c1"]),
    }
    rep = co.check_bp_axioms(family, max_n=2, n_samples=30, seed=10, probe_states={1: [PHI]})
    by_name = {a.name: a for a in rep.axioms}
    assert not by_name["tensor-closure"].passed
    witness = by_name["tensor-closure"].counterexample
    assert witness is not None
    assert trace_norm(witness - np.kron(PHI, PHI)) < 1e-9
    marg2 = partial_trace_mat(witness, (4, 4), [1])
    assert trace_norm(marg2 - np.eye(4) / 4) > 0.5
    _report(10, "mixing the extremal compositions per copy breaks tensor closure, "
                "witnessed by two entangled pairs whose second-copy marginal is not flat")


def test_criterion_11_local_protocol_ceiling():
    rng = np.random.default_rng(11)
    struct = TensorStructure([("A", 2), ("B", 2)])
    classes = {"A": th.Sio(), "B": th.RealOps()}
    protocols, elements = [], []
    for _ in range(500):
        protocols.append(th.random_lfocc_protocol(
            rng, struct, classes, int(rng.integers(1, 4)), order=["A", "B", "A"]
        ))
        element = np.diag(rng.uniform(0.0, 1.0, 2)).astype(complex)
        u = np.linalg.qr(rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)))[0]
        elements.append(u @ element @ u.conj().T)
    reps = ct.lfocc_ceilings(PLUS_Y, INC2, protocols, elements, 0.5, 11)
    worst_off = max(rep.extras["effective_offdiag"] for rep in reps)
    worst_excess = max((rep.value - rep.ceiling.value for rep in reps
                        if not math.isinf(rep.ceiling.value)), default=-np.inf)
    assert worst_off <= 1e-10
    assert worst_excess <= 1e-6
    _report(11, f"500 local protocols give diagonal effective tests "
                f"(worst off-diagonal {worst_off:.1e}) and never beat the diagonal ceiling "
                f"(worst excess {worst_excess:.1e})")


def test_criterion_12_case_study_saturation():
    rz = ch.unitary_channel(rotation_z(np.pi / 2), single_party(2, "A"), single_party(2, "B"))
    ident = ch.unitary_channel(np.eye(2), single_party(2, "A"), single_party(2, "B"))
    rep = ct.remote_certification(PLUS_Y, INC2, "real", [rz], 0.5, seed=12)
    assert math.isinf(rep.value)
    assert abs(rep.alpha - 0.5) < 1e-9
    assert rep.beta <= 1e-12
    assert math.isinf(rep.ceiling.value)
    floors = []
    for eps in (0.25, 0.5):
        base = ct.remote_certification(PLUS_Y, INC2, "real", [ident], eps, seed=12)
        assert abs(base.value - base.floor) < 1e-6
        floors.append(base.value)
    _report(12, f"quarter rotation saturates the ceiling (alpha 1/2, beta 0, value inf); "
                f"the untouched family stays at the floor ({floors[0]:.4f}, {floors[1]:.4f})")


def test_criterion_13_witness_channel():
    res = laws.witness_channel(pure_state(KET_PLUS), INC2, SEP, seed=13, n_postcheck=0)
    assert abs(res.p_star - 2.0 / 3.0) <= 1e-6
    rng = np.random.default_rng(13)
    for _ in range(1000):
        mu = INC2.random_state(rng)
        out = res.channel.apply_mat(mu)
        assert np.linalg.eigvalsh(partial_transpose_mat(out, (2, 2), 1))[0] >= -1e-7
    out = res.channel.apply_mat(PLUS)
    neg = float(np.linalg.eigvalsh(partial_transpose_mat(out, (2, 2), 1))[0])
    assert neg < -1e-9
    _report(13, f"separating channel verified on 1000 free inputs; resource output has "
                f"negative partial transpose ({neg:.2e}); boundary parameter {res.p_star:.8f}")


def test_criterion_14_hypothesis_floor():
    rng = np.random.default_rng(14)
    worst = 0.0
    for _ in range(20):
        mu = INC2.random_state(rng)
        for eps in (0.1, 0.25, 0.5):
            res = dv.hypothesis_testing(mu, INC2, eps, seed=14)
            dev = abs(res.value + math.log2(1.0 - eps))
            worst = max(worst, dev)
            assert dev <= 1e-4
    _report(14, f"free states certify at exactly the trivial floor for three budgets "
                f"(worst deviation {worst:.1e} over 60 runs)")
