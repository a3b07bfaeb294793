"""Declarative scenarios: JSON in, computed report with pass/fail checks out.

A scenario names a kind (divergence, single_shot, conversion, assisted,
certification, axioms, bp_axioms, counterexample), its inputs (states,
theories, channels, by name or as matrix literals), parameters (epsilon,
gap, seed), and a block of expected values with tolerances.  Running one
produces a report embedding the solver certificates verbatim, the seed, and
the toolkit version; identical seeds reproduce identical numeric fields.

The built-in scenarios cover the package's worked examples end to end and
double as executable documentation.
"""

from __future__ import annotations

import json
import math
import time
from typing import Any

import numpy as np

from . import __version__
from . import channels as ch
from . import certify as ct
from . import composite as co
from . import divergences as dv
from . import laws
from . import theories as th
from .qcore import (
    KET0,
    KET1,
    KET_MINUS,
    KET_PLUS,
    KET_PLUS_Y,
    DensityOperator,
    PAULI_X,
    TensorStructure,
    bell_phi_plus_vec,
    density,
    kron,
    kron_all,
    mat_from_json,
    mat_to_json,
    maximally_mixed,
    partial_trace_mat,
    partial_transpose_mat,
    pure_state,
    random_pure_vec,
    random_unitary,
    rotation_z,
    single_party,
    trace_norm,
    von_neumann_entropy,
)

class ScenarioError(ValueError):
    """Schema or reference problem in a scenario file."""


# ---------------------------------------------------------------------------
# input resolution


_KETS = {
    "ket0": KET0,
    "ket1": KET1,
    "plus": KET_PLUS,
    "minus": KET_MINUS,
    "plus_y": KET_PLUS_Y,
    "bell_phi_plus": bell_phi_plus_vec(2),
}


def resolve_state(spec, seed: int = 0) -> DensityOperator:
    if isinstance(spec, str):
        spec = {"name": spec}
    if not isinstance(spec, dict):
        raise ScenarioError(f"bad state spec {spec!r}")
    labels = spec.get("labels")
    dims = spec.get("dims")
    structure = TensorStructure(zip(labels, dims)) if labels and dims else None
    if "matrix" in spec:
        return density(mat_from_json(spec["matrix"]), structure)
    name = spec.get("name")
    if name in _KETS:
        return pure_state(_KETS[name], structure)
    if name == "maximally_mixed":
        d = int(spec.get("dim", structure.dim if structure else 2))
        return maximally_mixed(structure or single_party(d))
    if name == "basis":
        d = int(spec.get("dim", structure.dim if structure else 2))
        vec = np.zeros(d)
        vec[int(spec.get("index", 0))] = 1.0
        return pure_state(vec, structure or single_party(d))
    if name == "haar":
        d = int(spec.get("dim", structure.dim if structure else 2))
        rng = np.random.default_rng(int(spec.get("seed", seed)))
        return pure_state(random_pure_vec(rng, d), structure or single_party(d))
    if name == "product":
        parts = [resolve_state(p, seed) for p in spec["factors"]]
        mat = kron_all(p.mat for p in parts)
        if structure is None:
            structure = TensorStructure(
                [(f"p{i}", p.dim) for i, p in enumerate(parts)]
            )
        return DensityOperator(mat, structure)
    raise ScenarioError(f"unknown state {spec!r}")


def resolve_theory(spec) -> th.FreeStateSet:
    if not isinstance(spec, dict):
        raise ScenarioError(f"bad theory spec {spec!r}")
    try:
        return th.set_from_json(spec)
    except (KeyError, ValueError) as exc:
        raise ScenarioError(str(exc)) from exc


def resolve_op_class(spec) -> th.FreeOpClass:
    kind = spec["kind"] if isinstance(spec, dict) else spec
    table = {
        "sio": th.Sio,
        "real-ops": th.RealOps,
        "unital": th.UnitalOps,
        "all-ops": th.AllOps,
    }
    if kind not in table:
        raise ScenarioError(f"unknown operation class {kind!r}")
    return table[kind]()


def coherence_to_entanglement_channel() -> ch.KrausChannel:
    """Discard party 2, copy party 1's basis into a fresh pair, reset party 1.

    Sends plus (x) |00> to |0> (x) the maximally entangled pair, and every
    incoherent-marginal input to a product of free states.
    """
    structure = TensorStructure([("1", 2), ("2", 4)])
    copy_iso = np.zeros((4, 2), dtype=complex)
    copy_iso[0, 0] = 1.0
    copy_iso[3, 1] = 1.0
    e0 = np.array([[1.0], [0.0]], dtype=complex)
    ops = []
    for j in range(4):
        bra = np.zeros((1, 4), dtype=complex)
        bra[0, j] = 1.0
        pick = kron(np.eye(2, dtype=complex), bra)
        ops.append(kron(e0, copy_iso) @ pick)
    return ch.KrausChannel(tuple(ops), structure, structure)


def rotated_bell_preparation() -> ch.KrausChannel:
    """Prepare the maximally entangled pair, then rotate it onto |00>: each
    step preserves one extremal free set, the concatenation violates the
    marginal-operation condition."""
    structure = TensorStructure([("1", 2), ("2", 2)])
    phi = pure_state(bell_phi_plus_vec(2), structure)
    prep = ch.prepare_channel(phi, structure)
    v = bell_phi_plus_vec(2)
    e0 = np.zeros(4, dtype=complex)
    e0[0] = 1.0
    w = v - e0
    w = w / np.linalg.norm(w)
    u = np.eye(4, dtype=complex) - 2.0 * np.outer(w, w.conj())
    return ch.compose(ch.unitary_channel(u, structure), prep)


def resolve_channel(spec, seed: int = 0) -> ch.KrausChannel:
    if isinstance(spec, str):
        spec = {"name": spec}
    if "json" in spec:
        return ch.channel_from_json(spec["json"])
    name = spec.get("name")
    if name == "identity":
        d = int(spec.get("dim", 2))
        return ch.identity_channel(single_party(d, spec.get("label", "A")))
    if name == "pauli_x":
        return ch.unitary_channel(PAULI_X, single_party(2, "A"))
    if name == "prepare":
        state = resolve_state(spec["state"], seed)
        d_in = int(spec.get("dim_in", state.dim))
        return ch.prepare_channel(state, single_party(d_in, "A"))
    if name == "coherence_to_entanglement":
        return coherence_to_entanglement_channel()
    if name == "rotated_bell_preparation":
        return rotated_bell_preparation()
    if name == "identity_then_send":
        return ch.unitary_channel(
            np.eye(2), single_party(2, "A"), single_party(2, "B")
        )
    if name == "rz_then_send":
        theta = float(spec.get("theta", math.pi / 2))
        return ch.unitary_channel(
            rotation_z(theta), single_party(2, "A"), single_party(2, "B")
        )
    raise ScenarioError(f"unknown channel {spec!r}")


# ---------------------------------------------------------------------------
# expectation checks


def _lookup(results: dict, path: str):
    cur: Any = results
    for part in path.split("."):
        if isinstance(cur, dict) and part in cur:
            cur = cur[part]
        else:
            raise ScenarioError(f"expected path {path!r} missing from results")
    return cur


def check_expected(results: dict, expected: list[dict]) -> list[dict]:
    checks = []
    for exp in expected:
        path = exp["path"]
        op = exp.get("op", "approx")
        got = _lookup(results, path)
        target = exp.get("target")
        tol = float(exp.get("tol", 1e-9))
        if op == "approx":
            passed = math.isfinite(float(got)) and abs(float(got) - float(target)) <= tol
        elif op == "le":
            passed = float(got) <= float(target) + tol
        elif op == "ge":
            passed = float(got) >= float(target) - tol
        elif op == "eq":
            passed = got == target
        elif op == "true":
            passed = bool(got) is True
        elif op == "false":
            passed = bool(got) is False
        elif op == "inf":
            passed = math.isinf(float(got))
        else:
            raise ScenarioError(f"unknown expectation op {op!r}")
        checks.append({**exp, "got": got, "passed": bool(passed)})
    return checks


# ---------------------------------------------------------------------------
# kind runners


def _run_divergence(inputs, params):
    state = resolve_state(inputs["state"], params["seed"])
    theory = resolve_theory(inputs["theory"])
    which = inputs.get("which", "relative_entropy")
    gap = float(params.get("gap", 1e-4))
    seed = int(params["seed"])
    results: dict[str, Any] = {}
    certs = []
    if which == "relative_entropy":
        res = dv.rel_entropy_of_resource(state, theory, gap=gap, seed=seed)
        results |= {"value": res.value, "converged": res.converged, "gap": res.gap}
        certs.append(res.to_json())
        if inputs.get("engine") == "both" and res.extras["method"] == "closed-form":
            eng = dv.rel_entropy_of_resource(state, theory, gap=gap, seed=seed, force_engine=True)
            results |= {"closed_form": res.value, "engine_value": eng.value,
                        "cross_check_dev": abs(res.value - eng.value)}
            certs.append(eng.to_json())
    elif which == "dmax":
        res = dv.dmax(state, theory, tol=float(params.get("tol", 1e-4)), seed=seed)
        results |= {"value": res.value, "converged": res.converged, "gap": res.gap}
        certs.append(res.to_json())
    elif which == "hypothesis":
        res = dv.hypothesis_testing(
            state, theory, float(params["epsilon"]), seed=seed,
            restrict=params.get("restrict"),
        )
        results |= {"value": res.value, "converged": res.converged,
                    "alpha": res.extras.get("alpha"), "beta": res.extras.get("beta")}
        certs.append(res.to_json())
    elif which == "regularized":
        res = dv.regularized_rel_entropy(
            state, theory, mode=params.get("mode", "declared-additive"),
            n=int(params.get("n", 2)),
            assume_additive=bool(params.get("assume_additive", False)),
            gap=gap, seed=seed,
        )
        results |= {"value": res.value, "converged": res.converged}
        certs.append(res.to_json())
    else:
        raise ScenarioError(f"unknown divergence {which!r}")
    return results, certs


def _run_single_shot(inputs, params):
    seed = int(params["seed"])
    rho = resolve_state(inputs["rho"], seed)
    sigma = resolve_state(inputs["sigma"], seed)
    locals_ = [resolve_theory(t) for t in inputs["locals"]]
    rep = laws.single_shot_verdict(rho, sigma, locals_, gap=float(params.get("gap", 1e-3)), seed=seed)
    results = {"lhs": rep.lhs.value, "rhs": rep.rhs.value, "verdict": rep.verdict}
    return results, [rep.to_json()]


def _run_conversion(inputs, params):
    seed = int(params["seed"])
    rho1 = resolve_state(inputs["rho1"], seed)
    rho2 = resolve_state(inputs["rho2"], seed)
    t1 = resolve_theory(inputs["theory1"])
    t2 = resolve_theory(inputs["theory2"])
    if inputs.get("mode") == "asymptotic":
        rep = laws.asymptotic_rate_bound(
            rho1, t1, rho2, t2,
            assume_additive=tuple(params.get("assume_additive", (False, False))),
            gap=float(params.get("gap", 1e-3)), seed=seed,
        )
        results = {"numerator": rep.lhs.value, "denominator": rep.rhs.value, "rate_bound": rep.ratio}
    else:
        rep = laws.conversion_verdict(rho1, t1, rho2, t2, gap=float(params.get("gap", 1e-3)), seed=seed)
        results = {"lhs": rep.lhs.value, "rhs": rep.rhs.value, "verdict": rep.verdict}
    return results, [rep.to_json()]


def _run_assisted(inputs, params):
    seed = int(params["seed"])
    rho_ab = resolve_state(inputs["rho_ab"], seed)
    b_theory = resolve_theory(inputs["b_theory"])
    golden = resolve_state(inputs["golden"], seed)
    gap = float(params.get("gap", 1e-3))
    rep = laws.assisted_distillation_bound(rho_ab, b_theory, golden, gap=gap, seed=seed)
    rho_b = partial_trace_mat(rho_ab.mat, rho_ab.structure.dims, [1])
    dephased_entropy = von_neumann_entropy(np.diag(np.diag(rho_b)))
    results = {
        "numerator": rep.lhs.value,
        "denominator": rep.rhs.value,
        "rate_bound": rep.ratio,
        "dephased_marginal_entropy": dephased_entropy,
        "pure_identity_dev": abs(rep.lhs.value - dephased_entropy),
    }
    certs = [rep.to_json()]
    if "observed_rate" in params:
        results["correlation_witness"] = laws.correlation_witness(
            rho_ab, b_theory, golden, float(params["observed_rate"]), gap=gap, seed=seed
        )
    return results, certs


def _run_certification(inputs, params):
    seed = int(params["seed"])
    eps = float(params["epsilon"])
    sub = inputs.get("sub", "standard")
    state = resolve_state(inputs["state"], seed)
    theory = resolve_theory(inputs["theory"])
    if sub == "standard":
        res = dv.hypothesis_testing(state, theory, eps, seed=seed)
        return {"value": res.value, "converged": res.converged}, [res.to_json()]
    if sub == "remote":
        family = [resolve_channel(c, seed) for c in inputs["family"]]
        rep = ct.remote_certification(
            state, theory, inputs.get("measurements", "all"), family, eps, seed=seed
        )
        results = {"value": rep.value, "alpha": rep.alpha, "beta": rep.beta,
                   "floor": rep.floor, "ceiling": rep.ceiling.value}
        return results, [rep.to_json()]
    if sub == "lfocc":
        rng = np.random.default_rng(seed)
        structure = TensorStructure([("A", theory.dim), ("B", int(inputs.get("b_dim", 2)))])
        classes = {"A": th.Sio(), "B": th.RealOps()}
        n_protocols = int(inputs.get("n_protocols", 20))
        b_dim = structure.local_dim("B")
        protocols, elements = [], []
        for _ in range(n_protocols):
            protocols.append(th.random_lfocc_protocol(
                rng, structure, classes, int(rng.integers(1, 4)), order=["A", "B", "A"]
            ))
            element = np.diag(rng.uniform(0.0, 1.0, b_dim)).astype(complex)
            u = np.linalg.qr(rng.normal(size=(b_dim, b_dim)) + 1j * rng.normal(size=(b_dim, b_dim)))[0]
            elements.append(u @ element @ u.conj().T)
        reps = ct.lfocc_ceilings(state, theory, protocols, elements, eps, seed)
        ceiling = reps[0].ceiling if reps else None
        results = {"n_protocols": n_protocols,
                   "worst_offdiag": max((rep.extras["effective_offdiag"] for rep in reps), default=0.0),
                   "worst_excess_over_ceiling": max((rep.value - ceiling.value for rep in reps
                                                     if not math.isinf(ceiling.value)), default=-math.inf),
                   "ceiling": None if ceiling is None else ceiling.value}
        return results, [] if ceiling is None else [ceiling.to_json()]
    if sub == "rng_optimal":
        theory_b = resolve_theory(inputs["theory_b"])
        mu = resolve_state(inputs.get("refill", {"name": "maximally_mixed", "dim": theory.dim}), seed)
        _, rep = ct.rng_optimal_protocol(state, theory, theory_b, mu, eps, seed=seed)
        results = {"value": rep.value, "ceiling": rep.ceiling.value,
                   "saturates": rep.extras["saturates_ceiling"]}
        return results, [rep.to_json()]
    raise ScenarioError(f"unknown certification sub-kind {sub!r}")


def _run_axioms(inputs, params):
    seed = int(params["seed"])
    locals_ = [
        (resolve_theory(t), resolve_op_class(c)) for t, c in inputs["locals"]
    ]
    sets_only = [s for s, _ in locals_]
    cand_spec = inputs.get("candidate", "smin")
    if cand_spec == "smin":
        candidate = co.smin(sets_only)
    elif cand_spec == "smax":
        candidate = co.smax(sets_only)
    else:
        candidate = resolve_theory(cand_spec)
    if inputs.get("check") == "sandwich":
        rep = co.check_sandwich(candidate, sets_only,
                                n_samples=int(inputs.get("n_samples", 100)), seed=seed)
    else:
        ops_spec = inputs.get("ops", [])
        rng = np.random.default_rng(seed)
        ops: list[ch.KrausChannel] = []
        for spec in ops_spec:
            if isinstance(spec, dict) and "fmin_random" in spec:
                for _ in range(int(spec["fmin_random"])):
                    parts = [cls.sample_channel(rng, s.dim) for s, cls in locals_]
                    ops.append(co.fmin_element([parts]))
            else:
                ops.append(resolve_channel(spec, seed))
        rep = co.check_axioms(
            candidate, ops, locals_,
            n_state_samples=int(inputs.get("n_samples", 100)),
            seed=seed,
        )
    results = {c.name.replace("-", "_"): c.passed for c in rep.conditions}
    results["all_pass"] = rep.all_pass
    return results, [rep.to_json()]


def _run_bp_axioms(inputs, params):
    seed = int(params["seed"])
    family = {int(n): resolve_theory(spec) for n, spec in inputs["family"].items()}
    probes = {
        int(n): [resolve_state(s, seed).mat for s in specs]
        for n, specs in inputs.get("probes", {}).items()
    }
    rep = co.check_bp_axioms(
        family, max_n=max(family), n_samples=int(inputs.get("n_samples", 40)),
        seed=seed, probe_states=probes,
    )
    results = {a.name.replace("-", "_"): a.passed for a in rep.axioms}
    results["all_pass"] = rep.all_pass
    witness = next((a.counterexample for a in rep.axioms if a.name == "tensor-closure"
                    and a.counterexample is not None), None)
    if witness is not None and "tensor_witness" in inputs:
        target = resolve_state(inputs["tensor_witness"], seed)
        results["tensor_witness_matches"] = trace_norm(witness - target.mat) <= 1e-8
    return results, [rep.to_json()]


def _run_counterexample(inputs, params):
    which = inputs["which"]
    seed = int(params["seed"])
    if which == "rng_nonmonotonicity":
        x_chan = ch.unitary_channel(PAULI_X, single_party(2, "A"))
        small = th.Singleton(np.eye(2, dtype=complex) / 2)
        bigger = th.FiniteSet([np.eye(2, dtype=complex) / 2, np.diag([1.0, 0.0]).astype(complex)])
        prep = ch.prepare_channel(pure_state(KET_PLUS), single_party(2, "A"))
        results = {
            "x_preserves_small": th.Rng(small).verify(x_chan).ok,
            "x_preserves_bigger": th.Rng(bigger).verify(x_chan).ok,
            "prep_preserves_all": th.Rng(th.AllStates(2)).verify(prep).ok,
            "prep_preserves_point": th.Rng(th.Singleton(np.diag([1.0, 0.0]).astype(complex))).verify(prep).ok,
        }
        return results, []
    if which == "no_maximal_free_operations":
        lam = rotated_bell_preparation()
        marg = ch.marginal_channel(
            lam, "1", {"2": maximally_mixed(single_party(2, "2"))}
        )
        image = marg.apply_mat(np.eye(2, dtype=complex) / 2)
        dist = trace_norm(image - np.eye(2) / 2)
        locals_ = [(th.Singleton(np.eye(2, dtype=complex) / 2), th.UnitalOps())] * 2
        rep = co.check_axioms(co.smax([s for s, _ in locals_]), [lam], locals_,
                              n_state_samples=40, seed=seed)
        cond_d = next(c for c in rep.conditions if c.name == "free-marginal-operations")
        results = {
            "marginal_distance_from_unital": dist,
            "marginal_is_unital": ch.is_unital(marg),
            "condition_d_passes": cond_d.passed,
        }
        return results, [rep.to_json()]
    if which == "conversion_forward":
        lam = coherence_to_entanglement_channel()
        inp = resolve_state({"name": "product", "factors": [
            {"name": "plus"}, {"matrix": _ket00_literal()}]}, seed)
        inp = DensityOperator(inp.mat, lam.in_structure)
        out = ch.apply(lam, inp)
        v = bell_phi_plus_vec(2)
        target = kron(np.diag([1.0, 0.0]), np.outer(v, v.conj()))
        smin_set = th.MinComposite([th.Incoherent(2), th.SeparableTwoQubit()], labels=["1", "2"])
        verdict = th.Rng(smin_set).verify(lam)
        ss = laws.single_shot_verdict(
            inp, DensityOperator(target, lam.in_structure),
            [th.Incoherent(2), th.SeparableTwoQubit()],
            gap=float(params.get("gap", 1e-3)), seed=seed,
        )
        results = {
            "trace_distance": trace_norm(out.mat - target),
            "fidelity": float(np.real(v.conj() @ partial_trace_mat(out.mat, (2, 4), [1]) @ v)),
            "rng_verified": verdict.ok,
            "rng_mode": verdict.mode,
            "lhs": ss.lhs.value,
            "rhs": ss.rhs.value,
            "verdict": ss.verdict,
        }
        return results, [ss.to_json()]
    if which == "entanglement_to_coherence_nogo":
        n_channels = int(inputs.get("n_channels", 10))
        chans = rng_verified_channel_family(n_channels, seed=seed)
        worst_direct = 0.0
        worst_basis = 0.0
        for lam in chans:
            rep = laws.nogo_entanglement_to_coherence(lam, th.Incoherent(2), n_free_inputs=4, seed=seed)
            worst_direct = max(worst_direct, rep.direct_offdiag)
            worst_basis = max(worst_basis, rep.basis_offdiag)
        results = {
            "n_channels": len(chans),
            "worst_direct_offdiag": worst_direct,
            "worst_basis_offdiag": worst_basis,
            "certified": worst_direct <= 1e-9 and worst_basis <= 1e-9,
        }
        return results, []
    if which == "witness_channel":
        plus = pure_state(KET_PLUS)
        res = laws.witness_channel(
            plus, th.Incoherent(2), th.SeparableTwoQubit(),
            seed=seed, n_postcheck=int(inputs.get("n_postcheck", 200)),
        )
        out = res.channel.apply_mat(plus.mat)
        results = {
            "p_star": res.p_star,
            "resource_output_min_pt_eig": float(
                np.linalg.eigvalsh(partial_transpose_mat(out, (2, 2), 1))[0]
            ),
            "postconditions_hold": True,
        }
        return results, [res.to_json()]
    raise ScenarioError(f"unknown counterexample {which!r}")


def _ket00_literal():
    m = np.zeros((4, 4))
    m[0, 0] = 1.0
    return mat_to_json(m)


def rng_verified_channel_family(n: int, seed: int = 0) -> list[ch.KrausChannel]:
    """Variations of the conversion channel, each verified resource
    non-generating for the hull of (incoherent, separable) products before
    being returned: pre/post free local unitaries and mixtures with product
    channels."""
    rng = np.random.default_rng(seed)
    base = coherence_to_entanglement_channel()
    smin_set = th.MinComposite([th.Incoherent(2), th.SeparableTwoQubit()], labels=["1", "2"])
    checker = th.Rng(smin_set, seed=seed)
    structure = base.in_structure
    out = []
    while len(out) < n:
        phase_in = np.diag(np.exp(1j * rng.uniform(0, 2 * np.pi, 2)))
        phase_out = np.diag(np.exp(1j * rng.uniform(0, 2 * np.pi, 2)))
        ua = random_unitary(rng, 2)
        ub = random_unitary(rng, 2)
        pre = ch.unitary_channel(kron(phase_in, kron(ua, ub)), structure)
        post = ch.unitary_channel(
            kron(phase_out, kron(random_unitary(rng, 2), random_unitary(rng, 2))), structure)
        cand = ch.compose(post, ch.compose(base, pre))
        if rng.uniform() < 0.3:
            # mix with a product of free preparations
            diag = np.diag(rng.dirichlet(np.ones(2))).astype(complex)
            sep = th.SeparableTwoQubit().random_state(rng)
            prod_prep = ch.product_channel(
                [ch.prepare_channel(density(diag), single_party(2)),
                 ch.prepare_channel(density(sep, single_party(4)), single_party(4))],
                ["1", "2"],
            )
            w = float(rng.uniform(0.2, 0.8))
            ops = tuple(np.sqrt(w) * k for k in cand.kraus) + tuple(
                np.sqrt(1 - w) * k for k in prod_prep.kraus
            )
            cand = ch.KrausChannel(ops, structure, structure)
        if checker.verify(cand).ok:
            out.append(cand)
    return out


_RUNNERS = {
    "divergence": _run_divergence,
    "single_shot": _run_single_shot,
    "conversion": _run_conversion,
    "assisted": _run_assisted,
    "certification": _run_certification,
    "axioms": _run_axioms,
    "bp_axioms": _run_bp_axioms,
    "counterexample": _run_counterexample,
}


def validate_scenario(obj) -> dict:
    if not isinstance(obj, dict):
        raise ScenarioError("scenario must be a JSON object")
    for key in ("name", "kind", "inputs"):
        if key not in obj:
            raise ScenarioError(f"scenario missing required key {key!r}")
    if obj["kind"] not in _RUNNERS:
        raise ScenarioError(f"unknown scenario kind {obj['kind']!r}")
    params = obj.setdefault("params", {})
    params.setdefault("seed", 0)
    obj.setdefault("expected", [])
    return obj


def run_scenario(obj: dict, seed_override: int | None = None, gap_override: float | None = None) -> dict:
    obj = validate_scenario(json.loads(json.dumps(obj)))
    params = obj["params"]
    if seed_override is not None:
        params["seed"] = int(seed_override)
    if gap_override is not None:
        params["gap"] = float(gap_override)
    t0 = time.perf_counter()
    results, certificates = _RUNNERS[obj["kind"]](obj["inputs"], params)
    checks = check_expected(results, obj["expected"])
    report = {
        "scenario": obj["name"],
        "kind": obj["kind"],
        "description": obj.get("description", ""),
        "seed": params["seed"],
        "results": results,
        "expected_checks": checks,
        "passed": all(c["passed"] for c in checks),
        "converged": all(_cert_converged(c) for c in certificates),
        "certificates": certificates,
        "wall_time_s": round(time.perf_counter() - t0, 6),
        "version": __version__,
    }
    return report


def _cert_converged(cert: dict) -> bool:
    if "converged" in cert:
        return bool(cert["converged"])
    nested = [cert[k] for k in ("lhs", "rhs", "ceiling") if isinstance(cert.get(k), dict)]
    return all(_cert_converged(c) for c in nested) if nested else True


# ---------------------------------------------------------------------------
# built-in scenarios

_INC2 = {"kind": "incoherent", "dim": 2}
_SEP = {"kind": "separable", "dim": 4, "cut": [2, 2]}


def _builtin_list() -> list[dict]:
    return [
        {
            "name": "coherence_golden_unit",
            "kind": "divergence",
            "description": "The flat superposition carries exactly one bit of "
                           "coherence; closed form and the iterative engine agree.",
            "inputs": {"state": "plus", "theory": _INC2, "which": "relative_entropy",
                       "engine": "both"},
            "params": {"seed": 1, "gap": 1e-4},
            "expected": [
                {"path": "closed_form", "op": "approx", "target": 1.0, "tol": 1e-12},
                {"path": "engine_value", "op": "approx", "target": 1.0, "tol": 1e-3},
                {"path": "converged", "op": "true"},
            ],
        },
        {
            "name": "entanglement_golden_unit",
            "kind": "divergence",
            "description": "One maximally entangled pair holds one bit of "
                           "entanglement relative to the separable states.",
            "inputs": {"state": {"name": "bell_phi_plus", "labels": ["A", "B"], "dims": [2, 2]},
                       "theory": _SEP, "which": "relative_entropy"},
            "params": {"seed": 1, "gap": 5e-4},
            "expected": [
                {"path": "value", "op": "approx", "target": 1.0, "tol": 1e-3},
                {"path": "converged", "op": "true"},
            ],
        },
        {
            "name": "coherence_to_entanglement_forward",
            "kind": "counterexample",
            "description": "A resource-non-generating map turns one coherence "
                           "unit into one entanglement unit exactly.",
            "inputs": {"which": "conversion_forward"},
            "params": {"seed": 2, "gap": 2e-3},
            "expected": [
                {"path": "trace_distance", "op": "le", "target": 1e-10},
                {"path": "fidelity", "op": "ge", "target": 1.0, "tol": 1e-10},
                {"path": "rng_verified", "op": "true"},
                {"path": "rng_mode", "op": "eq", "target": "certified"},
                {"path": "verdict", "op": "eq", "target": "NOT-EXCLUDED"},
            ],
        },
        {
            "name": "entanglement_to_coherence_nogo",
            "kind": "counterexample",
            "description": "No admissible map can push shared correlations into "
                           "local coherence: the affine-basis certificate.",
            "inputs": {"which": "entanglement_to_coherence_nogo", "n_channels": 10},
            "params": {"seed": 3},
            "expected": [
                {"path": "certified", "op": "true"},
                {"path": "worst_direct_offdiag", "op": "le", "target": 1e-9},
            ],
        },
        {
            "name": "rng_nonmonotonicity",
            "kind": "counterexample",
            "description": "Growing the free set can shrink the non-generating "
                           "class, and vice versa.",
            "inputs": {"which": "rng_nonmonotonicity"},
            "params": {"seed": 4},
            "expected": [
                {"path": "x_preserves_small", "op": "true"},
                {"path": "x_preserves_bigger", "op": "false"},
                {"path": "prep_preserves_all", "op": "true"},
                {"path": "prep_preserves_point", "op": "false"},
            ],
        },
        {
            "name": "no_maximal_free_operations",
            "kind": "counterexample",
            "description": "Concatenating operations that each preserve one "
                           "extremal set violates the marginal-operation "
                           "condition, so no maximal operation class exists.",
            "inputs": {"which": "no_maximal_free_operations"},
            "params": {"seed": 5},
            "expected": [
                {"path": "marginal_distance_from_unital", "op": "approx", "target": 1.0, "tol": 1e-10},
                {"path": "marginal_is_unital", "op": "false"},
                {"path": "condition_d_passes", "op": "false"},
            ],
        },
        {
            "name": "multicopy_tensor_closure_violation",
            "kind": "bp_axioms",
            "description": "A per-copy choice of composition that mixes the "
                           "extremal constructions breaks tensor closure.",
            "inputs": {
                "family": {
                    "1": {"kind": "max-composite", "labels": ["1", "2"],
                          "locals": [{"kind": "singleton", "dim": 2, "gamma": _maximally_mixed_literal(2)},
                                     {"kind": "singleton", "dim": 2, "gamma": _maximally_mixed_literal(2)}]},
                    "2": {"kind": "min-composite", "labels": ["c0", "c1"],
                          "locals": [
                              {"kind": "max-composite", "labels": ["1", "2"],
                               "locals": [{"kind": "singleton", "dim": 2, "gamma": _maximally_mixed_literal(2)},
                                          {"kind": "singleton", "dim": 2, "gamma": _maximally_mixed_literal(2)}]},
                              {"kind": "singleton", "dim": 4, "gamma": _maximally_mixed_literal(4)},
                          ]},
                },
                "probes": {"1": [{"name": "bell_phi_plus"}]},
                "tensor_witness": {"name": "product",
                                   "factors": [{"name": "bell_phi_plus"}, {"name": "bell_phi_plus"}]},
                "n_samples": 30,
            },
            "params": {"seed": 6},
            "expected": [
                {"path": "tensor_closure", "op": "false"},
                {"path": "tensor_witness_matches", "op": "true"},
                {"path": "convexity", "op": "true"},
                {"path": "marginal_closure", "op": "true"},
            ],
        },
        {
            "name": "assisted_distillation_pure",
            "kind": "assisted",
            "description": "With an unrestricted assistant, a shared pure state "
                           "distills coherence at the dephased-marginal entropy.",
            "inputs": {"rho_ab": {"name": "haar", "dim": 4, "seed": 11,
                                  "labels": ["A", "B"], "dims": [2, 2]},
                       "b_theory": _INC2, "golden": "plus"},
            "params": {"seed": 7, "gap": 1e-3},
            "expected": [
                {"path": "denominator", "op": "approx", "target": 1.0, "tol": 1e-9},
                {"path": "pure_identity_dev", "op": "le", "target": 1e-3},
            ],
        },
        {
            "name": "certification_case_study",
            "kind": "certification",
            "description": "Sending the suspect qubit as-is cannot beat guessing "
                           "under real measurements; a quarter rotation first "
                           "saturates the ceiling.",
            "inputs": {"sub": "remote", "state": "plus_y", "theory": _INC2,
                       "measurements": "real",
                       "family": ["rz_then_send"]},
            "params": {"seed": 8, "epsilon": 0.5},
            "expected": [
                {"path": "value", "op": "inf"},
                {"path": "alpha", "op": "approx", "target": 0.5, "tol": 1e-9},
                {"path": "beta", "op": "le", "target": 1e-12},
            ],
        },
        {
            "name": "certification_no_preprocessing_floor",
            "kind": "certification",
            "description": "The identity preprocessing family stays at the "
                           "trivial-performance floor.",
            "inputs": {"sub": "remote", "state": "plus_y", "theory": _INC2,
                       "measurements": "real",
                       "family": ["identity_then_send"]},
            "params": {"seed": 8, "epsilon": 0.25},
            "expected": [
                {"path": "value", "op": "approx", "target": 0.4150374992788437, "tol": 1e-4},
            ],
        },
        {
            "name": "hypothesis_floor",
            "kind": "divergence",
            "description": "Certifying a free state is pure guessing: the "
                           "exponent is -log2(1-epsilon).",
            "inputs": {"state": {"name": "maximally_mixed", "dim": 2},
                       "theory": _INC2, "which": "hypothesis"},
            "params": {"seed": 9, "epsilon": 0.25},
            "expected": [
                {"path": "value", "op": "approx", "target": 0.4150374992788437, "tol": 1e-4},
                {"path": "converged", "op": "true"},
            ],
        },
        {
            "name": "lfocc_certification_ceiling",
            "kind": "certification",
            "description": "Local protocols with a strictly incoherent suspect "
                           "party pull every measurement back to a diagonal "
                           "test, capping them at the diagonal ceiling.",
            "inputs": {"sub": "lfocc", "state": "plus_y", "theory": _INC2,
                       "n_protocols": 25},
            "params": {"seed": 10, "epsilon": 0.5},
            "expected": [
                {"path": "worst_offdiag", "op": "le", "target": 1e-10},
                {"path": "worst_excess_over_ceiling", "op": "le", "target": 1e-6},
            ],
        },
        {
            "name": "witness_channel_construction",
            "kind": "counterexample",
            "description": "A measure-and-prepare map separating coherence from "
                           "incoherence while staying separable on free inputs.",
            "inputs": {"which": "witness_channel", "n_postcheck": 200},
            "params": {"seed": 12},
            "expected": [
                {"path": "p_star", "op": "approx", "target": 0.6666666666666666, "tol": 1e-6},
                {"path": "resource_output_min_pt_eig", "op": "le", "target": -1e-9},
                {"path": "postconditions_hold", "op": "true"},
            ],
        },
        {
            "name": "single_shot_bound_check",
            "kind": "single_shot",
            "description": "The hull divergence of the input dominates the "
                           "marginal-set divergence of the target; at one bit "
                           "each, the conversion is not excluded.",
            "inputs": {
                "rho": {"name": "product",
                        "factors": [{"name": "plus"}, {"name": "basis", "dim": 4, "index": 0}],
                        "labels": ["1", "2"], "dims": [2, 4]},
                "sigma": {"name": "product",
                          "factors": [{"name": "basis", "dim": 2, "index": 0},
                                      {"name": "bell_phi_plus"}],
                          "labels": ["1", "2"], "dims": [2, 4]},
                "locals": [_INC2, _SEP],
            },
            "params": {"seed": 17, "gap": 2e-3},
            "expected": [
                {"path": "lhs", "op": "approx", "target": 1.0, "tol": 2e-3},
                {"path": "rhs", "op": "approx", "target": 1.0, "tol": 5e-3},
                {"path": "verdict", "op": "eq", "target": "NOT-EXCLUDED"},
            ],
        },
        {
            "name": "optimal_rng_strategy",
            "kind": "certification",
            "description": "Moving the suspect system to the measuring party "
                           "and refilling with a free state saturates the "
                           "unrestricted certification ceiling whenever the "
                           "suspect party's free states are free there too.",
            "inputs": {"sub": "rng_optimal", "state": "plus_y", "theory": _INC2,
                       "theory_b": {"kind": "real", "dim": 2}},
            "params": {"seed": 15, "epsilon": 0.25},
            "expected": [
                {"path": "value", "op": "approx", "target": 1.0, "tol": 1e-6},
                {"path": "saturates", "op": "true"},
            ],
        },
        {
            "name": "asymptotic_conversion_rate",
            "kind": "conversion",
            "description": "At most one entangled pair per coherence unit in "
                           "the many-copy limit: the regularized divergence "
                           "ratio bounds the conversion rate by one.",
            "inputs": {"rho1": "plus", "theory1": _INC2,
                       "rho2": {"name": "bell_phi_plus", "labels": ["A", "B"], "dims": [2, 2]},
                       "theory2": _SEP, "mode": "asymptotic"},
            "params": {"seed": 16, "gap": 1e-3,
                       "assume_additive": [False, True]},
            "expected": [
                {"path": "rate_bound", "op": "approx", "target": 1.0, "tol": 5e-3},
                {"path": "numerator", "op": "approx", "target": 1.0, "tol": 1e-9},
            ],
        },
        {
            "name": "extremal_sandwich",
            "kind": "axioms",
            "description": "The hull composition sits inside the marginal "
                           "composition; product operations map the former "
                           "into the latter.",
            "inputs": {"candidate": "smin", "check": "sandwich",
                       "locals": [[_INC2, "sio"], [_INC2, "sio"]],
                       "n_samples": 60},
            "params": {"seed": 13},
            "expected": [
                {"path": "all_pass", "op": "true"},
            ],
        },
        {
            "name": "minimal_composition_axioms",
            "kind": "axioms",
            "description": "The hull states with mixtures of product operations "
                           "satisfy all four compatibility conditions.",
            "inputs": {"candidate": "smin",
                       "locals": [[_INC2, "sio"], [_INC2, "sio"]],
                       "ops": [{"fmin_random": 5}],
                       "n_samples": 60},
            "params": {"seed": 14},
            "expected": [
                {"path": "all_pass", "op": "true"},
            ],
        },
    ]


def _maximally_mixed_literal(d: int) -> dict:
    return mat_to_json(np.eye(d) / d)


def builtin_scenarios() -> dict[str, dict]:
    return {b["name"]: b for b in _builtin_list()}
