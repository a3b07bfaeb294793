"""The benchmark's workloads: inputs built from a seed, the public hetres
calls that are timed, and the checks on every output.

A workload pass is a list of items.  Each item is one timed call into the
public hetres API plus an untimed check of its output; the check returns
whether the output is right and the certificates it carries.  Generated
inputs for pass ``k`` of seed ``s`` come from ``numpy.random.default_rng([s,
k])``, so every pass of a run sees fresh inputs and a rerun sees the same
ones; the suite's inputs are the built-in scenarios themselves.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable

import numpy as np

from hetres import certify as ct
from hetres import channels as ch
from hetres import composite as co
from hetres import divergences as dv
from hetres import laws
from hetres import qcore
from hetres import scenarios as sc
from hetres import theories as th

HERE = Path(__file__).resolve().parent
LEDGER = HERE / "excluded_cells.json"

# fixed once: the solve tolerances every grid cell is asked for
RE_GAP = 1e-3
DMAX_TOL = 1e-4
DH_EPSILON = 0.1
DH_TOL = 1e-6
# slack for comparing two floating-point evaluations of one quantity
FLOAT_SLACK = 1e-9


@dataclass
class Cert:
    """One certificate: converged flag, certified gap in bits (None when the
    certificate is a yes/no verdict) and solver iterations."""

    converged: bool
    gap: float | None = None
    iterations: int = 0


@dataclass
class Outcome:
    ok: bool
    detail: str = ""
    certs: list[Cert] = field(default_factory=list)


@dataclass
class Item:
    key: str
    call: Callable[[], Any]
    check: Callable[[Any], Outcome]


def pass_rng(seed: int, k: int) -> np.random.Generator:
    return np.random.default_rng([seed, k])


# ---------------------------------------------------------------------------
# suite: every exported built-in scenario, in file order


def _suite_scenarios() -> list[tuple[str, dict]]:
    # the JSON round trip and name order reproduce `hetres export` followed
    # by `hetres suite` over the exported directory
    specs = sc.builtin_scenarios()
    return [(f"{name}.json", json.loads(json.dumps(specs[name]))) for name in sorted(specs)]


def _certs_in(obj) -> list[Cert]:
    """Certificates embedded in a report: every serialized DivergenceResult."""
    if isinstance(obj, dict):
        if {"value", "lower_bound", "upper_bound", "converged"} <= obj.keys():
            return [_result_cert(obj["lower_bound"], obj["upper_bound"], obj["value"],
                                 bool(obj["converged"]), int(obj.get("iterations", 0)))]
        return [c for v in obj.values() for c in _certs_in(v)]
    if isinstance(obj, list):
        return [c for v in obj for c in _certs_in(v)]
    return []


def _result_cert(lower, upper, value, converged, iterations) -> Cert:
    gap = 0.0 if math.isinf(value) else upper - lower
    return Cert(converged, gap, iterations)


def _check_report(report) -> Outcome:
    failed = [c for c in report["expected_checks"] if not c["passed"]]
    detail = "; ".join(f"{c.get('path')} {c.get('op')}" for c in failed)
    return Outcome(bool(report["passed"]), detail, _certs_in(report["certificates"]))


SMALL_SUITE = ("coherence_golden_unit.json", "extremal_sandwich.json",
               "hypothesis_floor.json", "multicopy_tensor_closure_violation.json")


def suite_pass(seed: int, k: int, small: bool = False) -> list[Item]:
    # the built-in scenarios are fixed inputs that carry their own seeds, as
    # `hetres suite` runs them without --seed; the workload seed changes nothing
    scenarios = _suite_scenarios()
    if small:
        scenarios = [s for s in scenarios if s[0] in SMALL_SUITE]
    return [Item(name, lambda obj=obj: sc.run_scenario(obj), _check_report)
            for name, obj in scenarios]



# ---------------------------------------------------------------------------
# solve_grid: engine x set kind x D, rank-1 and full-rank inputs

CLOSED_FORM_KINDS = ("incoherent", "real", "singleton", "finite")
CONVEX_CLOSED_FORM_KINDS = ("incoherent", "real", "singleton")
COMPOSITE_KINDS = ("min-inc-real", "min-real-all", "max-inc-real")
DIMS = (2, 4, 9, 16)
LOCAL_DIM = {4: 2, 9: 3, 16: 4}
ENGINES = ("re", "re_force", "dmax", "dh")


def _make_set(kind: str, dim: int, rng) -> th.FreeStateSet:
    d = LOCAL_DIM.get(dim)
    if kind == "incoherent":
        return th.Incoherent(dim)
    if kind == "real":
        return th.RealStates(dim)
    if kind == "singleton":
        return th.Singleton(qcore.random_density_mat(rng, dim))
    if kind == "finite":
        return th.FiniteSet([qcore.random_density_mat(rng, dim) for _ in range(4)])
    if kind == "separable":
        return th.SeparableTwoQubit()
    if kind == "min-inc-real":
        return co.smin([th.Incoherent(d), th.RealStates(d)])
    if kind == "min-real-all":
        return co.smin([th.RealStates(d), th.AllStates(d)])
    if kind == "max-inc-real":
        return co.smax([th.Incoherent(d), th.RealStates(d)])
    raise ValueError(kind)


def grid_cells() -> list[str]:
    """Every cell of the full grid as 'engine/kind/D<dim>/r<rank>'."""
    cells = []
    for dim in DIMS:
        kinds = list(CLOSED_FORM_KINDS)
        if dim == 4:
            kinds.append("separable")
        if dim in LOCAL_DIM:
            kinds += list(COMPOSITE_KINDS)
        for engine in ENGINES:
            for kind in kinds:
                if engine == "re_force" and kind not in CLOSED_FORM_KINDS:
                    continue
                for rank in (1, dim):
                    cells.append(f"{engine}/{kind}/D{dim}/r{rank}")
    return cells


def load_ledger() -> dict[str, dict]:
    with open(LEDGER) as fh:
        return {row["cell"]: row for row in json.load(fh)["excluded"]}


SMALL_GRID = ("re/incoherent/D2/r1", "re_force/real/D2/r2", "re/min-inc-real/D4/r4",
              "dmax/singleton/D2/r1", "dh/singleton/D2/r2")


def included_cells(small: bool = False) -> list[str]:
    if small:
        return list(SMALL_GRID)
    excluded = load_ledger()
    return [c for c in grid_cells() if c not in excluded]


def _solve(engine, rho, free_set, seed):
    if engine == "re":
        return dv.rel_entropy_of_resource(rho, free_set, gap=RE_GAP, seed=seed)
    if engine == "re_force":
        return dv.rel_entropy_of_resource(rho, free_set, gap=RE_GAP, seed=seed, force_engine=True)
    if engine == "dmax":
        return dv.dmax(rho, free_set, tol=DMAX_TOL, seed=seed)
    return dv.hypothesis_testing(rho, free_set, DH_EPSILON, tol=DH_TOL, seed=seed)


REQUESTED = {"re": RE_GAP, "re_force": RE_GAP, "dmax": DMAX_TOL, "dh": DH_TOL}


def _grid_check(engine, kind, rho, free_set):
    requested = REQUESTED[engine]

    def check(res) -> Outcome:
        cert = _result_cert(res.lower_bound, res.upper_bound, res.value,
                            bool(res.converged), int(res.iterations))
        problems = []
        if not (res.lower_bound <= res.value <= res.upper_bound):
            problems.append("bounds do not bracket the value")
        if bool(res.converged) != (res.gap <= requested):
            problems.append(f"converged={res.converged} with gap {res.gap:.3g} vs {requested:g}")
        if engine == "re_force":
            # the closed form is the reference; the engine must bracket it
            # within its own certificate (a finite list is not convex, so its
            # hull minimum may sit below the list minimum)
            _, exact = free_set.closest_free_state(rho)
            if res.lower_bound > exact + FLOAT_SLACK:
                problems.append(f"lower bound {res.lower_bound:.6g} above closed form {exact:.6g}")
            if kind in CONVEX_CLOSED_FORM_KINDS and exact > res.upper_bound + FLOAT_SLACK:
                problems.append(f"closed form {exact:.6g} above upper bound {res.upper_bound:.6g}")
        return Outcome(not problems, "; ".join(problems), [cert])

    return check


# Exact engines (closed forms, the singleton D_max) take microseconds, which
# is timer noise; their items each solve a batch of states so that an item
# costs about as much as a short iterative solve.
EXACT_BATCH = 16


def batch_size(engine: str, kind: str) -> int:
    exact = (engine == "re" and kind in CLOSED_FORM_KINDS) or (engine == "dmax" and kind == "singleton")
    return EXACT_BATCH if exact else 1


def _batch_check(checks):
    def check(results) -> Outcome:
        outs = [c(r) for c, r in zip(checks, results)]
        if len(outs) == 1:
            return outs[0]
        certs = [c for o in outs for c in o.certs]
        # one certificate per item, so batching leaves certified_frac unweighted
        merged = Cert(all(c.converged for c in certs), max(c.gap for c in certs),
                      max(c.iterations for c in certs))
        return Outcome(all(o.ok for o in outs), "; ".join(o.detail for o in outs if o.detail),
                       [merged])
    return check


def grid_pass(seed: int, k: int, small: bool = False) -> list[Item]:
    rng = pass_rng(seed, k)
    items = []
    for cell in included_cells(small):
        engine, kind, d_part, r_part = cell.split("/")
        dim, rank = int(d_part[1:]), int(r_part[1:])
        jobs, checks = [], []
        for b in range(batch_size(engine, kind)):
            free_set = _make_set(kind, dim, rng)
            rho = qcore.random_density_mat(rng, dim, rank)
            jobs.append((rho, free_set, int(rng.integers(2**31))))
            checks.append(_grid_check(engine, kind, rho, free_set))
        items.append(Item(
            cell,
            lambda e=engine, j=jobs: [_solve(e, rho, s, z) for rho, s, z in j],
            _batch_check(checks),
        ))
    return items


# ---------------------------------------------------------------------------
# membership: sampling checkers and the membership calls around them

Y_PLUS = np.array([[0.5, -0.5j], [0.5j, 0.5]])


def _expect(expected, label=""):
    def check(got) -> Outcome:
        ok = bool(got) == expected
        return Outcome(ok, "" if ok else f"{label} returned {got}, expected {expected}")
    return check


def _expect_report(report) -> Outcome:
    bad = [c.name for c in report.conditions if not c.passed]
    return Outcome(not bad, ", ".join(bad))


def _pad(m: np.ndarray, dim: int) -> np.ndarray:
    out = np.zeros((dim, dim), dtype=complex)
    out[: m.shape[0], : m.shape[1]] = m
    return out


class IsometryRealOps(th.RealOps):
    """RealOps whose sampler takes the Kraus family as the row blocks of a
    real isometry (QR of a Gaussian), trace preserving to rounding.

    ``RealOps.sample_channel`` normalises by ``(sum G^T G)^(-1/2)``; on an
    ill-conditioned draw that leaves a trace deviation above the channel
    constructor's 1e-9 check, which raises (see README.md).  The membership
    predicate is the inherited one.
    """

    def sample_channel(self, rng, dim):
        n = int(rng.integers(1, 4))
        q, _ = np.linalg.qr(rng.normal(size=(n * dim, dim)))
        ops = tuple(q[m * dim: (m + 1) * dim].astype(complex) for m in range(n))
        return ch.KrausChannel(ops, qcore.single_party(dim), qcore.single_party(dim))


def _product_ops(rng, locals_, n):
    return [co.fmin_element([[_sample(cls, rng, s.dim) for s, cls in locals_]])
            for _ in range(n)]


def _sample(cls, rng, dim):
    chan = cls.sample_channel(rng, dim)
    if isinstance(cls, th.Sio):
        # real amplitudes: RealOps decides on the given Kraus family, and the
        # marginal channel at a Real party carries the Sio amplitudes as
        # complex scalar factors, which fails free-marginal-operations
        chan = ch.KrausChannel(tuple(np.abs(k).astype(complex) for k in chan.kraus),
                               chan.in_structure, chan.out_structure)
    return chan


def _bp_family():
    spec = sc.builtin_scenarios()["multicopy_tensor_closure_violation"]
    family = {int(n): sc.resolve_theory(t) for n, t in spec["inputs"]["family"].items()}
    probes = {1: [sc.resolve_state("bell_phi_plus").mat]}
    witness = sc.resolve_state({"name": "product", "factors": [
        {"name": "bell_phi_plus"}, {"name": "bell_phi_plus"}]}).mat
    return family, probes, witness


def _check_bp(witness):
    def check(rep) -> Outcome:
        by = {a.name: a for a in rep.axioms}
        problems = []
        tc = by["tensor-closure"]
        if tc.passed or tc.counterexample is None:
            problems.append("tensor-closure counterexample not found")
        elif qcore.trace_norm(tc.counterexample - witness) > 1e-8:
            problems.append("tensor-closure counterexample is not the Bell-pair product")
        for name in ("convexity", "marginal-closure"):
            if not by[name].passed:
                problems.append(f"{name} failed")
        return Outcome(not problems, "; ".join(problems))
    return check


def _check_nogo(rep) -> Outcome:
    ok = rep.certified and rep.direct_offdiag <= 1e-9
    return Outcome(ok, "" if ok else f"not certified ({rep.direct_offdiag:.3g})",
                   [Cert(bool(rep.certified))])


def _check_lfocc(rep) -> Outcome:
    c = rep.ceiling
    problems = []
    if rep.extras["effective_offdiag"] > 1e-10:
        problems.append("effective element not diagonal")
    if not math.isinf(c.value) and rep.value > c.value + 1e-6:
        problems.append(f"value {rep.value:.6g} above ceiling {c.value:.6g}")
    if not (c.lower_bound <= c.value <= c.upper_bound):
        problems.append("ceiling bounds do not bracket the value")
    cert = _result_cert(c.lower_bound, c.upper_bound, c.value, bool(c.converged), int(c.iterations))
    return Outcome(not problems, "; ".join(problems), [cert])


def membership_pass(seed: int, k: int, small: bool = False) -> list[Item]:
    rng = pass_rng(seed, k)
    sub_seed = seed * 1000 + k
    inc2, real2 = th.Incoherent(2), th.RealStates(2)
    real_ops = IsometryRealOps()
    locals_ir = [(inc2, th.Sio()), (real2, real_ops)]
    locals_rr = [(real2, real_ops), (th.RealStates(2), real_ops)]
    smin_ir = co.smin([s for s, _ in locals_ir])
    smax_ir = co.smax([s for s, _ in locals_ir])
    smin_rr = co.smin([s for s, _ in locals_rr])
    locals_ra3 = [(th.RealStates(3), real_ops), (th.AllStates(3), th.AllOps())]
    smin_ra3 = co.smin([s for s, _ in locals_ra3])
    items: list[Item] = []

    def add(key, call, check):
        items.append(Item(key, call, check))

    # axiom and sandwich checkers on candidates with a structured membership
    # fast path; sampled hull mixtures never reach the hull-distance fallback
    # here, since it can stall above tolerance on a member (a false "not a
    # member"); the fallback candidates get product samples and a class
    fast_n = 10 if small else 40
    for name, cand in (("smin-inc-real", smin_ir), ("smax-inc-real", smax_ir)):
        ops = _product_ops(rng, locals_ir, 2)
        add(f"check_axioms/{name}",
            lambda c=cand, o=ops, n=fast_n, s=sub_seed: co.check_axioms(
                c, o, locals_ir, n_state_samples=n, seed=s),
            _expect_report)
        add(f"check_sandwich/{name}",
            lambda c=cand, n=fast_n, s=sub_seed: co.check_sandwich(
                c, [inc2, real2], n_samples=n, seed=s),
            _expect_report)
    for name, cand, locs, ops_class in (
            ("smin-real-real", smin_rr, locals_rr, th.RealOps()),
            ("smin-real3-all3", smin_ra3, locals_ra3, th.AllOps())):
        add(f"check_axioms/{name}",
            lambda c=cand, o=ops_class, l=locs, n=fast_n // 2, s=sub_seed: co.check_axioms(
                c, o, l, n_state_samples=n, n_channel_samples=n, seed=s),
            _expect_report)

    # the multicopy family whose tensor closure fails
    family, probes, witness = _bp_family()
    add("check_bp_axioms/multicopy",
        lambda s=sub_seed: co.check_bp_axioms(family, max_n=2, n_samples=30, seed=s,
                                              probe_states=probes),
        _check_bp(witness))

    # resource non-generation: verified channels pass, a coherence
    # generator on party 1 does not
    n_chan = 2 if small else 6
    chans = sc.rng_verified_channel_family(n_chan, seed=sub_seed)
    smin_is = th.MinComposite([inc2, th.SeparableTwoQubit()], labels=["1", "2"])
    for i, lam in enumerate(chans):
        add(f"rng_verify/family{i}", lambda l=lam: th.Rng(smin_is, seed=sub_seed).verify(l).ok,
            _expect(True, "Rng.verify"))
        add(f"nogo/family{i}",
            lambda l=lam: laws.nogo_entanglement_to_coherence(l, inc2, n_free_inputs=4,
                                                              seed=sub_seed),
            _check_nogo)
    hadamard = ch.unitary_channel(np.kron(qcore.HADAMARD, np.eye(4)), chans[0].in_structure)
    add("rng_verify/generator", lambda: th.Rng(smin_is, seed=sub_seed).verify(hadamard).ok,
        _expect(False, "Rng.verify"))

    # local-protocol ceilings over random protocols
    plus_y = sc.resolve_state("plus_y")
    structure = qcore.TensorStructure([("A", 2), ("B", 2)])
    classes = {"A": th.Sio(), "B": real_ops}
    for i in range(3 if small else 8):
        prot = th.random_lfocc_protocol(rng, structure, classes, int(rng.integers(1, 4)),
                                        order=["A", "B", "A"])
        u = np.linalg.qr(rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)))[0]
        element = u @ np.diag(rng.uniform(0.0, 1.0, 2)).astype(complex) @ u.conj().T
        add(f"lfocc_ceiling/{i}",
            lambda p=prot, e=element: ct.lfocc_ceiling(plus_y, inc2, p, e, 0.5, seed=sub_seed),
            _check_lfocc)

    # direct membership calls: sampled members test in, non-members out.
    # Members of the fallback candidates are products of local samples; each
    # set also gets mixtures 0.9 member + 0.1 random state whose first
    # marginal has an imaginary part, which no state of these sets has
    outside = np.kron(Y_PLUS, np.diag([1.0, 0.0]))
    sets = [("smin-inc-real", smin_ir, outside, None, 4),
            ("smax-inc-real", smax_ir, outside, None, 4),
            ("separable", th.SeparableTwoQubit(), sc.resolve_state("bell_phi_plus").mat, None, 0),
            ("smin-real-real", smin_rr, outside, locals_rr, 8),
            # one mixture here costs 1.4-5.6 s and would set the pass time alone
            ("smin-real3-all3", smin_ra3, np.kron(_pad(Y_PLUS, 3), np.eye(3) / 3), locals_ra3, 0)]
    for name, free_set, non_member, product_of, n_mixed in sets:
        members = []
        for j in range(2 if small else 12):
            if product_of is None:
                members.append(free_set.random_state(rng))
            else:
                members.append(np.kron(*[s.random_state(rng) for s, _ in product_of]))
        for j, mu in enumerate(members):
            add(f"contains/{name}/member{j}", lambda s=free_set, m=mu: s.contains(m),
                _expect(True, f"{name}.contains(member)"))
        add(f"contains/{name}/outside", lambda s=free_set, m=non_member: s.contains(m),
            _expect(False, f"{name}.contains(non-member)"))
        for j in range(min(n_mixed, 1) if small else n_mixed):
            mixed = _complex_marginal_mixture(rng, members[j], free_set.structure.dims)
            add(f"contains/{name}/mixed{j}", lambda s=free_set, m=mixed: s.contains(m),
                _expect(False, f"{name}.contains(mixed non-member)"))
    return items


def _complex_marginal_mixture(rng, member, dims):
    while True:
        x = 0.9 * member + 0.1 * qcore.random_density_mat(rng, member.shape[0])
        if np.max(np.abs(np.imag(qcore.partial_trace_mat(x, dims, [0])))) > 1e-3:
            return x


PASSES = {"suite": suite_pass, "solve_grid": grid_pass, "membership": membership_pass}
