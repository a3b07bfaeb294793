"""Quantum channels as Kraus families, plus round-based local protocols.

Channels are stored as explicit Kraus operators (dim_out x dim_in).  The map,
its adjoint and its Choi form all come from one cached superoperator
sum_K K (x) conj(K), the size of the Choi matrix, so applying a channel to a
matrix or a stack of them is one matrix product.  Local protocols
with classical communication are stored as per-round trees of local Kraus
families keyed by the classical history so far, and compiled into a flat Kraus
family on the whole network.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from typing import Mapping, Sequence

import numpy as np

from .qcore import (
    DensityOperator,
    TensorStructure,
    as_complex,
    check_hermitian,
    embed_operator,
    kron,
    kron_all,
    mat_from_json,
    mat_to_json,
    partial_trace_mat,
    single_party,
    trace_norm,
)

TP_TOL = 1e-9
BRANCH_CAP = 64


@dataclass(frozen=True)
class KrausChannel:
    """A CPTP map given by a nonempty Kraus family.

    Trace preservation (sum K^dag K = I within 1e-9) is validated on
    construction; set ``check_tp=False`` only for maps known exact by
    construction where the check is redundant.
    """

    kraus: tuple[np.ndarray, ...]
    in_structure: TensorStructure
    out_structure: TensorStructure
    check_tp: bool = field(default=True, repr=False)

    def __post_init__(self):
        ops = tuple(np.asarray(k, dtype=complex) for k in self.kraus)
        if not ops:
            raise ValueError("Kraus family must be nonempty")
        d_in, d_out = self.in_structure.dim, self.out_structure.dim
        for k in ops:
            if k.shape != (d_out, d_in):
                raise ValueError(f"Kraus shape {k.shape} != ({d_out}, {d_in})")
        object.__setattr__(self, "kraus", ops)
        if self.check_tp:
            dev = _tp_deviation(ops)
            if dev > TP_TOL:
                raise ValueError(f"channel is not trace preserving (dev {dev:.3e})")

    @property
    def dim_in(self) -> int:
        return self.in_structure.dim

    @property
    def dim_out(self) -> int:
        return self.out_structure.dim

    @functools.cached_property
    def superoperator(self) -> np.ndarray:
        """S = sum_K K (x) conj(K), (d_out^2, d_in^2): vec(L(X)) = S vec(X) for
        row-major vec, from one product on the stacked family."""
        d_in, d_out = self.dim_in, self.dim_out
        f = np.stack(self.kraus).reshape(len(self.kraus), -1)
        s = (f.T @ f.conj()).reshape(d_out, d_in, d_out, d_in)
        s = s.transpose(0, 2, 1, 3).reshape(d_out * d_out, d_in * d_in)
        s.setflags(write=False)  # shared by every later call on this channel
        return s

    def apply_mat(self, mat: np.ndarray) -> np.ndarray:
        """The image of a matrix, or of each matrix in a stack (..., d_in, d_in)."""
        m = as_complex(mat)
        if m.shape[-1] != self.dim_in:
            raise ValueError(f"dimension mismatch: state {m.shape[-1]}, channel {self.dim_in}")
        out = m.reshape(*m.shape[:-2], self.dim_in**2) @ self.superoperator.T
        return out.reshape(*m.shape[:-2], self.dim_out, self.dim_out)

    def adjoint_mat(self, mat: np.ndarray) -> np.ndarray:
        """sum_K K^dag G K for a matrix G, or for each matrix in a stack
        (..., d_out, d_out): Tr(G L(X)) = Tr(adjoint_mat(G) X)."""
        g = as_complex(mat)
        if g.shape[-1] != self.dim_out:
            raise ValueError(f"dimension mismatch: operator {g.shape[-1]}, channel {self.dim_out}")
        out = g.reshape(*g.shape[:-2], self.dim_out**2) @ self.superoperator.conj()
        return out.reshape(*g.shape[:-2], self.dim_in, self.dim_in)

    def to_json(self) -> dict:
        return {
            "in_dims": list(self.in_structure.dims),
            "out_dims": list(self.out_structure.dims),
            "in_labels": list(self.in_structure.labels),
            "out_labels": list(self.out_structure.labels),
            "kraus": [mat_to_json(k) for k in self.kraus],
        }


def _tp_deviation(ops: Sequence[np.ndarray]) -> float:
    """max |sum K^dag K - I|, from one product on the stacked family."""
    ks = np.stack(ops).reshape(-1, ops[0].shape[1])
    return float(np.max(np.abs(ks.conj().T @ ks - np.eye(ks.shape[1]))))


def channel_from_json(obj: dict) -> KrausChannel:
    in_labels = obj.get("in_labels") or [f"p{i}" for i in range(len(obj["in_dims"]))]
    out_labels = obj.get("out_labels") or [f"p{i}" for i in range(len(obj["out_dims"]))]
    ins = TensorStructure(zip(in_labels, obj["in_dims"]))
    outs = TensorStructure(zip(out_labels, obj["out_dims"]))
    kraus = [mat_from_json(k) for k in obj["kraus"]]
    return KrausChannel(tuple(kraus), ins, outs)


def apply(channel: KrausChannel, rho: DensityOperator) -> DensityOperator:
    """Apply the channel, returning a validated state on the output structure."""
    return DensityOperator(channel.apply_mat(rho.mat), channel.out_structure)


def compose(second: KrausChannel, first: KrausChannel) -> KrausChannel:
    """Concatenation second o first as the Kraus family {K2 K1}."""
    if first.dim_out != second.dim_in:
        raise ValueError("dimension mismatch in composition")
    ops = tuple(k2 @ k1 for k2 in second.kraus for k1 in first.kraus)
    return KrausChannel(ops, first.in_structure, second.out_structure)


def identity_channel(structure: TensorStructure) -> KrausChannel:
    return KrausChannel((np.eye(structure.dim, dtype=complex),), structure, structure)


def unitary_channel(
    u: np.ndarray,
    in_structure: TensorStructure,
    out_structure: TensorStructure | None = None,
) -> KrausChannel:
    return KrausChannel(
        (as_complex(u),), in_structure, out_structure or in_structure
    )


def relabel(channel: KrausChannel, labels: Sequence[str]) -> KrausChannel:
    """Rename parties (same names on both sides) without touching the map."""
    ins = TensorStructure(zip(labels, channel.in_structure.dims))
    outs = TensorStructure(zip(labels, channel.out_structure.dims))
    return KrausChannel(channel.kraus, ins, outs, check_tp=False)


def product_channel(parts: Sequence[KrausChannel], labels: Sequence[str] | None = None) -> KrausChannel:
    """Tensor product of per-party channels, relabeled to stay collision free."""
    labels = [str(i + 1) for i in range(len(parts))] if labels is None else list(labels)
    renamed = []
    for lbl, part in zip(labels, parts):
        if len(part.in_structure.parties) == 1:
            renamed.append(relabel(part, [lbl]))
        else:
            renamed.append(relabel(part, [f"{lbl}.{sub}" for sub in part.in_structure.labels]))
    out = renamed[0]
    for part in renamed[1:]:
        out = channel_tensor(out, part)
    return out


def channel_tensor(a: KrausChannel, b: KrausChannel) -> KrausChannel:
    ops = tuple(kron(ka, kb) for ka in a.kraus for kb in b.kraus)
    return KrausChannel(
        ops,
        a.in_structure.concat(b.in_structure),
        a.out_structure.concat(b.out_structure),
    )


def prepare_channel(
    state: DensityOperator, in_structure: TensorStructure
) -> KrausChannel:
    """The constant map X -> Tr(X) * state: measure the trivial POVM {I}, then prepare."""
    return measure_prepare_channel([np.eye(in_structure.dim)], [state], in_structure)


def measure_prepare_channel(
    povm: Sequence[np.ndarray],
    outputs: Sequence[DensityOperator],
    in_structure: TensorStructure,
) -> KrausChannel:
    """Measure a POVM and prepare the matching output state."""
    if len(povm) != len(outputs):
        raise ValueError("one output state per POVM element")
    out_structure = outputs[0].structure
    ops = []
    for elem, out in zip(povm, outputs):
        ew, ev = np.linalg.eigh(check_hermitian(elem))
        ow, ov = np.linalg.eigh(out.mat)
        for b in range(len(ew)):
            if ew[b] <= 1e-14:
                continue
            for a in range(len(ow)):
                if ow[a] <= 1e-14:
                    continue
                ops.append(np.sqrt(ow[a] * ew[b]) * np.outer(ov[:, a], ev[:, b].conj()))
    return KrausChannel(tuple(ops), in_structure, out_structure)


def is_unital(channel: KrausChannel, tol: float = 1e-9) -> bool:
    """True iff the channel fixes the maximally mixed state within tol (trace norm)."""
    if channel.dim_in != channel.dim_out:
        raise ValueError("unitality needs a square channel")
    d = channel.dim_in
    image = channel.apply_mat(np.eye(d, dtype=complex) / d)
    return trace_norm(image - np.eye(d) / d) <= tol


# ---------------------------------------------------------------------------
# Choi form and marginal channels


def choi_matrix(channel: KrausChannel) -> np.ndarray:
    """Choi matrix sum_ij |i><j| (x) L(|i><j|), shape (d_in*d_out)^2."""
    d_in, d_out = channel.dim_in, channel.dim_out
    s = channel.superoperator.reshape(d_out, d_out, d_in, d_in)
    return s.transpose(2, 0, 3, 1).reshape(d_in * d_out, d_in * d_out)


def kraus_from_choi(choi: np.ndarray, d_in: int, d_out: int) -> list[np.ndarray]:
    """Kraus operators from the Choi matrix's eigenvectors above 1e-12."""
    w, v = np.linalg.eigh(check_hermitian(choi, tol=1e-8))
    ops = []
    for lam, vec in zip(w, v.T):
        if lam <= 1e-12:
            continue
        ops.append(np.sqrt(lam) * vec.reshape(d_in, d_out).T)
    return ops


def marginal_channel(
    channel: KrausChannel,
    target: str,
    frozen_inputs: Mapping[str, DensityOperator],
    method: str = "direct",
) -> KrausChannel:
    """Effective local channel at ``target`` with every other input frozen:
    X -> Tr_other[ L(X (x) frozen) ].  ``frozen_inputs`` must cover every
    in-party except the target.

    The default realization sandwiches each Kraus operator between the
    frozen inputs' square roots and the traced-out output basis, which keeps
    structural features of the original operators (products of local
    operators stay products, so representation-dependent predicates remain
    testable).  ``method="choi"`` instead re-factorizes through the Choi
    matrix, giving a minimal Kraus family with arbitrary mixing.
    """
    ins = channel.in_structure
    missing = [lbl for lbl in ins.labels if lbl != target and lbl not in frozen_inputs]
    if missing:
        raise ValueError(f"missing frozen input for parties {missing}")
    d_t = ins.local_dim(target)
    outs = channel.out_structure
    d_out_t = outs.local_dim(target)

    if method == "choi":
        choi = _marginal_choi(channel, target, frozen_inputs, d_t)
        ops = kraus_from_choi(choi, d_t, choi.shape[0] // d_t)
        return KrausChannel(
            tuple(ops), single_party(d_t, target), single_party(choi.shape[0] // d_t, target)
        )
    if method != "direct":
        raise ValueError("method must be 'direct' or 'choi'")

    # K (I_target (x) sqrt(frozen)) on the parties' axes: the traced output
    # parties and frozen input slots go ahead of the target's axes, so each
    # (output basis state, input basis state) pair gives one Kraus operator
    blocks = []
    for lbl, dim in ins.parties:
        if lbl == target:
            blocks.append(np.eye(dim, dtype=complex))
        else:
            w, v = np.linalg.eigh(frozen_inputs[lbl].mat)
            blocks.append((v * np.sqrt(np.clip(w, 0.0, None))) @ v.conj().T)
    inject = kron_all(blocks)
    n_out, t_out, t_in = len(outs.dims), outs.index(target), ins.index(target)
    axes = ([i for i in range(n_out) if i != t_out]
            + [n_out + j for j in range(len(ins.dims)) if j != t_in] + [t_out, n_out + t_in])
    ops = []
    for k in channel.kraus:
        t = (k @ inject).reshape(outs.dims + ins.dims).transpose(axes)
        ops += [op for op in t.reshape(-1, d_out_t, d_t) if float(np.max(np.abs(op))) > 1e-12]
    return KrausChannel(
        tuple(ops), single_party(d_t, target), single_party(d_out_t, target)
    )


def _marginal_choi(channel, target, frozen_inputs, d_t):
    """sum_ij |i><j| (x) Tr_other L(|i><j| (x) frozen), from one stacked application."""
    ins, outs = channel.in_structure, channel.out_structure
    full = [kron_all(u if lbl == target else frozen_inputs[lbl].mat for lbl, _ in ins.parties)
            for u in np.eye(d_t * d_t, dtype=complex).reshape(-1, d_t, d_t)]
    imgs = partial_trace_mat(channel.apply_mat(np.stack(full)), outs.dims, [outs.index(target)])
    d_out = imgs.shape[-1]
    return imgs.reshape(d_t, d_t, d_out, d_out).swapaxes(1, 2).reshape(d_t * d_out, -1)


# ---------------------------------------------------------------------------
# local protocols with classical communication


@dataclass(frozen=True)
class LfoccRound:
    """One communication round: who acts, and the local instrument per history.

    ``branches`` maps a classical history string (comma separated branch
    indices of all earlier rounds, "" for the first round) to the Kraus
    family applied on that branch, given on ``party``'s space alone.
    """

    party: str
    branches: Mapping[str, Sequence[np.ndarray]]


@dataclass(frozen=True)
class LfoccProtocol:
    structure: TensorStructure
    rounds: tuple[LfoccRound, ...]

    def __post_init__(self):
        for rnd in self.rounds:
            local = single_party(self.structure.local_dim(rnd.party), rnd.party)
            for hist, family in rnd.branches.items():
                try:
                    KrausChannel(tuple(family), local, local)
                except ValueError as err:
                    raise ValueError(
                        f"round of party {rnd.party} at history {hist!r}: {err}"
                    ) from None


def compile_lfocc(protocol: LfoccProtocol) -> KrausChannel:
    """Flatten the history tree into a single Kraus family.

    The operator for a complete history is the ordered product of the chosen
    branch operators.  Errors out beyond 64 branches or when a round lacks
    the history produced by earlier rounds.
    """
    d = protocol.structure.dim
    frontier: list[tuple[str, np.ndarray]] = [("", np.eye(d, dtype=complex))]
    for rnd in protocol.rounds:
        new_frontier = []
        for hist, op in frontier:
            if hist not in rnd.branches:
                raise ValueError(f"round for party {rnd.party} has no branch for history {hist!r}")
            family = rnd.branches[hist]
            for l, k in enumerate(family):
                new_hist = f"{hist},{l}" if hist else str(l)
                embedded = embed_operator(as_complex(k), protocol.structure, rnd.party)
                new_frontier.append((new_hist, embedded @ op))
            if len(new_frontier) > BRANCH_CAP:
                raise ValueError(f"protocol exceeds the {BRANCH_CAP}-branch cap")
        frontier = new_frontier
    ops = tuple(op for _, op in frontier)
    if _tp_deviation(ops) > 1e-8:
        raise ValueError("compiled protocol is not trace preserving within 1e-8")
    return KrausChannel(ops, protocol.structure, protocol.structure, check_tp=False)


# ---------------------------------------------------------------------------
# random channels for property tests


def random_channel(
    rng: np.random.Generator, d_in: int, d_out: int, n_kraus: int = 2
) -> KrausChannel:
    g = rng.normal(size=(n_kraus * d_out, d_in)) + 1j * rng.normal(size=(n_kraus * d_out, d_in))
    q, _ = np.linalg.qr(g)
    ops = tuple(q[m * d_out : (m + 1) * d_out, :] for m in range(n_kraus))
    return KrausChannel(ops, single_party(d_in), single_party(d_out))
