"""Reverse-mode differentiation over dense float64 matrices.

A ``Tape`` records one backward closure per operation. ``backward`` replays
the closures in exact reverse order and consumes them: afterwards the tape
holds no node, so reference counting frees a step's arrays as soon as the
caller drops its nodes, and a second ``backward`` on the same tape is an
error. All values are 2-D float64 arrays; scalars are (1, 1). A tape is
single-owner: one step builds and consumes one tape.

Gradients are allocated lazily. A node's first gradient contribution becomes
its gradient buffer and later ones are added into it, so an operator passing
its output gradient through unchanged hands over a copy. Reading ``grad`` on
a node that received no gradient gives zeros of its shape, allocated for
that read only.

Constant operands (the sparse adjacency, the sparse feature matrix) are not
nodes: ``spmm`` takes them as plain scipy CSR matrices and sends gradient to
its dense node operand only.

``finite_diff_check`` is the independent gradient oracle: central differences
against whatever gradients the caller's function reports.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

PROB_FLOOR = 1e-12  # cross-entropy clamp; log is undefined at exact zeros


class TapeError(RuntimeError):
    pass


class TensorNode:
    """A value on a tape plus the gradient `backward` accumulates for it."""

    __slots__ = ("value", "tape", "_grad")

    def __init__(self, value: np.ndarray, tape: "Tape"):
        self.value = value
        self.tape = tape
        self._grad = None

    @property
    def shape(self):
        return self.value.shape

    @property
    def grad(self) -> np.ndarray:
        """Accumulated gradient; zeros (not stored) before any contribution."""
        return np.zeros_like(self.value) if self._grad is None else self._grad

    def _add_grad(self, g: np.ndarray) -> None:
        """Accumulate `g`; the first contribution is stored, so it must not be
        a buffer another node owns."""
        if self._grad is None:
            self._grad = g
        else:
            self._grad += g

    def item(self) -> float:
        if self.value.shape != (1, 1):
            raise ValueError("item() requires a scalar node")
        return float(self.value[0, 0])


class Tape:
    """Ordered record of operations; replayed in reverse by backward()."""

    def __init__(self):
        self._backward_fns = []
        self._used = False

    def tensor(self, value) -> TensorNode:
        """Create a leaf node holding `value` (coerced to 2-D float64)."""
        v = np.asarray(value, dtype=np.float64)
        if v.ndim != 2:
            raise ValueError(f"tape values must be 2-D, got shape {v.shape}")
        return TensorNode(v, self)

    def _record(self, backward_fn):
        self._backward_fns.append(backward_fn)


def _same_tape(*nodes) -> Tape:
    tape = nodes[0].tape
    for n in nodes[1:]:
        if n.tape is not tape:
            raise TapeError("nodes belong to different tapes")
    return tape


def backward(tape: Tape, loss: TensorNode) -> None:
    """Populate grads of every node reachable from `loss` (a scalar node).

    Each closure is dropped as it runs, so the tape ends empty.
    """
    if loss.tape is not tape:
        raise TapeError("loss node does not belong to this tape")
    if loss.shape != (1, 1):
        raise ValueError("backward requires a scalar (1, 1) loss node")
    if tape._used:
        raise TapeError("backward already ran on this tape; build a new tape")
    tape._used = True
    loss._grad = np.ones((1, 1))
    fns = tape._backward_fns
    while fns:
        fns.pop()()


# ---------------------------------------------------------------------------
# operators
# ---------------------------------------------------------------------------

def matmul(a: TensorNode, b: TensorNode) -> TensorNode:
    tape = _same_tape(a, b)
    if a.shape[1] != b.shape[0]:
        raise ValueError(f"matmul shape mismatch: {a.shape} @ {b.shape}")
    out = tape.tensor(a.value @ b.value)

    def bwd():
        a._add_grad(out.grad @ b.value.T)
        b._add_grad(a.value.T @ out.grad)

    tape._record(bwd)
    return out


def spmm(p: sp.csr_array, h: TensorNode) -> TensorNode:
    """Sparse-constant @ dense-node product; gradient flows through `h` only."""
    tape = h.tape
    if p.shape[1] != h.shape[0]:
        raise ValueError(f"spmm shape mismatch: {p.shape} @ {h.shape}")
    out = tape.tensor(p @ h.value)

    def bwd():
        h._add_grad(p.T @ out.grad)

    tape._record(bwd)
    return out


def relu(a: TensorNode) -> TensorNode:
    tape = a.tape
    out = tape.tensor(np.maximum(a.value, 0.0))

    def bwd():
        a._add_grad(out.grad * (a.value > 0.0))

    tape._record(bwd)
    return out


def sigmoid(a: TensorNode) -> TensorNode:
    tape = a.tape
    s = 1.0 / (1.0 + np.exp(-a.value))
    out = tape.tensor(s)

    def bwd():
        a._add_grad(out.grad * s * (1.0 - s))

    tape._record(bwd)
    return out


def add_scaled(a: TensorNode, b: TensorNode, wa: float, wb: float) -> TensorNode:
    """wa * a + wb * b, same shapes."""
    tape = _same_tape(a, b)
    if a.shape != b.shape:
        raise ValueError(f"add_scaled shape mismatch: {a.shape} vs {b.shape}")
    out = tape.tensor(wa * a.value + wb * b.value)

    def bwd():
        a._add_grad(wa * out.grad)
        b._add_grad(wb * out.grad)

    tape._record(bwd)
    return out


def scale(a: TensorNode, w: float) -> TensorNode:
    tape = a.tape
    out = tape.tensor(w * a.value)

    def bwd():
        a._add_grad(w * out.grad)

    tape._record(bwd)
    return out


def add_row_bias(a: TensorNode, bias: TensorNode) -> TensorNode:
    """a + bias with bias of shape (1, cols), broadcast over rows."""
    tape = _same_tape(a, bias)
    if bias.shape != (1, a.shape[1]):
        raise ValueError(f"bias shape {bias.shape} does not match columns of {a.shape}")
    out = tape.tensor(a.value + bias.value)

    def bwd():
        a._add_grad(out.grad.copy())
        bias._add_grad(out.grad.sum(axis=0, keepdims=True))

    tape._record(bwd)
    return out


def hadamard(a: TensorNode, b: TensorNode) -> TensorNode:
    tape = _same_tape(a, b)
    if a.shape != b.shape:
        raise ValueError(f"hadamard shape mismatch: {a.shape} vs {b.shape}")
    out = tape.tensor(a.value * b.value)

    def bwd():
        a._add_grad(out.grad * b.value)
        b._add_grad(out.grad * a.value)

    tape._record(bwd)
    return out


def concat_cols(a: TensorNode, b: TensorNode) -> TensorNode:
    tape = _same_tape(a, b)
    if a.shape[0] != b.shape[0]:
        raise ValueError(f"concat_cols row mismatch: {a.shape} vs {b.shape}")
    out = tape.tensor(np.hstack([a.value, b.value]))
    split = a.shape[1]

    def bwd():
        a._add_grad(out.grad[:, :split].copy())
        b._add_grad(out.grad[:, split:].copy())

    tape._record(bwd)
    return out


def softmax_rows(a: TensorNode) -> TensorNode:
    tape = a.tape
    shifted = a.value - a.value.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    s = e / e.sum(axis=1, keepdims=True)
    out = tape.tensor(s)

    def bwd():
        g = out.grad
        a._add_grad(s * (g - (g * s).sum(axis=1, keepdims=True)))

    tape._record(bwd)
    return out


def l2_normalize_rows(a: TensorNode) -> TensorNode:
    tape = a.tape
    r = np.linalg.norm(a.value, axis=1, keepdims=True)
    if np.any(r == 0.0):
        row = int(np.flatnonzero(r[:, 0] == 0.0)[0])
        raise ValueError(f"cannot L2-normalize zero row {row}")
    y = a.value / r
    out = tape.tensor(y)

    def bwd():
        g = out.grad
        a._add_grad((g - (g * y).sum(axis=1, keepdims=True) * y) / r)

    tape._record(bwd)
    return out


def row_gram(a: TensorNode) -> TensorNode:
    """a @ a.T (pairwise row inner products).

    Training does not use it; with `frobenius_sq_diff` it is the N x N
    reference form that tests compare `gram_distance_sq` against.
    """
    tape = a.tape
    out = tape.tensor(a.value @ a.value.T)

    def bwd():
        a._add_grad((out.grad + out.grad.T) @ a.value)

    tape._record(bwd)
    return out


def frobenius_sq_diff(a: TensorNode, b: TensorNode) -> TensorNode:
    """sum((a - b)^2) as a scalar node."""
    tape = _same_tape(a, b)
    if a.shape != b.shape:
        raise ValueError(f"frobenius_sq_diff shape mismatch: {a.shape} vs {b.shape}")
    diff = a.value - b.value
    out = tape.tensor([[np.sum(diff * diff)]])

    def bwd():
        g = out.grad[0, 0]
        a._add_grad(2.0 * g * diff)
        b._add_grad(-2.0 * g * diff)

    tape._record(bwd)
    return out


def gram_distance_sq(a: TensorNode, b: TensorNode) -> TensorNode:
    """||a a^T - b b^T||_F^2 as a scalar node, without forming an N x N matrix.

    With D = a - b and S = a + b, a a^T - b b^T = (D S^T + S D^T) / 2, so the
    value is (<S^T S, D^T D> + <S^T D, D^T S>) / 2 and only h x h products are
    formed: O(N h^2) time and O(h^2) extra memory. Every term carries D twice,
    so near-equal inputs give a value near D's rounding error squared and
    equal inputs give exactly 0; the expanded form
    ||a^T a||^2 + ||b^T b||^2 - 2 ||a^T b||^2 cancels to O(1e-15) instead.
    Where a a^T = b b^T with a != b (b a column rotation of a) the two terms
    still cancel, to O(1e-12) of either sign, so the value is clamped at 0.

    The gradient 4 (a a^T - b b^T) a = 2 (D S^T a + S D^T a), and its b
    counterpart, reuse the forward products through a = (S + D) / 2 and
    b = (S - D) / 2.
    """
    tape = _same_tape(a, b)
    if a.shape != b.shape:
        raise ValueError(f"gram_distance_sq shape mismatch: {a.shape} vs {b.shape}")
    d = a.value - b.value
    s = a.value + b.value
    sts = s.T @ s
    dtd = d.T @ d
    std = s.T @ d
    out = tape.tensor([[max(0.5 * (np.sum(sts * dtd) + np.sum(std * std.T)), 0.0)]])

    def bwd():
        g = out.grad[0, 0]
        p = d @ sts + s @ std.T
        q = d @ std + s @ dtd
        a._add_grad(g * (p + q))
        b._add_grad(g * (q - p))

    tape._record(bwd)
    return out


def mean_row_cosine(a: TensorNode, b: TensorNode) -> TensorNode:
    """(1/N) * sum_i cos(a_i, b_i) as a scalar node; rows must be nonzero."""
    tape = _same_tape(a, b)
    if a.shape != b.shape:
        raise ValueError(f"mean_row_cosine shape mismatch: {a.shape} vs {b.shape}")
    ra = np.linalg.norm(a.value, axis=1, keepdims=True)
    rb = np.linalg.norm(b.value, axis=1, keepdims=True)
    if np.any(ra == 0.0) or np.any(rb == 0.0):
        raise ValueError("mean_row_cosine undefined on zero rows")
    n = a.shape[0]
    cos = (a.value * b.value).sum(axis=1, keepdims=True) / (ra * rb)
    out = tape.tensor([[cos.sum() / n]])

    def bwd():
        g = out.grad[0, 0] / n
        a._add_grad(g * (b.value / (ra * rb) - cos * a.value / (ra * ra)))
        b._add_grad(g * (a.value / (ra * rb) - cos * b.value / (rb * rb)))

    tape._record(bwd)
    return out


def masked_cross_entropy(pred: TensorNode, y_onehot: np.ndarray, mask: np.ndarray) -> TensorNode:
    """-sum_{v in mask} sum_c Y_vc ln pred_vc.

    `pred` rows must sum to 1 within 1e-6. Probabilities are clamped to
    [PROB_FLOOR, 1] before the log.
    """
    tape = pred.tape
    y = np.asarray(y_onehot, dtype=np.float64)
    if y.shape != pred.shape:
        raise ValueError(f"one-hot labels shape {y.shape} does not match predictions {pred.shape}")
    mask = np.asarray(mask, dtype=np.int64).ravel()
    if mask.size == 0:
        raise ValueError("cross-entropy mask is empty")
    row_sums = pred.value.sum(axis=1)
    if np.any(np.abs(row_sums - 1.0) > 1e-6):
        raise ValueError("prediction rows must sum to 1 within 1e-6")
    in_mask = np.zeros((pred.shape[0], 1))
    in_mask[mask] = 1.0
    p = np.clip(pred.value, PROB_FLOOR, 1.0)
    loss = -np.sum(in_mask * y * np.log(p))
    out = tape.tensor([[loss]])

    def bwd():
        g = out.grad[0, 0]
        active = pred.value >= PROB_FLOOR
        pred._add_grad(-(g * in_mask * y * active / p))

    tape._record(bwd)
    return out


# ---------------------------------------------------------------------------
# finite-difference oracle
# ---------------------------------------------------------------------------

@dataclass
class FiniteDiffEntry:
    name: str
    max_rel_error: float
    n_coords: int


@dataclass
class FiniteDiffReport:
    entries: list[FiniteDiffEntry]
    max_rel_error: float
    eps: float
    tolerance: float
    passed: bool

    def __str__(self):
        lines = [f"{e.name:<16s} coords={e.n_coords:<6d} max_rel_error={e.max_rel_error:.3e}"
                 for e in self.entries]
        verdict = "PASS" if self.passed else "FAIL"
        lines.append(f"overall max_rel_error={self.max_rel_error:.3e} "
                     f"tolerance={self.tolerance:.1e} -> {verdict}")
        return "\n".join(lines)


def finite_diff_check(f, params, eps: float = 1e-5, tolerance: float = 1e-4,
                      param_names=None) -> FiniteDiffReport:
    """Compare reported gradients with central finite differences.

    `f(params)` must return `(loss_value, grads)` where `grads` aligns with
    `params` (a list of float64 arrays, perturbed in place and restored).
    Relative error per coordinate is |fd - g| / max(|fd|, |g|); coordinates
    where both magnitudes fall below 1e-6 count as matched, since there the
    difference quotient is dominated by cancellation noise. A non-finite
    difference quotient or gradient counts as relative error inf.
    Raises ValueError unless `eps` is finite and positive.
    """
    if not (np.isfinite(eps) and eps > 0):
        raise ValueError(f"eps must be finite and > 0, got {eps}")
    if param_names is None:
        param_names = [f"param{i}" for i in range(len(params))]
    _, grads = f(params)
    entries = []
    for p, g, name in zip(params, grads, param_names):
        worst = 0.0
        for idx in np.ndindex(p.shape):
            orig = p[idx]
            p[idx] = orig + eps
            lp = f(params)[0]
            p[idx] = orig - eps
            lm = f(params)[0]
            p[idx] = orig
            fd = (lp - lm) / (2.0 * eps)
            denom = max(abs(fd), abs(g[idx]))
            if not (np.isfinite(fd) and np.isfinite(g[idx])):
                worst = np.inf
            elif denom >= 1e-6:
                worst = max(worst, abs(fd - g[idx]) / denom)
        entries.append(FiniteDiffEntry(name, worst, int(np.prod(p.shape))))
    overall = max((e.max_rel_error for e in entries), default=0.0)
    return FiniteDiffReport(entries, overall, eps, tolerance, overall <= tolerance)
