"""Reverse-mode differentiation over dense float64 matrices.

A ``Tape`` owns every node created during one forward pass. Operations
validate shapes eagerly, compute their value, and record a backward closure;
``backward`` replays the closures in exact reverse order, accumulating
gradients into ``node.grad``. All values are 2-D float64 arrays; scalars are
(1, 1). A tape is single-owner: one step builds and consumes one tape.

``finite_diff_check`` is the independent gradient oracle: central differences
against whatever gradients the caller's function reports.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

PROB_FLOOR = 1e-12  # cross-entropy clamp; log is undefined at exact zeros


class TapeError(RuntimeError):
    pass


@dataclass
class TensorNode:
    value: np.ndarray
    grad: np.ndarray
    tape: "Tape" = field(repr=False)
    tape_id: int

    @property
    def shape(self):
        return self.value.shape

    def item(self) -> float:
        if self.value.shape != (1, 1):
            raise ValueError("item() requires a scalar node")
        return float(self.value[0, 0])


class Tape:
    """Ordered record of operations; replayed in reverse by backward()."""

    def __init__(self):
        self._backward_fns = []
        self._nodes = []
        self._used = False

    def tensor(self, value) -> TensorNode:
        """Create a leaf node holding `value` (coerced to 2-D float64)."""
        v = np.asarray(value, dtype=np.float64)
        if v.ndim != 2:
            raise ValueError(f"tape values must be 2-D, got shape {v.shape}")
        node = TensorNode(v, np.zeros_like(v), self, len(self._nodes))
        self._nodes.append(node)
        return node

    def _record(self, backward_fn):
        self._backward_fns.append(backward_fn)

    def reset_grads(self):
        for n in self._nodes:
            n.grad[...] = 0.0
        self._used = False


def _same_tape(*nodes) -> Tape:
    tape = nodes[0].tape
    for n in nodes[1:]:
        if n.tape is not tape:
            raise TapeError("nodes belong to different tapes")
    return tape


def backward(tape: Tape, loss: TensorNode) -> None:
    """Populate grads of every node reachable from `loss` (a scalar node)."""
    if loss.tape is not tape:
        raise TapeError("loss node does not belong to this tape")
    if loss.shape != (1, 1):
        raise ValueError("backward requires a scalar (1, 1) loss node")
    if tape._used:
        raise TapeError("backward already ran on this tape; reset_grads() or build a new tape")
    tape._used = True
    loss.grad[0, 0] = 1.0
    for fn in reversed(tape._backward_fns):
        fn()


# ---------------------------------------------------------------------------
# operators
# ---------------------------------------------------------------------------

def matmul(a: TensorNode, b: TensorNode) -> TensorNode:
    tape = _same_tape(a, b)
    if a.shape[1] != b.shape[0]:
        raise ValueError(f"matmul shape mismatch: {a.shape} @ {b.shape}")
    out = tape.tensor(a.value @ b.value)

    def bwd():
        a.grad += out.grad @ b.value.T
        b.grad += a.value.T @ out.grad

    tape._record(bwd)
    return out


def spmm(p: sp.csr_array, h: TensorNode) -> TensorNode:
    """Sparse-constant @ dense-node product; gradient flows through `h` only."""
    tape = h.tape
    if p.shape[1] != h.shape[0]:
        raise ValueError(f"spmm shape mismatch: {p.shape} @ {h.shape}")
    out = tape.tensor(p @ h.value)

    def bwd():
        h.grad += p.T @ out.grad

    tape._record(bwd)
    return out


def relu(a: TensorNode) -> TensorNode:
    tape = a.tape
    out = tape.tensor(np.maximum(a.value, 0.0))

    def bwd():
        a.grad += out.grad * (a.value > 0.0)

    tape._record(bwd)
    return out


def sigmoid(a: TensorNode) -> TensorNode:
    tape = a.tape
    s = 1.0 / (1.0 + np.exp(-a.value))
    out = tape.tensor(s)

    def bwd():
        a.grad += out.grad * s * (1.0 - s)

    tape._record(bwd)
    return out


def add_scaled(a: TensorNode, b: TensorNode, wa: float, wb: float) -> TensorNode:
    """wa * a + wb * b, same shapes."""
    tape = _same_tape(a, b)
    if a.shape != b.shape:
        raise ValueError(f"add_scaled shape mismatch: {a.shape} vs {b.shape}")
    out = tape.tensor(wa * a.value + wb * b.value)

    def bwd():
        a.grad += wa * out.grad
        b.grad += wb * out.grad

    tape._record(bwd)
    return out


def scale(a: TensorNode, w: float) -> TensorNode:
    tape = a.tape
    out = tape.tensor(w * a.value)

    def bwd():
        a.grad += w * out.grad

    tape._record(bwd)
    return out


def add_row_bias(a: TensorNode, bias: TensorNode) -> TensorNode:
    """a + bias with bias of shape (1, cols), broadcast over rows."""
    tape = _same_tape(a, bias)
    if bias.shape != (1, a.shape[1]):
        raise ValueError(f"bias shape {bias.shape} does not match columns of {a.shape}")
    out = tape.tensor(a.value + bias.value)

    def bwd():
        a.grad += out.grad
        bias.grad += out.grad.sum(axis=0, keepdims=True)

    tape._record(bwd)
    return out


def hadamard(a: TensorNode, b: TensorNode) -> TensorNode:
    tape = _same_tape(a, b)
    if a.shape != b.shape:
        raise ValueError(f"hadamard shape mismatch: {a.shape} vs {b.shape}")
    out = tape.tensor(a.value * b.value)

    def bwd():
        a.grad += out.grad * b.value
        b.grad += out.grad * a.value

    tape._record(bwd)
    return out


def concat_cols(a: TensorNode, b: TensorNode) -> TensorNode:
    tape = _same_tape(a, b)
    if a.shape[0] != b.shape[0]:
        raise ValueError(f"concat_cols row mismatch: {a.shape} vs {b.shape}")
    out = tape.tensor(np.hstack([a.value, b.value]))
    split = a.shape[1]

    def bwd():
        a.grad += out.grad[:, :split]
        b.grad += out.grad[:, split:]

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
        a.grad += s * (g - (g * s).sum(axis=1, keepdims=True))

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
        a.grad += (g - (g * y).sum(axis=1, keepdims=True) * y) / r

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
        a.grad += (out.grad + out.grad.T) @ a.value

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
        a.grad += 2.0 * g * diff
        b.grad -= 2.0 * g * diff

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
        a.grad += g * (p + q)
        b.grad += g * (q - p)

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
        a.grad += g * (b.value / (ra * rb) - cos * a.value / (ra * ra))
        b.grad += g * (a.value / (ra * rb) - cos * b.value / (rb * rb))

    tape._record(bwd)
    return out


def masked_cross_entropy(pred: TensorNode, y_onehot: np.ndarray, mask: np.ndarray,
                         reduction: str = "sum") -> TensorNode:
    """-sum_{v in mask} sum_c Y_vc ln pred_vc; `reduction="mean"` divides by |mask|.

    `pred` rows must sum to 1 within 1e-6. Probabilities are clamped to
    [PROB_FLOOR, 1] before the log.
    """
    tape = pred.tape
    y = np.asarray(y_onehot, dtype=np.float64)
    if y.shape != pred.shape:
        raise ValueError(f"one-hot labels shape {y.shape} does not match predictions {pred.shape}")
    if reduction not in ("sum", "mean"):
        raise ValueError(f"unknown reduction {reduction!r}")
    mask = np.asarray(mask, dtype=np.int64).ravel()
    if mask.size == 0:
        raise ValueError("cross-entropy mask is empty")
    row_sums = pred.value.sum(axis=1)
    if np.any(np.abs(row_sums - 1.0) > 1e-6):
        raise ValueError("prediction rows must sum to 1 within 1e-6")
    in_mask = np.zeros((pred.shape[0], 1))
    in_mask[mask] = 1.0
    p = np.clip(pred.value, PROB_FLOOR, 1.0)
    denom = float(mask.size) if reduction == "mean" else 1.0
    loss = -np.sum(in_mask * y * np.log(p)) / denom
    out = tape.tensor([[loss]])

    def bwd():
        g = out.grad[0, 0] / denom
        active = pred.value >= PROB_FLOOR
        pred.grad -= g * in_mask * y * active / p

    tape._record(bwd)
    return out


def channel_softmax3(a: TensorNode, b: TensorNode, c: TensorNode):
    """Elementwise softmax across three equally-shaped nodes.

    Returns three nodes whose values sum to 1 at every position. Used by the
    softmax attention variant, where channel weights compete per feature.
    """
    tape = _same_tape(a, b, c)
    if not (a.shape == b.shape == c.shape):
        raise ValueError("channel_softmax3 requires equal shapes")
    stack = np.stack([a.value, b.value, c.value])
    stack = stack - stack.max(axis=0, keepdims=True)
    e = np.exp(stack)
    w = e / e.sum(axis=0, keepdims=True)
    outs = tuple(tape.tensor(w[k]) for k in range(3))
    ins = (a, b, c)

    def bwd():
        g = np.stack([o.grad for o in outs])
        dot = (g * w).sum(axis=0, keepdims=True)
        dx = w * (g - dot)
        for k in range(3):
            ins[k].grad += dx[k]

    tape._record(bwd)
    return outs


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
    difference quotient is dominated by cancellation noise.
    """
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
            if denom >= 1e-6:
                worst = max(worst, abs(fd - g[idx]) / denom)
        entries.append(FiniteDiffEntry(name, worst, int(np.prod(p.shape))))
    overall = max((e.max_rel_error for e in entries), default=0.0)
    return FiniteDiffReport(entries, overall, eps, tolerance, overall <= tolerance)
