"""Reverse-mode differentiation over dense float64 matrices.

A ``Tape`` records one backward closure per operation. ``backward`` replays
the closures in exact reverse order and consumes them; a forward-only pass
ends with ``Tape.discard``, which drops them unrun. Either way the tape then
holds no node, so reference counting frees a step's arrays as soon as the
caller drops its nodes, and a later ``backward`` on the same tape is an
error. All values are 2-D float64 arrays; scalars are (1, 1). A tape is
single-owner: one step builds and consumes (or discards) one tape.

Gradients live in per-node gradient slots and are allocated lazily. A
node's first gradient contribution becomes its slot's buffer and later ones
are added into it, so an operator passing its output gradient through
unchanged hands over a copy. Reading ``grad`` on a node that received no
gradient gives zeros of its shape, allocated for that read only.

A backward closure holds the gradient slots of its operands and output and
the arrays its formula reads, never a node. So a node's value is freed as
soon as the forward code drops the node, unless some closure reads it, and
a step's memory until backward is what backward needs:
- ``matmul`` and ``hadamard`` keep both operand values, ``spmm`` its sparse
  constant;
- ``sigmoid`` and ``relu`` keep their output (``relu`` masks with
  ``y > 0``, which equals ``a > 0`` for every input, so its input is freed);
- ``add_scaled``, ``scale``, ``add_row_bias`` and ``concat_cols`` keep no
  array;
- ``l2_normalize_rows`` keeps its output and the row norms,
  ``gram_distance_sq`` its h x h products and the difference and sum,
  ``mean_row_cosine`` both operands, the norms and the cosines, and
  ``softmax_cross_entropy`` the exponentials, their row sums, the labels and
  the mask.

Constant operands (the sparse adjacency, the sparse feature matrix) are not
nodes: ``spmm`` takes them as plain scipy CSR matrices and sends gradient to
its dense node operand only.

The classification loss is one operator on the logits, ``softmax_cross_entropy``;
no probability is formed or clamped before its log.

``finite_diff_check`` is the independent gradient oracle: central differences
of a loss-only function against the gradients the caller passes in.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp


class TapeError(RuntimeError):
    pass


class _GradSlot:
    """A node's gradient buffer: all a backward closure holds of a node it
    sends gradient to or reads the output gradient of."""

    __slots__ = ("shape", "dtype", "_grad")

    def __init__(self, shape: tuple, dtype: np.dtype):
        self.shape = shape
        self.dtype = dtype
        self._grad = None

    @property
    def grad(self) -> np.ndarray:
        """Accumulated gradient; zeros of the value's shape and dtype (not
        stored) before any contribution."""
        return np.zeros(self.shape, self.dtype) if self._grad is None else self._grad

    def _add_grad(self, g: np.ndarray) -> None:
        """Accumulate `g`; the first contribution is stored, so it must not be
        a buffer another node owns."""
        if self._grad is None:
            self._grad = g
        else:
            self._grad += g


class TensorNode:
    """A value on a tape plus the gradient slot `backward` accumulates into."""

    __slots__ = ("value", "tape", "_slot")

    def __init__(self, value: np.ndarray, tape: "Tape"):
        self.value = value
        self.tape = tape
        self._slot = _GradSlot(value.shape, value.dtype)

    @property
    def shape(self):
        return self._slot.shape

    @property
    def grad(self) -> np.ndarray:
        """Accumulated gradient; zeros (not stored) before any contribution."""
        return self._slot.grad

    def _add_grad(self, g: np.ndarray) -> None:
        self._slot._add_grad(g)

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

    def discard(self) -> None:
        """End a forward-only pass: drop the closures unrun, so the tape holds
        no node and a later `backward` raises TapeError."""
        self._used = True
        self._backward_fns.clear()


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
        raise TapeError("this tape was already consumed or discarded; build a new tape")
    tape._used = True
    loss._slot._grad = np.ones((1, 1))
    fns = tape._backward_fns
    while fns:
        fns.pop()()


# ---------------------------------------------------------------------------
# operators
#
# Each closure binds the slots it reads or writes (`ga` for `a`'s, `go` for
# the output's) and the arrays its formula reads, never a node.
# ---------------------------------------------------------------------------

def matmul(a: TensorNode, b: TensorNode) -> TensorNode:
    tape = _same_tape(a, b)
    if a.shape[1] != b.shape[0]:
        raise ValueError(f"matmul shape mismatch: {a.shape} @ {b.shape}")
    av, bv = a.value, b.value
    out = tape.tensor(av @ bv)
    ga, gb, go = a._slot, b._slot, out._slot

    def bwd():
        ga._add_grad(go.grad @ bv.T)
        gb._add_grad(av.T @ go.grad)

    tape._record(bwd)
    return out


def spmm(p: sp.csr_array, h: TensorNode) -> TensorNode:
    """Sparse-constant @ dense-node product; gradient flows through `h` only."""
    tape = h.tape
    if p.shape[1] != h.shape[0]:
        raise ValueError(f"spmm shape mismatch: {p.shape} @ {h.shape}")
    out = tape.tensor(p @ h.value)
    gh, go = h._slot, out._slot

    def bwd():
        gh._add_grad(p.T @ go.grad)

    tape._record(bwd)
    return out


def relu(a: TensorNode) -> TensorNode:
    """max(a, 0). Backward masks with the output: y > 0 exactly where a > 0,
    also for -0.0, NaN and infinities, so the input value need not be kept."""
    tape = a.tape
    y = np.maximum(a.value, 0.0)
    out = tape.tensor(y)
    ga, go = a._slot, out._slot

    def bwd():
        ga._add_grad(go.grad * (y > 0.0))

    tape._record(bwd)
    return out


def sigmoid(a: TensorNode) -> TensorNode:
    """1 / (1 + exp(-a)). Below a = -709.78 exp(-a) overflows to inf and the
    value is its limit 0.0, so that overflow is not reported."""
    tape = a.tape
    with np.errstate(over="ignore"):
        s = 1.0 / (1.0 + np.exp(-a.value))
    out = tape.tensor(s)
    ga, go = a._slot, out._slot

    def bwd():
        ga._add_grad(go.grad * s * (1.0 - s))

    tape._record(bwd)
    return out


def add_scaled(a: TensorNode, b: TensorNode, wa: float, wb: float) -> TensorNode:
    """wa * a + wb * b, same shapes."""
    tape = _same_tape(a, b)
    if a.shape != b.shape:
        raise ValueError(f"add_scaled shape mismatch: {a.shape} vs {b.shape}")
    out = tape.tensor(wa * a.value + wb * b.value)
    ga, gb, go = a._slot, b._slot, out._slot

    def bwd():
        ga._add_grad(wa * go.grad)
        gb._add_grad(wb * go.grad)

    tape._record(bwd)
    return out


def scale(a: TensorNode, w: float) -> TensorNode:
    tape = a.tape
    out = tape.tensor(w * a.value)
    ga, go = a._slot, out._slot

    def bwd():
        ga._add_grad(w * go.grad)

    tape._record(bwd)
    return out


def add_row_bias(a: TensorNode, bias: TensorNode) -> TensorNode:
    """a + bias with bias of shape (1, cols), broadcast over rows."""
    tape = _same_tape(a, bias)
    if bias.shape != (1, a.shape[1]):
        raise ValueError(f"bias shape {bias.shape} does not match columns of {a.shape}")
    out = tape.tensor(a.value + bias.value)
    ga, gbias, go = a._slot, bias._slot, out._slot

    def bwd():
        ga._add_grad(go.grad.copy())
        gbias._add_grad(go.grad.sum(axis=0, keepdims=True))

    tape._record(bwd)
    return out


def hadamard(a: TensorNode, b: TensorNode) -> TensorNode:
    tape = _same_tape(a, b)
    if a.shape != b.shape:
        raise ValueError(f"hadamard shape mismatch: {a.shape} vs {b.shape}")
    av, bv = a.value, b.value
    out = tape.tensor(av * bv)
    ga, gb, go = a._slot, b._slot, out._slot

    def bwd():
        ga._add_grad(go.grad * bv)
        gb._add_grad(go.grad * av)

    tape._record(bwd)
    return out


def concat_cols(a: TensorNode, b: TensorNode) -> TensorNode:
    tape = _same_tape(a, b)
    if a.shape[0] != b.shape[0]:
        raise ValueError(f"concat_cols row mismatch: {a.shape} vs {b.shape}")
    out = tape.tensor(np.hstack([a.value, b.value]))
    split = a.shape[1]
    ga, gb, go = a._slot, b._slot, out._slot

    def bwd():
        ga._add_grad(go.grad[:, :split].copy())
        gb._add_grad(go.grad[:, split:].copy())

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
    ga, go = a._slot, out._slot

    def bwd():
        g = go.grad
        ga._add_grad((g - (g * y).sum(axis=1, keepdims=True) * y) / r)

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
    ga, gb, go = a._slot, b._slot, out._slot

    def bwd():
        g = go.grad[0, 0]
        p = d @ sts + s @ std.T
        q = d @ std + s @ dtd
        ga._add_grad(g * (p + q))
        gb._add_grad(g * (q - p))

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
    av, bv = a.value, b.value
    cos = (av * bv).sum(axis=1, keepdims=True) / (ra * rb)
    out = tape.tensor([[cos.sum() / n]])
    ga, gb, go = a._slot, b._slot, out._slot

    def bwd():
        g = go.grad[0, 0] / n
        ga._add_grad(g * (bv / (ra * rb) - cos * av / (ra * ra)))
        gb._add_grad(g * (av / (ra * rb) - cos * bv / (rb * rb)))

    tape._record(bwd)
    return out


def softmax_cross_entropy(logits: TensorNode, y_onehot: np.ndarray,
                          mask: np.ndarray) -> TensorNode:
    """-sum_{v in mask} sum_c Y_vc log softmax(logits)_vc, with one-hot rows Y.

    The log-softmax is the logits minus the row max minus its log-sum-exp, so a
    confidently wrong row keeps its loss and its gradient g * (softmax - Y).
    """
    tape = logits.tape
    y = np.asarray(y_onehot, dtype=np.float64)
    if y.shape != logits.shape:
        raise ValueError(f"one-hot labels shape {y.shape} does not match logits {logits.shape}")
    mask = np.asarray(mask, dtype=np.int64).ravel()
    if mask.size == 0:
        raise ValueError("cross-entropy mask is empty")
    in_mask = np.zeros((logits.shape[0], 1))
    in_mask[mask] = 1.0
    shifted = logits.value - logits.value.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    row_sums = e.sum(axis=1, keepdims=True)
    loss = -np.sum(in_mask * y * (shifted - np.log(row_sums)))
    out = tape.tensor([[loss]])
    gl, go = logits._slot, out._slot

    def bwd():
        gl._add_grad(go.grad[0, 0] * in_mask * (e / row_sums - y))

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
    worst_index: tuple | None = None   # coordinate of max_rel_error; None if all matched
    worst_fd: float = 0.0              # its difference quotient
    worst_grad: float = 0.0            # and the gradient it was compared with

    def __str__(self):
        at = "" if self.worst_index is None else \
            f" at {self.worst_index} fd={self.worst_fd:.6e} grad={self.worst_grad:.6e}"
        return (f"{self.name:<16s} coords={self.n_coords:<6d} "
                f"max_rel_error={self.max_rel_error:.3e}{at}")


@dataclass
class FiniteDiffReport:
    entries: list[FiniteDiffEntry]
    max_rel_error: float
    eps: float
    tolerance: float
    passed: bool

    def __str__(self):
        lines = [str(e) for e in self.entries]
        verdict = "PASS" if self.passed else "FAIL"
        lines.append(f"overall max_rel_error={self.max_rel_error:.3e} "
                     f"tolerance={self.tolerance:.1e} -> {verdict}")
        return "\n".join(lines)


def finite_diff_check(loss_fn, params, grads, eps: float = 1e-5, tolerance: float = 1e-4,
                      param_names=None) -> FiniteDiffReport:
    """Compare `grads` with central finite differences of `loss_fn`.

    `loss_fn(params)` returns the loss as a float; `params` (float64 arrays,
    perturbed in place and restored) and `grads` align. Relative error per
    coordinate is |fd - g| / max(|fd|, |g|); coordinates where both magnitudes
    fall below 1e-6 count as matched, since there the difference quotient is
    dominated by cancellation noise. A non-finite difference quotient or
    gradient counts as relative error inf. Each entry names its worst coordinate.
    Raises ValueError unless `eps` is finite and positive.
    """
    if not (np.isfinite(eps) and eps > 0):
        raise ValueError(f"eps must be finite and > 0, got {eps}")
    if param_names is None:
        param_names = [f"param{i}" for i in range(len(params))]
    entries = []
    for p, g, name in zip(params, grads, param_names):
        entry = FiniteDiffEntry(name, 0.0, int(np.prod(p.shape)))
        for idx in np.ndindex(p.shape):
            orig = p[idx]
            p[idx] = orig + eps
            lp = loss_fn(params)
            p[idx] = orig - eps
            lm = loss_fn(params)
            p[idx] = orig
            fd = (lp - lm) / (2.0 * eps)
            denom = max(abs(fd), abs(g[idx]))
            if not (np.isfinite(fd) and np.isfinite(g[idx])):
                err = np.inf
            elif denom >= 1e-6:
                err = abs(fd - g[idx]) / denom
            else:
                continue
            if entry.worst_index is None or err > entry.max_rel_error:
                entry.max_rel_error, entry.worst_index = err, idx
                entry.worst_fd, entry.worst_grad = fd, g[idx]
        entries.append(entry)
    overall = max((e.max_rel_error for e in entries), default=0.0)
    return FiniteDiffReport(entries, overall, eps, tolerance, overall <= tolerance)
