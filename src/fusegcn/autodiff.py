"""Reverse-mode differentiation over dense float64 matrices.

A ``Tape`` records one entry per operation: the operation's vector-Jacobian
product (VJP), the gradient slots of its input nodes and the slot of its
output. Every operator computes its value and ends in ``_op``, the one place
that records. ``backward`` pops the entries in exact reverse order, calls each
VJP on its output's gradient g and adds the i-th array it returns into the
i-th input's slot. No entry holds a node, so no reference cycle runs through
a tape: reference counting frees a step's arrays as soon as the caller drops
its nodes, whether or not ``backward`` ran, and a forward-only pass needs no
call to end it. Recording onto a tape, or running ``backward`` on it, after
``backward`` is an error. All values are 2-D float64 arrays; scalars are
(1, 1). A tape is single-owner: one step builds and consumes one tape.

Gradients live in per-node gradient slots, which hold nothing but the
gradient and are filled lazily. A slot's first gradient becomes its buffer and
later ones are added into it in place, so a VJP returns one fresh array per
input, never g itself or an array it also returns for another input.
``backward`` skips an entry whose output got no gradient, so an unused
operation runs no VJP and cannot turn a live gradient into NaN (0 * inf).
Reading ``grad`` on a node that received no gradient gives zeros of its
value's shape, allocated for that read only.

A VJP binds only the smallest arrays its formula can be computed from, never
a node, tape or slot. So a node's value is freed as soon as the forward code
drops the node, unless some VJP reads it, and a step's memory until backward
is what backward needs:
- ``matmul`` and ``hadamard`` bind both operand values, ``spmm`` its sparse
  constant, ``matmul_cat`` its three operand values (its VJP rebuilds the
  concatenation);
- ``relu`` binds the bool mask ``y > 0``, one byte per element (it equals
  ``a > 0`` for every input), so its input and its float output are freed;
  ``sigmoid`` binds its output;
- ``add_scaled``, ``scale`` and ``add_row_bias`` bind no array;
- ``l2_normalize_rows`` binds its output and the row norms,
  ``gram_distance_sq`` its h x h products and its two operand values (its
  VJP rebuilds their difference and sum), ``mean_row_cosine`` both operands,
  the norms and the cosines, and ``softmax_cross_entropy`` its node ids,
  their class ids and the exponentials and row sums of their rows.

Rebuilding an array repeats the forward pass's floating-point operations, so
a gradient's bits do not depend on what its VJP binds.

Constant operands (the sparse adjacency, the sparse feature matrix) are not
nodes: ``spmm`` takes them as plain scipy CSR matrices and sends gradient to
its dense node operand only.

The classification loss is one operator on the logits, ``softmax_cross_entropy``;
no probability is formed or clamped before its log.

``unit_rows`` is the one row normalization, run by ``l2_normalize_rows``,
``mean_row_cosine`` and the kNN graph (``graphs.knn_feature_graph``), so a
row's scale changes none of their values.

``finite_diff_check`` is the independent gradient oracle: central differences
of a loss-only function against the gradients the caller passes in.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp


class TapeError(RuntimeError):
    pass


_CONSUMED = "this tape was already consumed; build a new tape"


class _GradSlot:
    """A node's gradient buffer: all the tape holds of a node it sends
    gradient to or reads the output gradient of."""

    __slots__ = ("grad",)

    def __init__(self):
        self.grad = None


class TensorNode:
    """A value on a tape plus the gradient slot `backward` accumulates into."""

    __slots__ = ("value", "tape", "_slot")

    def __init__(self, value: np.ndarray, tape: "Tape"):
        self.value = value
        self.tape = tape
        self._slot = _GradSlot()

    @property
    def shape(self):
        return self.value.shape

    @property
    def grad(self) -> np.ndarray:
        """Accumulated gradient; zeros of the value's shape (not stored)
        before any contribution."""
        g = self._slot.grad
        return np.zeros(self.value.shape, self.value.dtype) if g is None else g

    def item(self) -> float:
        if self.value.shape != (1, 1):
            raise ValueError("item() requires a scalar node")
        return float(self.value[0, 0])


class Tape:
    """Ordered record of operations; replayed in reverse by backward(), which
    consumes it."""

    def __init__(self):
        self._entries = []   # (vjp, input slots, output slot) per operation
        self._used = False

    def tensor(self, value) -> TensorNode:
        """Create a leaf node holding `value` (coerced to 2-D float64)."""
        v = np.asarray(value, dtype=np.float64)
        if v.ndim != 2:
            raise ValueError(f"tape values must be 2-D, got shape {v.shape}")
        return TensorNode(v, self)


def _op(value, vjp, *inputs) -> TensorNode:
    """Record one operation on the inputs' tape and return its output node.

    `value` becomes the output's value; `vjp(g)` maps the output gradient g
    to one fresh array per input, binding arrays only (see the module
    docstring). Recording onto a consumed tape is a TapeError.
    """
    tape = inputs[0].tape
    if tape._used:
        raise TapeError(_CONSUMED)
    slots = []
    for x in inputs:
        if x.tape is not tape:
            raise TapeError("nodes belong to different tapes")
        slots.append(x._slot)
    out = tape.tensor(value)
    tape._entries.append((vjp, slots, out._slot))
    return out


def backward(tape: Tape, loss: TensorNode) -> None:
    """Populate grads of every node reachable from `loss` (a scalar node).

    Each entry is dropped as it runs, so the tape ends empty. An entry whose
    output received no gradient adds nothing and its VJP is not run.
    """
    if loss.tape is not tape:
        raise TapeError("loss node does not belong to this tape")
    if loss.shape != (1, 1):
        raise ValueError("backward requires a scalar (1, 1) loss node")
    if tape._used:
        raise TapeError(_CONSUMED)
    tape._used = True
    loss._slot.grad = np.ones((1, 1))
    entries = tape._entries
    while entries:
        vjp, slots, out = entries.pop()
        if out.grad is None:
            continue
        for slot, g in zip(slots, vjp(out.grad)):
            if slot.grad is None:
                slot.grad = g
            else:
                slot.grad += g
        del slot, g   # the last gradient added must not outlive its entry


# ---------------------------------------------------------------------------
# operators
#
# Each operator checks its shapes, computes its value and returns
# `_op(value, vjp, *inputs)`; its VJP binds the arrays the formula reads.
# ---------------------------------------------------------------------------

def matmul(a: TensorNode, b: TensorNode) -> TensorNode:
    if a.shape[1] != b.shape[0]:
        raise ValueError(f"matmul shape mismatch: {a.shape} @ {b.shape}")
    av, bv = a.value, b.value
    return _op(av @ bv, lambda g: (g @ bv.T, av.T @ g), a, b)


def spmm(p: sp.csr_array, h: TensorNode) -> TensorNode:
    """Sparse-constant @ dense-node product; gradient flows through `h` only."""
    if p.shape[1] != h.shape[0]:
        raise ValueError(f"spmm shape mismatch: {p.shape} @ {h.shape}")
    return _op(p @ h.value, lambda g: (p.T @ g,), h)


def relu(a: TensorNode) -> TensorNode:
    """max(a, 0). The VJP binds only the bool mask y > 0, one byte per
    element: it is true exactly where a > 0, also for -0.0, NaN and
    infinities, so neither the input nor the float output need be kept."""
    y = np.maximum(a.value, 0.0)
    mask = y > 0.0
    return _op(y, lambda g: (g * mask,), a)


def sigmoid(a: TensorNode) -> TensorNode:
    """1 / (1 + exp(-a)). Below a = -709.78 exp(-a) overflows to inf and the
    value is its limit 0.0, so that overflow is not reported."""
    with np.errstate(over="ignore"):
        s = 1.0 / (1.0 + np.exp(-a.value))
    return _op(s, lambda g: (g * s * (1.0 - s),), a)


def add_scaled(a: TensorNode, b: TensorNode, wa: float, wb: float) -> TensorNode:
    """wa * a + wb * b, same shapes."""
    if a.shape != b.shape:
        raise ValueError(f"add_scaled shape mismatch: {a.shape} vs {b.shape}")
    return _op(wa * a.value + wb * b.value, lambda g: (wa * g, wb * g), a, b)


def scale(a: TensorNode, w: float) -> TensorNode:
    return _op(w * a.value, lambda g: (w * g,), a)


def add_row_bias(a: TensorNode, bias: TensorNode) -> TensorNode:
    """a + bias with bias of shape (1, cols), broadcast over rows."""
    if bias.shape != (1, a.shape[1]):
        raise ValueError(f"bias shape {bias.shape} does not match columns of {a.shape}")
    return _op(a.value + bias.value, lambda g: (g.copy(), g.sum(axis=0, keepdims=True)),
               a, bias)


def hadamard(a: TensorNode, b: TensorNode) -> TensorNode:
    if a.shape != b.shape:
        raise ValueError(f"hadamard shape mismatch: {a.shape} vs {b.shape}")
    av, bv = a.value, b.value
    return _op(av * bv, lambda g: (g * bv, g * av), a, b)


def matmul_cat(a: TensorNode, b: TensorNode, w: TensorNode) -> TensorNode:
    """[a | b] @ w, the column concatenation of a and b times w.

    The VJP binds a, b and w and rebuilds the concatenation, so no copy of
    a and b stays on the tape; where another VJP binds them too (the
    disparity loss binds the common encoder's outputs), this op keeps nothing
    of its own.
    """
    if a.shape[0] != b.shape[0]:
        raise ValueError(f"matmul_cat row mismatch: {a.shape} vs {b.shape}")
    split = a.shape[1]
    if split + b.shape[1] != w.shape[0]:
        raise ValueError(f"matmul_cat shape mismatch: [{a.shape} | {b.shape}] @ {w.shape}")
    av, bv, wv = a.value, b.value, w.value

    def vjp(g):
        gw = np.hstack([av, bv]).T @ g
        g_cat = g @ wv.T
        return g_cat[:, :split].copy(), g_cat[:, split:].copy(), gw

    return _op(np.hstack([av, bv]) @ wv, vjp, a, b, w)


_TINY, _HUGE = np.finfo(np.float64).tiny, np.finfo(np.float64).max


def _normal(x: np.ndarray) -> np.ndarray:
    """Whether each entry is a positive normal float64: not 0, subnormal,
    infinite or NaN."""
    return (x >= _TINY) & (x <= _HUGE)


def unit_rows(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(x over its row norms, the norms as an (n, 1) column), in x's dtype and layout.

    Whole-array passes with no N x d temporary: the squares go into the
    result, their `np.add.reduce` is `np.linalg.norm`'s bits, and x / norm
    overwrites them. A finite row whose sum of squares is not a positive
    normal float64 is divided by its peak |entry| first and gets norm
    peak * ||x / peak|| (inf if that overflows). A zero row gets norm 0 and a
    row with a non-finite entry a non-finite norm, for the caller to reject.
    """
    rows = np.empty_like(x)
    with np.errstate(all="ignore"):
        np.multiply(x, x, out=rows)
        ss = np.add.reduce(rows, axis=1, keepdims=True)
        norms = np.sqrt(ss)
        np.divide(x, norms, out=rows)
        odd = np.flatnonzero(~_normal(ss[:, 0]))
        peaks = np.abs(x[odd]).max(axis=1, keepdims=True, initial=0.0)
        fix = np.isfinite(peaks[:, 0]) & (peaks[:, 0] > 0.0)
        odd, peaks = odd[fix], peaks[fix]
        scaled = x[odd] / peaks
        r = np.linalg.norm(scaled, axis=1, keepdims=True)
        norms[odd] = peaks * r
        rows[odd] = scaled / r
    return rows, norms


def l2_normalize_rows(a: TensorNode) -> TensorNode:
    """Each row over its L2 norm, by `unit_rows`; rows must be nonzero, and a
    row with a non-finite entry gives NaN or inf."""
    y, r = unit_rows(a.value)
    if not r.all():
        raise ValueError(f"cannot L2-normalize zero row {np.flatnonzero(r == 0.0)[0]}")
    return _op(y, lambda g: ((g - (g * y).sum(axis=1, keepdims=True) * y) / r,), a)


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
    b = (S - D) / 2. The VJP binds the h x h products and rebuilds D and S
    from a and b, whose values it binds (in the closeness loss they are
    `l2_normalize_rows` outputs, which that op binds anyway).
    """
    if a.shape != b.shape:
        raise ValueError(f"gram_distance_sq shape mismatch: {a.shape} vs {b.shape}")
    av, bv = a.value, b.value
    d = av - bv
    s = av + bv
    sts = s.T @ s
    dtd = d.T @ d
    std = s.T @ d

    def vjp(g):
        g = g[0, 0]
        d = av - bv
        p = d @ sts
        q = d @ std
        del d
        s = av + bv
        p += s @ std.T
        q += s @ dtd
        del s
        qp = q - p
        p += q
        p *= g
        qp *= g
        return p, qp

    return _op([[max(0.5 * (np.sum(sts * dtd) + np.sum(std * std.T)), 0.0)]], vjp, a, b)


def mean_row_cosine(a: TensorNode, b: TensorNode) -> TensorNode:
    """(1/N) * sum_i cos(a_i, b_i) as a scalar node.

    Each row's unit vector and norm come from `unit_rows`, so a row's scale
    does not change its cosine, and its gradient scales by 1/scale; rows must
    be nonzero. A row with a non-finite entry gives a NaN value.
    The VJP binds both operands, the norms and the cosines, and forms no
    product of two norms, which could leave float64's range.
    """
    if a.shape != b.shape:
        raise ValueError(f"mean_row_cosine shape mismatch: {a.shape} vs {b.shape}")
    av, bv = a.value, b.value
    ua, ra = unit_rows(av)
    ub, rb = unit_rows(bv)
    if not (ra.all() and rb.all()):
        i = np.flatnonzero((ra == 0.0) | (rb == 0.0))[0]
        raise ValueError(f"mean_row_cosine undefined on zero row {i}")
    cos = (ua * ub).sum(axis=1, keepdims=True)
    del ua, ub
    n = a.shape[0]

    def vjp(g):
        g = g[0, 0] / n
        return ((bv * (1.0 / rb) - av * (cos / ra)) * (g / ra),
                (av * (1.0 / ra) - bv * (cos / rb)) * (g / rb))

    return _op([[cos.sum() / n]], vjp, a, b)


def softmax_cross_entropy(logits: TensorNode, labels: np.ndarray,
                          nodes: np.ndarray) -> TensorNode:
    """-sum_{v in nodes} log softmax(logits)_{v, labels[v]}, each node id counted once.

    The log-softmax is the logits minus the row max minus its log-sum-exp, so a
    confidently wrong row keeps its loss and its gradient g * (softmax - Y);
    rows outside `nodes` get gradient 0. `labels` holds a class id per row.
    """
    labels = np.asarray(labels)
    if labels.shape != logits.shape[:1]:
        raise ValueError(f"labels shape {labels.shape} does not match logits {logits.shape}")
    nodes = np.unique(np.asarray(nodes, dtype=np.int64))
    if nodes.size == 0:
        raise ValueError("cross-entropy node set is empty")
    y = labels[nodes]
    z = logits.value[nodes]
    shifted = z - z.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    row_sums = e.sum(axis=1, keepdims=True)
    loss = -np.sum(shifted[np.arange(nodes.size), y] - np.log(row_sums[:, 0]))
    shape = logits.shape

    def vjp(g):
        grad = np.zeros(shape, e.dtype)
        grad[nodes] = e / row_sums
        grad[nodes, y] -= 1.0
        return (g[0, 0] * grad,)

    return _op([[loss]], vjp, logits)


# ---------------------------------------------------------------------------
# finite-difference oracle
# ---------------------------------------------------------------------------

def _rel_error(x: float, y: float, noise: float) -> float | None:
    """max(|x - y| - noise, 0) / max(|x|, |y|), with `noise` the rounding
    bound of a difference quotient; None where both magnitudes fall below 1e-6."""
    denom = max(abs(x), abs(y))
    return max(abs(x - y) - noise, 0.0) / denom if denom >= 1e-6 else None


def _agree(x: float, y: float, tolerance: float, noise: float) -> bool:
    err = _rel_error(x, y, noise)
    return err is None or err <= tolerance


@dataclass
class FiniteDiffEntry:
    name: str
    max_rel_error: float
    n_coords: int
    worst_index: tuple | None = None   # coordinate of max_rel_error; None if all matched
    worst_fd: float = 0.0              # its difference quotient
    worst_grad: float = 0.0            # and the gradient it was compared with
    # (index, forward quotient, backward quotient, gradient) of each kink
    kinks: list[tuple] = field(default_factory=list)

    def __str__(self):
        at = "" if self.worst_index is None else \
            f" at {self.worst_index} fd={self.worst_fd:.6e} grad={self.worst_grad:.6e}"
        lines = [f"{self.name:<16s} coords={self.n_coords:<6d} "
                 f"max_rel_error={self.max_rel_error:.3e}{at}"]
        lines += [f"{'':<16s} kink at {idx} forward fd={fwd:.6e} backward fd={bwd:.6e} "
                  f"grad={g:.6e}" for idx, fwd, bwd, g in self.kinks]
        return "\n".join(lines)


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
        n_kinks = sum(len(e.kinks) for e in self.entries)
        kinks = f" ({n_kinks} kink{'s' if n_kinks > 1 else ''} excluded)" if n_kinks else ""
        lines.append(f"overall max_rel_error={self.max_rel_error:.3e} "
                     f"tolerance={self.tolerance:.1e} -> {verdict}{kinks}")
        return "\n".join(lines)


def finite_diff_check(loss_fn, params, grads, eps: float = 1e-5, tolerance: float = 1e-4,
                      param_names=None) -> FiniteDiffReport:
    """Compare `grads` with central finite differences of `loss_fn`.

    `loss_fn(params)` returns the loss as a float; `params` (float64 arrays,
    perturbed in place and restored) and `grads` align. Relative error per
    coordinate is max(|fd - g| - r, 0) / max(|fd|, |g|), where
    r = 2^-52 * max(|L(x + eps)|, |L(x - eps)|) / eps bounds the rounding of
    the quotient, so round-off in L does not fail a correct gradient;
    coordinates where both magnitudes fall below 1e-6 count as matched. A
    non-finite difference quotient or gradient counts as relative error inf.
    Each entry names its worst coordinate.

    A coordinate over `tolerance` is a kink, not an error, when the loss has a
    kink (a ReLU switching, say) within eps of it: the forward and backward
    quotients (L(x + eps) - L(x)) / eps and (L(x) - L(x - eps)) / eps differ by
    more than `tolerance`, and the gradient matches one of them within
    `tolerance`, each judged with twice the bound r. Kinks are listed with
    both quotients and left out of max_rel_error. A wrong gradient matches
    neither side, so it still fails.
    Raises ValueError unless `eps` is finite and positive and `tolerance`
    finite and non-negative.
    """
    if not (np.isfinite(eps) and eps > 0):
        raise ValueError(f"eps must be finite and > 0, got {eps}")
    if not (np.isfinite(tolerance) and tolerance >= 0):
        raise ValueError(f"tolerance must be finite and >= 0, got {tolerance}")
    if param_names is None:
        param_names = [f"param{i}" for i in range(len(params))]
    entries = []
    l0 = None
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
            if not (np.isfinite(fd) and np.isfinite(g[idx])):
                err = np.inf
            else:
                noise = 2.0 ** -52 * max(abs(lp), abs(lm)) / eps   # the bound r
                err = _rel_error(fd, g[idx], noise)
                if err is None:
                    continue
                if err > tolerance:
                    if l0 is None:
                        l0 = loss_fn(params)
                    fwd, bwd = (lp - l0) / eps, (l0 - lm) / eps
                    noise *= 2.0   # a one-sided quotient divides by eps, not 2 eps
                    if (not _agree(fwd, bwd, tolerance, noise)
                            and (_agree(fwd, g[idx], tolerance, noise)
                                 or _agree(bwd, g[idx], tolerance, noise))):
                        entry.kinks.append((idx, fwd, bwd, g[idx]))
                        continue
            if entry.worst_index is None or err > entry.max_rel_error:
                entry.max_rel_error, entry.worst_index = err, idx
                entry.worst_fd, entry.worst_grad = fd, g[idx]
        entries.append(entry)
    overall = max((e.max_rel_error for e in entries), default=0.0)
    return FiniteDiffReport(entries, overall, eps, tolerance, overall <= tolerance)
