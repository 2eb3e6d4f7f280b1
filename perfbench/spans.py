"""Spans and counts recorded from outside the program, around its public calls.

`Tracer.install` replaces each wrapped function with a timing wrapper in every
`fusegcn` module that binds it (a `from .x import f` binding is patched too),
and `Tracer.uninstall` puts the originals back. A wrapped name the program no
longer has is recorded as absent, never as a failure, so a refactor that
deletes or renames a function leaves the traced run working.

Spans are kept in memory and turned into per-layer metrics by
`perfbench/layers.py`. A span keeps only what its extractor takes from the
call (shapes, sizes, a sparse matrix, plain arrays), never a tape node: a
node would keep its whole tape alive and change the memory being measured.
"""

from __future__ import annotations

import importlib
import sys
import time
from dataclasses import dataclass, field


def _nnz(m):
    return int(getattr(m, "nnz"))


def _shape(node):
    return tuple(getattr(node, "shape", None) or node.value.shape)


def _value(node):
    return getattr(node, "value", node)


# span name -> (module, attribute, extractor(args, kwargs, result) or None)
SPAN_TARGETS = {
    "dataio.load": ("fusegcn.dataio", "load_dataset", None),
    "graphs.knn": ("fusegcn.graphs", "knn_feature_graph", None),
    "graphs.norm_adj": ("fusegcn.graphs", "normalized_adjacency",
                        lambda a, kw, r: (a[0], _nnz(r))),
    "autodiff.spmm": ("fusegcn.autodiff", "spmm",
                      lambda a, kw, r: (a[0], _shape(a[1]))),
    "autodiff.backward": ("fusegcn.autodiff", "backward", None),
    "model.forward": ("fusegcn.model", "forward_full", None),
    "model.input_mlp": ("fusegcn.model", "input_mlp", None),
    "model.encoder": ("fusegcn.model", "encoder_forward", None),
    "model.common_encoder": ("fusegcn.model", "common_encoder", None),
    "model.attention": ("fusegcn.model", "attention_fuse", None),
    "model.head": ("fusegcn.model", "predict", None),
    "losses.closeness": ("fusegcn.losses", "closeness_loss",
                         lambda a, kw, r: (_value(a[0]), _value(a[1]), a[2:], kw)),
    "losses.disparity": ("fusegcn.losses", "disparity_loss", None),
    "losses.classification": ("fusegcn.losses", "classification_loss", None),
    "training.adam": ("fusegcn.training", "adam_step", None),
    "training.evaluate": ("fusegcn.training", "evaluate", None),
    "training.train": ("fusegcn.training", "train", None),
    "training.train_baseline": ("fusegcn.training", "train_baseline", None),
    "heterophily.inject": ("fusegcn.heterophily", "inject_heterophilous_edges",
                           lambda a, kw, r: r.n_edges - a[0].n_edges),
}

TAPE_CLASS = ("fusegcn.autodiff", "Tape")
TRAIN_SPANS = ("training.train", "training.train_baseline")


@dataclass
class Span:
    name: str
    start: float
    parent: int            # index of the enclosing span, -1 at top level
    tape: int              # index of the latest Tape() when the span began
    end: float = 0.0
    info: object = None


@dataclass
class TapeEvent:
    """One `Tape()` construction: the boundary between two training steps."""

    time: float
    rss_kb: int | None
    train_span: int        # innermost enclosing train/train_baseline span, -1 if none
    nodes: int = 0
    grad_bytes: int = 0


def vm_rss_kb() -> int | None:
    try:
        with open("/proc/self/status") as f:
            for line in f:
                if line.startswith("VmRSS:"):
                    return int(line.split()[1])
    except OSError:
        return None
    return None


def _fusegcn_modules():
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == "fusegcn" or name.startswith("fusegcn."))]


@dataclass
class Tracer:
    targets: dict = field(default_factory=lambda: dict(SPAN_TARGETS))
    spans: list = field(default_factory=list)
    tapes: list = field(default_factory=list)
    absent: list = field(default_factory=list)
    _stack: list = field(default_factory=list)
    _restore: list = field(default_factory=list)

    def install(self) -> None:
        for name, (mod_name, attr, extract) in self.targets.items():
            try:
                orig = getattr(importlib.import_module(mod_name), attr)
            except (ImportError, AttributeError):
                self.absent.append(name)
                continue
            wrapper = self._span_wrapper(name, orig, extract)
            for m in _fusegcn_modules():
                if getattr(m, attr, None) is orig:
                    self._restore.append((m, attr, orig))
                    setattr(m, attr, wrapper)
        self._install_tape_hooks()

    def uninstall(self) -> None:
        for obj, attr, orig in reversed(self._restore):
            setattr(obj, attr, orig)
        self._restore.clear()

    def _current_train(self) -> int:
        for idx in reversed(self._stack):
            if self.spans[idx].name in TRAIN_SPANS:
                return idx
        return -1

    def _span_wrapper(self, name, orig, extract):
        spans, stack, tapes = self.spans, self._stack, self.tapes
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            span = Span(name, clock(), stack[-1] if stack else -1, len(tapes) - 1)
            spans.append(span)
            stack.append(len(spans) - 1)
            try:
                result = orig(*args, **kwargs)
            finally:
                span.end = clock()
                stack.pop()
            if extract is not None:
                try:
                    span.info = extract(args, kwargs, result)
                except Exception:   # a changed signature loses the detail, not the span
                    span.info = None
            return result

        wrapper.__wrapped__ = orig
        return wrapper

    def _install_tape_hooks(self) -> None:
        try:
            tape_cls = getattr(importlib.import_module(TAPE_CLASS[0]), TAPE_CLASS[1])
        except (ImportError, AttributeError):
            self.absent += ["autodiff.tape", "autodiff.tape_nodes"]
            return
        tracer = self
        orig_init = tape_cls.__init__

        def init(self_tape, *args, **kwargs):
            tracer.tapes.append(TapeEvent(time.perf_counter(), vm_rss_kb(),
                                          tracer._current_train()))
            orig_init(self_tape, *args, **kwargs)

        self._restore.append((tape_cls, "__init__", orig_init))
        tape_cls.__init__ = init
        orig_tensor = getattr(tape_cls, "tensor", None)
        if orig_tensor is None:
            self.absent.append("autodiff.tape_nodes")
            return

        def tensor(self_tape, *args, **kwargs):
            node = orig_tensor(self_tape, *args, **kwargs)
            if tracer.tapes:
                ev = tracer.tapes[-1]
                ev.nodes += 1
                ev.grad_bytes += getattr(getattr(node, "grad", None), "nbytes", 0)
            return node

        self._restore.append((tape_cls, "tensor", orig_tensor))
        tape_cls.tensor = tensor
