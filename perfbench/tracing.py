"""Spans around emofuse's public functions, recorded from outside the package.

A Tracer replaces module attributes with timing wrappers. A function is wrapped
at every module that looks it up (``emofuse.training.forward`` as well as
``emofuse.encoder.forward``), because rebinding the defining module alone
misses callers that imported the name. Spans (name, start, end, parent) live
in flat arrays until the run ends; self time is a span's duration minus the
durations of its direct children, which never overlap in this
single-threaded program. The tracer's own work inside a run (walking autodiff
graphs) is recorded as ``tracing.graph_walk`` spans, so it is no layer's self
time.
"""

from __future__ import annotations

import functools
import os
import time
import tracemalloc
from array import array

import numpy as np

# Autodiff primitives whose calls and self time are reported. The last four
# are the per-head bookkeeping of the two attention loops.
TENSOR_OPS = (
    "matmul", "softmax_rows", "layer_norm", "gelu", "gather_rows", "dropout", "add",
    "cross_entropy_rows", "slice_cols", "concat_cols", "transpose", "scale",
)

# Forwards per (mode, modality) whose autodiff graph is walked and counted;
# the count is structural, so a few samples suffice and must all agree.
GRAPH_SAMPLES = 3


def graph_nodes(tensor) -> int:
    """Recorded operations reachable from ``tensor`` through ``Tensor.op``."""
    seen: set[int] = set()
    stack = [tensor]
    while stack:
        node = stack.pop()
        if node.op is None or id(node) in seen:
            continue
        seen.add(id(node))
        stack.extend(node.op.inputs)
    return len(seen)


def rebind(owners, attr: str, method) -> None:
    """Replace ``attr`` on every owner by a function that calls
    ``method(original, *args, **kwargs)``; ``original`` is that owner's binding."""
    for owner in owners:
        original = getattr(owner, attr)

        @functools.wraps(original)
        def wrapper(*args, _fn=original, **kwargs):
            return method(_fn, *args, **kwargs)

        setattr(owner, attr, wrapper)


class Tracer:
    """In-memory span recorder plus the exact counters measured at span boundaries."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_of = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack: list[int] = []
        self.counters: dict[str, float] = {}
        self.graph: dict[str, list[int]] = {}
        self.peak_alloc_mb: dict[str, float] = {}

    # -- recording ---------------------------------------------------------

    def begin(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        idx = len(self.start)
        self.name_of.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.start.append(time.perf_counter())
        self.end.append(0.0)
        self._stack.append(idx)
        return idx

    def finish(self, idx: int) -> None:
        self.end[idx] = time.perf_counter()
        self._stack.pop()

    def add(self, key: str, amount: float) -> None:
        self.counters[key] = self.counters.get(key, 0) + amount

    def call(self, name: str, fn, *args, **kwargs):
        idx = self.begin(name)
        try:
            return fn(*args, **kwargs)
        finally:
            self.finish(idx)

    def wrap(self, owners, attr: str, name, before=None, after=None) -> None:
        """Rebind ``attr`` on every owner to a span-recording wrapper.

        ``name`` is a span name or a function of the call's arguments.
        ``before(args, kwargs)`` runs just before the span opens and
        ``after(result, args, kwargs)`` just after it closes, so neither adds
        to this span's self time; work they do belongs to the enclosing span
        unless they record it as a span of its own.
        """
        def traced(fn, *args, **kwargs):
            if before is not None:
                before(args, kwargs)
            idx = self.begin(name(args, kwargs) if callable(name) else name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.finish(idx)
            if after is not None:
                after(result, args, kwargs)
            return result

        rebind(owners, attr, traced)

    def count_nodes(self, tensor) -> int:
        """``graph_nodes`` inside a ``tracing.graph_walk`` span."""
        return self.call("tracing.graph_walk", graph_nodes, tensor)

    # -- emofuse instrumentation ------------------------------------------

    def instrument(self) -> None:
        """Wrap the public functions of every emofuse layer the benchmark reports."""
        from emofuse import (checkpoint, cli, data, encoder, fileio, fusion, speech, tensor,
                             text, training)

        self.wrap([data, cli], "generate_synthetic", "data.generate_synthetic")
        self.wrap([data, cli], "save_jsonl", "data.save_jsonl")
        self.wrap([data, cli], "load_jsonl", "data.load_jsonl")
        self.wrap([data, cli], "tokenize_examples", "data.tokenize_examples")

        self.wrap([speech, data], "featurize", "speech.featurize")
        self.wrap([speech, data, cli], "discretize", "speech.discretize")
        self._wrap_codebook([speech, cli])
        self.wrap([text, cli], "build_vocab", "text.build_vocab")
        self.wrap([text, data], "encode", "text.encode")

        self.wrap([fileio, cli], "sha256_file", "fileio.sha256_file",
                  before=lambda a, k: self.add("fileio.sha256_file.bytes",
                                               os.path.getsize(a[0])))
        self.wrap([fileio, speech, checkpoint], "atomic_write_bytes", "fileio.atomic_write_bytes",
                  before=lambda a, k: self.add("fileio.atomic_write_bytes.bytes", len(a[1])))

        for fn in ("save_encoder_checkpoint", "save_fusion_checkpoint", "load_fusion_checkpoint"):
            self.wrap([checkpoint, cli], fn, f"checkpoint.{fn}")

        def forward_name(args, kwargs):
            return "encoder.forward.train" if kwargs.get("train_mode") else "encoder.forward.eval"

        self.wrap([encoder, training], "forward", forward_name, after=self._count_graph)
        self.wrap([encoder, training], "mask_corrupt", "encoder.mask_corrupt")
        self.wrap([encoder, training], "masked_lm_loss", "encoder.masked_lm_loss")

        self.wrap([tensor], "backward", "tensor.backward",
                  before=lambda a, k: self.add("tensor.backward.nodes", self.count_nodes(a[0])))
        for op in TENSOR_OPS:
            self.wrap([tensor], op, f"tensor.{op}")

        self.wrap([fusion], "co_attend", "fusion.co_attend")
        self.wrap([fusion.FusionModel], "fuse", "fusion.FusionModel.fuse")

        for fn in ("adam_step", "collect_gradients", "classification_loss"):
            self.wrap([training], fn, f"training.{fn}")
        self.wrap([training, cli], "evaluate_model", "training.evaluate_model")
        self.wrap([training, cli], "run_finetune", "training.run_finetune")
        self.wrap([training, cli], "run_pretraining", "training.run_pretraining")

    def _wrap_codebook(self, owners) -> None:
        """train_codebook with its tracemalloc peak; tracing is on only inside the call."""
        def before(args, kwargs):
            tracemalloc.start()

        def after(result, args, kwargs):
            _, peak = tracemalloc.get_traced_memory()
            tracemalloc.stop()
            key = "speech.train_codebook.peak_alloc_mb"
            self.peak_alloc_mb[key] = max(self.peak_alloc_mb.get(key, 0.0), peak / 2**20)

        self.wrap(owners, "train_codebook", "speech.train_codebook", before=before, after=after)

    def _count_graph(self, out, args, kwargs) -> None:
        if kwargs.get("train_mode"):
            key = f"encoder.forward.{args[0].modality}.graph_nodes"
        else:
            key = "encoder.forward.eval.graph_nodes"
        seen = self.graph.setdefault(key, [])
        if len(seen) < GRAPH_SAMPLES:
            seen.append(self.count_nodes(out.hidden))

    # -- summaries -----------------------------------------------------------

    def self_times(self) -> dict[str, tuple[int, float]]:
        """(calls, self seconds) per span name."""
        n = len(self.start)
        if n == 0:
            return {}
        name_of = np.frombuffer(self.name_of, dtype=np.int32)
        parent = np.frombuffer(self.parent, dtype=np.int32)
        dur = np.frombuffer(self.end, dtype=np.float64) - np.frombuffer(self.start, dtype=np.float64)
        nested = parent >= 0
        child = np.bincount(parent[nested], weights=dur[nested], minlength=n)
        own = dur - child
        calls = np.bincount(name_of, minlength=len(self.names))
        selfs = np.bincount(name_of, weights=own, minlength=len(self.names))
        return {name: (int(calls[i]), float(selfs[i])) for i, name in enumerate(self.names)}

    def summary(self) -> dict:
        """What a process hands back: self times, counters, graph walks, peaks."""
        return {
            "spans": {name: list(v) for name, v in self.self_times().items()},
            "counters": self.counters,
            "graph": self.graph,
            "peak_alloc_mb": self.peak_alloc_mb,
        }

    def save(self, path) -> None:
        np.savez_compressed(
            path, run_id=np.array(self.run_id), names=np.array(self.names),
            name=np.frombuffer(self.name_of, dtype=np.int32),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            start=np.frombuffer(self.start, dtype=np.float64),
            end=np.frombuffer(self.end, dtype=np.float64))
