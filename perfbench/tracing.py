"""Per-layer tracing of seralign from outside the program.

The tracer replaces seralign's public functions, at every name through which
a caller reaches them, by wrappers that record a span: name, start, end,
parent span and run id. Spans are kept in compact arrays in memory and
written out once, when the run ends.

Where a wrapper has to go follows from how the modules import each other:

- ``pipeline``, ``pretrain`` and ``finetune`` import their callees by name
  (``from .cluster import kmeans_fit``), so the wrapper replaces that name in
  each importing module, e.g. ``seralign.pipeline.kmeans_fit`` and
  ``seralign.finetune.kmeans_assign``.
- ``encoder``, ``pretrain`` and ``finetune`` call ops as ``ad.<op>``, and the
  operator methods of ``Tensor`` call the module-level ops, so replacing
  ``seralign.autodiff.<op>`` catches every op call.
- ``Tensor.backward`` is replaced on the class.

A layer is a module of ``seralign``; a span is named ``<layer>.<function>``.
Spans named ``bench.*`` are the benchmark's own: the two roots
(``bench.setup``, ``bench.timed``) and the tape walk that counts nodes.
"""

from __future__ import annotations

import collections
import contextlib
import functools
import importlib
import json
import os
import time
from array import array
from pathlib import Path

import numpy as np

OPS = (
    "matmul", "add", "mul", "tanh", "softmax", "layer_norm", "where",
    "cross_entropy", "reshape", "transpose", "reduce_sum", "mean",
)

# span name -> the module attributes through which callers reach the function
CALL_SITES = {
    "pipeline.phase_gen_corpus": ("seralign.pipeline.phase_gen_corpus",),
    "pipeline.phase_tapt": ("seralign.pipeline.phase_tapt",),
    "pipeline.phase_cluster": ("seralign.pipeline.phase_cluster",),
    "pipeline.phase_pretrain": ("seralign.pipeline.phase_pretrain",),
    "pipeline.phase_finetune": ("seralign.pipeline.phase_finetune",),
    "pipeline.phase_eval": ("seralign.pipeline.phase_eval",),
    "corpus.generate_corpus": ("seralign.pipeline.generate_corpus",),
    "corpus.load_corpus": ("seralign.pipeline.load_corpus",),
    "corpus.save_corpus": ("seralign.pipeline.save_corpus",),
    "checkpoint.save_checkpoint": ("seralign.pipeline.save_checkpoint",),
    "checkpoint.load_checkpoint": ("seralign.pipeline.load_checkpoint",),
    "cluster.kmeans_fit": ("seralign.pipeline.kmeans_fit",),
    "cluster.kmeans_assign": ("seralign.pipeline.kmeans_assign", "seralign.finetune.kmeans_assign"),
    "cluster.save_codebook": ("seralign.pipeline.save_codebook",),
    "cluster.load_codebook": ("seralign.pipeline.load_codebook",),
    "cluster.save_pseudo_labels": ("seralign.pipeline.save_pseudo_labels",),
    "cluster.load_pseudo_labels": ("seralign.pipeline.load_pseudo_labels",),
    "encoder.encode": ("seralign.encoder.encode", "seralign.pretrain.encode", "seralign.finetune.encode"),
    "encoder.layer_embeddings": ("seralign.pipeline.layer_embeddings",),
    "encoder.sample_mask": ("seralign.pretrain.sample_mask",),
    "optim.optimizer_step": ("seralign.pretrain.optimizer_step", "seralign.finetune.optimizer_step"),
    "pretrain.run_pretrain": ("seralign.pipeline.run_pretrain", "seralign.finetune.run_pretrain"),
    "pretrain.make_buckets": ("seralign.pretrain.make_buckets",),
    "pretrain.batch_mlm_loss": ("seralign.pretrain.batch_mlm_loss",),
    "pretrain.masked_prediction_accuracy": ("seralign.pipeline.masked_prediction_accuracy",),
    "finetune.run_tapt": ("seralign.pipeline.run_tapt",),
    "finetune.run_finetune": ("seralign.pipeline.run_finetune", "seralign.finetune.run_finetune"),
    "finetune.evaluate_split": ("seralign.finetune.evaluate_split",),
    "finetune.pad_batch": ("seralign.finetune.pad_batch",),
    "evaluate.compute_metrics": ("seralign.finetune.compute_metrics",),
    "evaluate.aggregate_folds": ("seralign.pipeline.aggregate_folds",),
    "evaluate.render_report": ("seralign.pipeline.render_report",),
    "evaluate.save_fold_metrics": ("seralign.pipeline.save_fold_metrics",),
    **{f"autodiff.op.{op}": (f"seralign.autodiff.{op}",) for op in OPS},
}

LAYERS = (
    "pipeline", "corpus", "autodiff", "encoder", "pretrain",
    "finetune", "optim", "cluster", "checkpoint", "evaluate",
)
TRAINERS = ("pretrain.run_pretrain", "finetune.run_finetune")
PHASES = ("gen_corpus", "tapt", "cluster", "pretrain", "finetune", "eval")


def _arg(args, kwargs, index, name, default=None):
    if len(args) > index:
        return args[index]
    return kwargs.get(name, default)


def tail(samples) -> tuple[float, float]:
    """(value, percentile) of the highest percentile with 10 samples beyond it.

    With fewer than 11 samples no such percentile exists; the maximum is
    returned as the 100th percentile.
    """
    s = sorted(samples)
    n = len(s)
    if n == 0:
        return 0.0, 0.0
    if n < 11:
        return s[-1], 100.0
    return s[n - 11], 100.0 * (n - 10) / n


class Tracer:
    """Span recorder; ``installed()`` patches seralign for its duration."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.run = array("i")
        self.start = array("d")
        self.end = array("d")
        self.stack = [-1]
        self.run_id = 0
        self.counts: collections.Counter = collections.Counter()
        self.samples: dict[str, list[float]] = collections.defaultdict(list)
        self._step_mark: dict[int, float] = {}

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    @contextlib.contextmanager
    def span(self, name: str):
        sid = self._open(self.name_id(name))
        try:
            yield sid
        finally:
            self._close(sid)

    def _open(self, nid: int) -> int:
        sid = len(self.start)
        self.name.append(nid)
        self.parent.append(self.stack[-1])
        self.run.append(self.run_id)
        self.start.append(time.perf_counter())
        self.end.append(0.0)
        self.stack.append(sid)
        return sid

    def _close(self, sid: int) -> None:
        self.end[sid] = time.perf_counter()
        self.stack.pop()

    def wrap(self, fn, span_name: str, before=None, after=None):
        """Return ``fn`` recording one span per call.

        ``before(args, kwargs)`` runs ahead of the span and
        ``after(args, kwargs, span_id)`` after a call that returned, so
        neither is counted in the span's own time.
        """
        nid = self.name_id(span_name)
        names, parents, runs, starts, ends, stack = (
            self.name, self.parent, self.run, self.start, self.end, self.stack
        )
        perf = time.perf_counter
        tracer = self

        # the span bookkeeping of _open/_close, inlined: this runs on every op call
        def traced(*args, **kwargs):
            if before is not None:
                before(args, kwargs)
            sid = len(starts)
            names.append(nid)
            parents.append(stack[-1])
            runs.append(tracer.run_id)
            starts.append(perf())
            ends.append(0.0)
            stack.append(sid)
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[sid] = perf()
                stack.pop()
            if after is not None:
                after(args, kwargs, sid)
            return result

        return functools.update_wrapper(traced, fn)

    # -- hooks that count work where it happens --------------------------------

    def _innermost_trainer(self) -> int | None:
        trainer_ids = {self._ids.get(t) for t in TRAINERS}
        for sid in reversed(self.stack):
            if sid >= 0 and self.name[sid] in trainer_ids:
                return sid
        return None

    def _mark_step(self, args, kwargs, sid) -> None:
        trainer = self._innermost_trainer()
        if trainer is not None:
            self._step_mark[trainer] = self.end[sid]

    def _after_optimizer_step(self, args, kwargs, sid) -> None:
        self.samples["optim.tensors_per_step"].append(len(_arg(args, kwargs, 0, "state").m))
        trainer = self._innermost_trainer()
        if trainer is None:
            return
        mark = self._step_mark.get(trainer, self.start[trainer])
        self.samples[self.names[self.name[trainer]] + ".step_s"].append(self.end[sid] - mark)
        self._step_mark[trainer] = self.end[sid]

    def _after_encode(self, args, kwargs, sid) -> None:
        features = _arg(args, kwargs, 2, "features")
        validity = _arg(args, kwargs, 3, "validity")
        batch, frames = features.shape[0], features.shape[1]
        self.counts["encoder.frames_padded"] += batch * frames
        self.counts["encoder.frames_valid"] += batch * frames if validity is None else int(validity.sum())

    def _after_kmeans_fit(self, args, kwargs, sid) -> None:
        points = _arg(args, kwargs, 0, "points")
        self.counts["cluster.fit_point_centroid_pairs"] += len(points) * int(_arg(args, kwargs, 1, "k"))

    def _after_save_checkpoint(self, args, kwargs, sid) -> None:
        self.counts["checkpoint.bytes_written"] += os.path.getsize(_arg(args, kwargs, 0, "path"))

    def _after_load_checkpoint(self, args, kwargs, sid) -> None:
        self.counts["checkpoint.bytes_read"] += os.path.getsize(_arg(args, kwargs, 0, "path"))

    def _before_backward(self, args, kwargs) -> None:
        with self.span("bench.tape_walk"):
            nodes, seen, todo = 0, set(), [args[0]]
            while todo:
                node = todo.pop()
                if id(node) in seen:
                    continue
                seen.add(id(node))
                nodes += node._backprop is not None
                todo.extend(node._parents)
        self.samples["autodiff.nodes_per_step"].append(nodes)

    @contextlib.contextmanager
    def installed(self):
        """Patch every call site for the duration of the block, then restore."""
        after_hooks = {
            "encoder.encode": self._after_encode,
            "cluster.kmeans_fit": self._after_kmeans_fit,
            "checkpoint.save_checkpoint": self._after_save_checkpoint,
            "checkpoint.load_checkpoint": self._after_load_checkpoint,
            "optim.optimizer_step": self._after_optimizer_step,
            "finetune.evaluate_split": self._mark_step,
            "pretrain.make_buckets": self._mark_step,
        }
        undo = []
        try:
            for span_name, sites in CALL_SITES.items():
                for site in sites:
                    module_name, attr = site.rsplit(".", 1)
                    module = importlib.import_module(module_name)
                    original = getattr(module, attr)
                    setattr(module, attr, self.wrap(original, span_name, after=after_hooks.get(span_name)))
                    undo.append((module, attr, original))
            tensor = importlib.import_module("seralign.autodiff").Tensor
            original = tensor.backward
            tensor.backward = self.wrap(original, "autodiff.backward", before=self._before_backward)
            undo.append((tensor, "backward", original))
            yield self
        finally:
            for owner, attr, original in reversed(undo):
                setattr(owner, attr, original)

    # -- results -----------------------------------------------------------------

    def metrics(self) -> dict[str, float]:
        """Per-layer metrics over every traced span (set-up and timed section)."""
        name = np.frombuffer(self.name, dtype=np.int32)
        parent = np.frombuffer(self.parent, dtype=np.int32)
        dur = np.frombuffer(self.end, dtype=np.float64) - np.frombuffer(self.start, dtype=np.float64)
        nested = parent >= 0
        child = np.zeros(len(dur))
        np.add.at(child, parent[nested], dur[nested])
        own = dur - child
        width = len(self.names)
        total_by = np.bincount(name, weights=dur, minlength=width)
        self_by = np.bincount(name, weights=own, minlength=width)
        calls_by = np.bincount(name, minlength=width)

        def total(span: str) -> float:
            return float(total_by[self._ids[span]]) if span in self._ids else 0.0

        def calls(span: str) -> int:
            return int(calls_by[self._ids[span]]) if span in self._ids else 0

        def layer_self(layer: str) -> float:
            return float(sum(self_by[i] for i, n in enumerate(self.names) if n.split(".")[0] == layer))

        def median(key: str) -> float:
            values = self.samples.get(key)
            return float(np.median(values)) if values else 0.0

        trainer_ids = [self._ids[t] for t in TRAINERS if t in self._ids]
        encode_id = self._ids.get("encoder.encode", -1)
        is_encode = name == encode_id
        under_trainer = np.zeros(len(dur), dtype=bool)
        under_trainer[nested] = np.isin(name[parent[nested]], trainer_ids)
        roots = ~nested
        root_time = float(dur[roots].sum())
        bench_self = sum(self_by[i] for i, n in enumerate(self.names) if n.startswith("bench."))

        m: dict[str, float] = {
            "autodiff.backward_s": total("autodiff.backward"),
            "autodiff.backward_calls": calls("autodiff.backward"),
            "autodiff.nodes_per_step": median("autodiff.nodes_per_step"),
        }
        for op in OPS:
            m[f"autodiff.op.{op}.calls"] = calls(f"autodiff.op.{op}")
            m[f"autodiff.op.{op}.fwd_s"] = total(f"autodiff.op.{op}")
        valid, padded = self.counts["encoder.frames_valid"], self.counts["encoder.frames_padded"]
        m.update({
            "encoder.encode_train_s": float(dur[is_encode & under_trainer].sum()),
            "encoder.encode_infer_s": float(dur[is_encode & ~under_trainer].sum()),
            "encoder.encode_calls": calls("encoder.encode"),
            "encoder.layer_embeddings_s": total("encoder.layer_embeddings"),
            "encoder.frames_valid": valid,
            "encoder.frames_padded": padded,
            "encoder.padding_efficiency": valid / padded if padded else 0.0,
            "encoder.sample_mask_s": total("encoder.sample_mask"),
            "optim.step_s": total("optim.optimizer_step"),
            "optim.steps": calls("optim.optimizer_step"),
            "optim.tensors_per_step": median("optim.tensors_per_step"),
        })
        for trainer in TRAINERS:
            layer = trainer.split(".")[0]
            steps = self.samples.get(trainer + ".step_s", [])
            value, pct = tail(steps)
            m[f"{layer}.steps"] = len(steps)
            m[f"{layer}.step_ms_p50"] = 1e3 * float(np.median(steps)) if steps else 0.0
            m[f"{layer}.step_ms_tail"] = 1e3 * value
            m[f"{layer}.step_ms_tail_pct"] = pct
        m.update({
            "pretrain.loss_s": total("pretrain.batch_mlm_loss"),
            "pretrain.make_buckets_s": total("pretrain.make_buckets"),
            "pretrain.masked_accuracy_s": total("pretrain.masked_prediction_accuracy"),
            "finetune.evaluate_s": total("finetune.evaluate_split"),
            "finetune.pad_batch_s": total("finetune.pad_batch"),
            "cluster.kmeans_fit_s": total("cluster.kmeans_fit"),
            "cluster.kmeans_fit_calls": calls("cluster.kmeans_fit"),
            "cluster.fit_point_centroid_pairs": self.counts["cluster.fit_point_centroid_pairs"],
            "cluster.kmeans_assign_s": total("cluster.kmeans_assign"),
            "cluster.kmeans_assign_calls": calls("cluster.kmeans_assign"),
            "cluster.labels_save_s": total("cluster.save_pseudo_labels"),
            "cluster.labels_load_s": total("cluster.load_pseudo_labels"),
            "cluster.codebook_save_s": total("cluster.save_codebook"),
            "cluster.codebook_load_s": total("cluster.load_codebook"),
            "corpus.load_s": total("corpus.load_corpus"),
            "corpus.load_calls": calls("corpus.load_corpus"),
            "corpus.generate_s": total("corpus.generate_corpus"),
            "corpus.save_s": total("corpus.save_corpus"),
            "checkpoint.save_s": total("checkpoint.save_checkpoint"),
            "checkpoint.load_s": total("checkpoint.load_checkpoint"),
            "checkpoint.bytes_written": self.counts["checkpoint.bytes_written"],
            "checkpoint.bytes_read": self.counts["checkpoint.bytes_read"],
            "evaluate.compute_metrics_s": total("evaluate.compute_metrics"),
        })
        for phase in PHASES:
            m[f"pipeline.phase_{phase}_s"] = total(f"pipeline.phase_{phase}")
        for layer in LAYERS:
            m[f"{layer}.self_s"] = layer_self(layer)
        m["trace_setup_s"] = total("bench.setup")
        m["trace_run_s"] = total("bench.timed")
        m["trace_covered_ratio"] = (root_time - bench_self) / root_time if root_time else 0.0
        return m

    def write(self, path: Path, run_labels: dict[int, str]) -> None:
        """Write the spans as JSON lines: a header, then [id, name, start, end, parent, run]."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps({"names": self.names, "runs": run_labels,
                                 "fields": ["id", "name", "start", "end", "parent", "run"]}) + "\n")
            for sid, (nid, start, end, parent, run) in enumerate(
                zip(self.name, self.start, self.end, self.parent, self.run)
            ):
                fh.write(f"[{sid},{nid},{start!r},{end!r},{parent},{run}]\n")
