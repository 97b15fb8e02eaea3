"""Benchmark workloads: inputs made from a seed, the phase calls, output checks.

A workload is a list of set-up operations (untimed) and a list of timed
operations. An operation is one phase call of ``seralign.pipeline`` plus the
checks of its outputs; the checks run after the timed section.

Why these three workloads:

- ``cv_desk`` is the acceptance end-to-end config (200 utterances of 12-24
  frames, desk encoder, K=4, tap layer 2) over all five folds, every phase,
  both poolings, then ``phase_eval``. It is the user-facing result, and it is
  bound by Python overhead per tape node.
- ``cluster_sweep`` runs only ``phase_cluster`` over tap layers {1,2,3} x
  K {4,8,16} x 5 folds on a larger corpus, with the tapt checkpoints built in
  set-up. It isolates the inference-only encoder, k-means, corpus re-parsing
  and label/codebook writes: no backward pass and no Adam.
- ``long_frames`` has long utterances (48-192 frames) and runs fold 0
  tapt -> cluster -> pretrain -> attention fine-tune. Numpy compute with T^2
  attention dominates, and the wide spread of lengths in randomly permuted
  fine-tune batches exposes padding waste.
"""

from __future__ import annotations

import dataclasses
import hashlib
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

from seralign import pipeline
from seralign.checkpoint import load_checkpoint
from seralign.cluster import load_codebook, load_pseudo_labels
from seralign.corpus import GenerationSpec, load_corpus
from seralign.finetune import FinetuneConfig
from seralign.pretrain import PretrainConfig

FOLDS = range(5)
POOLINGS = ("attention", "average")
SWEEP_LAYERS = (1, 2, 3)
SWEEP_CLUSTERS = (4, 8, 16)


class CheckFailed(Exception):
    """An output of a phase is missing, unreadable or inconsistent."""


def require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


@dataclass(frozen=True)
class Op:
    label: str
    run: Callable[[], object]
    check: Callable[[object], None]


@dataclass(frozen=True)
class Workload:
    name: str
    generation: dict
    experiment: dict
    # lowest acceptable CV UA of the configured pooling, where phase_eval runs
    ua_floor: float | None

    def config(self, seed: int, out_dir: Path, corpus_path: Path | None = None) -> pipeline.ExperimentConfig:
        return pipeline.ExperimentConfig(
            out_dir=str(out_dir),
            corpus_path=None if corpus_path is None else str(corpus_path),
            generation=GenerationSpec(seed=seed, **self.generation),
            seed=seed,
            **self.experiment,
        )


def _experiment(tapt_steps, cpt_steps, tapt_epochs, ft_epochs, warmup=30):
    return dict(
        encoder_preset="desk",
        tap_layer=2,
        num_clusters=4,
        pooling="attention",
        base_clusters=8,
        tapt_pretrain=PretrainConfig(steps=tapt_steps, warmup_steps=warmup, learning_rate=1e-3, batch_size=8,
                                     mask_span=5, freeze_frontend=False),
        cpt_pretrain=PretrainConfig(steps=cpt_steps, warmup_steps=warmup, learning_rate=1e-3, batch_size=8,
                                    mask_span=5),
        tapt_finetune=FinetuneConfig(learning_rate=1e-3, batch_size=8, epochs=tapt_epochs),
        finetune=FinetuneConfig(learning_rate=1e-3, batch_size=8, epochs=ft_epochs),
    )


def _generation(per_speaker, frames_min, frames_max, inconsistency):
    return dict(sessions=5, utterances_per_speaker=per_speaker, feature_dim=8, frames_min=frames_min,
                frames_max=frames_max, inconsistency_rate=inconsistency)


WORKLOADS = {
    "full": {
        "cv_desk": Workload("cv_desk", _generation(20, 12, 24, 0.0), _experiment(240, 240, 6, 8),
                            ua_floor=0.90),
        # tapt runs in set-up and only its checkpoints are used, so it is short
        "cluster_sweep": Workload("cluster_sweep", _generation(30, 20, 40, 0.0),
                                  _experiment(40, 40, 1, 1, warmup=5), ua_floor=None),
        # 16 utterances per speaker damp the seed-to-seed spread of corpus size;
        # few pretrain steps, each on a randomly drawn length bucket, keep that
        # draw from setting the time
        "long_frames": Workload("long_frames", _generation(16, 48, 192, 0.3), _experiment(40, 40, 3, 4),
                                ua_floor=None),
    },
    # a few seconds each; used to check the benchmark itself
    "tiny": {
        "cv_desk": Workload("cv_desk", _generation(4, 8, 12, 0.0), _experiment(6, 6, 1, 1, warmup=2),
                            ua_floor=None),
        "cluster_sweep": Workload("cluster_sweep", _generation(4, 8, 12, 0.0), _experiment(4, 4, 1, 1, warmup=2),
                                  ua_floor=None),
        "long_frames": Workload("long_frames", _generation(3, 48, 64, 0.3), _experiment(4, 4, 1, 1, warmup=2),
                                ua_floor=None),
    },
}


# -- output checks ---------------------------------------------------------------


class Checks:
    """Output checks of one experiment directory; loads the corpus once."""

    def __init__(self, cfg: pipeline.ExperimentConfig, ua_floor: float | None):
        self.cfg = cfg
        self.paths = pipeline.Paths(Path(cfg.out_dir))
        self.ua_floor = ua_floor
        self._corpus = None

    def corpus(self):
        if self._corpus is None:
            self._corpus = load_corpus(self.cfg.corpus_path)
        return self._corpus

    def gen_corpus(self, path) -> None:
        corpus = load_corpus(path)
        spec = self.cfg.generation
        require(len(corpus.utterances) == spec.sessions * 2 * spec.utterances_per_speaker,
                f"corpus has {len(corpus.utterances)} utterances")

    def tapt(self, fold: int, record: dict) -> None:
        mlm = load_checkpoint(self.paths.tapt_mlm(fold), verify=True)
        ser = load_checkpoint(self.paths.tapt_ser(fold), verify=True)
        require(record["checkpoints"] == {"tapt_mlm": mlm.content_id, "tapt_ser": ser.content_id},
                f"fold {fold}: tapt record names other checkpoints than were written")
        base = load_codebook(self.paths.base_codebook(fold))
        require(mlm.meta["base_codebook_id"] == base.codebook_id, f"fold {fold}: base codebook id mismatch")

    def cluster(self, cfg: pipeline.ExperimentConfig, fold: int, record: dict) -> None:
        layer, k = cfg.tap_layer, cfg.num_clusters
        codebook = load_codebook(self.paths.codebook(fold, layer, k))
        labels = load_pseudo_labels(self.paths.labels(fold, layer, k))
        ser = load_checkpoint(self.paths.tapt_ser(fold), verify=True)
        require(codebook.codebook_id == record["codebook_id"], f"fold {fold} L{layer} K{k}: codebook id mismatch")
        require(all(seq.codebook_id == codebook.codebook_id for seq in labels),
                f"fold {fold} L{layer} K{k}: labels reference another codebook")
        require(codebook.provenance.source_checkpoint == ser.content_id,
                f"fold {fold} L{layer} K{k}: codebook was not fit on the tapt_ser checkpoint")
        covered = {seq.utterance_id: len(seq.codes) for seq in labels}
        expected = {u.id: u.num_frames for u in self.corpus().utterances}
        require(covered == expected, f"fold {fold} L{layer} K{k}: labels do not cover every utterance frame")

    def pretrain(self, fold: int, record: dict) -> None:
        layer, k = self.cfg.tap_layer, self.cfg.num_clusters
        cpt = load_checkpoint(self.paths.cpt(fold, layer, k), verify=True)
        codebook = load_codebook(self.paths.codebook(fold, layer, k))
        require(record["checkpoint"] == cpt.content_id, f"fold {fold}: cpt record names another checkpoint")
        require(record["codebook_id"] == codebook.codebook_id == cpt.meta["codebook_id"],
                f"fold {fold}: cpt codebook id mismatch")

    def finetune(self, fold: int, pooling: str, record: dict) -> None:
        layer, k = self.cfg.tap_layer, self.cfg.num_clusters
        ser = load_checkpoint(self.paths.ser(fold, layer, k, pooling), verify=True)
        require(record["checkpoints"]["ser"] == ser.content_id, f"fold {fold} {pooling}: ser checkpoint mismatch")
        require(0.0 <= record["ua"] <= 1.0 and 0.0 <= record["wa"] <= 1.0, f"fold {fold} {pooling}: UA/WA range")

    def eval(self, pooling: str, summary: dict) -> None:
        require(0.0 <= summary["ua_mean"] <= 1.0 and 0.0 <= summary["wa_mean"] <= 1.0, f"{pooling}: UA/WA range")
        if self.ua_floor is not None and pooling == self.cfg.pooling:
            require(summary["ua_mean"] >= self.ua_floor,
                    f"CV UA {summary['ua_mean']:.3f} is below the acceptance floor {self.ua_floor}")


# -- operations -------------------------------------------------------------------


def setup_ops(workload: Workload, cfg: pipeline.ExperimentConfig, corpus_cfg: pipeline.ExperimentConfig) -> list[Op]:
    """Corpus generation, then the prerequisite phases the workload does not time."""
    checks = Checks(cfg, workload.ua_floor)
    ops = [Op("gen_corpus", lambda: pipeline.phase_gen_corpus(corpus_cfg), checks.gen_corpus)]
    if workload.name == "cluster_sweep":
        ops += [Op(f"tapt/f{f}", lambda f=f: pipeline.phase_tapt(cfg, f), lambda r, f=f: checks.tapt(f, r))
                for f in FOLDS]
    return ops


def timed_ops(workload: Workload, cfg: pipeline.ExperimentConfig) -> list[Op]:
    checks = Checks(cfg, workload.ua_floor)

    def fold_ops(f: int, poolings) -> list[Op]:
        ops = [
            Op(f"tapt/f{f}", lambda: pipeline.phase_tapt(cfg, f), lambda r: checks.tapt(f, r)),
            Op(f"cluster/f{f}", lambda: pipeline.phase_cluster(cfg, f), lambda r: checks.cluster(cfg, f, r)),
            Op(f"pretrain/f{f}", lambda: pipeline.phase_pretrain(cfg, f), lambda r: checks.pretrain(f, r)),
        ]
        return ops + [
            Op(f"finetune/f{f}/{p}", lambda p=p: pipeline.phase_finetune(cfg, f, p),
               lambda r, p=p: checks.finetune(f, p, r))
            for p in poolings
        ]

    if workload.name == "cv_desk":
        ops = [op for f in FOLDS for op in fold_ops(f, POOLINGS)]
        # the configured pooling last, so its report is the one left in out_dir
        return ops + [
            Op(f"eval/{p}", lambda p=p: pipeline.phase_eval(cfg, p), lambda r, p=p: checks.eval(p, r))
            for p in ("average", "attention")
        ]
    if workload.name == "cluster_sweep":
        ops = []
        for layer in SWEEP_LAYERS:
            for k in SWEEP_CLUSTERS:
                cell = dataclasses.replace(cfg, tap_layer=layer, num_clusters=k)
                ops += [Op(f"cluster/L{layer}K{k}/f{f}", lambda c=cell, f=f: pipeline.phase_cluster(c, f),
                           lambda r, c=cell, f=f: checks.cluster(c, f, r)) for f in FOLDS]
        return ops
    if workload.name == "long_frames":
        return fold_ops(0, ("attention",))
    raise ValueError(f"unknown workload {workload.name!r}")


def passes(workload: Workload) -> int:
    """How many times the timed section runs the whole corpus through its phases."""
    return {"cv_desk": len(FOLDS), "cluster_sweep": len(FOLDS) * len(SWEEP_LAYERS) * len(SWEEP_CLUSTERS),
            "long_frames": 1}[workload.name]


def quality(workload: Workload, records: dict[str, dict]) -> dict[str, float]:
    """Test UA/WA of the last timed run, on workloads that fine-tune; a failed phase leaves a gap."""
    out = {}
    if workload.name == "cv_desk":
        for pooling, suffix in (("attention", ""), ("average", "_average")):
            if f"eval/{pooling}" in records:
                summary = records[f"eval/{pooling}"]
                out.update({f"ua_mean{suffix}": summary["ua_mean"], f"wa_mean{suffix}": summary["wa_mean"]})
    elif workload.name == "long_frames" and "finetune/f0/attention" in records:
        record = records["finetune/f0/attention"]
        out.update(ua_mean=record["ua"], wa_mean=record["wa"])
    return out


def files(out_dir: Path) -> set[Path]:
    return {p for p in out_dir.rglob("*") if p.is_file()}


def digest(out_dir: Path) -> str:
    """sha256 over every file under ``out_dir``: relative path and bytes."""
    h = hashlib.sha256()
    for path in sorted(files(out_dir)):
        h.update(path.relative_to(out_dir).as_posix().encode("utf-8") + b"\0")
        h.update(path.read_bytes())
    return h.hexdigest()
