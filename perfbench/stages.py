"""The benchmark's child processes: produce inputs, run one workload, check outputs.

Usage: python3 perfbench/stages.py {produce,measure,check} SPEC.json

run.py starts one fresh process per stage, so ``peak_rss_mb`` belongs to the
measured workload alone, and writes the stage's findings to the JSON path
named in the spec. Every workload drives the real entry point
(``emofuse.cli.main``) with desk-default architecture; the benchmark only
chooses run length, batch size and learning rate.
"""

from __future__ import annotations

import gc
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

_T_START = time.perf_counter()

SPEC = json.loads(Path(sys.argv[2]).read_text()) if __name__ == "__main__" else None
if SPEC is not None:
    sys.path.insert(0, str(Path(SPEC["root"]) / "src"))

import numpy as np  # noqa: E402
import scipy  # noqa: E402

from emofuse import checkpoint, cli, data, encoder, speech, text, training  # noqa: E402
from tracing import Tracer, rebind  # noqa: E402

# Every stage process reports it; setup_s takes the median over a run's stages.
IMPORT_S = time.perf_counter() - _T_START

N_EXAMPLES = 400
CODEBOOK_K = 256
VOCAB_SIZE = 2000
# Lloyd iterations for the inputs of the training workloads. No workload
# times the k-means; bounding it keeps a run short (a full `prepare` takes
# 18-30 s depending on the seed).
CODEBOOK_ITERS = 2
LR = "1e-3"
MASK_RATE = 0.15
# Mask draws over every example in the eval-mode masked-LM pass.
MLM_EVAL_DRAWS = 3
# Setups per untraced run, half before the timed part and half after it, so
# that like wall_s they span the run rather than a few seconds of the host's
# speed. setup_s is their median plus the median import time.
SETUP_REPEATS = 6
# Fewest timed optimizer steps: p90 needs at least ten samples beyond it.
MIN_STEPS = 100


def run_length(workload: str, seconds: int) -> int:
    """Epochs (fine-tuning) or optimizer steps (pretraining) for ``--seconds``.

    A function of ``seconds`` alone, never of measured speed, so every commit
    does the same work; the floors keep MIN_STEPS steps. At ``--seconds 20``
    the timed part takes about 46 s and 27 s on a 2-core Xeon at the seed
    commit, since at batch 4 a fine-tuning epoch is 60 steps and ~15 s and a
    pretraining step ~0.11 s.
    """
    if workload == "finetune-coattn":
        return max(2, round(seconds / 7))
    if workload == "pretrain-speech":
        return max(MIN_STEPS, seconds * 15 // 2)
    raise ValueError(f"unknown workload {workload!r}")


def inputs(work: Path) -> dict[str, Path]:
    return {"dataset": work / "dataset.jsonl", "vocab": work / "vocab.txt",
            "codebook": work / "codebook.bin"}


def commands(spec: dict) -> list[list[str]]:
    """The CLI invocations of one workload run, in order."""
    work = Path(spec["work"])
    ins = inputs(work)
    seed = str(spec["seed"])
    n = run_length(spec["workload"], spec["seconds"])
    common = ["--dataset", str(ins["dataset"]), "--seed", seed, "--lr", LR]
    model_inputs = ["--vocab", str(ins["vocab"]), "--codebook", str(ins["codebook"])]
    if spec["workload"] == "finetune-coattn":
        return [["finetune", "--out-dir", str(work / "finetune"), *common, *model_inputs,
                 "--fusion", "coattn", "--freeze", "none", "--epochs", str(n),
                 "--batch-size", "4"],
                ["evaluate", "--out-dir", str(work / "evaluate"),
                 "--model", str(work / "finetune" / "model.ckpt"),
                 "--dataset", str(ins["dataset"]), *model_inputs, "--split", "test"]]
    if spec["workload"] == "pretrain-speech":
        return [["pretrain", "--out-dir", str(work / "pretrain"), *common,
                 "--codebook", str(ins["codebook"]), "--steps", str(n), "--batch-size", "4",
                 "--mask-rate", str(MASK_RATE), "--checkpoint-interval", str(n // 4)]]
    raise ValueError(f"unknown workload {spec['workload']!r}")


def _tracer(spec: dict) -> Tracer:
    tracer = Tracer(run_id=f"{spec['workload']}-seed{spec['seed']}-{spec['stage']}")
    tracer.instrument()
    return tracer


# -- produce -------------------------------------------------------------------


def produce(spec: dict) -> dict:
    """Dataset through `gen-data`; vocabulary and codebook as `prepare` builds them."""
    tracer = _tracer(spec) if spec["trace"] else None
    work = Path(spec["work"])
    ins = inputs(work)
    argv = ["gen-data", "--out-dir", str(work), "--n", str(N_EXAMPLES),
            "--mode", "categorical", "--seed", str(spec["seed"])]
    rc = cli.main(argv) if tracer is None else tracer.call("cli.gen-data", cli.main, argv)
    if rc == 0:
        examples = data.load_jsonl(ins["dataset"]).subset("train")
        text.build_vocab([ex.text for ex in examples], max_size=VOCAB_SIZE).save(ins["vocab"])
        frames = np.concatenate([ex.frames for ex in examples])
        speech.train_codebook(frames, k=CODEBOOK_K, seed=spec["seed"],
                              max_iters=CODEBOOK_ITERS).save(ins["codebook"])
    out = {"rc": [rc]}
    if tracer is not None:
        out["layers"] = tracer.summary()
    return out


# -- measure -------------------------------------------------------------------


class _SetupDone(Exception):
    """Raised at the first timed operation to end a setup-only invocation."""


class Clock:
    """Step and phase boundaries, taken at the return of a few public functions.

    An optimizer step runs from the previous boundary (step return, end of a
    validation pass or checkpoint write, or start of training) to the return
    of ``training.adam_step``. ``calls`` counts the hooked functions under
    their span names, so a traced run's exact counts can be checked against
    the untraced run of the same invocation.
    """

    def __init__(self):
        self.abort_setup = False
        self.main_start = 0.0
        self.setup_s: list[float] = []
        self.first_timed: float | None = None
        self.last = 0.0
        self.step_s: list[float] = []
        self.train_examples = 0
        self.eval_examples = 0
        self.eval_s = 0.0
        self.calls: dict[str, int] = {}

    def install(self) -> None:
        rebind([cli, training], "evaluate_model", self._evaluate)
        rebind([training], "adam_step", self._step)
        rebind([cli], "run_finetune", self._finetune)
        rebind([cli], "run_pretraining", self._pretrain)
        rebind([cli], "save_encoder_checkpoint", self._checkpoint)

    def _count(self, name: str) -> None:
        self.calls[name] = self.calls.get(name, 0) + 1

    def _training_starts(self, name: str) -> None:
        now = time.perf_counter()
        self.setup_s.append(now - self.main_start)
        if self.abort_setup:
            raise _SetupDone
        self._count(name)
        if self.first_timed is None:
            self.first_timed = now
        self.last = now

    def _finetune(self, fn, train, valid, model, cfg, epochs, **kw):
        self._training_starts("training.run_finetune")
        self.train_examples += epochs * len(train)
        return fn(train, valid, model, cfg, epochs, **kw)

    def _pretrain(self, fn, corpus, state, cfg, **kw):
        self._training_starts("training.run_pretraining")
        self.train_examples += cfg.total_steps * cfg.batch_size
        return fn(corpus, state, cfg, **kw)

    def _step(self, fn, *a, **k):
        out = fn(*a, **k)
        now = time.perf_counter()
        self.step_s.append(now - self.last)
        self.last = now
        self._count("training.adam_step")
        return out

    def _evaluate(self, fn, model, examples, *a, **k):
        t0 = time.perf_counter()
        out = fn(model, examples, *a, **k)
        self.last = time.perf_counter()
        self.eval_s += self.last - t0
        self.eval_examples += len(examples)
        self._count("training.evaluate_model")
        return out

    def _checkpoint(self, fn, *a, **k):
        out = fn(*a, **k)
        self.last = time.perf_counter()
        self._count("checkpoint.save_encoder_checkpoint")
        return out

    def main(self, argv: list[str]) -> int:
        if self.abort_setup or self.first_timed is None:  # setups start from a collected heap
            gc.collect()
        self.main_start = time.perf_counter()
        return cli.main(argv)

    def setup_only(self, argv: list[str]) -> None:
        """One more setup of ``argv``, cut short at its first timed operation."""
        self.abort_setup = True
        try:
            self.main(argv)
        except _SetupDone:
            pass
        finally:
            self.abort_setup = False


def _mlm_eval(spec: dict, clock: Clock) -> float:
    """Eval-mode masked-LM loss of the pretrained checkpoint, MLM_EVAL_DRAWS
    mask draws over every example."""
    work = Path(spec["work"])
    state, _, _ = checkpoint.load_encoder_checkpoint(work / "pretrain" / "speech_encoder.ckpt")
    codebook = speech.Codebook.load(inputs(work)["codebook"])
    dataset = data.load_jsonl(inputs(work)["dataset"])
    seqs = [speech.discretize(ex.frames, codebook, max_len=state.cfg.max_len)
            for ex in dataset.examples]
    rng = np.random.default_rng(spec["seed"])
    t0 = time.perf_counter()
    losses = []
    for seq in seqs * MLM_EVAL_DRAWS:
        corrupted, targets = encoder.mask_corrupt(seq, MASK_RATE, rng, state.cfg.vocab_size)
        losses.append(encoder.masked_lm_loss(state, corrupted, targets).item())
    clock.eval_s += time.perf_counter() - t0
    clock.eval_examples += len(losses)
    return statistics.fmean(losses)


def _p90(samples: list[float]) -> float:
    """90th percentile; needs at least ten samples beyond it."""
    if len(samples) < MIN_STEPS:
        raise RuntimeError(f"{len(samples)} steps are too few for a p90")
    return float(np.percentile(samples, 90))


def sha256(path: Path) -> str | None:
    if not path.exists():
        return None
    return hashlib.sha256(path.read_bytes()).hexdigest()


def fingerprints(spec: dict) -> dict:
    """Digests of the artifacts and the loss curve: records, not metrics."""
    work = Path(spec["work"])
    out = {name: sha256(path) for name, path in inputs(work).items()}
    out["model.ckpt"] = sha256(work / "finetune" / "model.ckpt")
    out["speech_encoder.ckpt"] = sha256(work / "pretrain" / "speech_encoder.ckpt")
    log = work / "pretrain" / "pretrain.log"
    csv = work / "finetune" / "metrics.csv"
    if log.exists():
        curve = [ln.split()[2] for ln in log.read_text().splitlines() if ln.strip()]
    elif csv.exists():
        curve = [ln.rsplit(",", 1)[1] for ln in csv.read_text().splitlines()
                 if ",train,loss," in ln]
    else:
        curve = []
    out["loss_curve"] = hashlib.sha256("\n".join(curve).encode()).hexdigest() if curve else None
    out["loss_first_last"] = [float(curve[0]), float(curve[-1])] if curve else None
    return out


def environment() -> dict:
    """Interpreter, libraries, BLAS and CPU the run measured on."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {"python": platform.python_version(), "numpy": np.__version__,
            "scipy": scipy.__version__, "blas": f"{blas.get('name')} {blas.get('version')}",
            "nproc": len(os.sched_getaffinity(0)), "cpu": cpu}


def measure(spec: dict) -> dict:
    tracer = _tracer(spec) if spec["trace"] else None
    clock = Clock()
    clock.install()
    cmds = commands(spec)
    if tracer is None:
        for _ in range(SETUP_REPEATS // 2 - 1):
            clock.setup_only(cmds[0])
    rcs = []
    for argv in cmds:
        if tracer is None:
            rcs.append(clock.main(argv))
        else:
            rcs.append(tracer.call(f"cli.{argv[0]}", clock.main, argv))
    mlm_eval = None
    if spec["workload"] == "pretrain-speech" and rcs[0] == 0:
        mlm_eval = _mlm_eval(spec, clock)
    end = time.perf_counter()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if tracer is None and rcs[0] == 0:
        for _ in range(SETUP_REPEATS - SETUP_REPEATS // 2):
            clock.setup_only(cmds[0])

    out = {"rc": rcs, "steps": len(clock.step_s), "calls": clock.calls,
           "environment": environment(),
           "fingerprints": dict(fingerprints(spec), mlm_eval_loss=mlm_eval)}
    if clock.first_timed is None or not clock.step_s:
        return out
    step_ms = [s * 1000.0 for s in clock.step_s]
    out["metrics"] = {
        "setup_phase_s": statistics.median(clock.setup_s),
        "wall_s": end - clock.first_timed,
        "peak_rss_mb": peak_rss_mb,
        "train_examples_per_s": clock.train_examples / sum(clock.step_s),
        "train_step_ms_p50": float(np.percentile(step_ms, 50)),
        "train_step_ms_p90": _p90(step_ms),
        "eval_examples_per_s": clock.eval_examples / clock.eval_s if clock.eval_s else 0.0,
    }
    out["setup_samples_s"] = clock.setup_s
    out["step_ms"] = step_ms
    if tracer is not None:
        out["layers"] = tracer.summary()
        tracer.save(Path(spec["spans"]))
    return out


# -- check -----------------------------------------------------------------------


def _dominant_tokens(codebook) -> list[int]:
    """Most frequent speech token of a clean tone at each generator pitch."""
    cfg = speech.FrameFeaturizerConfig()
    rng = np.random.default_rng(0)
    tokens = []
    for pitch in data.TONE_PITCHES_HZ:
        frames = speech.featurize(data.synth_waveform(pitch, rng, cfg), cfg)
        ids = speech.discretize(frames, codebook).body
        tokens.append(max(set(ids), key=ids.count))
    return tokens


def _input_checks(spec: dict) -> dict[str, bool]:
    """Closed-form properties of the produced dataset, vocabulary and codebook."""
    ins = inputs(Path(spec["work"]))
    codebook = speech.Codebook.load(ins["codebook"])
    vocab = text.Vocabulary.load(ins["vocab"])
    dataset = data.load_jsonl(ins["dataset"])
    lo, hi = 5, 5 + codebook.k
    ids_in_range = all(
        lo <= i < hi
        for ex in dataset.examples for i in speech.discretize(ex.frames, codebook).body)
    return {
        "codebook_has_k_distinct_centroids": codebook.k == CODEBOOK_K
        and len(np.unique(codebook.centroids, axis=0)) == CODEBOOK_K,
        "speech_ids_within_codebook": ids_in_range,
        "keywords_in_vocabulary": all(w in vocab for w in data.KEYWORDS),
        "tone_pitches_disjoint_tokens": len(set(_dominant_tokens(codebook))) == 4,
    }


def _csv_rows(path: Path) -> list[list[str]]:
    return [ln.split(",") for ln in path.read_text().splitlines()[1:]]


def _evaluate_check(spec: dict) -> bool:
    """eval_metrics.csv of the test split against an in-process evaluation."""
    work = Path(spec["work"])
    ins = inputs(work)
    model, meta = checkpoint.load_fusion_checkpoint(work / "finetune" / "model.ckpt")
    examples = data.tokenize_examples(
        data.load_jsonl(ins["dataset"]).subset("test"), speech.Codebook.load(ins["codebook"]),
        text.Vocabulary.load(ins["vocab"]),
        speech_max_len=model.speech.cfg.max_len, text_max_len=model.text.cfg.max_len)
    report = training.evaluate_model(model, examples, meta["label_mode"],
                                     class_names=data.CLASS_NAMES)
    expected = [["final", "test", m if s == "all" else f"{m}[{s}]", str(v)]
                for s, m, v in report.rows()]
    path = work / "evaluate" / "eval_metrics.csv"
    return path.exists() and _csv_rows(path) == expected


def check(spec: dict) -> dict:
    checks = _input_checks(spec)
    work = Path(spec["work"])
    notes = {}
    if spec["workload"] == "finetune-coattn":
        rows = _csv_rows(work / "finetune" / "metrics.csv")
        acc = [float(r[3]) for r in rows if r[:3] == ["final", "test", "accuracy4"]]
        majority = data.closed_form_bayes_rates()["majority"]
        unimodal = data.closed_form_bayes_rates()["speech_only"]
        checks["test_accuracy4_beats_majority"] = len(acc) == 1 and acc[0] > majority
        notes["test_accuracy4"] = acc[0] if acc else None
        notes["clears_unimodal_ceiling"] = bool(acc) and acc[0] > unimodal
        checks["eval_metrics_match_recomputation"] = _evaluate_check(spec)
    elif spec["workload"] == "pretrain-speech":
        losses = [float(ln.split()[2]) for ln in
                  (work / "pretrain" / "pretrain.log").read_text().splitlines() if ln.strip()]
        ln_vocab = math.log(5 + CODEBOOK_K)
        checks["pretrain_loss_finite"] = all(math.isfinite(x) for x in losses)
        checks["pretrain_first_loss_near_ln_vocab"] = abs(losses[0] - ln_vocab) < 0.25
        checks["pretrain_final_below_first"] = losses[-1] < losses[0]
        notes["pretrain_first_last_loss"] = [losses[0], losses[-1]]
    return {"checks": checks, "notes": notes}


STAGES = {"produce": produce, "measure": measure, "check": check}

if __name__ == "__main__":
    result = dict(STAGES[sys.argv[1]](SPEC), import_s=IMPORT_S)
    Path(SPEC["result"]).write_text(json.dumps(result, indent=1, sort_keys=True))
