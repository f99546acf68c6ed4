"""The benchmark's hooks rebind emofuse functions by name and must still find
them, and still read their arguments and results through a traced run."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

HOOKS = """
import sys
sys.path[:0] = sys.argv[1:3]
import stages, tracing
stages.Clock().install()
tracer = tracing.Tracer("t")
tracer.instrument()
"""

# A tiny co-attention finetune and an evaluate of its checkpoint, on a
# 40-example workspace, through the hooked functions.
TRACED_RUN = HOOKS + """
import tempfile
from emofuse import cli
arch = [f"--{m}-{flag}={value}" for m in ("speech", "text")
        for flag, value in (("layers", 1), ("dim", 8), ("heads", 2), ("ff", 16))]
with tempfile.TemporaryDirectory() as work:
    inputs = [f"--dataset={work}/dataset.jsonl", f"--vocab={work}/vocab.txt",
              f"--codebook={work}/codebook.bin"]
    for argv in (["gen-data", "--n=40", "--seed=0"],
                 ["prepare", inputs[0], "--vocab-size=64", "--codebook-size=8", "--seed=0"],
                 ["finetune", *inputs, "--fusion=coattn", "--epochs=1", "--batch-size=8", *arch],
                 ["evaluate", *inputs, f"--model={work}/model.ckpt", "--split=test"]):
        rc = cli.main([*argv, f"--out-dir={work}"])
        assert rc == 0, (argv[0], rc)
from emofuse import lanes
assert lanes.LANES == 2 or lanes._CPUS < 2  # evaluation also ran in forked workers
spans = tracer.self_times()
assert spans["training.evaluate_model"][0] == 3, spans  # valid, test, then evaluate
assert spans["encoder.forward.train"][0] > 0, spans
"""

# A tiny speech pretraining with periodic checkpoints, on a 40-example
# workspace: the benchmark's pretrain-speech hooks.
TRACED_PRETRAIN = HOOKS + """
import tempfile
from emofuse import cli
arch = [f"--speech-{flag}={value}" for flag, value in (("layers", 1), ("dim", 8),
                                                        ("heads", 2), ("ff", 16))]
with tempfile.TemporaryDirectory() as work:
    for argv in (["gen-data", "--n=40", "--seed=0"],
                 ["prepare", f"--dataset={work}/dataset.jsonl", "--codebook-size=8", "--seed=0"],
                 ["pretrain", f"--dataset={work}/dataset.jsonl", f"--codebook={work}/codebook.bin",
                  "--steps=4", "--batch-size=2", "--checkpoint-interval=2", *arch]):
        rc = cli.main([*argv, f"--out-dir={work}"])
        assert rc == 0, (argv[0], rc)
spans = tracer.self_times()
assert spans["encoder.forward.train"][0] > 0, spans
assert spans["encoder.masked_lm_loss"][0] > 0, spans
assert spans["checkpoint.save_encoder_checkpoint"][0] == 3, spans  # steps 2, 4, then the end
"""


def _child(code: str):
    """Run ``code`` in a child process (``-B``: no bytecode written under
    perfbench/), since the hooks rebind module attributes for the rest of it.
    BLAS is pinned to one thread as the benchmark pins it, so on two or more
    CPUs evaluation also runs in forked workers, where the hooks record nothing."""
    env = dict(os.environ, **{var: "1" for var in BLAS_VARS})
    return subprocess.run(
        [sys.executable, "-B", "-c", code, str(ROOT / "perfbench"), str(ROOT / "src")],
        capture_output=True, text=True, timeout=120, env=env)


def test_benchmark_hooks_find_every_function():
    """``Clock.install`` and ``Tracer.instrument`` raise AttributeError on a renamed function."""
    proc = _child(HOOKS)
    assert proc.returncode == 0, proc.stderr


def test_traced_finetune_and_evaluate_exit_0():
    """A hook that can no longer read its function's arguments or result fails the run."""
    proc = _child(TRACED_RUN)
    assert proc.returncode == 0, proc.stderr


def test_traced_pretrain_exit_0():
    """Pretraining still runs through the traced forward, masked-LM loss and
    checkpoint writes that the pretrain-speech workload reads."""
    proc = _child(TRACED_PRETRAIN)
    assert proc.returncode == 0, proc.stderr
