"""The second lane: one lane or two give the same bits, and no worker process outlives
the call that forked it, an error or an interrupt."""

import ctypes
import errno
import functools
import io
import itertools
import math
import multiprocessing
import os
import re
import signal
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

import numpy as np
import pytest

from emofuse import encoder, lanes, tensor, training
from emofuse.cli import main
from emofuse.data import (
    HEAD_OUTPUTS,
    TokenizedExample,
    generate_synthetic,
    load_jsonl,
    tokenize_examples,
)
from emofuse.encoder import EncoderConfig, EncoderState
from emofuse.errors import InputError, NumericError, UsageError
from emofuse.fusion import FusionModel
from emofuse.speech import train_codebook
from emofuse.text import build_vocab
from emofuse.tokens import CLS, TokenSequence
from emofuse.training import (
    AdamState,
    TrainConfig,
    evaluate_model,
    overfit_one_batch,
    run_finetune,
    run_pretraining,
)

ROOT = Path(__file__).resolve().parents[1]
TINY = EncoderConfig(n_layers=2, d_model=16, n_heads=2, d_ff=32,
                     vocab_size=11, max_len=12, dropout_rate=0.1)
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


@pytest.fixture
def workers(monkeypatch):
    """The training workers forked during the test (those sent a ``"step"``), recorded by
    pid; in ``forks`` every worker forked, evaluation's too, and in ``sent`` the kind of
    each message sent to them. Setting its ``kill_after`` SIGKILLs a worker as its
    ``"step"`` messages hand it that many examples in all (the odd positions)."""

    class Forked(list):
        kill_after = math.inf
        sent = []
        forks = []

    forked = Forked()

    class Recorded(lanes.Worker):
        def __init__(self, handle):
            super().__init__(handle)
            forked.forks.append(self.pid)
            self.examples = 0

        def send(self, *message):
            forked.sent.append(message[0])
            if message[0] == "step":
                if self.pid not in forked:
                    forked.append(self.pid)
                handed = len(message[2]) // 2
                if self.examples < forked.kill_after <= self.examples + handed:
                    os.kill(self.pid, signal.SIGKILL)
                self.examples += handed
            super().send(*message)

    monkeypatch.setattr(lanes, "Worker", Recorded)
    return forked


def assert_reaped(workers):
    """Every worker forked during the test is a child this process has already waited
    for: none remains."""
    for pid in workers.forks:
        with pytest.raises(ChildProcessError):
            os.waitpid(pid, os.WNOHANG)


def across_lanes(set_lanes, run, workers=None):
    """``run()`` on one lane, then on two; with ``workers``, two lanes fork one
    training worker per run and reap it."""
    results = []
    for n in (1, 2):
        set_lanes(n)
        runs = len(workers) if workers is not None else 0
        results.append(run())
        if workers is not None:
            assert len(workers) > runs if n == 2 else len(workers) == runs
            assert_reaped(workers)
    return results


def assert_same_arrays(a: dict, b: dict):
    assert a.keys() == b.keys()
    for name in a:
        assert np.array_equal(a[name], b[name]), name


@functools.lru_cache(maxsize=None)
def splits(label_mode):
    ds = generate_synthetic(40, seed=3, mode=label_mode)
    train = ds.subset("train")
    cb = train_codebook(np.concatenate([ex.frames for ex in train]), k=8, seed=3)
    vocab = build_vocab([ex.text for ex in train], max_size=64)
    tok = {s: tokenize_examples(ds.subset(s), cb, vocab, speech_max_len=64, text_max_len=16)
           for s in ("train", "valid")}
    return tok, 5 + cb.k, vocab.size


@pytest.mark.parametrize("kind, frozen, label_mode, batch_size, grad_clip", [
    ("coattn", None, "categorical", 4, None),
    ("shallow", "speech", "categorical", 4, None),
    ("coattn", None, "score", 4, None),
    ("coattn", None, "categorical", 7, 0.05),  # 24 = 3 x 7 + 3: an odd last batch
    ("shallow", None, "categorical", 1, None),
])
def test_run_finetune_bitwise_across_lanes(set_lanes, workers, kind, frozen, label_mode,
                                           batch_size, grad_clip):
    tok, speech_vocab, text_vocab = splits(label_mode)

    def run():
        model = FusionModel.init(
            kind, EncoderConfig(1, 16, 2, 32, speech_vocab, 64, dropout_rate=0.1),
            EncoderConfig(1, 16, 2, 32, text_vocab, 16, dropout_rate=0.1),
            HEAD_OUTPUTS[label_mode], 2, np.random.default_rng(4), fusion_dropout=0.1)
        cfg = TrainConfig(peak_lr=3e-3, batch_size=batch_size, seed=4, grad_clip=grad_clip,
                          freeze_speech=frozen == "speech")
        result = run_finetune(tok["train"], tok["valid"], model, cfg, epochs=2,
                              label_mode=label_mode)
        params = {n: p.data.copy() for n, p in model.named_params().items()}
        return params, result.optimizer, result.history, result.best_epoch

    (params1, opt1, hist1, best1), (params2, opt2, hist2, best2) = across_lanes(
        set_lanes, run, workers)
    assert_same_arrays(params1, params2)
    assert_same_arrays(opt1.m, opt2.m)
    assert_same_arrays(opt1.v, opt2.v)
    assert opt1.step == opt2.step > 0
    assert hist1 == hist2 and best1 == best2


def corpus():
    rng = np.random.default_rng(6)
    return [TokenSequence("speech", (CLS, *rng.integers(5, TINY.vocab_size, size=n)))
            for n in (3, 8, 5, 8, 9)]


@pytest.mark.parametrize("start_step", [0, 3])
def test_run_pretraining_bitwise_across_lanes(set_lanes, workers, start_step):
    def run():
        state = EncoderState.init(TINY, np.random.default_rng(0))
        opt = AdamState.fresh(state.params)
        opt.step = start_step
        cfg = TrainConfig(peak_lr=1e-3, warmup_steps=2, total_steps=8, batch_size=3, seed=5)
        log = []
        losses = run_pretraining(corpus(), state, cfg, opt=opt,
                                 log_fn=lambda *entry: log.append(entry))
        return {n: p.data.copy() for n, p in state.params.items()}, opt, losses, log

    (params1, opt1, losses1, log1), (params2, opt2, losses2, log2) = across_lanes(
        set_lanes, run, workers)
    assert losses1 == losses2 and log1 == log2 and len(log1) == 8 - start_step
    assert_same_arrays(params1, params2)
    assert_same_arrays(opt1.m, opt2.m)
    assert_same_arrays(opt1.v, opt2.v)


def lag_at_a_leaf(set_lanes, workers, monkeypatch, hold_s):
    """Pretraining on one lane and on two, where the parent's first example stops at its
    10th leaf until the worker's example has added the 9 leaves before it, then holds
    that leaf ``hold_s`` longer. Returns both runs' parameters and the count of turns
    the worker had given when the parent went on."""
    parent, backward, give = os.getpid(), tensor.backward, lanes.Link.give
    given = lanes.shared([(1,)])[0]  # the turns the worker has taken and given on
    lag_at, seen = 9, []

    def count_gives(link):
        if os.getpid() != parent:
            given[0] += 1
        give(link)

    def lagging(loss, add_leaf):
        calls = itertools.count()

        def add(leaf, g):
            if lanes.LANES == 2 and os.getpid() == parent and not seen \
                    and next(calls) == lag_at:
                deadline = time.monotonic() + 30.0
                while given[0] < lag_at and time.monotonic() < deadline:
                    time.sleep(0.001)
                time.sleep(hold_s)  # time to pass the leaf, were it not waiting
                seen.append(given[0])
            add_leaf(leaf, g)

        return backward(loss, add_leaf=add)

    monkeypatch.setattr(lanes.Link, "give", count_gives)
    monkeypatch.setattr(tensor, "backward", lagging)

    def run():
        state = EncoderState.init(TINY, np.random.default_rng(1))
        cfg = TrainConfig(peak_lr=1e-2, warmup_steps=1, total_steps=3, batch_size=6, seed=7)
        run_pretraining(corpus(), state, cfg)
        return {n: p.data.copy() for n, p in state.params.items()}

    one, two = across_lanes(set_lanes, run, workers)
    return one, two, seen


def test_gradients_wait_for_their_turn_when_the_parent_lags(set_lanes, workers, monkeypatch):
    """The worker's example waits at the parent's lagging leaf only, never for the whole
    example before it, and the bits are one lane's."""
    one, two, seen = lag_at_a_leaf(set_lanes, workers, monkeypatch, 0.05)
    assert seen == [9]
    assert_same_arrays(one, two)


def test_a_wait_longer_than_the_wake_keeps_one_lanes_bits(set_lanes, workers, monkeypatch):
    """The worker waits for a turn well past ``_WAKE_S``, looking at the pipe at each
    wake, and the bits are still one lane's."""
    one, two, seen = lag_at_a_leaf(set_lanes, workers, monkeypatch, 3 * lanes._WAKE_S)
    assert seen == [9]
    assert_same_arrays(one, two)


def test_take_keeps_a_message_sent_before_a_late_turn():
    """A message sent before a turn that comes 3 x ``_WAKE_S`` later is read from the
    pipe while ``take`` waits, kept, and returned by ``recv`` after the turn, in order."""
    ours, theirs = multiprocessing.Pipe()
    turns = threading.Semaphore(0), threading.Semaphore(0)
    mine, other = lanes.Link(ours, *turns), lanes.Link(theirs, *reversed(turns))
    other.send("collected", [1.5], [])
    other.send("done")
    late = threading.Timer(3 * lanes._WAKE_S, other.give)
    start = time.monotonic()
    late.start()
    mine.take()
    assert time.monotonic() - start >= 3 * lanes._WAKE_S
    assert not ours.poll()  # both were read while waiting
    assert mine.recv() == ("collected", [1.5], []) and mine.recv() == ("done",)
    late.join()
    ours.close()
    theirs.close()


@pytest.mark.parametrize("grad_clip, per_step", [(None, ["step", "adam"]),
                                                 (1e-6, ["step", "scale", "adam"])])
def test_the_worker_gets_one_step_message_per_step(set_lanes, workers, grad_clip, per_step):
    """Each optimizer step sends the worker one ``"step"`` message for its examples and
    its half of the gradient passes, then ``"scale"`` under a clip that clips, then
    ``"adam"``."""
    set_lanes(2)
    state = EncoderState.init(TINY, np.random.default_rng(0))
    cfg = TrainConfig(peak_lr=1e-3, warmup_steps=1, total_steps=3, batch_size=5, seed=5,
                      grad_clip=grad_clip)
    run_pretraining(corpus(), state, cfg)
    assert workers.sent == per_step * 3
    assert len(workers) == 1
    assert_reaped(workers)


def test_a_leaf_the_first_example_does_not_reach_starts_its_sum_at_zero(set_lanes, workers,
                                                                       monkeypatch):
    """The example at position 0 of each batch hands over no gradient for the last leaf
    its backward reaches: that leaf's batch sum starts at zero, bitwise as if the
    example had handed over zeros, on one lane and on two."""
    positions, backward, example_backward = [], tensor.backward, training._Training.backward

    def tracked(run, loss, position):
        positions.append(position)
        example_backward(run, loss, position)

    def pretrain(zeros: bool):
        def last_held(loss, add_leaf):
            held = []

            def add(leaf, g):
                if held:
                    add_leaf(*held.pop())
                held.append((leaf, g))

            backward(loss, add_leaf=add)
            leaf, g = held.pop()
            if positions[-1] > 0 or zeros:
                add_leaf(leaf, g if positions[-1] > 0 else np.zeros_like(g))

        monkeypatch.setattr(tensor, "backward", last_held)
        state = EncoderState.init(TINY, np.random.default_rng(2))
        cfg = TrainConfig(peak_lr=1e-2, warmup_steps=1, total_steps=4, batch_size=3, seed=8)
        run_pretraining(corpus(), state, cfg)
        return {n: p.data.copy() for n, p in state.params.items()}

    monkeypatch.setattr(training._Training, "backward", tracked)
    zeros = across_lanes(set_lanes, lambda: pretrain(True), workers)
    for params in across_lanes(set_lanes, lambda: pretrain(False), workers) + zeros:
        assert_same_arrays(params, zeros[0])


def swap_leaves(add_leaf, first: int):
    """``add_leaf`` with the leaves backward reaches at calls ``first`` and
    ``first + 1`` handed over in the other order."""
    calls, kept = itertools.count(), []

    def add(leaf, g):
        call = next(calls)
        if call == first:
            kept.append((leaf, g))
            return
        add_leaf(leaf, g)
        if call == first + 1:
            add_leaf(*kept.pop())

    return add


@pytest.mark.parametrize("n_lanes", [1, 2])
def test_a_differing_leaf_order_raises_before_adding(set_lanes, workers, monkeypatch,
                                                     n_lanes):
    """An example whose backward reaches two leaves in the other order (on two lanes,
    the worker's) raises at the first of them, and nothing is updated."""
    set_lanes(n_lanes)
    parent, backward = os.getpid(), tensor.backward
    state = EncoderState.init(TINY, np.random.default_rng(0))
    before = {n: p.data.copy() for n, p in state.params.items()}
    names, order = {id(p): n for n, p in state.params.items()}, []
    backward(masked_lm_loss_of(state), add_leaf=lambda leaf, g: order.append(names[id(leaf)]))
    calls = itertools.count()

    def swapped(loss, add_leaf):
        if os.getpid() != parent or next(calls) > 0:
            add_leaf = swap_leaves(add_leaf, 3)
        return backward(loss, add_leaf=add_leaf)

    monkeypatch.setattr(tensor, "backward", swapped)
    opt = AdamState.fresh(state.params)
    cfg = TrainConfig(peak_lr=1e-3, warmup_steps=1, total_steps=2, batch_size=3, seed=5)
    message = (f"backward order differs between examples: turn 3 is for {order[3]!r}, "
               f"not {order[4]!r}")
    with pytest.raises(UsageError, match=re.escape(message)):
        run_pretraining(corpus(), state, cfg, opt=opt)
    assert opt.step == 0
    assert_same_arrays(before, {n: p.data for n, p in state.params.items()})
    assert len(workers) == n_lanes - 1
    assert_reaped(workers)


def masked_lm_loss_of(state):
    seq = corpus()[1]
    corrupted, targets = encoder.mask_corrupt(seq, 0.15, np.random.default_rng(0),
                                              TINY.vocab_size)
    return encoder.masked_lm_loss(state, corrupted, targets, train_mode=True,
                                  rng=np.random.default_rng(0))


@pytest.mark.parametrize("size", [1, 4, 5])
def test_overfit_one_batch_bitwise_across_lanes(set_lanes, workers, size):
    def run():
        state = EncoderState.init(TINY, np.random.default_rng(0))
        cfg = TrainConfig(peak_lr=3e-3, warmup_steps=2, total_steps=6, batch_size=4)
        losses = overfit_one_batch(state, corpus()[:size], cfg, seed=2)
        return {n: p.data.copy() for n, p in state.params.items()}, losses

    (params1, losses1), (params2, losses2) = across_lanes(set_lanes, run, workers)
    assert losses1 == losses2
    assert_same_arrays(params1, params2)


def test_the_lanes_forwards_overlap(set_lanes, workers, monkeypatch):
    """The worker starts the forward of position 1 while the parent's forward of
    position 0 is still running: no example's draws wait for another's."""
    set_lanes(2)
    parent, masked_lm_loss = os.getpid(), training.masked_lm_loss
    flag = lanes.shared([(1,)])[0]  # the worker's writes show here
    waited = []

    def loss(*args, **kwargs):
        if os.getpid() != parent:
            flag[0] = 1.0
        elif not waited:
            deadline = time.monotonic() + 30.0
            while flag[0] == 0.0 and time.monotonic() < deadline:
                time.sleep(0.001)
            waited.append(flag[0] == 1.0)
        return masked_lm_loss(*args, **kwargs)

    monkeypatch.setattr(training, "masked_lm_loss", loss)
    state = EncoderState.init(TINY, np.random.default_rng(0))
    cfg = TrainConfig(peak_lr=1e-3, warmup_steps=0, total_steps=1, batch_size=2, seed=5)
    run_pretraining(corpus(), state, cfg)
    assert waited == [True]
    assert len(workers) == 1
    assert_reaped(workers)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("in_both_halves", [False, True])
def test_non_finite_gradient_in_the_workers_half_changes_nothing(set_lanes, workers,
                                                                  monkeypatch, bad,
                                                                  in_both_halves):
    """A non-finite gradient in the worker's half, alone or with one in the parent's, is
    named as one lane names it, and no parameter or moment of either half changes."""
    names = list(EncoderState.init(TINY, None).params)
    # The halves split by element count: the last parameter is the worker's, the first
    # the parent's.
    poisoned_names = [names[0], names[-1]] if in_both_halves else [names[-1]]
    collect = training.collect_gradients
    halves = []  # each process's own list: the worker's is a copy

    def poisoned(params, batch_size):
        halves.append(list(params))
        for name in poisoned_names:
            if len(halves) == 2 and name in params:  # step 2, in either process
                params[name].grad.flat[0] = bad
        return collect(params, batch_size)

    monkeypatch.setattr(training, "collect_gradients", poisoned)

    def run():
        halves.clear()
        state = EncoderState.init(TINY, np.random.default_rng(0))
        opt = AdamState.fresh(state.params)
        cfg = TrainConfig(peak_lr=1e-3, warmup_steps=1, total_steps=4, batch_size=3, seed=5)
        after_step_1 = []

        def keep(step, lr, loss):
            after_step_1.append([{n: a.copy() for n, a in arrays.items()} for arrays in
                                 ({n: p.data for n, p in state.params.items()}, opt.m, opt.v)])

        with pytest.raises(NumericError) as err:
            run_pretraining(corpus(), state, cfg, opt=opt, log_fn=keep)
        assert len(after_step_1) == 1 and opt.step == 1
        for before, now in zip(after_step_1[0], ({n: p.data for n, p in state.params.items()},
                                                 opt.m, opt.v)):
            assert_same_arrays(before, now)
        return str(err.value), halves[0]

    (one, half1), (two, half2) = across_lanes(set_lanes, run, workers)
    assert one == two == ("optimizer step 2: non-finite (NaN or inf) gradient for parameter "
                          f"{poisoned_names[0]!r}")
    assert half1 == names and names[0] in half2 and names[-1] not in half2


def test_evaluate_model_logits_bitwise_across_lanes(set_lanes, monkeypatch):
    text_cfg = EncoderConfig(n_layers=1, d_model=8, n_heads=2, d_ff=16, vocab_size=11,
                             max_len=16, dropout_rate=0.1)
    rng = np.random.default_rng(7)
    model = FusionModel.init("coattn", TINY, text_cfg, HEAD_OUTPUTS["categorical"], 2, rng)
    for p in model.named_params().values():
        p.data = rng.normal(0.0, 0.5, size=p.data.shape)
    # Speech lengths 2-5 and text lengths 2-4, in mixed order.
    examples = [TokenizedExample(f"e{i}", TokenSequence("speech", (CLS, *[5] * (1 + i % 4))),
                                 TokenSequence("text", (CLS, *[6] * (1 + i % 3))), i % 4)
                for i in range(24)]
    # One row a stack, so both lanes take stacks.
    monkeypatch.setattr(encoder, "STACK_BYTES", 1)
    seen = []
    predict = training.predict_class
    monkeypatch.setattr(training, "predict_class", lambda lg: seen.append(lg) or predict(lg))

    def run():
        seen.clear()
        report = evaluate_model(model, examples, "categorical")
        return report, list(seen)

    (report1, logits1), (report2, logits2) = across_lanes(set_lanes, run)
    assert report1 == report2
    assert len(logits1) == len(logits2) == len(examples)
    assert all(np.array_equal(a, b) for a, b in zip(logits1, logits2))


def squares_and_pids(items):
    """Each item's square, with the pid of the process that computed it."""
    return [(i * i, os.getpid()) for i in items]


@pytest.mark.parametrize("n_lanes", [1, 2])
@pytest.mark.parametrize("n", [0, 1, 2, 5])
def test_split_is_fn_of_the_items_in_order(set_lanes, workers, n_lanes, n):
    """``split(fn, items)`` is ``fn(items)``, in order; on two lanes a worker forked for
    the call computes every other item, and is reaped."""
    set_lanes(n_lanes)
    results = lanes.split(squares_and_pids, list(range(n)))
    assert [square for square, _ in results] == [i * i for i in range(n)]
    forked = n_lanes == 2 and n >= 2
    assert len(workers.forks) == forked
    assert [pid for _, pid in results] == [
        workers.forks[0] if forked and k % 2 else os.getpid() for k in range(n)]
    assert_reaped(workers)


@pytest.mark.parametrize("side", ["worker", "parent"])
def test_an_error_in_either_half_of_a_split_reaps_the_worker(set_lanes, workers, side):
    """An EmofuseError in the worker's half is raised here with its class and message;
    after one in this process's half the worker, still busy, is killed. Either way it
    is reaped, within seconds."""
    set_lanes(2)
    parent, start = os.getpid(), time.monotonic()

    def fn(items):
        if (os.getpid() == parent) == (side == "parent"):
            raise InputError(f"bad items {items}")
        time.sleep(30.0 if side == "parent" else 0.0)
        return items

    with pytest.raises(InputError, match=re.escape(
            f"bad items {[1, 3] if side == 'worker' else [0, 2]}")):
        lanes.split(fn, [0, 1, 2, 3])
    assert time.monotonic() - start < 10.0
    assert len(workers.forks) == 1
    assert_reaped(workers)


@pytest.mark.parametrize("env, pinned", [
    ({"OPENBLAS_NUM_THREADS": "1"}, True),
    ({"OMP_NUM_THREADS": "1"}, True),
    ({"OPENBLAS_NUM_THREADS": "0", "OMP_NUM_THREADS": "1"}, True),
    ({"OPENBLAS_NUM_THREADS": "2", "OMP_NUM_THREADS": "1"}, False),
    ({}, False),
])
def test_blas_pin_is_the_count_openblas_reads(monkeypatch, env, pinned):
    if "mkl" in str(np.__config__.CONFIG["Build Dependencies"]["blas"]["name"]):
        pytest.skip("numpy's BLAS here is MKL")
    for var in BLAS_VARS:
        monkeypatch.delenv(var, raising=False)
    for var, value in env.items():
        monkeypatch.setenv(var, value)
    assert lanes._blas_pinned() is pinned


def _child_env(pin: bool) -> dict:
    env = {k: v for k, v in os.environ.items() if k not in BLAS_VARS}
    env["PYTHONPATH"] = os.pathsep.join([str(ROOT / "src"), env.get("PYTHONPATH", "")])
    return dict(env, OPENBLAS_NUM_THREADS="1") if pin else env


# Minor page faults per warm eval-mode forward of a 52-token speech sequence at the
# desk size, in a fresh process that frees no large block before it.
FAULTS_PER_FORWARD = """
import resource
import numpy as np
from emofuse import encoder, tensor
from emofuse.tokens import CLS, N_SPECIALS, TokenSequence
state = encoder.EncoderState.init(encoder.SPEECH_DESK, np.random.default_rng(0))
ids = np.random.default_rng(1).integers(N_SPECIALS, encoder.SPEECH_DESK.vocab_size, 51)
seq = TokenSequence("speech", (CLS, *ids.tolist()))
with tensor.no_grad():
    for _ in range(5):
        encoder.forward(seq, state)
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    for _ in range(40):
        encoder.forward(seq, state)
print((resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before) / 40)
"""


@pytest.mark.skipif(not hasattr(ctypes.CDLL(None), "mallopt"), reason="libc has no mallopt")
def test_warm_forwards_reuse_their_heap_pages():
    """With glibc's thresholds pinned at import, a forward's temporaries come back from
    the heap instead of being mapped and faulted in anew on every call (about 360 minor
    faults per call with the thresholds left to glibc)."""
    proc = subprocess.run([sys.executable, "-c", FAULTS_PER_FORWARD], env=_child_env(False),
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert float(proc.stdout) < 20


EVALUATE_THEN_COUNT_THREADS = """
import os
import numpy as np
from emofuse import lanes
from emofuse.data import HEAD_OUTPUTS, TokenizedExample
from emofuse.encoder import EncoderConfig
from emofuse.fusion import FusionModel
from emofuse.tokens import CLS, TokenSequence
from emofuse.training import evaluate_model
lanes.LANES = 2
cfg = EncoderConfig(n_layers=1, d_model=8, n_heads=2, d_ff=16, vocab_size=11, max_len=12)
model = FusionModel.init("coattn", cfg, cfg, HEAD_OUTPUTS["categorical"], 2,
                         np.random.default_rng(0))
examples = [TokenizedExample(f"e{i}", TokenSequence("speech", (CLS, *[5] * (1 + i % 4))),
                             TokenSequence("text", (CLS, *[6] * (1 + i % 3))), i % 4)
            for i in range(8)]
evaluate_model(model, examples, "categorical")
print(len(os.listdir("/proc/self/task")))
"""


@pytest.mark.skipif(not os.path.isdir("/proc/self/task"), reason="no /proc/self/task")
def test_a_two_lane_evaluation_leaves_one_thread():
    """With BLAS pinned, a two-lane ``evaluate_model`` starts no thread: the process
    still has one."""
    proc = subprocess.run([sys.executable, "-c", EVALUATE_THEN_COUNT_THREADS],
                          env=_child_env(True), capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "1\n"


ARCH = [f"--{m}-{flag}={value}" for m in ("speech", "text")
        for flag, value in (("layers", 1), ("dim", 16), ("heads", 2), ("ff", 32))]


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """A 40-example dataset with its vocabulary and codebook; the CLI inputs to read them."""
    work = tmp_path_factory.mktemp("lanes")
    inputs = [f"--dataset={work}/dataset.jsonl", f"--vocab={work}/vocab.txt",
              f"--codebook={work}/codebook.bin"]
    assert main(["gen-data", "--n=40", "--seed=0", f"--out-dir={work}"]) == 0
    assert main(["prepare", inputs[0], "--vocab-size=64", "--codebook-size=8", "--seed=0",
                 f"--out-dir={work}"]) == 0
    return work, inputs


def finetune_argv(inputs, out):
    return ["finetune", *inputs, *ARCH, "--fusion=coattn", "--epochs=2", "--batch-size=4",
            "--seed=1", f"--out-dir={out}"]


def test_finetune_with_blas_pinned_writes_the_same_model(workspace, tmp_path):
    """Subprocess `finetune` and `pretrain` runs with and without BLAS pinned (two lanes
    and one, on two or more CPUs) write the same bytes."""
    work, inputs = workspace
    outputs = []
    for pin in (False, True):
        env = _child_env(pin)
        lanes_used = subprocess.run(
            [sys.executable, "-c", "from emofuse import lanes; print(lanes.LANES)"],
            env=env, capture_output=True, text=True, check=True).stdout.strip()
        assert lanes_used == ("2" if pin and lanes._CPUS >= 2 else "1")
        out = tmp_path / f"pin{int(pin)}"
        for argv in (finetune_argv(inputs, out),
                     ["pretrain", inputs[0], inputs[2], *ARCH[:4], "--steps=6", "--batch-size=3",
                      "--checkpoint-interval=2", "--seed=1", f"--out-dir={out}"]):
            subprocess.run([sys.executable, "-m", "emofuse.cli", *argv], env=env, check=True,
                           capture_output=True, timeout=300)
        outputs.append([(out / name).read_bytes()
                        for name in ("model.ckpt", "speech_encoder.ckpt", "pretrain.log")])
    assert outputs[0] == outputs[1]


def test_numeric_error_in_the_worker_exits_3_like_one_lane(set_lanes, workers, workspace,
                                                          tmp_path, monkeypatch, capsys):
    """A NumericError in the worker's example, or a NaN, +inf or -inf gradient in the
    worker's half of the parameters (the head's bias, last in order), exits 3 with one
    lane's message and writes no model."""
    work, inputs = workspace
    train = [ex.id for ex in load_jsonl(f"{work}/dataset.jsonl").subset("train")]
    # Position 1 of the first batch: the worker's example on two lanes (finetune --seed=1).
    bad_id = train[training._generator(1, 1).permutation(len(train))[1]]
    seen, poison = [], []
    example_loss, collect = training._example_loss, training.collect_gradients

    def failing(model, ex, *rest):
        seen.append(ex.id)
        if ex.id == bad_id and not poison:
            raise NumericError(f"example {bad_id} went non-finite")
        return example_loss(model, ex, *rest)

    def poisoned(params, batch_size):
        seen.extend(params)
        if poison and "fusion.head.b" in params:
            params["fusion.head.b"].grad.flat[0] = poison[0]
        return collect(params, batch_size)

    monkeypatch.setattr(training, "_example_loss", failing)
    monkeypatch.setattr(training, "collect_gradients", poisoned)
    for bad in (None, np.nan, np.inf, -np.inf):
        poison[:] = [] if bad is None else [bad]
        found, message = ((bad_id, f"optimizer step 1: example {bad_id} went non-finite")
                          if bad is None else
                          ("fusion.head.b", "optimizer step 1: non-finite (NaN or inf) gradient "
                                            "for parameter 'fusion.head.b'"))
        results = []
        for n in (1, 2):
            set_lanes(n)
            seen.clear()
            capsys.readouterr()
            results.append((main(finetune_argv(inputs, tmp_path / f"{bad}-{n}")),
                            capsys.readouterr().err))
        assert results[0] == results[1] == (3, f"numeric error: {message}\n")
        assert found not in seen  # on two lanes the worker found it
    assert len(workers) == 4
    assert_reaped(workers)
    assert not any(tmp_path.rglob("model.ckpt"))


def test_killed_worker_exits_2_naming_it(set_lanes, workers, workspace, tmp_path, capsys):
    _, inputs = workspace
    set_lanes(2)
    workers.kill_after = 3
    capsys.readouterr()
    assert main(finetune_argv(inputs, tmp_path)) == 2
    err = capsys.readouterr().err
    assert err == f"error: worker process {workers[0]} was killed by signal 9\n"
    assert_reaped(workers)
    assert not (tmp_path / "model.ckpt").exists()


@pytest.mark.parametrize("where", ["open", "write"])
def test_no_room_for_the_best_epoch_file_exits_2_naming_it(set_lanes, workers, workspace,
                                                           tmp_path, capsys, monkeypatch,
                                                           where):
    """No space for the best-epoch file, at its opening or at its first write, is one
    error line naming it, exit 2: the training worker is reaped, the file closed and no
    output directory made."""
    _, inputs = workspace
    set_lanes(2)
    full, opened = OSError(errno.ENOSPC, os.strerror(errno.ENOSPC)), []

    class Full(io.BytesIO):
        def write(self, data):
            raise full

    def temporary_file(*args, **kwargs):
        if where == "open":
            raise full
        opened.append(Full())
        return opened[-1]

    monkeypatch.setattr(tempfile, "TemporaryFile", temporary_file)
    capsys.readouterr()
    assert main(finetune_argv(inputs, tmp_path / "out")) == 2
    assert capsys.readouterr().err == (f"error: best-epoch file in {tempfile.gettempdir()}: "
                                       f"[Errno {errno.ENOSPC}] {os.strerror(errno.ENOSPC)}\n")
    assert len(workers) == 1
    assert_reaped(workers)
    assert all(f.closed for f in opened) and len(opened) == (where == "write")
    assert not (tmp_path / "out").exists()


def test_evaluation_worker_killed_exits_2_naming_it(set_lanes, workers, workspace, tmp_path,
                                                    capsys, monkeypatch):
    """SIGKILL of the worker ``evaluate`` forks ends the run with exit 2 naming it, and
    leaves no output directory."""
    _, inputs = workspace
    set_lanes(1)
    assert main(finetune_argv(inputs, tmp_path / "model")) == 0
    set_lanes(2)
    parent, forward_many = os.getpid(), training.forward_many

    def dying(*args):
        if os.getpid() != parent:
            os.kill(os.getpid(), signal.SIGKILL)
        return forward_many(*args)

    monkeypatch.setattr(training, "forward_many", dying)
    capsys.readouterr()
    out = tmp_path / "eval"
    assert main(["evaluate", *inputs, f"--model={tmp_path}/model/model.ckpt",
                 f"--out-dir={out}"]) == 2
    assert capsys.readouterr().err == (f"error: worker process {workers.forks[0]} was killed "
                                       "by signal 9\n")
    assert len(workers) == 0 and len(workers.forks) == 1
    assert_reaped(workers)
    assert not out.exists()


def test_worker_killed_mid_backward_exits_2_within_seconds(set_lanes, workers, workspace,
                                                          tmp_path, capsys, monkeypatch):
    """The worker dies at the 10th leaf of its first backward once the parent waits for
    a turn of that example: the run exits 2 naming it, without hanging on the turn."""
    _, inputs = workspace
    set_lanes(2)
    parent, backward, take = os.getpid(), tensor.backward, lanes.Link.take
    times = lanes.shared([(2,)])[0]  # when the parent first waited, when the worker died

    def timed_take(link):
        if os.getpid() == parent and not times[0]:
            times[0] = time.monotonic()
        take(link)

    def dying(loss, add_leaf):
        calls = itertools.count()

        def add(leaf, g):
            if os.getpid() != parent and next(calls) == 9:
                deadline = time.monotonic() + 30.0
                while not times[0] and time.monotonic() < deadline:
                    time.sleep(0.001)
                times[1] = time.monotonic()
                os.kill(os.getpid(), signal.SIGKILL)
            add_leaf(leaf, g)

        return backward(loss, add_leaf=add)

    monkeypatch.setattr(lanes.Link, "take", timed_take)
    monkeypatch.setattr(tensor, "backward", dying)
    capsys.readouterr()
    assert main(finetune_argv(inputs, tmp_path)) == 2
    assert 0.0 < times[0] <= times[1] and time.monotonic() - times[1] < 5.0
    err = capsys.readouterr().err
    assert err == f"error: worker process {workers[0]} was killed by signal 9\n"
    assert_reaped(workers)
    assert not (tmp_path / "model.ckpt").exists()


@pytest.mark.parametrize("kind", ["shallow", "coattn"])
def test_frozen_caches_fill_before_the_fork(set_lanes, workers, monkeypatch, kind):
    """With both encoders frozen, their outputs are computed once, before the training
    worker forks: no worker runs an encoder ``forward``, and a two-lane run keeps the
    bits of a one-lane run whose tables fill with one ``forward`` per sequence."""
    tok, speech_vocab, text_vocab = splits("categorical")
    parent, forward = os.getpid(), training.forward
    worker_forwards = lanes.shared([(1,)])[0]

    def counted(*args, **kwargs):
        if os.getpid() != parent:
            worker_forwards[0] += 1
        return forward(*args, **kwargs)

    monkeypatch.setattr(training, "forward", counted)

    def run():
        model = FusionModel.init(
            kind, EncoderConfig(1, 16, 2, 32, speech_vocab, 64, dropout_rate=0.1),
            EncoderConfig(1, 16, 2, 32, text_vocab, 16, dropout_rate=0.1),
            HEAD_OUTPUTS["categorical"], 2, np.random.default_rng(4), fusion_dropout=0.1)
        cfg = TrainConfig(peak_lr=3e-3, batch_size=4, seed=4, freeze_speech=True,
                          freeze_text=True)
        result = run_finetune(tok["train"], tok["valid"], model, cfg, epochs=2)
        return {n: p.data.copy() for n, p in model.named_params().items()}, result.history

    set_lanes(2)
    params2, history2 = run()
    assert len(workers) == 1 and worker_forwards[0] == 0
    set_lanes(1)
    monkeypatch.setattr(training, "forward_many",
                        lambda seqs, state: [encoder.forward(seq, state) for seq in seqs])
    params1, history1 = run()
    assert_same_arrays(params1, params2)
    assert history1 == history2
    assert_reaped(workers)


def test_interrupt_in_the_parent_reaps_the_worker(set_lanes, workers):
    set_lanes(2)

    def interrupt(step, lr, loss):
        if step == 2:
            raise KeyboardInterrupt

    state = EncoderState.init(TINY, np.random.default_rng(0))
    cfg = TrainConfig(peak_lr=1e-3, warmup_steps=2, total_steps=8, batch_size=3, seed=5)
    with pytest.raises(KeyboardInterrupt):
        run_pretraining(corpus(), state, cfg, log_fn=interrupt)
    assert len(workers) == 1
    assert_reaped(workers)
