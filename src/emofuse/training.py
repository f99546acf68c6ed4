"""Optimization engine: Adam with warmup + linear decay, pretraining and fine-tuning.

Every optimizer step of every loop (pretraining, the overfit diagnostic and
fine-tuning) goes through ``_update``, the one home of the gradient
accumulation invariant: batch gradients are the per-example gradients summed
in dataset order and divided once by the batch size, so how an effective
batch is factored into microbatches cannot change the result, bitwise. On two
lanes a forked worker runs every other example and half of each step's gradient
passes and Adam update (``_Training``), with the same bits. Every random draw of a
loop comes from a generator of the run's seed and a counter (``_generator``).
Frozen components run in eval mode (acting purely as feature extractors) and
their outputs are computed once per distinct token sequence, into a table keyed by
token IDs.
"""

from __future__ import annotations

import collections
import contextlib
import math
import tempfile
from dataclasses import dataclass, field, replace

import numpy as np

from . import lanes
from . import tensor as T
from .encoder import EncoderState, forward, forward_many, mask_corrupt, masked_lm_loss
from .errors import ConfigError, EmofuseError, InputError, NumericError, UsageError
from .fusion import FusionModel
from .data import HEAD_OUTPUTS, TokenizedExample
from .metrics import evaluate_classification, evaluate_scores
from .tokens import TokenSequence

# Bytes of encoder outputs an evaluation chunk holds, each counted at its max_len.
EVAL_BYTES = 32 << 20
# Adam's moment decay rates and the floor added to its denominator.
BETA1, BETA2, EPS = 0.9, 0.999, 1e-8


@dataclass(frozen=True)
class TrainConfig:
    """Optimizer and loop settings.

    warmup_steps and total_steps may be left unset; run_finetune resolves
    total_steps from epochs and dataset size, and warmup defaults to 6% of
    total. The rate ramps up to peak_lr over warmup and decays linearly to 0
    (``lr_at``). peak_lr 1e-5 and batch_size 16 are the reference operating point
    for fine-tuning. Adam's constants are the module's BETA1, BETA2 and EPS.
    Dropout is not set here: each encoder takes its rate from
    ``EncoderConfig.dropout_rate`` and fusion from ``FusionModel.fusion_dropout``.
    """

    peak_lr: float = 1e-5
    warmup_steps: int | None = None
    total_steps: int | None = None
    batch_size: int = 16
    grad_clip: float | None = None
    seed: int = 0
    freeze_speech: bool = False
    freeze_text: bool = False

    def __post_init__(self):
        if self.batch_size < 1:
            raise ConfigError("batch_size must be at least 1")
        if not 0.0 <= self.peak_lr < math.inf:
            raise ConfigError(f"peak_lr must be finite and non-negative, got {self.peak_lr}")
        if self.grad_clip is not None and not 0.0 < self.grad_clip < math.inf:
            raise ConfigError(f"grad_clip must be finite and positive, got {self.grad_clip}")
        if self.seed < 0:
            raise ConfigError(f"seed must be non-negative, got {self.seed}")
        if self.warmup_steps is not None and self.warmup_steps < 0:
            raise ConfigError(f"warmup_steps must be non-negative, got {self.warmup_steps}")
        if self.total_steps is not None:
            w = self.warmup_steps if self.warmup_steps is not None else 0
            if w >= self.total_steps:
                raise ConfigError("warmup_steps must be smaller than total_steps")

    def resolved(self, total_steps: int | None = None) -> "TrainConfig":
        """Fill in total_steps / warmup_steps so lr_at can be evaluated."""
        total = self.total_steps if self.total_steps is not None else total_steps
        if total is None:
            raise ConfigError("total_steps is not set and no fallback was provided")
        warmup = self.warmup_steps if self.warmup_steps is not None else int(0.06 * total)
        return replace(self, total_steps=total, warmup_steps=warmup)


def lr_at(step: int, cfg: TrainConfig) -> float:
    """Linear ramp 0 -> peak over warmup, then linear decay to 0 at total_steps.

    Both formulas give peak_lr at the warmup boundary.
    """
    if cfg.total_steps is None or cfg.warmup_steps is None:
        raise UsageError("lr_at needs a resolved TrainConfig (total_steps and warmup_steps set)")
    if not (0 <= step <= cfg.total_steps):
        raise UsageError(f"step {step} outside [0, {cfg.total_steps}]")
    if step < cfg.warmup_steps:
        return cfg.peak_lr * step / cfg.warmup_steps
    if cfg.total_steps == cfg.warmup_steps:
        return cfg.peak_lr
    frac = (step - cfg.warmup_steps) / (cfg.total_steps - cfg.warmup_steps)
    return cfg.peak_lr * (1.0 - frac)


@dataclass
class AdamState:
    """First/second moment accumulators per parameter, plus the step counter."""

    m: dict[str, np.ndarray]
    v: dict[str, np.ndarray]
    step: int = 0

    @classmethod
    def fresh(cls, params: dict[str, T.Tensor]) -> "AdamState":
        return cls(
            m={n: np.zeros_like(p.data) for n, p in params.items()},
            v={n: np.zeros_like(p.data) for n, p in params.items()},
        )


def _generator(seed: int, *counters: int) -> np.random.Generator:
    """The generator of ``(step,)`` or ``(epoch,)`` (a batch draw), ``(step, position)``
    (one example) or no counter (``default_rng(seed)``'s stream) in a run of ``seed``.
    The counters are a spawn key, not entropy: entropy is zero-padded, so ``(seed, step)``
    and ``(seed, step, 0)`` would be one stream."""
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=counters))


def _check_finite(grads: dict[str, np.ndarray]) -> None:
    """Raise a NumericError naming the first gradient in ``grads`` with a NaN or inf."""
    for name, g in grads.items():
        if not np.isfinite(g).all():
            raise NumericError(f"non-finite (NaN or inf) gradient for parameter {name!r}")


def adam_step(
    params: dict[str, T.Tensor],
    grads: dict[str, np.ndarray],
    opt: AdamState,
    lr: float,
    worker: lanes.Worker | None = None,
) -> None:
    """Bias-corrected Adam update, in place, of the parameters ``grads`` names.

    Each elementwise operation of ``p - lr * (m / bc1) / (sqrt(v / bc2) + eps)``
    runs in the textbook order, so the result is bitwise that formula's; two
    scratch arrays per parameter stand in for its fourteen temporaries. Every
    gradient is checked before anything changes. A training ``worker`` sharing these
    arrays updates the other half of the parameters meanwhile; elementwise, the split
    changes no bit. With a worker, ``_update`` has checked both halves already.
    """
    if not lr >= 0.0:
        raise UsageError(f"learning rate must be non-negative, got {lr}")
    if worker is None:
        _check_finite(grads)
    else:
        worker.send("adam", lr, opt.step + 1)
    opt.step += 1
    _adam_update(params, grads, opt, lr, opt.step)
    if worker is not None:
        _expect(worker.recv(), "done")


def _adam_update(params, grads, opt, lr, step) -> None:
    """``adam_step``'s update of the parameters ``grads`` names, at Adam step ``step``."""
    bc1 = 1.0 - BETA1 ** step
    bc2 = 1.0 - BETA2 ** step
    for name, g in grads.items():
        p, m, v = params[name], opt.m[name], opt.v[name]
        scratch, update = np.empty_like(m), np.empty_like(m)
        np.multiply(g, 1.0 - BETA1, out=scratch)
        m *= BETA1
        m += scratch
        np.multiply(g, 1.0 - BETA2, out=scratch)
        scratch *= g
        v *= BETA2
        v += scratch
        denom = np.divide(v, bc2, out=scratch)
        np.sqrt(denom, out=denom)
        denom += EPS
        np.divide(m, bc1, out=update)
        update *= lr
        update /= denom
        p.data -= update


def _squares(grads: dict[str, np.ndarray], clip: float | None) -> list[float]:
    """Each gradient's squared sum, in order, for the global norm under ``clip``."""
    return [] if clip is None else [float((g * g).sum()) for g in grads.values()]


def collect_gradients(params: dict[str, T.Tensor], batch_size: int) -> dict[str, np.ndarray]:
    """Accumulated gradients divided once by the batch size, in place.

    The returned arrays are the parameters' own ``grad`` arrays: the accumulators
    of a training loop, or fresh arrays after backward's ``grad + g``; nothing else
    refers to either, so dividing in place is safe. A parameter without a gradient
    gets zeros.
    """
    out = {}
    for name, p in params.items():
        if p.grad is None:
            out[name] = np.zeros_like(p.data)
        else:
            p.grad /= batch_size
            out[name] = p.grad
    return out


def _expect(message: tuple, kind: str) -> tuple:
    """The fields of a lane message of ``kind``."""
    if message[0] != kind:
        raise UsageError(f"expected a {kind!r} message from the other lane, got {message[0]!r}")
    return message[1:]


class _Training:
    """What every optimizer step of one training loop shares: the trainable ``params``,
    their Adam state, the run's ``seed`` (None for a loss that draws nothing), and
    ``example_loss(index, rng)``, which builds the loss of example ``index`` drawing
    its randomness from ``rng``.

    The parameters, their gradient accumulators (each one's ``grad``) and both moments
    move into one arena of views in a shared mapping (``lanes.shared``). On two lanes
    ``halves`` splits the parameters at the boundary nearest the middle by element
    count, and a forked worker runs every other example (see ``_update``) and the
    second half's gradient passes and Adam update; ``link`` is the other lane's end
    (the worker, or in the worker the parent). On one lane the first half is all.
    Entered and left with ``with``, so no worker outlives it.
    """

    def __init__(self, params: dict[str, T.Tensor], opt: AdamState, example_loss,
                 seed: int | None):
        self.params, self.opt, self.example_loss, self.seed = params, opt, example_loss, seed
        self.link: lanes.Link | None = None
        names = list(params)
        arena = iter(lanes.shared([params[name].data.shape for name in names] * 4))
        # Each old array is dropped once copied; the heap's free pages are handed back
        # before each table is copied, so no copy stacks on memory already freed.
        lanes.release_freed()
        for p, view in zip(params.values(), arena):
            np.copyto(view, p.data)
            p.data = view
        for p, view in zip(params.values(), arena):
            p.grad = view
        self.grads = [p.grad for p in params.values()]
        for table in (opt.m, opt.v):
            lanes.release_freed()
            for name, view in zip(names, arena):
                np.copyto(view, table[name])
                table[name] = view
        lanes.release_freed()
        # The parameter each turn of an example is for (see ``backward``); -1 until the
        # run's first example has taken that turn.
        order = lanes.shared([(len(names),)])[0]
        order.fill(-1)
        self.order, self.names = memoryview(order), names
        self.index = {id(p): i for i, p in enumerate(params.values())}
        sizes = np.cumsum([p.size for p in params.values()])
        cut = len(names) if lanes.LANES == 1 else 1 + int(abs(sizes - sizes[-1] / 2).argmin())
        self.halves = ({n: params[n] for n in names[:cut]}, {n: params[n] for n in names[cut:]})

    def __enter__(self) -> "_Training":
        if lanes.LANES == 2:
            self.link = lanes.Worker(self._serve)
        return self

    def __exit__(self, kind, err, tb) -> None:
        if self.link is not None:
            self.link.close(kill=kind is not None)  # after an error it may be mid-example
            self.link = None
        T.zero_grads(self.params.values())

    def backward(self, loss: T.Tensor, position: int) -> None:
        """Backpropagate the loss of the example at ``position`` of its batch, adding each
        leaf's gradient into its accumulator (``leaf.grad``) in place, at its turn.

        An example takes one turn per parameter: the leaves in the order backward
        hands them over (the head first, the embeddings last), then the others in
        parameter order. Every example of a run takes them in the order ``order``
        holds, or raises before adding. Position 0 writes ``g + 0.0``, the bits of
        ``0 + g`` (zeros for a leaf it does not reach), so nothing is zeroed between
        steps; the others add ``grad += g``. On two lanes each turn is given on to the
        other lane, and above position 0 first taken from it, so each leaf's gradients
        enter in example order; a leaf handed over before its turn waits for it.
        """
        link = self.link
        waits = link is not None and position > 0
        held, reached, turn = collections.deque(), set(), 0

        def take(i, g):
            nonlocal turn
            if self.order[turn] != i:
                if self.order[turn] >= 0:
                    raise UsageError(
                        f"backward order differs between examples: turn {turn} is for "
                        f"{self.names[int(self.order[turn])]!r}, not {self.names[i]!r}")
                self.order[turn] = i
            turn += 1
            if position == 0:
                np.add(0.0 if g is None else g, 0.0, out=self.grads[i])
            elif g is not None:
                self.grads[i] += g
            if link is not None:
                link.give()

        def add(leaf, g):
            i = self.index[id(leaf)]
            reached.add(i)
            held.append((i, g))
            while held and (not waits or link.try_take()):
                take(*held.popleft())

        T.backward(loss, add_leaf=add)
        held.extend((i, None) for i in range(len(self.names)) if i not in reached)
        for i, g in held:
            if waits:
                link.take()
            take(i, g)

    def lane(self, step: int, indices, clip: float | None, lane: int):
        """Lane ``lane``'s part of step ``step`` over ``indices``: positions ``lane``,
        ``lane + lanes``, ..., each drawing from the generator of ``(seed, step,
        position)``; then, when the other lane ran the batch's last example, its turns,
        after which every accumulator holds its batch sum. Returns the losses, this
        lane's half of the gradients divided by the batch size (and checked, on two
        lanes; one lane checks in ``adam_step``) and, under ``clip``, their squares."""
        n, stride = len(indices), 1 if self.link is None else 2
        losses = []
        for k in range(lane, n, stride):
            rng = None if self.seed is None else _generator(self.seed, step, k)
            loss = self.example_loss(indices[k], rng)
            losses.append(loss.item())
            self.backward(loss, k)
            del loss
        if (n - 1) % stride != lane:
            for _ in self.names:
                self.link.take()
        grads = collect_gradients(self.halves[lane], n)
        if self.link is not None:
            _check_finite(grads)
        return losses, grads, _squares(grads, clip)

    def _serve(self, message: tuple, link: lanes.Link) -> None:
        """The worker's side of ``_update``: its lane of a step, then its half of the
        step's scaling and Adam update."""
        kind, *args = message
        self.link, half = link, self.halves[1]
        if kind == "step":
            losses, _, squares = self.lane(*args, 1)
            link.send("collected", losses, squares)
        elif kind == "scale":
            for p in half.values():
                p.grad *= args[0]
        elif kind == "adam":
            lr, step = args
            _adam_update(self.params, {n: p.grad for n, p in half.items()}, self.opt, lr, step)
            link.send("done")
        else:
            raise UsageError(f"unknown lane message {kind!r}")


def _update(run: _Training, step: int, indices, lr: float, cfg: TrainConfig,
            total: float = 0.0) -> float:
    """Optimizer step ``step`` over ``indices``; returns ``total`` plus their losses.

    Each lane builds and backpropagates one example's loss before its next
    (``_Training.lane``), so one autodiff graph is alive at a time per lane. Gradients
    enter the accumulators in example order (``_Training.backward``) and each loss is
    added to ``total`` in turn, so the batch gradient and a running epoch sum passed in
    keep their order, bitwise.

    On two lanes the worker gets one ``"step"`` message before this lane's first
    forward and runs the odd positions: every example draws from its own generator,
    so the lanes' forwards and backwards overlap. Each lane divides, checks and (under
    ``grad_clip``) sums its half of the gradients, and the worker sends its losses and
    sums back in ``"collected"``. Nothing changes until both halves pass the check. A
    NumericError of either lane names the step.
    """
    worker = run.link
    try:
        if worker is not None:
            worker.send("step", step, indices, cfg.grad_clip)
        losses, grads, squares = run.lane(step, indices, cfg.grad_clip, 0)
        if worker is not None:
            theirs, their_squares = _expect(worker.recv(), "collected")
            losses, mine = [0.0] * len(indices), losses
            losses[0::2], losses[1::2] = mine, theirs
            squares += their_squares
        for value in losses:
            total += value
        norm = np.sqrt(sum(squares))
        if cfg.grad_clip is not None and norm > cfg.grad_clip:
            factor = cfg.grad_clip / norm
            for g in grads.values():
                g *= factor
            if worker is not None:
                worker.send("scale", factor)
        adam_step(run.params, grads, run.opt, lr, worker=worker)
    except NumericError as err:
        raise NumericError(f"optimizer step {step}: {err}") from err
    return total


def run_pretraining(
    corpus: list[TokenSequence],
    state: EncoderState,
    cfg: TrainConfig,
    mask_rate: float = 0.15,
    log_fn=None,
    opt: AdamState | None = None,
) -> list[float]:
    """Masked-token pretraining over a token corpus; returns the loss curve.

    Every step samples batch_size sequences with replacement, corrupts them,
    and applies one Adam update at the scheduled rate. The first logged loss
    is evaluated before any update, so an untrained model logs roughly
    ln(vocab_size). Each step's batch is drawn from the generator of ``(cfg.seed,
    step)`` and each example's masking and dropout from that of ``(cfg.seed, step,
    position)``. A run resumes from ``opt.step``: passing an AdamState back in
    continues the moments, the step counter, the schedule and every draw, so a resumed
    run ends bitwise where an uninterrupted one does.
    """
    if not corpus:
        raise InputError("pretraining corpus is empty")
    cfg = cfg.resolved()
    opt = AdamState.fresh(state.params) if opt is None else opt

    def example_loss(i, rng):
        corrupted, targets = mask_corrupt(corpus[i], mask_rate, rng, state.cfg.vocab_size)
        return masked_lm_loss(state, corrupted, targets, train_mode=True, rng=rng)

    losses: list[float] = []
    with _Training(state.params, opt, example_loss, cfg.seed) as run:
        for step in range(opt.step + 1, cfg.total_steps + 1):
            idx = _generator(cfg.seed, step).integers(0, len(corpus), size=cfg.batch_size)
            lr = lr_at(step, cfg)
            mean_loss = _update(run, step, idx, lr, cfg) / cfg.batch_size
            losses.append(mean_loss)
            if log_fn is not None:
                log_fn(step, lr, mean_loss)
    return losses


def overfit_one_batch(
    state: EncoderState,
    batch: list[TokenSequence],
    cfg: TrainConfig,
    mask_rate: float = 0.15,
    seed: int = 0,
) -> list[float]:
    """Sanity diagnostic: memorize one fixed corrupted batch.

    The batch is corrupted once up front and the very same (inputs, targets)
    repeat every step, with dropout disabled, so the returned loss curve is a
    deterministic Adam trajectory on a fixed objective. A healthy setup
    drives it well below ln(vocab_size) within a few hundred steps.
    """
    if not batch:
        raise InputError("overfit_one_batch needs a non-empty batch")
    cfg = cfg.resolved()
    rng = _generator(seed)
    fixed = [mask_corrupt(seq, mask_rate, rng, state.cfg.vocab_size) for seq in batch]
    opt = AdamState.fresh(state.params)
    losses: list[float] = []
    with _Training(state.params, opt, lambda k, _: masked_lm_loss(state, *fixed[k]), None) as run:
        for step in range(1, cfg.total_steps + 1):
            total = _update(run, step, range(len(batch)), lr_at(step, cfg), cfg)
            losses.append(total / len(batch))
    return losses


def classification_loss(logits: T.Tensor, label: int) -> T.Tensor:
    """Cross-entropy over the per-class pair margins.

    The head emits a (negative, positive) logit pair per class; the class
    score is the pair margin, and softmax cross-entropy runs over those
    scores. The margin sign stays meaningful as the per-class binary
    decision, while training remains single-label.
    """
    n_out = logits.data.shape[1]
    if n_out % 2 != 0:
        raise ConfigError(f"classification head needs an even logit count, got {n_out}")
    n_classes = n_out // 2
    if not (0 <= label < n_classes):
        raise InputError(f"label {label} outside 0..{n_classes - 1}")
    pairs = T.reshape(logits, (n_classes, 2))
    margins = T.transpose(T.slice_cols(pairs, 1, 2) - T.slice_cols(pairs, 0, 1))
    return T.cross_entropy_rows(margins, [label])


def regression_loss(logits: T.Tensor, score: float) -> T.Tensor:
    return T.l1_loss(logits, [[score]])


def predict_class(logits_data: np.ndarray) -> int:
    """Class whose positive-vs-negative logit margin is largest."""
    margins = logits_data[0, 1::2] - logits_data[0, 0::2]
    return int(np.argmax(margins))


def predict_score(logits_data: np.ndarray) -> float:
    return float(logits_data[0, 0])


@dataclass
class FinetuneResult:
    history: list[dict] = field(default_factory=list)
    best_epoch: int = 0
    best_metric: float = 0.0
    optimizer: AdamState | None = None


def _model_outputs(model, ex, train_mode, rng, tables):
    """The outputs of ``model.encoders()`` for ``ex``, in that order; a frozen
    encoder's come from its table in ``tables``, by token IDs."""
    return [tables[modality][getattr(ex, modality).ids] if modality in tables
            else forward(getattr(ex, modality), state, train_mode=train_mode, rng=rng)
            for modality, state in model.encoders().items()]


def _example_loss(model, ex, label_mode, train_mode, rng, tables):
    outputs = _model_outputs(model, ex, train_mode, rng, tables)
    fused = model.fuse(*outputs, train_mode=train_mode, rng=rng)
    if label_mode == "categorical":
        return classification_loss(fused.logits, int(ex.target))
    return regression_loss(fused.logits, float(ex.target))


def evaluate_model(
    model: FusionModel,
    examples: list[TokenizedExample],
    label_mode: str,
    class_names=None,
    tables: dict[str, dict] | None = None,
):
    """Eval-mode predictions over a split, summarized as a MetricReport.

    ``tables`` holds frozen encoders' outputs by modality, each keyed by token IDs
    and holding every example's sequence; the other encoders run ``forward_many``
    over chunks of examples whose outputs take at most EVAL_BYTES. Each example is
    then fused on its own. On two lanes a forked worker computes every other example's
    logits (``lanes.split``), bitwise one lane's. Nothing is differentiated: no graph.
    """
    if not examples:
        raise InputError("cannot evaluate on an empty example list")
    if label_mode not in HEAD_OUTPUTS:
        raise InputError(f"unknown label mode {label_mode!r}")
    tables = tables or {}
    predict = predict_class if label_mode == "categorical" else predict_score
    size = max(1, EVAL_BYTES // sum(8 * s.cfg.max_len * s.cfg.d_model
                                    for s in model.encoders().values()))

    def logits(part: list[TokenizedExample]) -> list[np.ndarray]:
        out = []
        for start in range(0, len(part), size):
            chunk = part[start : start + size]
            # A generator, so no chunk's outputs outlive the statement that fuses them.
            encoded = ([tables[m][getattr(ex, m).ids] for ex in chunk] if m in tables
                       else forward_many([getattr(ex, m) for ex in chunk], state)
                       for m, state in model.encoders().items())
            out += [model.fuse(*outs).logits.data for outs in zip(*encoded)]
        return out

    with T.no_grad():
        preds = [predict(lg) for lg in lanes.split(logits, examples)]
    if label_mode == "categorical":
        return evaluate_classification(preds, [int(ex.target) for ex in examples], class_names)
    return evaluate_scores(preds, [float(ex.target) for ex in examples])


def _best_epoch_bytes(params, file, files: contextlib.ExitStack, restore: bool = False):
    """Write the parameters' bytes, in order, to the start of ``file`` (None: a new unnamed
    temporary file that ``files`` closes) and return it, or with ``restore`` read them back
    into the same arrays. An OSError or a short read is an EmofuseError naming the file."""
    try:
        file = file or files.enter_context(tempfile.TemporaryFile())
        file.seek(0)
        for p in params.values():
            if (file.readinto if restore else file.write)(p.data) != p.data.nbytes:
                raise EOFError("the file ends early")
        file.flush()
    except (OSError, EOFError) as err:
        raise EmofuseError(f"best-epoch file in {tempfile.gettempdir()}: {err}") from None
    return file


def run_finetune(
    train: list[TokenizedExample],
    valid: list[TokenizedExample],
    model: FusionModel,
    cfg: TrainConfig,
    epochs: int,
    label_mode: str = "categorical",
) -> FinetuneResult:
    """Train the fusion model; keep the parameters of the best validation epoch.

    Freeze flags drop the corresponding encoder's parameters from the
    optimizer entirely and serve its features from a table of its eval-mode
    outputs, so frozen parameters never change, bitwise. The validation metric is
    unweighted 4-class accuracy (higher wins) in categorical mode and MAE
    (lower wins) in score mode; a tie is no improvement. A best epoch before the last
    is written to an unnamed temporary file, read back into the parameters' own arrays
    only if no later epoch improves on it (``_best_epoch_bytes``).
    """
    if not train:
        raise InputError("fine-tuning needs a non-empty training split")
    if label_mode not in HEAD_OUTPUTS:
        raise InputError(f"unknown label mode {label_mode!r}")
    steps_per_epoch = (len(train) + cfg.batch_size - 1) // cfg.batch_size
    cfg = cfg.resolved(total_steps=max(1, epochs * steps_per_epoch))

    frozen = {"speech": cfg.freeze_speech, "text": cfg.freeze_text}
    for modality, state in model.encoders().items():
        state.set_requires_grad(not frozen[modality])
    # Each frozen encoder's outputs of the train and valid sequences, keyed by token IDs
    # (never by example id), computed before the training worker forks, so it inherits them.
    tables = {}
    for modality, state in model.encoders().items():
        if frozen[modality]:
            seqs = [getattr(ex, modality) for ex in train + valid]
            outputs = lanes.split(lambda part: forward_many(part, state), seqs)
            tables[modality] = dict(zip([seq.ids for seq in seqs], outputs))
    trainable = {name: p for name, p in model.named_params().items() if p.requires_grad}
    opt = AdamState.fresh(trainable)
    history: list[dict] = []
    best_metric: float | None = None
    best_epoch, best_file = 0, None
    step = 0

    def example_loss(i, rng):
        return _example_loss(model, train[i], label_mode, True, rng, tables)

    with (contextlib.ExitStack() as files,
          _Training(trainable, opt, example_loss, cfg.seed) as run):
        for epoch in range(1, epochs + 1):
            order = _generator(cfg.seed, epoch).permutation(len(train))
            epoch_loss = 0.0
            for start in range(0, len(order), cfg.batch_size):
                step += 1
                epoch_loss = _update(run, step, order[start : start + cfg.batch_size],
                                     lr_at(min(step, cfg.total_steps), cfg), cfg,
                                     total=epoch_loss)
            history.append({"epoch": epoch, "split": "train", "metric": "loss",
                            "value": epoch_loss / len(train)})
            report = evaluate_model(model, valid, label_mode, tables=tables) if valid else None
            if report is not None:
                if label_mode == "categorical":
                    metric_name, value, better = "accuracy4", report.accuracy4, lambda a, b: a > b
                else:
                    metric_name, value, better = "mae", report.mae, lambda a, b: a < b
                history.append({"epoch": epoch, "split": "valid", "metric": metric_name,
                                "value": value})
                if best_metric is None or better(value, best_metric):
                    best_metric, best_epoch = value, epoch
                    if epoch < epochs:  # a later epoch will change the parameters
                        best_file = _best_epoch_bytes(trainable, best_file, files)
        if best_file is not None and best_epoch < epochs:
            _best_epoch_bytes(trainable, best_file, files, restore=True)
    return FinetuneResult(history=history, best_epoch=best_epoch,
                          best_metric=best_metric or 0.0, optimizer=opt)
