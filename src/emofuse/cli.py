"""Command-line harness: data generation, preparation, pretraining, fine-tuning,
evaluation, and the ablation grid.

Every command resolves its configuration (defaults < config file < flags),
runs, and writes a manifest next to its artifacts recording the resolved
config, seed, input digests, and output digests. Artifacts are written
atomically, so a failed run leaves no partial files. Exit codes: 0 success,
1 usage error, 2 input error (or a worker process lost, see ``emofuse.lanes``, or
a failed write or read of fine-tuning's best-epoch file), 3 numeric failure.

The output root comes from --out-dir, falling back to the EMOFUSE_OUT
environment variable and then ./runs.
"""

from __future__ import annotations

import argparse
import datetime as _dt
import json
import os
import sys
from pathlib import Path

import numpy as np

from .checkpoint import (
    checked_block,
    load_encoder_checkpoint,
    load_fusion_checkpoint,
    save_encoder_checkpoint,
    save_fusion_checkpoint,
)
from .data import (
    CLASS_NAMES,
    HEAD_OUTPUTS,
    generate_synthetic,
    load_jsonl,
    save_jsonl,
    tokenize_examples,
)
from .encoder import SPEECH_DESK, TEXT_DESK, EncoderConfig, EncoderState
from .errors import EmofuseError, InputError, NumericError, UsageError
from .fileio import atomic_write_text, sha256_file
from .fusion import FUSION_KINDS, FusionModel
from .metrics import MetricReport
from .speech import Codebook, discretize, train_codebook
from .text import Vocabulary, build_vocab
from .tokens import N_SPECIALS
from .training import AdamState, TrainConfig, evaluate_model, run_finetune, run_pretraining

FREEZE_CHOICES = ("none", "speech", "text", "both")

ABLATION_CELLS = (
    ("shallow-ft", "shallow", "none"),
    ("coattn-ft", "coattn", "none"),
    ("speech-only", "speech-only", "none"),
    ("text-only", "text-only", "none"),
    ("shallow-frozen", "shallow", "both"),
    ("coattn-frozen", "coattn", "both"),
)


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


class _NothingRequired(_Parser):
    """A parser that requires nothing and whose ``--help`` only parses.

    It finds ``--config`` and checks config lines before argv and the file
    together supply every required flag; the full parse that follows
    enforces them and prints help.
    """

    def add_argument(self, *args, **kwargs):
        kwargs.pop("required", None)
        if kwargs.get("action") == "help":
            kwargs["action"] = "store_true"
        return super().add_argument(*args, **kwargs)

    def add_subparsers(self, **kwargs):
        kwargs.pop("required", None)
        return super().add_subparsers(**kwargs)


class _HelpFormatter(argparse.ArgumentDefaultsHelpFormatter):
    """Appends a flag's default to its help unless the help already states one."""

    def _get_help_string(self, action):
        if "(default:" in (action.help or ""):
            return action.help
        return super()._get_help_string(action)


def _checked(kind: type, ok, rule: str):
    """An argparse type: a ``kind`` value for which ``ok(value)`` holds ("must be ``rule``")."""
    def parse(text: str):
        value = kind(text)
        if not ok(value):
            raise argparse.ArgumentTypeError(f"must be {rule}, got {value}")
        return value

    parse.__name__ = kind.__name__  # argparse names the type in "invalid int value"
    return parse


def _int_at_least(low: int):
    return _checked(int, lambda value: value >= low, f"at least {low}")


def _out_dir(args) -> Path:
    path = Path(args.out_dir or os.environ.get("EMOFUSE_OUT") or "runs")
    path.mkdir(parents=True, exist_ok=True)
    return path


def _now() -> str:
    return _dt.datetime.now(_dt.timezone.utc).isoformat(timespec="seconds")


class Manifest:
    """Resolved run description persisted alongside every artifact."""

    def __init__(self, command: str, args: argparse.Namespace):
        config = {k: v for k, v in vars(args).items() if k not in ("func", "config")}
        self.record = {
            "command": command,
            "config": config,
            "seed": config.get("seed"),
            "input_digests": {},
            "outputs": {},
            "started": _now(),
        }

    def add_input(self, path) -> None:
        if not path:
            return
        if not Path(path).exists():
            raise InputError(f"input file {path} does not exist")
        self.record["input_digests"][str(path)] = sha256_file(path)

    def add_output(self, path) -> None:
        self.record["outputs"][str(path)] = sha256_file(path)

    def write(self, out_dir: Path) -> Path:
        self.record["finished"] = _now()
        path = out_dir / f"{self.record['command']}.manifest.json"
        atomic_write_text(path, json.dumps(self.record, indent=2, sort_keys=True) + "\n")
        return path


# The --speech-* and --text-* flags: name -> (EncoderConfig field, help).
_ARCH_FLAGS = {"layers": ("n_layers", "encoder layers"), "dim": ("d_model", "embedding dim"),
               "heads": ("n_heads", "attention heads"), "ff": ("d_ff", "feed-forward dim"),
               "max_len": ("max_len", "max sequence length")}


def _encoder_config(args, modality: str, vocab_size: int) -> EncoderConfig:
    """The --speech-* or --text-* architecture flags as an EncoderConfig."""
    sizes = {field: getattr(args, f"{modality}_{name}") for name, (field, _) in _ARCH_FLAGS.items()}
    return EncoderConfig(**sizes, vocab_size=vocab_size, dropout_rate=args.dropout)


def _train_config(args, **overrides) -> TrainConfig:
    base = dict(peak_lr=args.lr, batch_size=args.batch_size, seed=args.seed,
                grad_clip=args.grad_clip, warmup_steps=args.warmup_steps)
    base.update(overrides)
    return TrainConfig(**base)


def _metrics_csv(rows: list[tuple]) -> str:
    lines = ["epoch,split,metric,value"] + [f"{e},{s},{m},{v}" for e, s, m, v in rows]
    return "\n".join(lines) + "\n"


def _report_rows(report: MetricReport, epoch, split) -> list[tuple]:
    return [(epoch, split, metric if scope == "all" else f"{metric}[{scope}]", value)
            for scope, metric, value in report.rows()]


def _print_report(report: MetricReport, title: str) -> None:
    print(title)
    for scope, metric, value in report.rows():
        print(f"  {scope:>10} {metric:<18} {value:.4f}")


def _train_examples(dataset, path):
    """The examples of the "train" split, else of the first split in the file."""
    if not dataset.splits:
        raise InputError(f"{path}: dataset has no examples")
    return dataset.subset("train" if "train" in dataset.splits else next(iter(dataset.splits)))


def cmd_gen_data(args) -> int:
    if args.name in ("", "..") or Path(args.name).name != args.name:
        raise UsageError(f"--name must be a bare file name, got {args.name!r}")
    out = _out_dir(args)
    manifest = Manifest("gen-data", args)
    dataset = generate_synthetic(args.n, seed=args.seed, mode=args.mode)
    path = out / args.name
    save_jsonl(dataset, path)
    manifest.add_output(path)
    manifest.write(out)
    print(f"wrote {path} ({args.n} examples, mode={args.mode})")
    return 0


def cmd_prepare(args) -> int:
    manifest = Manifest("prepare", args)
    manifest.add_input(args.dataset)
    examples = _train_examples(load_jsonl(args.dataset), args.dataset)
    vocab = build_vocab([ex.text for ex in examples], max_size=args.vocab_size)
    frames = np.concatenate([ex.frames for ex in examples])
    codebook = train_codebook(frames, k=args.codebook_size, seed=args.seed)
    out = _out_dir(args)
    vocab_path = out / "vocab.txt"
    codebook_path = out / "codebook.bin"
    vocab.save(vocab_path)
    codebook.save(codebook_path)
    manifest.add_output(vocab_path)
    manifest.add_output(codebook_path)
    manifest.write(out)
    print(f"wrote {vocab_path} ({vocab.size} ids) and {codebook_path} (K={codebook.k})")
    return 0


def cmd_pretrain(args) -> int:
    manifest = Manifest("pretrain", args)
    manifest.add_input(args.dataset)
    manifest.add_input(args.codebook)
    examples = _train_examples(load_jsonl(args.dataset), args.dataset)
    codebook = Codebook.load(args.codebook)
    corpus = [discretize(ex.frames, codebook, max_len=args.speech_max_len) for ex in examples]
    del examples  # their frames are not read again through training
    speech_cfg = _encoder_config(args, "speech", 5 + codebook.k)

    if args.resume:
        manifest.add_input(args.resume)
        state, meta, extras = _load_speech_encoder(args.resume, speech_cfg)
        step = meta.get("step")
        if type(step) is not int or step < 0:
            raise InputError(f"{args.resume}: no optimizer step (meta 'step') to resume from")
        if args.steps <= step:
            raise UsageError(f"--steps {args.steps} must exceed step {step}, the step of "
                             f"{args.resume} to resume from")
        moments = {k: {n: checked_block(args.resume, extras, f"adam.{k}.{n}", p.data.shape)
                       for n, p in state.params.items()} for k in "mv"}
        opt = AdamState(**moments, step=step)
    else:
        state = EncoderState.init(speech_cfg, np.random.default_rng(args.seed))
        opt = AdamState.fresh(state.params)

    cfg = _train_config(args, total_steps=args.steps)
    out = _out_dir(args)
    ckpt_path = out / "speech_encoder.ckpt"
    log_lines: list[str] = []

    def save_state() -> None:
        extras = {f"adam.{k}.{name}": getattr(opt, k)[name] for name in state.params for k in "mv"}
        save_encoder_checkpoint(ckpt_path, state, extra_meta={"step": opt.step},
                                extra_blocks=extras)

    def log(step, lr, loss) -> None:
        log_lines.append(f"{step} {lr:.10e} {loss:.10f}")
        if args.checkpoint_interval and step % args.checkpoint_interval == 0:
            save_state()

    run_pretraining(corpus, state, cfg, mask_rate=args.mask_rate, log_fn=log, opt=opt)
    save_state()
    log_path = out / "pretrain.log"
    atomic_write_text(log_path, "\n".join(log_lines) + "\n")
    manifest.add_output(ckpt_path)
    manifest.add_output(log_path)
    manifest.write(out)
    print(f"pretrained to step {opt.step}; checkpoint at {ckpt_path}")
    return 0


def _load_speech_encoder(path, cfg: EncoderConfig):
    """The speech encoder of checkpoint ``path`` under ``cfg``, with its meta and extra
    blocks: its sizes must be ``cfg``'s, and it takes ``cfg``'s dropout rate."""
    state, meta, extras = load_encoder_checkpoint(path)
    for name in ("n_layers", "d_model", "n_heads", "d_ff", "vocab_size", "max_len"):
        have, want = getattr(state.cfg, name), getattr(cfg, name)
        if have != want:
            raise InputError(f"{path}: pretrained speech encoder has {name} {have}, "
                             f"the requested configuration has {want}")
    return EncoderState(cfg, state.params), meta, extras


def _check_freeze(fusion: str, freeze: str) -> dict[str, bool]:
    """TrainConfig's freeze flags; each frozen encoder must be one ``fusion`` reads."""
    frozen = [modality for modality in ("speech", "text") if freeze in (modality, "both")]
    for modality in frozen:
        if modality not in FUSION_KINDS[fusion]:
            raise UsageError(f"--freeze {freeze} references the {modality} encoder, "
                             f"unused by {fusion}")
    return {"freeze_speech": "speech" in frozen, "freeze_text": "text" in frozen}


def _load_run_inputs(args, command: str):
    """Manifest, tokenized splits and encoder configs of a training command."""
    manifest = Manifest(command, args)
    for path in (args.dataset, args.vocab, args.codebook):
        manifest.add_input(path)
    dataset = load_jsonl(args.dataset)
    args.label_mode = dataset.label_mode
    vocab = Vocabulary.load(args.vocab)
    codebook = Codebook.load(args.codebook)
    splits = {split: tokenize_examples(dataset.subset(split), codebook, vocab,
                                       speech_max_len=args.speech_max_len,
                                       text_max_len=args.text_max_len)
              for split in dataset.splits}
    return (manifest, splits, _encoder_config(args, "speech", 5 + codebook.k),
            _encoder_config(args, "text", vocab.size))


def _train_one(args, manifest, splits, speech_cfg, text_cfg, fusion, freeze, seed,
               speech_checkpoint=None):
    """Build, train and test one model: the run behind `finetune` and each `ablate` cell.

    Returns the model, the fine-tuning result and the test-split report (None
    without a test split).
    """
    freeze_flags = _check_freeze(fusion, freeze)
    model = FusionModel.init(fusion, speech_cfg, text_cfg, HEAD_OUTPUTS[args.label_mode],
                             args.coattn_heads, np.random.default_rng(seed),
                             fusion_dropout=args.dropout)
    if speech_checkpoint and model.speech is not None:
        manifest.add_input(speech_checkpoint)
        model.speech.params = _load_speech_encoder(speech_checkpoint, model.speech.cfg)[0].params
    cfg = _train_config(args, seed=seed, **freeze_flags)
    result = run_finetune(splits["train"], splits.get("valid", []), model, cfg,
                          epochs=args.epochs, label_mode=args.label_mode)
    report = evaluate_model(model, splits["test"], args.label_mode, class_names=CLASS_NAMES) \
        if splits.get("test") else None
    return model, result, report


def cmd_finetune(args) -> int:
    manifest, splits, speech_cfg, text_cfg = _load_run_inputs(args, "finetune")
    if "train" not in splits:
        raise InputError(f"{args.dataset}: dataset has no train split")
    model, result, report = _train_one(args, manifest, splits, speech_cfg, text_cfg,
                                       args.fusion, args.freeze, args.seed,
                                       speech_checkpoint=args.speech_checkpoint)
    out = _out_dir(args)

    rows = [(h["epoch"], h["split"], h["metric"], h["value"]) for h in result.history]
    if report is not None:
        rows += _report_rows(report, "final", "test")
        _print_report(report, f"test metrics ({args.fusion}, freeze={args.freeze})")

    model_path = out / "model.ckpt"
    save_fusion_checkpoint(model_path, model, label_mode=args.label_mode,
                           extra_meta={"best_epoch": result.best_epoch})
    metrics_path = out / "metrics.csv"
    atomic_write_text(metrics_path, _metrics_csv(rows))
    manifest.add_output(model_path)
    manifest.add_output(metrics_path)
    manifest.write(out)
    print(f"wrote {model_path} and {metrics_path}")
    return 0


def cmd_evaluate(args) -> int:
    manifest = Manifest("evaluate", args)
    for path in (args.model, args.dataset, args.vocab, args.codebook):
        manifest.add_input(path)
    model, meta = load_fusion_checkpoint(args.model)
    dataset = load_jsonl(args.dataset)
    if dataset.label_mode != meta["label_mode"]:
        raise InputError(
            f"{args.dataset}: dataset label mode {dataset.label_mode!r} does not match "
            f"model {args.model} ({meta['label_mode']!r})")
    if args.split not in dataset.splits:
        raise InputError(f"{args.dataset}: no split {args.split!r}; the file has "
                         f"{', '.join(map(repr, dataset.splits)) or 'none'}")
    vocab = Vocabulary.load(args.vocab)
    codebook = Codebook.load(args.codebook)
    max_len = {modality: state.cfg.max_len for modality, state in model.encoders().items()}
    examples = tokenize_examples(dataset.subset(args.split), codebook, vocab,
                                 speech_max_len=max_len.get("speech"),
                                 text_max_len=max_len.get("text"))
    report = evaluate_model(model, examples, meta["label_mode"], class_names=CLASS_NAMES)
    out = _out_dir(args)
    _print_report(report, f"metrics on split {args.split!r}")
    metrics_path = out / "eval_metrics.csv"
    atomic_write_text(metrics_path, _metrics_csv(_report_rows(report, "final", args.split)))
    manifest.add_output(metrics_path)
    manifest.write(out)
    return 0


def _ablation_table(mean_rows: dict[str, dict[str, float]]) -> str:
    metrics = ["acc4"] + [f"ba[{c}]" for c in CLASS_NAMES] + [f"f1[{c}]" for c in CLASS_NAMES]
    header = f"{'cell':<16}" + "".join(f"{m:>14}" for m in metrics)
    lines = [header, "-" * len(header)]
    for cell, _, _ in ABLATION_CELLS:
        vals = mean_rows[cell]
        lines.append(f"{cell:<16}" + "".join(f"{vals[m]:>14.4f}" for m in metrics))
    return "\n".join(lines) + "\n"


def cmd_ablate(args) -> int:
    manifest, splits, speech_cfg, text_cfg = _load_run_inputs(args, "ablate")
    if args.label_mode != "categorical":
        raise InputError(f"{args.dataset}: the ablation grid needs a categorical dataset")
    for required in ("train", "valid", "test"):
        if not splits.get(required):
            raise InputError(f"{args.dataset}: ablation needs a non-empty {required!r} split")

    csv_rows = []
    mean_rows: dict[str, dict[str, float]] = {}
    for cell, fusion, freeze in ABLATION_CELLS:
        per_metric: dict[str, list[float]] = {}
        for rep in range(args.reps):
            seed = args.seed + rep
            _, _, report = _train_one(args, manifest, splits, speech_cfg, text_cfg,
                                      fusion, freeze, seed)
            values = {"acc4": report.accuracy4}
            for cls in CLASS_NAMES:
                values[f"ba[{cls}]"] = report.per_class[cls]["binary_accuracy"]
                values[f"f1[{cls}]"] = report.per_class[cls]["f1"]
            for metric, value in values.items():
                per_metric.setdefault(metric, []).append(value)
                csv_rows.append((cell, rep, seed, metric, value))
            print(f"{cell} rep={rep} seed={seed} acc4={report.accuracy4:.4f}")
        mean_rows[cell] = {m: float(np.mean(v)) for m, v in per_metric.items()}
    table = _ablation_table(mean_rows)
    print(table)

    mean = {cell: row["acc4"] for cell, row in mean_rows.items()}
    observations = {
        "finetuned_ge_frozen_shallow": mean["shallow-ft"] >= mean["shallow-frozen"],
        "coattn_beats_shallow_when_frozen": mean["coattn-frozen"] > mean["shallow-frozen"],
        "bimodal_beats_unimodal": mean["shallow-ft"] > max(
            mean[cell] for cell, fusion, _ in ABLATION_CELLS if len(FUSION_KINDS[fusion]) == 1),
    }
    for name, value in observations.items():
        print(f"observation {name}: {value}")
    manifest.record["observations"] = observations

    out = _out_dir(args)
    csv_path = out / "ablation.csv"
    lines = ["cell,rep,seed,metric,value"]
    lines += [f"{c},{r},{s},{m},{v}" for c, r, s, m, v in csv_rows]
    atomic_write_text(csv_path, "\n".join(lines) + "\n")
    table_path = out / "ablation.txt"
    atomic_write_text(table_path, table)
    manifest.add_output(csv_path)
    manifest.add_output(table_path)
    manifest.write(out)
    return 0


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--out-dir", default=None,
                   help="output directory (default: $EMOFUSE_OUT or ./runs)")
    p.add_argument("--seed", type=_int_at_least(0), default=0, help="master random seed")
    p.add_argument("--config", default=None,
                   help="key = value config file; explicit flags win")


def _add_train(p: argparse.ArgumentParser) -> None:
    """Architecture and optimizer flags of pretrain, finetune and ablate."""
    for modality, desk in (("speech", SPEECH_DESK), ("text", TEXT_DESK)):
        for name, (field, text) in _ARCH_FLAGS.items():
            p.add_argument(f"--{modality}-{name.replace('_', '-')}",
                           type=_int_at_least(2 if name == "max_len" else 1),
                           default=getattr(desk, field), help=f"{modality} {text}")
    p.add_argument("--dropout", type=float, default=EncoderConfig.dropout_rate,
                   help="dropout rate")
    p.add_argument("--lr", type=float, default=TrainConfig.peak_lr, help="peak learning rate")
    p.add_argument("--batch-size", type=_int_at_least(1), default=TrainConfig.batch_size,
                   help="effective batch size")
    p.add_argument("--warmup-steps", type=int, default=TrainConfig.warmup_steps,
                   help="warmup updates (default: 6%% of total)")
    p.add_argument("--grad-clip", type=float, default=TrainConfig.grad_clip,
                   help="global gradient-norm clip")


def _add_fusion_run(p: argparse.ArgumentParser) -> None:
    """Flags of the run behind `finetune` and each `ablate` cell."""
    _add_inputs(p, "dataset", "vocab", "codebook")
    p.add_argument("--epochs", type=_int_at_least(1), default=10, help="training epochs")
    p.add_argument("--coattn-heads", type=_int_at_least(1), default=4, help="co-attention heads")


_INPUT_HELP = {"dataset": "dataset JSONL path", "vocab": "vocabulary file path",
               "codebook": "codebook file path"}


def _add_inputs(p: argparse.ArgumentParser, *names: str) -> None:
    for name in names:
        p.add_argument(f"--{name}", required=True, help=_INPUT_HELP[name])


def build_parser(parser_class: type[_Parser] = _Parser) -> argparse.ArgumentParser:
    parser = parser_class(prog="emofuse", allow_abbrev=False, description=__doc__,
                          formatter_class=_HelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)
    add = lambda name, text: sub.add_parser(name, help=text, formatter_class=_HelpFormatter,
                                            allow_abbrev=False)

    p = add("gen-data", "generate a synthetic bimodal dataset")
    p.add_argument("--n", type=_int_at_least(40), default=200, help="number of examples")
    p.add_argument("--mode", choices=("categorical", "score"), default="categorical",
                   help="label kind")
    p.add_argument("--name", default="dataset.jsonl", help="output file name")
    _add_common(p)
    p.set_defaults(func=cmd_gen_data)

    p = add("prepare", "build the vocabulary and speech codebook")
    _add_inputs(p, "dataset")
    p.add_argument("--vocab-size", type=_int_at_least(N_SPECIALS + 1), default=2000,
                   help="max vocabulary size")
    p.add_argument("--codebook-size", type=_int_at_least(1), default=256,
                   help="codebook entries K")
    _add_common(p)
    p.set_defaults(func=cmd_prepare)

    p = add("pretrain", "masked-token pretraining of the speech encoder")
    _add_inputs(p, "dataset", "codebook")
    p.add_argument("--steps", type=_int_at_least(1), default=500, help="total update steps")
    p.add_argument("--mask-rate", type=_checked(float, lambda rate: 0.0 < rate <= 1.0, "in (0, 1]"),
                   default=0.15, help="masking probability")
    p.add_argument("--resume", default=None, help="checkpoint to resume from")
    p.add_argument("--checkpoint-interval", type=_int_at_least(0), default=0,
                   help="write the checkpoint every N steps (0: only at the end)")
    _add_common(p)
    _add_train(p)
    p.set_defaults(func=cmd_pretrain)

    p = add("finetune", "train a fusion model on a labeled dataset")
    _add_fusion_run(p)
    p.add_argument("--fusion", choices=FUSION_KINDS, default="shallow",
                   help="fusion mechanism")
    p.add_argument("--freeze", choices=FREEZE_CHOICES, default="none",
                   help="encoders to exclude from training")
    p.add_argument("--speech-checkpoint", default=None,
                   help="pretrained speech encoder checkpoint")
    _add_common(p)
    _add_train(p)
    p.set_defaults(func=cmd_finetune)

    p = add("evaluate", "evaluate a fusion checkpoint on a dataset split")
    p.add_argument("--model", required=True, help="fusion checkpoint path")
    _add_inputs(p, "dataset", "vocab", "codebook")
    p.add_argument("--split", default="test", help="dataset split to evaluate")
    _add_common(p)
    p.set_defaults(func=cmd_evaluate)

    p = add("ablate", "run the fusion/freeze ablation grid")
    _add_fusion_run(p)
    p.add_argument("--reps", type=_int_at_least(1), default=3, help="repetitions per cell")
    _add_common(p)
    _add_train(p)
    p.set_defaults(func=cmd_ablate)

    return parser


def parse_args(argv: list[str]) -> argparse.Namespace:
    """Parse a command line, reading its --config file as flags.

    Each ``key = value`` line becomes the token ``--key=value``, placed before
    argv's own flags: config values get the flags' types and checks, and
    explicit flags win. A required flag may come from either; one missing
    from both is a usage error. A line the parser rejects, or one naming
    another config file, is an InputError naming ``path:lineno``.
    """
    lenient = build_parser(_NothingRequired)
    config = getattr(lenient.parse_args(argv), "config", None)  # None without a command
    if config is None:
        return build_parser().parse_args(argv)
    try:
        lines = Path(config).read_text(encoding="utf-8").splitlines()
    except (OSError, UnicodeDecodeError) as err:
        raise InputError(f"config file {config}: {err}") from None
    tokens = []
    for lineno, line in enumerate(lines, start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        key, eq, value = (part.strip() for part in line.partition("="))
        token = f"--{key.replace('_', '-')}={value}"
        try:
            if not eq:
                raise UsageError("expected 'key = value'")
            if key == "config":
                raise UsageError("a config file cannot name another config file")
            lenient.parse_args([argv[0], token, *argv[1:]])
        except UsageError as err:
            raise InputError(f"{config}:{lineno}: {err}") from None
        tokens.append(token)
    return build_parser().parse_args([argv[0], *tokens, *argv[1:]])


def main(argv=None) -> int:
    try:
        args = parse_args(list(sys.argv[1:] if argv is None else argv))
        # The numeric guards raise NumericError where a value goes non-finite, so NumPy's
        # own floating-point warnings would only repeat it, as noise before the message.
        with np.errstate(all="ignore"):
            return args.func(args)
    except UsageError as err:
        print(f"usage error: {err}", file=sys.stderr)
        return 1
    except InputError as err:
        print(f"input error: {err}", file=sys.stderr)
        return 2
    except NumericError as err:
        print(f"numeric error: {err}", file=sys.stderr)
        return 3
    except EmofuseError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
