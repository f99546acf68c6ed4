"""Evaluation metrics: one-vs-rest binary accuracy and F1, acc7, MAE.

Conventions pinned here because the source protocols leave them open:
the 4-class "unweighted" accuracy is the macro average of per-class recalls;
F1 is 0 whenever precision and recall are both 0 (including the
never-predicted, never-gold case); acc7 rounds half away from zero and
clamps to [-3, 3] before comparing.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import InputError


def _check_lengths(preds, golds) -> tuple[np.ndarray, np.ndarray]:
    p = np.asarray(preds)
    g = np.asarray(golds)
    if p.shape != g.shape or p.ndim != 1:
        raise InputError(f"prediction/gold shapes differ: {p.shape} vs {g.shape}")
    if p.size < 1:
        raise InputError("metrics need at least one example")
    return p, g


def binary_accuracy(preds, golds, cls: int) -> float:
    """One-vs-rest accuracy for a single class."""
    p, g = _check_lengths(preds, golds)
    return float(((p == cls) == (g == cls)).mean())


def f1_score(preds, golds, cls: int) -> float:
    """One-vs-rest F1; 0 when precision and recall are both 0."""
    p, g = _check_lengths(preds, golds)
    tp = int(np.sum((p == cls) & (g == cls)))
    fp = int(np.sum((p == cls) & (g != cls)))
    fn = int(np.sum((p != cls) & (g == cls)))
    if tp == 0:
        return 0.0
    precision = tp / (tp + fp)
    recall = tp / (tp + fn)
    return 2.0 * precision * recall / (precision + recall)


def unweighted_accuracy(preds, golds, n_classes: int = 4) -> float:
    """Macro average of per-class recalls over the classes present in gold."""
    p, g = _check_lengths(preds, golds)
    recalls = []
    for cls in range(n_classes):
        mask = g == cls
        if mask.any():
            recalls.append(float((p[mask] == cls).mean()))
    if not recalls:
        raise InputError("gold labels contain none of the expected classes")
    return float(np.mean(recalls))


def _round_half_away(x: np.ndarray) -> np.ndarray:
    return np.copysign(np.floor(np.abs(x) + 0.5), x)


def acc7(pred_scores, gold_scores) -> float:
    """Seven-class accuracy from real scores binned to the integers -3..3."""
    p, g = _check_lengths(pred_scores, gold_scores)
    if (np.abs(g) > 3.0).any():
        raise InputError("gold scores must lie in [-3, 3]")
    pb = np.clip(_round_half_away(p), -3, 3)
    gb = np.clip(_round_half_away(g), -3, 3)
    return float((pb == gb).mean())


def mae(pred_scores, gold_scores) -> float:
    p, g = _check_lengths(pred_scores, gold_scores)
    return float(np.abs(p - g).mean())


@dataclass
class MetricReport:
    """Per-class and aggregate metrics for one evaluation run."""

    mode: str
    n_examples: int
    per_class: dict[str, dict[str, float]] = field(default_factory=dict)
    accuracy4: float | None = None
    acc7: float | None = None
    mae: float | None = None

    def rows(self) -> list[tuple[str, str, float]]:
        """(scope, metric, value) rows for CSV emission."""
        out: list[tuple[str, str, float]] = []
        for name, vals in self.per_class.items():
            out.append((name, "binary_accuracy", vals["binary_accuracy"]))
            out.append((name, "f1", vals["f1"]))
        for metric in ("accuracy4", "acc7", "mae"):
            if getattr(self, metric) is not None:
                out.append(("all", metric, getattr(self, metric)))
        out.append(("all", "n_examples", float(self.n_examples)))
        return out


def evaluate_classification(preds, golds, class_names=None) -> MetricReport:
    class_names = list(class_names) if class_names else [f"class{i}" for i in range(4)]
    p, g = _check_lengths(preds, golds)
    report = MetricReport(mode="categorical", n_examples=int(p.size))
    for cls, name in enumerate(class_names):
        report.per_class[name] = {
            "binary_accuracy": binary_accuracy(p, g, cls),
            "f1": f1_score(p, g, cls),
        }
    report.accuracy4 = unweighted_accuracy(p, g, n_classes=len(class_names))
    return report


def evaluate_scores(pred_scores, gold_scores) -> MetricReport:
    p, g = _check_lengths(pred_scores, gold_scores)
    return MetricReport(
        mode="score",
        n_examples=int(p.size),
        acc7=acc7(p, g),
        mae=mae(p, g),
    )
