"""Aligned plain-text tables and JSON emission for evaluation results.

Column layouts mirror the standard open-loop reporting conventions:
displacement/collision per horizon with averages, explanation quality
(BLEU / METEOR / ROUGE-L / CIDEr and optional GPT-Score), planning
accuracy, and per-format latency.
"""

from __future__ import annotations

import math

from .planmetrics import HORIZON_KEYS, PlanEvalRow, TextEvalRow


def _format_table(header: list[str], rows: list[list[str]]) -> str:
    widths = [len(h) for h in header]
    for row in rows:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    lines = []
    lines.append("  ".join(h.ljust(widths[i]) for i, h in enumerate(header)).rstrip())
    lines.append("  ".join("-" * w for w in widths))
    for row in rows:
        lines.append("  ".join(cell.ljust(widths[i])
                               for i, cell in enumerate(row)).rstrip())
    return "\n".join(lines) + "\n"


def render_plan_table(rows: dict[str, PlanEvalRow]) -> str:
    header = ["Method",
              "L2 1s (m)", "L2 2s (m)", "L2 3s (m)", "L2 Avg (m)",
              "Col 1s (%)", "Col 2s (%)", "Col 3s (%)", "Col Avg (%)"]
    body = []
    for name, row in rows.items():
        body.append([name]
                    + [f"{row.l2[k]:.2f}" for k in (*HORIZON_KEYS, "avg")]
                    + [f"{row.collision[k]:.2f}" for k in (*HORIZON_KEYS, "avg")])
    return _format_table(header, body)


def render_text_table(rows: dict[str, TextEvalRow]) -> str:
    with_judge = any(row.gpt_score is not None for row in rows.values())
    with_inexact = any(row.meteor_inexact_pairs for row in rows.values())
    header = ["Method", "BLEU", "METEOR", "ROUGE-L", "CIDEr"]
    if with_judge:
        header.append("GPT-Score")
    if with_inexact:
        header.append("METEOR inexact pairs")
    body = []
    for name, row in rows.items():
        cells = [name, f"{row.bleu:.2f}", f"{row.meteor:.2f}",
                 f"{row.rouge_l:.2f}", f"{row.cider:.2f}"]
        if with_judge:
            cells.append("-" if row.gpt_score is None else f"{row.gpt_score:.2f}")
        if with_inexact:
            cells.append(str(row.meteor_inexact_pairs))
        body.append(cells)
    return _format_table(header, body)


def render_actions_table(rows: dict[str, float]) -> str:
    header = ["Method", "Accuracy (%)"]
    body = [[name, f"{acc:.2f}"] for name, acc in rows.items()]
    return _format_table(header, body)


def render_confusion(confusion: dict[str, dict[str, int]]) -> str:
    labels = sorted(confusion)
    header = ["Label \\ Decided"] + labels
    body = []
    for label in labels:
        body.append([label] + [str(confusion[label].get(d, 0)) for d in labels])
    return _format_table(header, body)


def render_latency_table(rows: dict[str, dict[str, float]]) -> str:
    """Rows of ``bench.json`` (seconds) rendered in milliseconds."""
    header = ["Format", "Mean (ms)", "p50 (ms)", "p95 (ms)"]
    body = [
        [name, *(f"{s[key] * 1e3:.3f}" for key in ("mean", "p50", "p95"))]
        for name, s in rows.items()
    ]
    return _format_table(header, body)


def plan_row_from_dict(obj: dict) -> PlanEvalRow:
    row = PlanEvalRow(l2=dict(obj["l2"]), collision=dict(obj["collision"]))
    row.validate()
    return row


def accuracy_from_dict(obj: dict) -> float:
    """The accuracy of an ``eval_actions`` row; its confusion holds counts."""
    accuracy = obj["accuracy"]
    if not (0.0 <= accuracy <= 100.0):
        raise ValueError(f"accuracy={accuracy} outside [0, 100]")
    for label, decided in obj.get("confusion", {}).items():
        for action, count in decided.items():
            if isinstance(count, bool) or not isinstance(count, int) or count < 0:
                raise ValueError(f"confusion[{label}][{action}]={count!r} is not a count")
    return accuracy


def latency_from_dict(obj: dict) -> dict[str, float]:
    """The mean/p50/p95 of a ``bench`` row: finite, >= 0, and p50 <= p95."""
    stats = {key: obj[key] for key in ("mean", "p50", "p95")}
    for key, value in stats.items():
        if not (math.isfinite(value) and value >= 0):
            raise ValueError(f"{key}={value} is not finite and >= 0")
    if stats["p50"] > stats["p95"]:
        raise ValueError(f"p50={stats['p50']} > p95={stats['p95']}")
    return stats


def text_row_to_dict(row: TextEvalRow) -> dict:
    out = {"bleu": row.bleu, "meteor": row.meteor,
           "rouge_l": row.rouge_l, "cider": row.cider}
    if row.gpt_score is not None:
        out["gpt_score"] = row.gpt_score
    if row.meteor_inexact_pairs:
        out["meteor_inexact_pairs"] = row.meteor_inexact_pairs
    return out


def text_row_from_dict(obj: dict) -> TextEvalRow:
    row = TextEvalRow(
        bleu=obj["bleu"], meteor=obj["meteor"], rouge_l=obj["rouge_l"],
        cider=obj["cider"], gpt_score=obj.get("gpt_score"),
        meteor_inexact_pairs=obj.get("meteor_inexact_pairs", 0),
    )
    row.validate()
    return row
