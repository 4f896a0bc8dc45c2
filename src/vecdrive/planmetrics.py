"""Open-loop planning metrics: horizon displacement, collision, latency.

Displacement and collision are reported at the 1 s / 2 s / 3 s horizons
(waypoint indices 2, 4, 6 of the 2 Hz trajectory) plus their mean.
Collision per sample is binary up to each horizon; dataset-level rates
average those binaries, so rates are monotone over horizons by
construction. Trajectories are in the scenario's frame, where the ego
starts at the origin with heading 0 (``scene``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import chain
from typing import Callable, Iterable, Sequence

from . import textmetrics
from .scene import AgentTrack, Point, T_F

HORIZON_KEYS = ("1s", "2s", "3s")
#: 1-based waypoint index per horizon at 0.5 s per step.
HORIZON_STEPS = {"1s": 2, "2s": 4, "3s": 6}

#: Ego footprint (length, width) in meters used by collision evaluation;
#: the scenario schema carries agent extents but not the ego's.
EGO_EXTENT = (4.0, 1.8)


def _with_avg(values: dict[str, float]) -> dict[str, float]:
    out = dict(values)
    out["avg"] = sum(values[k] for k in HORIZON_KEYS) / len(HORIZON_KEYS)
    return out


#: How far a row's avg may stray from the mean of its horizons, relative to
#: it. ``mean_rows`` averages the per-sample avgs, and with every term >= 0
#: the two orders of summation differ by at most about rows * 2.2e-16
#: relatively: 1e-9 covers four million rows.
AVG_REL_TOL = 1e-9


@dataclass(frozen=True)
class PlanEvalRow:
    """One row of the displacement/collision table."""

    l2: dict[str, float]          # meters, keys 1s/2s/3s/avg
    collision: dict[str, float]   # percent, keys 1s/2s/3s/avg

    def validate(self) -> None:
        for name, group in (("l2", self.l2), ("collision", self.collision)):
            for key in (*HORIZON_KEYS, "avg"):
                if not (math.isfinite(group[key]) and group[key] >= 0):
                    raise ValueError(f"{name}[{key}]={group[key]} is not finite and >= 0")
            mean = sum(group[k] for k in HORIZON_KEYS) / len(HORIZON_KEYS)
            if not math.isclose(group["avg"], mean, rel_tol=AVG_REL_TOL, abs_tol=1e-12):
                raise ValueError(f"{name}[avg] {group['avg']} != mean {mean}")
        # Collision flags are cumulative per sample, so the rates cannot
        # exceed 100 or fall from one horizon to the next.
        rates = [self.collision[k] for k in HORIZON_KEYS]
        if rates != sorted(rates) or rates[-1] > 100.0:
            raise ValueError(f"collision rates {rates} must not fall over the horizons "
                             "or exceed 100")


@dataclass(frozen=True)
class TextEvalRow:
    """One row of the explanation-quality table (0..100 except CIDEr).

    ``meteor_inexact_pairs`` counts the pairs whose METEOR chunk search
    hit its budget (see ``textmetrics.METEOR_BUDGET``).
    """

    bleu: float
    meteor: float
    rouge_l: float
    cider: float
    gpt_score: float | None = None
    meteor_inexact_pairs: int = 0

    def validate(self) -> None:
        for name in ("bleu", "meteor", "rouge_l"):
            v = getattr(self, name)
            if not (0.0 <= v <= 100.0):
                raise ValueError(f"{name}={v} outside [0, 100]")
        if not (math.isfinite(self.cider) and self.cider >= 0):
            raise ValueError(f"cider={self.cider} is not finite and >= 0")
        if self.gpt_score is not None and not (1.0 <= self.gpt_score <= 5.0):
            raise ValueError(f"gpt_score={self.gpt_score} outside [1, 5]")
        inexact = self.meteor_inexact_pairs
        if isinstance(inexact, bool) or not isinstance(inexact, int) or inexact < 0:
            raise ValueError(f"meteor_inexact_pairs={inexact!r} is not a count")


#: Optional external judge: (candidate text, reference text) -> score in [1, 5].
JudgeHook = Callable[[str, str], float]


def evaluate_explanations(candidates: Sequence[str], references: Sequence[str],
                          judge: JudgeHook | None = None) -> TextEvalRow:
    """Score explanation texts against references.

    BLEU and CIDEr are corpus-level; METEOR and ROUGE-L are per-pair
    means. The judge hook, when registered, supplies the mean gpt_score;
    without one the field stays absent. Pairs whose METEOR chunk search
    hit its budget are counted in ``meteor_inexact_pairs``.
    """
    if len(candidates) != len(references):
        raise ValueError(f"{len(candidates)} candidates vs {len(references)} references")
    if not candidates:
        raise ValueError("empty corpus")
    # Each distinct text is tokenised once, so an identical pair holds one
    # token list as both its candidate and its reference.
    tokens = {text: textmetrics.tokenize(text)
              for text in dict.fromkeys(chain(candidates, references))}
    cand_tokens = list(map(tokens.__getitem__, candidates))
    ref_tokens = list(map(tokens.__getitem__, references))
    n = len(candidates)
    gpt_score = None
    if judge is not None:
        gpt_score = sum(judge(c, r) for c, r in zip(candidates, references)) / n
    corpus = textmetrics.ngram_corpus(cand_tokens, ref_tokens)
    exact: list[bool] = []
    row = TextEvalRow(
        bleu=textmetrics.bleu(corpus),
        meteor=sum(textmetrics.meteor(c, r, exact)
                   for c, r in zip(cand_tokens, ref_tokens)) / n,
        rouge_l=sum(textmetrics.rouge_l(c, r)
                    for c, r in zip(cand_tokens, ref_tokens)) / n,
        cider=textmetrics.cider(corpus),
        gpt_score=gpt_score,
        meteor_inexact_pairs=exact.count(False),
    )
    row.validate()
    return row


def l2_horizons(pred: Sequence[Point], gt: Sequence[Point]) -> dict[str, float]:
    """Euclidean displacement at each horizon plus the mean, in meters."""
    if len(pred) != T_F or len(gt) != T_F:
        raise ValueError(f"trajectories must have {T_F} waypoints")
    out = {}
    for key, step in HORIZON_STEPS.items():
        (px, py), (gx, gy) = pred[step - 1], gt[step - 1]
        out[key] = math.hypot(px - gx, py - gy)
    return _with_avg(out)


@dataclass(frozen=True)
class OrientedBox:
    center: Point
    heading: float
    length: float
    width: float

    def corners(self) -> list[Point]:
        c, s = math.cos(self.heading), math.sin(self.heading)
        hl, hw = self.length / 2.0, self.width / 2.0
        cx, cy = self.center
        return [
            (cx + c * dx - s * dy, cy + s * dx + c * dy)
            for dx, dy in ((hl, hw), (hl, -hw), (-hl, -hw), (-hl, hw))
        ]


def _axes(box: OrientedBox) -> list[Point]:
    c, s = math.cos(box.heading), math.sin(box.heading)
    return [(c, s), (-s, c)]


def separation_margin(a: OrientedBox, b: OrientedBox) -> float:
    """Signed gap from the separating-axis test over the 4 edge normals.

    Positive: the boxes are separated by at least this much along some
    axis. Negative: they overlap, with magnitude equal to the minimum
    translation distance. Zero: touching.
    """
    corners_a = a.corners()
    corners_b = b.corners()
    margin = -math.inf
    for ax, ay in _axes(a) + _axes(b):
        proj_a = [ax * x + ay * y for x, y in corners_a]
        proj_b = [ax * x + ay * y for x, y in corners_b]
        gap = max(min(proj_b) - max(proj_a), min(proj_a) - max(proj_b))
        margin = max(margin, gap)
    return margin


def boxes_overlap(a: OrientedBox, b: OrientedBox) -> bool:
    """True iff the rotated rectangles intersect; touching counts.

    Equal to ``separation_margin(a, b) <= 0.0``, but stops at the first
    axis whose gap is positive. A NaN gap separates nothing, as the
    margin's ``max`` skips it.
    """
    corners_a = a.corners()
    corners_b = b.corners()
    for ax, ay in _axes(a) + _axes(b):
        proj_a = [ax * x + ay * y for x, y in corners_a]
        proj_b = [ax * x + ay * y for x, y in corners_b]
        if max(min(proj_b) - max(proj_a), min(proj_a) - max(proj_b)) > 0.0:
            return False
    return True


def ego_headings(pred: Sequence[Point]) -> list[float]:
    """Per-step ego heading from consecutive waypoint segments.

    The segment before waypoint 1 starts at the origin, where the ego is.
    Segments shorter than 1e-6 m reuse the previous heading, which before
    the first longer segment is the ego's own, 0.
    """
    headings = []
    prev_point = (0.0, 0.0)
    prev_heading = 0.0
    for point in pred:
        dx, dy = point[0] - prev_point[0], point[1] - prev_point[1]
        if math.hypot(dx, dy) >= 1e-6:
            prev_heading = math.atan2(dy, dx)
        headings.append(prev_heading)
        prev_point = point
    return headings


def collision_horizons(pred: Sequence[Point], agents: Sequence[AgentTrack]) -> dict[str, float]:
    """Binary collision (0 or 100) up to each horizon for one sample.

    At step k an ``EGO_EXTENT`` box sits on pred[k] with the heading
    ``ego_headings(pred)`` gives; each agent box sits on its ground-truth
    future point with its fixed current heading. Pairs whose bounding
    circles are apart skip the separating-axis test, and the scan stops at
    the first colliding step; the flags are those of testing every pair.
    """
    if len(pred) != T_F:
        raise ValueError(f"predicted trajectory must have {T_F} waypoints")
    for agent in agents:
        if len(agent.future) != T_F:
            raise ValueError(f"agent {agent.id} future has {len(agent.future)} points")
    headings = ego_headings(pred)
    ego_length, ego_width = EGO_EXTENT
    ego_reach = 0.5 * math.hypot(ego_length, ego_width)
    reaches = [ego_reach + 0.5 * math.hypot(agent.extent[0], agent.extent[1])
               for agent in agents]
    first_hit = T_F + 1  # 1-based step of the first collision
    for k in range(T_F):
        px, py = pred[k]
        ego_box = None
        for agent, reach in zip(agents, reaches):
            ax, ay = agent.future[k]
            # Bounding circles apart beyond a slack relative to the reach
            # and the coordinates, so rounding in the separating-axis test
            # cannot call a skipped pair overlapping. A NaN keeps the pair.
            slack = 1e-9 * (1.0 + reach + abs(px) + abs(py) + abs(ax) + abs(ay))
            if math.hypot(ax - px, ay - py) - reach > slack:
                continue
            if ego_box is None:
                ego_box = OrientedBox(pred[k], headings[k], ego_length, ego_width)
            if boxes_overlap(ego_box, OrientedBox(agent.future[k], agent.heading,
                                                  agent.extent[0], agent.extent[1])):
                first_hit = k + 1
                break
        if first_hit <= T_F:
            break
    out = {key: 100.0 if first_hit <= step else 0.0 for key, step in HORIZON_STEPS.items()}
    return _with_avg(out)


def mean_rows(rows: Iterable[dict[str, float]]) -> dict[str, float]:
    """Elementwise mean of per-sample horizon dicts."""
    rows = list(rows)
    if not rows:
        raise ValueError("no rows to average")
    keys = (*HORIZON_KEYS, "avg")
    return {k: sum(r[k] for r in rows) / len(rows) for k in keys}


def latency_stats(samples: Sequence[float]) -> dict[str, float]:
    """Mean and nearest-rank p50/p95 of a list of durations in seconds."""
    if not samples:
        raise ValueError("empty sample list")
    ordered = sorted(samples)
    n = len(ordered)

    def nearest_rank(p: float) -> float:
        rank = math.ceil(p / 100.0 * n)
        return ordered[max(rank, 1) - 1]

    return {
        "mean": sum(ordered) / n,
        "p50": nearest_rank(50.0),
        "p95": nearest_rank(95.0),
    }
