"""Rule-based maneuver oracle: meta-action + rationale, QA generation.

The oracle starts from the navigation intent and applies a safety
override: if a vulnerable road user (pedestrian or cyclist) will enter
the geometric corridor of the intended turn within the 3 s horizon, the
turn is postponed and GO_STRAIGHT is recommended instead, with the
offending agents reported as hazards. Straight intents are never
overridden.

Corridor geometry: a 3.5 m wide swath (1.75 m each side of the
centerline) along a quarter-circle arc of radius 8 m curving from the
ego position toward the turn side, together with a 10 m straight
approach segment ahead of the ego. Both pieces start at the ego
position, matching the turn trajectories the scenario generator emits.
A scenario is in the ego's frame (``scene``), so every point is read as
it is stored.

All rationale text comes from fixed templates with numeric slots, so the
text-quality metrics have deterministic references. The LONG format adds
a per-sector scene description (front / left / right by bearing).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Protocol

from .scene import (
    AgentKind,
    AgentTrack,
    Label,
    MapKind,
    MetaAction,
    Point,
    Scenario,
    VRU_KINDS,
)

TURN_RADIUS = 8.0
CORRIDOR_HALF_WIDTH = 1.75
APPROACH_LENGTH = 10.0

#: Marker phrase present in every override rationale.
POSTPONEMENT_CLAUSE = "postponing the"


class Format(Label):
    SHORT = "short"
    LONG = "long"

    @classmethod
    def parse(cls, label: str) -> "Format":
        try:
            return cls(label.lower())
        except ValueError:
            raise ValueError(f"unknown rationale format {label!r}") from None


@dataclass(frozen=True)
class MetaDecision:
    action: MetaAction
    rationale_short: str
    rationale_long: str
    hazard_ids: tuple[int, ...] = ()

    def validate(self, scenario: Scenario | None = None) -> None:
        if not self.rationale_short:
            raise ValueError("rationale_short must be nonempty")
        if not self.rationale_long:
            raise ValueError("rationale_long must be nonempty")
        if self.rationale_short not in self.rationale_long:
            raise ValueError("rationale_long must contain the short justification")
        if len(set(self.hazard_ids)) != len(self.hazard_ids):
            raise ValueError(f"hazard ids {list(self.hazard_ids)} name an agent more than once")
        if scenario is not None:
            agent_ids = {a.id for a in scenario.agents}
            unknown = [i for i in self.hazard_ids if i not in agent_ids]
            if unknown:
                raise ValueError(f"hazard ids {unknown} not present in scenario")

    def rationale(self, format: Format) -> str:
        """The rationale an answer in ``format`` carries."""
        return self.rationale_long if format is Format.LONG else self.rationale_short


class Oracle(Protocol):
    """Anything that can decide a maneuver for a scenario."""

    def decide(self, scenario: Scenario, format: Format = Format.SHORT) -> MetaDecision:
        ...


# --- corridor geometry --------------------------------------------------------

def _segment_distance(p: Point, a: Point, b: Point) -> float:
    ax, ay = a
    bx, by = b
    px, py = p
    vx, vy = bx - ax, by - ay
    seg_len_sq = vx * vx + vy * vy
    if seg_len_sq == 0.0:
        return math.hypot(px - ax, py - ay)
    t = max(0.0, min(1.0, ((px - ax) * vx + (py - ay) * vy) / seg_len_sq))
    return math.hypot(px - (ax + t * vx), py - (ay + t * vy))


def corridor_centerline_distance(p: Point, side: MetaAction) -> float:
    """Distance from a point to the turn-corridor centerline.

    The centerline is the union of the straight approach segment
    (0,0)-(APPROACH_LENGTH,0) and the quarter arc of radius TURN_RADIUS
    starting at the origin with tangent +x, curving toward ``side``.
    """
    if side not in (MetaAction.TURN_LEFT, MetaAction.TURN_RIGHT):
        raise ValueError(f"corridor side must be a turn, got {side}")
    d_approach = _segment_distance(p, (0.0, 0.0), (APPROACH_LENGTH, 0.0))

    sign = 1.0 if side is MetaAction.TURN_LEFT else -1.0
    # Mirror right turns into the left-turn configuration.
    x, y = p[0], sign * p[1]
    cx, cy = 0.0, TURN_RADIUS
    dx, dy = x - cx, y - cy
    # Arc spans angles [-pi/2, 0] around the center (from (0,0) to (8,8)).
    angle = math.atan2(dy, dx)
    if -math.pi / 2 <= angle <= 0.0:
        d_arc = abs(math.hypot(dx, dy) - TURN_RADIUS)
    else:
        d_arc = min(math.hypot(x - 0.0, y - 0.0),
                    math.hypot(x - TURN_RADIUS, y - TURN_RADIUS))
    return min(d_approach, d_arc)


def point_in_turn_corridor(p: Point, side: MetaAction) -> bool:
    return corridor_centerline_distance(p, side) <= CORRIDOR_HALF_WIDTH


def corridor_hazards(scenario: Scenario, side: MetaAction) -> list[AgentTrack]:
    """VRUs whose ground-truth future enters the turn corridor within 3 s."""
    hazards = []
    for agent in scenario.agents:
        if agent.kind not in VRU_KINDS:
            continue
        for p in agent.future:
            if point_in_turn_corridor(p, side):
                hazards.append(agent)
                break
    return hazards


# --- sector descriptions -------------------------------------------------------

_SECTOR_ORDER = ("front", "left", "right", "rear")
_SECTOR_HEAD = {name: f"{name.capitalize()} sector: " for name in _SECTOR_ORDER}

_KIND_NOUN = {
    AgentKind.VEHICLE: "vehicle",
    AgentKind.PEDESTRIAN: "pedestrian",
    AgentKind.CYCLIST: "cyclist",
}

_MAP_NOUN = {
    MapKind.LANE_CENTER: "lane centerline",
    MapKind.LANE_BOUNDARY: "lane boundary",
    MapKind.CROSSWALK: "crosswalk",
}

_TURN_WORD = {MetaAction.TURN_LEFT: "left", MetaAction.TURN_RIGHT: "right"}


def bearing_sector(bearing: float) -> str:
    """front within +/-45 deg, left (45, 135], right [-135, -45), else rear."""
    deg = math.degrees(bearing)
    if -45.0 <= deg <= 45.0:
        return "front"
    if 45.0 < deg <= 135.0:
        return "left"
    if -135.0 <= deg < -45.0:
        return "right"
    return "rear"


#: Per sector, the (distance, id, kind) of each agent in it, nearest first.
SectorEntries = dict[str, list[tuple[float, int, AgentKind]]]


def _agent_sector_entries(scenario: Scenario) -> SectorEntries:
    """Each sector's (distance, id, kind) entries, nearest first. Ids are
    unique in a valid scenario, so the sort never compares two kinds.

    An agent at the ego's own spot is in front, whatever the signs of its
    zeros: adding +0.0 turns -0.0 into +0.0 and keeps every other value,
    and the wire writes -0.0 as ``-0``, which reads back as +0.0.
    """
    sectors: SectorEntries = {s: [] for s in _SECTOR_ORDER}
    for agent in scenario.agents:
        x, y = agent.position
        sectors[bearing_sector(math.atan2(y + 0.0, x + 0.0))].append(
            (math.hypot(x, y), agent.id, agent.kind))
    for entries in sectors.values():
        entries.sort()
    return sectors


def _plural(noun: str, n: int) -> str:
    return noun if n == 1 else noun + "s"


def describe_sectors(scenario: Scenario, sectors: SectorEntries,
                     include_rear: bool = False) -> str:
    """Fixed-template scene description grouped by camera sector, from
    the scene's ``_agent_sector_entries``."""
    names = _SECTOR_ORDER if include_rear else _SECTOR_ORDER[:3]
    parts = []
    for name in names:
        entries = sectors[name]
        if not entries:
            parts.append(_SECTOR_HEAD[name] + "clear.")
        else:
            listing = ", ".join(f"1 {_KIND_NOUN[kind]} at {d:.1f} m" for d, _, kind in entries)
            parts.append(f"{_SECTOR_HEAD[name]}{listing}.")
    map_counts: dict[MapKind, int] = {}
    for line in scenario.map:
        map_counts[line.kind] = map_counts.get(line.kind, 0) + 1
    if map_counts:
        listing = ", ".join(
            f"{map_counts[k]} {_plural(noun, map_counts[k])}"
            for k, noun in _MAP_NOUN.items() if k in map_counts
        )
        parts.append(f"Map: {listing}.")
    else:
        parts.append("Map: no map elements.")
    return " ".join(parts)


def _hazard_summary(hazards: list[AgentTrack]) -> tuple[str, float]:
    counts: dict[AgentKind, int] = {}
    for agent in hazards:
        counts[agent.kind] = counts.get(agent.kind, 0) + 1
    kinds = ", ".join(
        f"{counts[k]} {_plural(_KIND_NOUN[k], counts[k])}"
        for k in (AgentKind.PEDESTRIAN, AgentKind.CYCLIST) if k in counts
    )
    nearest = min(math.hypot(*a.position) for a in hazards)
    return kinds, nearest


class RuleOracle:
    """Deterministic maneuver oracle implementing the turn-postponement rule."""

    def decide(self, scenario: Scenario, format: Format = Format.SHORT) -> MetaDecision:
        sectors = _agent_sector_entries(scenario) if format is Format.LONG else None
        return _rule_decision(scenario, format, sectors)


def _rule_decision(scenario: Scenario, format: Format,
                   sectors: SectorEntries | None) -> MetaDecision:
    """``RuleOracle.decide``; a LONG decision describes ``sectors``."""
    intent = scenario.route_intent
    if intent is MetaAction.GO_STRAIGHT:
        action = MetaAction.GO_STRAIGHT
        hazards: list[AgentTrack] = []
        short = ("Continue straight; no turn is requested and "
                 "the route ahead stays on the current lane.")
    else:
        hazards = corridor_hazards(scenario, intent)
        side = _TURN_WORD[intent]
        if hazards:
            action = MetaAction.GO_STRAIGHT
            kinds, nearest = _hazard_summary(hazards)
            short = (
                f"Proceed straight, {POSTPONEMENT_CLAUSE} {side} turn: "
                f"{kinds} crossing the turn corridor within 3.0 s, "
                f"nearest {nearest:.1f} m away."
            )
        else:
            action = intent
            short = (
                f"Proceed with the {side} turn: the turn corridor is "
                f"clear of vulnerable road users."
            )
    if format is Format.LONG:
        long = f"{describe_sectors(scenario, sectors)} {short}"
    else:
        long = short
    decision = MetaDecision(
        action=action,
        rationale_short=short,
        rationale_long=long,
        hazard_ids=tuple(sorted(a.id for a in hazards)),
    )
    decision.validate(scenario)
    return decision


def rule_oracle_decide(scenario: Scenario, format: Format = Format.SHORT) -> MetaDecision:
    return RuleOracle().decide(scenario, format)


# --- QA generation -------------------------------------------------------------

class QATask(Label):
    PERCEPTION = "PERCEPTION"
    PREDICTION = "PREDICTION"
    PLANNING = "PLANNING"


@dataclass(frozen=True)
class QAItem:
    task: QATask
    question: str
    answer: str
    scenario_id: str
    gt_action: MetaAction | None = None

    def validate(self) -> None:
        if not self.question or not self.answer:
            raise ValueError("question and answer must be nonempty")
        if (self.task is QATask.PLANNING) != (self.gt_action is not None):
            raise ValueError("gt_action must be present exactly for PLANNING items")


PERCEPTION_QUESTION = (
    "Describe the driving scene around the ego vehicle, with particular "
    "emphasis on vulnerable road users."
)
PLANNING_QUESTION = (
    "Given the current scene and the navigation intent, which maneuver "
    "should the ego vehicle take, and why?"
)

_COMPASS = ("east", "north-east", "north", "north-west",
            "west", "south-west", "south", "south-east")


def compass_direction(dx: float, dy: float) -> str:
    """Quantize a displacement to 8 compass directions (+x east, +y north)."""
    angle = math.atan2(dy, dx)
    octant = int(math.floor((angle + math.pi / 8) / (math.pi / 4))) % 8
    return _COMPASS[octant]


def _prediction_answer(agent: AgentTrack) -> str:
    dx = agent.future[-1][0] - agent.position[0]
    dy = agent.future[-1][1] - agent.position[1]
    dist = math.hypot(dx, dy)
    noun = _KIND_NOUN[agent.kind]
    if dist < 0.05:
        return f"The {noun} is expected to remain approximately stationary over the next 3 seconds."
    return (
        f"The {noun} is expected to move {compass_direction(dx, dy)} "
        f"by {dist:.1f} m over the next 3 seconds."
    )


def generate_qa(scenario: Scenario) -> list[QAItem]:
    """Ground-truth QA items: 1 perception + 1 per agent + 1 planning."""
    items: list[QAItem] = []
    sectors = _agent_sector_entries(scenario)
    scene = describe_sectors(scenario, sectors, include_rear=True)
    if scenario.agents:
        perception_answer = scene
    else:
        perception_answer = f"There are no other road users in the scene. {scene}"
    items.append(QAItem(
        task=QATask.PERCEPTION,
        question=PERCEPTION_QUESTION,
        answer=perception_answer,
        scenario_id=scenario.id,
    ))
    for agent in scenario.agents:
        items.append(QAItem(
            task=QATask.PREDICTION,
            question=(
                f"What is the expected motion of the {_KIND_NOUN[agent.kind]} "
                f"with id {agent.id} over the next 3 seconds?"
            ),
            answer=_prediction_answer(agent),
            scenario_id=scenario.id,
        ))
    # The LONG rationale lists the front, left and right entries of the
    # perception answer.
    decision = _rule_decision(scenario, Format.LONG, sectors)
    items.append(QAItem(
        task=QATask.PLANNING,
        question=PLANNING_QUESTION,
        answer=decision.rationale_long,
        scenario_id=scenario.id,
        gt_action=decision.action,
    ))
    for item in items:
        item.validate()
    return items


def qa_item_to_dict(item: QAItem) -> dict:
    out = {
        "task": item.task.value,
        "question": item.question,
        "answer": item.answer,
        "scenario_id": item.scenario_id,
    }
    if item.gt_action is not None:
        out["gt_action"] = item.gt_action.value
    return out


def qa_item_from_dict(obj: object) -> QAItem:
    if not isinstance(obj, dict):
        raise ValueError(f"QA item must be an object, got {type(obj).__name__}")
    for key in ("task", "question", "answer", "scenario_id", "gt_action"):
        value = obj.get(key)
        if value is None and key != "gt_action":
            raise ValueError(f"QA item lacks {key!r}")
        if value is not None and not isinstance(value, str):
            raise ValueError(f"QA item {key!r} must be a string, got {type(value).__name__}")
    gt = obj.get("gt_action")
    item = QAItem(
        task=QATask(obj["task"]),
        question=obj["question"],
        answer=obj["answer"],
        scenario_id=obj["scenario_id"],
        gt_action=MetaAction.parse(gt) if gt is not None else None,
    )
    item.validate()
    return item


def planning_accuracy(decisions: list[MetaAction], labels: list[MetaAction]) -> float:
    """Percentage of decisions equal to their labels."""
    if not decisions:
        raise ValueError("empty decision list")
    if len(decisions) != len(labels):
        raise ValueError(f"{len(decisions)} decisions vs {len(labels)} labels")
    matches = sum(1 for d, l in zip(decisions, labels) if d is l)
    return 100.0 * matches / len(decisions)
