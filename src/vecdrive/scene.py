"""Vectorized driving-scene types and their deterministic JSONL serialization.

A scenario is a ground-truth snapshot in an ego-centric frame (ego at the
origin at t=0, +x forward by convention): the ego state, up to A_MAX agent
tracks with 3 s futures, up to M_MAX fixed-size map polylines, the
navigation-level intended maneuver, and the ground-truth ego future.

A trajectory, ground truth or predicted, is a plain ``tuple[Point, ...]``
of T_F points 0.5 s apart, as an agent's future is.

All types are immutable after construction and safe to share across
threads. ``Scenario.validate()`` checks every structural invariant;
loaders and generators call it so that any scenario in circulation is
known-good.

``validate()`` and the JSONL decoder's checked path call the same check
for each kind of field (``_as_float``, ``_as_int``, ``_as_member``,
``_check_pose``, ``_check_id_and_seed``), so ``validate()`` refuses
exactly the types the loader refuses and ``save_scenarios`` never writes
a file that ``load_scenarios`` rejects.

``scenario_from_dict`` decodes a line in one pass and keeps the checked,
per-field path for the lines that pass defers, so every error names its field.

``scenario_json`` writes a scenario's canonical line, the bytes of
``jsonio.dumps(scenario_to_dict(s))``, straight from the dataclasses.
Scenario files and oracle wire requests are written with it. A value of a
type its fast path does not take goes to the generic emitter, which
writes or refuses it as it does any value.
"""

from __future__ import annotations

import enum
import math
import operator
import os
from dataclasses import dataclass
from itertools import chain, islice
from typing import Any, Iterable, Sequence

from . import jsonio

# Schema limits: every scenario holds at most A_MAX agents and M_MAX
# polylines; the planner attends over exactly the ones present.
T_F = 6                 # future waypoints, 0.5 s apart (3 s at 2 Hz)
A_MAX = 8               # agents per scenario, at most
M_MAX = 8               # map polylines per scenario, at most
POLYLINE_POINTS = 4     # points per map polyline

TWO_PI = 2.0 * math.pi

Point = tuple[float, float]


class SceneError(Exception):
    """Base class for scene-level failures."""


class ValidationError(SceneError):
    """A value violates a structural invariant.

    ``field`` is a dotted/indexed path such as ``agents[2].future``.
    """

    def __init__(self, field_path: str, message: str):
        super().__init__(f"{field_path}: {message}")
        self.field = field_path
        self.message = message


class ScenarioLoadError(SceneError):
    """A JSONL scenario file failed to parse or validate.

    Carries the 1-based ``line`` and the offending ``field`` path when known.
    """

    def __init__(self, path: str, line: int, field_path: str, message: str):
        super().__init__(f"{path}:{line}: {field_path}: {message}")
        self.path = path
        self.line = line
        self.field = field_path
        self.message = message


def _as_member(value: Any, path: str, cls: type[enum.Enum], noun: str) -> Any:
    """The member of ``cls`` that ``value`` is or whose label it is."""
    try:
        return cls(value)
    except ValueError:
        raise ValidationError(path, f"unknown {noun} {value!r}") from None


def _check_member(value: Any, path: str, cls: type[enum.Enum], noun: str) -> None:
    """``value`` must be a member of ``cls``; a file holds its label."""
    if type(value) is not cls:
        _as_member(value, path, cls, noun)      # raises for anything but a label
        raise ValidationError(path, f"expected {cls.__name__}, got {type(value).__name__}")


class Label(enum.Enum):
    """Base of the label enums: a member hashes by identity.

    ``enum.Enum.__hash__`` is a Python-level ``hash(self._name_)``; the
    identity hash runs in C, so every table keyed by a label looks it up
    in C. Enum equality is already identity, so the two still agree, and
    a member pickles and deep-copies to itself. Like a str hash, the hash
    may differ from run to run: code that writes output iterates an enum
    class or an insertion-ordered dict, never a set of labels.
    """

    __hash__ = object.__hash__


class MetaAction(Label):
    """High-level lateral driving command."""

    GO_STRAIGHT = "GO_STRAIGHT"
    TURN_LEFT = "TURN_LEFT"
    TURN_RIGHT = "TURN_RIGHT"

    @classmethod
    def parse(cls, label: str) -> "MetaAction":
        return _as_member(label, "meta_action", cls, "label")

    def __str__(self) -> str:
        return self.value


class AgentKind(Label):
    VEHICLE = "VEHICLE"
    PEDESTRIAN = "PEDESTRIAN"
    CYCLIST = "CYCLIST"


#: Agent kinds treated as vulnerable road users by the safety override.
VRU_KINDS = frozenset({AgentKind.PEDESTRIAN, AgentKind.CYCLIST})


class MapKind(Label):
    LANE_CENTER = "LANE_CENTER"
    LANE_BOUNDARY = "LANE_BOUNDARY"
    CROSSWALK = "CROSSWALK"


def normalize_heading(theta: float) -> float:
    """Wrap an angle into (-pi, pi]."""
    if not math.isfinite(theta):
        raise ValidationError("heading", f"non-finite angle {theta!r}")
    t = math.fmod(theta, TWO_PI)
    if t <= -math.pi:
        t += TWO_PI
    elif t > math.pi:
        t -= TWO_PI
    return t


def _as_float(value: Any, path: str) -> float:
    """``value`` as a float: an int or a float, not a bool, within the float range."""
    if type(value) is float:    # the common case, ahead of the isinstance tests
        return value
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValidationError(path, f"expected number, got {type(value).__name__}")
    try:
        return float(value)
    except OverflowError:
        raise ValidationError(path, "number too large for a float") from None


def _as_int(value: Any, path: str, expected: str) -> int:
    """``value`` if it is an int and not a bool; ``expected`` names it in the error."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValidationError(path, f"expected {expected}")
    return value


def _check_finite(path: str, value: Any) -> float:
    v = _as_float(value, path)
    if not math.isfinite(v):
        raise ValidationError(path, f"non-finite value {value!r}")
    return v


def _pair(path: str, value: Any, expected: str) -> tuple[Any, Any]:
    """The two items of ``value``, which must be a sequence of two."""
    try:
        n = len(value)
        if n == 2:
            return value[0], value[1]
    except (TypeError, LookupError):    # not a sequence: 5, None, a set
        raise ValidationError(path, f"expected {expected}, got {type(value).__name__}") from None
    raise ValidationError(path, f"expected {expected}, got {n}")


def _check_point(path: str, p: Sequence[float]) -> Point:
    x, y = _pair(path, p, "2 coordinates")
    return (_check_finite(path + "[0]", x), _check_finite(path + "[1]", y))


_NUMBER_TYPES = (float, int)


def _check_points(path: str, points: Sequence[Sequence[float]]) -> None:
    """Check that every point holds 2 finite coordinates.

    One cheap pass covers the whole list. Only when it finds a fault, or a
    number of a subclass type, does the per-point loop run; that loop
    builds each point's path and raises the error.
    """
    try:
        if all(len(p) == 2 and type(p[0]) in _NUMBER_TYPES and type(p[1]) in _NUMBER_TYPES
               and math.isfinite(p[0]) and math.isfinite(p[1]) for p in points):
            return
    except (TypeError, LookupError, OverflowError):  # a point that is not a pair, a huge int
        pass
    for k, p in enumerate(points):
        _check_point(f"{path}[{k}]", p)


def _check_pose(path: str, position: Point, heading: float, speed: float) -> None:
    """A finite position, a heading in (-pi, pi] and a non-negative speed."""
    _check_point(path + ".position", position)
    h = _check_finite(path + ".heading", heading)
    if not (-math.pi < h <= math.pi):
        raise ValidationError(path + ".heading", f"{h} outside (-pi, pi]")
    if _check_finite(path + ".speed", speed) < 0:
        raise ValidationError(path + ".speed", f"negative speed {speed}")


def _check_id_and_seed(scenario_id: Any, seed: Any) -> None:
    if not isinstance(scenario_id, str):
        raise ValidationError("id", "expected string")
    if not scenario_id:
        raise ValidationError("id", "scenario id must be nonempty")
    if not (0 <= _as_int(seed, "seed", "integer") < (1 << 64)):
        raise ValidationError("seed", f"seed {seed} outside u64 range")


@dataclass(frozen=True)
class EgoState:
    position: Point
    heading: float      # radians in (-pi, pi]
    speed: float        # m/s, >= 0
    accel: float        # m/s^2

    def validate(self, path: str = "ego") -> None:
        _check_pose(path, self.position, self.heading, self.speed)
        _check_finite(path + ".accel", self.accel)


@dataclass(frozen=True)
class AgentTrack:
    id: int
    kind: AgentKind
    position: Point
    heading: float
    speed: float
    extent: tuple[float, float]     # (length, width), both > 0
    future: tuple[Point, ...]       # T_F points at 0.5 s steps

    def validate(self, path: str) -> None:
        _as_int(self.id, path + ".id", "integer id")
        _check_member(self.kind, path + ".kind", AgentKind, "agent kind")
        _check_pose(path, self.position, self.heading, self.speed)
        length, width = _pair(path + ".extent", self.extent, "length and width")
        if not (_check_finite(path + ".length", length) > 0):
            raise ValidationError(path + ".length", f"non-positive length {length}")
        if not (_check_finite(path + ".width", width) > 0):
            raise ValidationError(path + ".width", f"non-positive width {width}")
        if len(self.future) != T_F:
            raise ValidationError(
                path + ".future", f"expected {T_F} future points, got {len(self.future)}"
            )
        _check_points(path + ".future", self.future)


@dataclass(frozen=True)
class MapPolyline:
    id: int
    kind: MapKind
    points: tuple[Point, ...]       # exactly POLYLINE_POINTS points

    def validate(self, path: str) -> None:
        _as_int(self.id, path + ".id", "integer id")
        _check_member(self.kind, path + ".kind", MapKind, "map kind")
        if len(self.points) != POLYLINE_POINTS:
            raise ValidationError(
                path + ".points",
                f"expected {POLYLINE_POINTS} points, got {len(self.points)}",
            )
        _check_points(path + ".points", self.points)
        for k in range(len(self.points) - 1):
            if self.points[k] == self.points[k + 1]:
                raise ValidationError(
                    f"{path}.points[{k + 1}]", "consecutive points must be distinct"
                )


@dataclass(frozen=True)
class Scenario:
    id: str
    ego: EgoState
    agents: tuple[AgentTrack, ...]
    map: tuple[MapPolyline, ...]
    route_intent: MetaAction
    gt_future: tuple[Point, ...]    # T_F ego waypoints at 0.5 s steps
    seed: int = 0

    def validate(self) -> None:
        _check_id_and_seed(self.id, self.seed)
        self.ego.validate("ego")
        if len(self.agents) > A_MAX:
            raise ValidationError("agents", f"{len(self.agents)} agents exceed A_MAX={A_MAX}")
        seen: set[int] = set()
        for i, agent in enumerate(self.agents):
            agent.validate(f"agents[{i}]")
            if agent.id in seen:
                raise ValidationError(f"agents[{i}].id", f"duplicate agent id {agent.id}")
            seen.add(agent.id)
        if len(self.map) > M_MAX:
            raise ValidationError("map", f"{len(self.map)} polylines exceed M_MAX={M_MAX}")
        for i, line in enumerate(self.map):
            line.validate(f"map[{i}]")
        _check_member(self.route_intent, "route_intent", MetaAction, "label")
        if len(self.gt_future) != T_F:
            raise ValidationError(
                "gt_future", f"expected {T_F} waypoints, got {len(self.gt_future)}")
        _check_points("gt_future", self.gt_future)


# --- JSONL schema -----------------------------------------------------------
# One object per line:
# {"id", "seed", "ego":{"x","y","heading","speed","accel"},
#  "agents":[{"id","kind","x","y","heading","speed","length","width",
#             "future":[[x,y]*6]}],
#  "map":[{"id","kind","points":[[x,y]*4]}],
#  "route_intent", "gt_future":[[x,y]*6]}


def scenario_to_dict(s: Scenario) -> dict[str, Any]:
    return {
        "id": s.id,
        "seed": s.seed,
        "ego": {
            "x": s.ego.position[0],
            "y": s.ego.position[1],
            "heading": s.ego.heading,
            "speed": s.ego.speed,
            "accel": s.ego.accel,
        },
        "agents": [
            {
                "id": a.id,
                "kind": a.kind.value,
                "x": a.position[0],
                "y": a.position[1],
                "heading": a.heading,
                "speed": a.speed,
                "length": a.extent[0],
                "width": a.extent[1],
                "future": [[p[0], p[1]] for p in a.future],
            }
            for a in s.agents
        ],
        "map": [
            {
                "id": m.id,
                "kind": m.kind.value,
                "points": [[p[0], p[1]] for p in m.points],
            }
            for m in s.map
        ],
        "route_intent": s.route_intent.value,
        "gt_future": [[p[0], p[1]] for p in s.gt_future],
    }


#: What scenario_to_dict reads of a point, a position or an extent.
_XY = operator.itemgetter(0, 1)
_SEQUENCES = (tuple, list)
_FLOATS = {float}
_HEAD = ('{"id":%s,"seed":%d,"ego":{"x":%.17g,"y":%.17g,"heading":%.17g,"speed":%.17g,'
         '"accel":%.17g},"agents":[')
_AGENT = ('{"id":%d,"kind":"%s","x":%.17g,"y":%.17g,"heading":%.17g,"speed":%.17g,'
          '"length":%.17g,"width":%.17g,"future":%s}')
_POLYLINE = '{"id":%d,"kind":"%s","points":%s}'
_TAIL = '],"route_intent":"%s","gt_future":%s}'


def scenario_json(s: Scenario) -> str:
    """``jsonio.dumps(scenario_to_dict(s))``, written without building the dict.

    The fast path takes a scenario whose numbers are all exact, finite
    floats, whose agent and polyline ids and seed are exact ints, whose id
    is a str, and whose kinds and route intent are enum members: every
    scenario ``simgen`` makes or a file loads. It formats each record with
    one ``%`` and each point list with one more, where ``%.17g`` writes an
    exact float as ``jsonio.format_float`` does. For anything else it
    returns what the generic emitter writes, or raises what it raises.
    """
    try:
        line = _scenario_line(s)
    except (ArithmeticError, AttributeError, LookupError, TypeError, ValueError):
        line = None     # a value the formats refuse: the generic emitter decides
    return jsonio.dumps(scenario_to_dict(s)) if line is None else line


def _points_line(points: Sequence[Point], numbers: list) -> str:
    """``[[x,y],...]``, with each coordinate added to ``numbers``."""
    template = ",".join(["[%.17g,%.17g]"] * len(points))   # before a generator is read
    xy = tuple(chain.from_iterable(map(_XY, points)))
    numbers += xy
    return "[" + template % xy + "]"


def _scenario_line(s: Scenario) -> str | None:
    """The fast path of ``scenario_json``; None for a value it does not take.

    Each number is formatted before its type is known; one check of every
    number at the end refuses the line if any is not a finite float.
    ``jsonio.encode_str`` refuses an id that is not a str.
    """
    agents, polylines = s.agents, s.map
    if (type(s.seed) is not int or type(s.route_intent) is not MetaAction
            or type(agents) not in _SEQUENCES or type(polylines) not in _SEQUENCES):
        return None     # a generator is not read here: the generic emitter reads it
    ego = s.ego
    numbers = [*_XY(ego.position), ego.heading, ego.speed, ego.accel]
    head = _HEAD % (jsonio.encode_str(s.id), s.seed, *numbers)
    records = []
    for a in agents:
        if type(a.id) is not int or type(a.kind) is not AgentKind:
            return None
        fields = (*_XY(a.position), a.heading, a.speed, *_XY(a.extent))
        numbers += fields
        records.append(_AGENT % (a.id, a.kind.value, *fields, _points_line(a.future, numbers)))
    lines = []
    for m in polylines:
        if type(m.id) is not int or type(m.kind) is not MapKind:
            return None
        lines.append(_POLYLINE % (m.id, m.kind.value, _points_line(m.points, numbers)))
    gt_future = _points_line(s.gt_future, numbers)
    if set(map(type, numbers)) != _FLOATS or not math.isfinite(sum(numbers)):
        return None     # a sum that overflows also falls back, to the same bytes
    return (head + ",".join(records) + '],"map":[' + ",".join(lines)
            + _TAIL % (s.route_intent.value, gt_future))


def _get(obj: dict, key: str, path: str) -> Any:
    if key not in obj:
        raise ValidationError(f"{path}.{key}" if path else key, "missing field")
    return obj[key]


def _number(obj: dict, key: str, path: str) -> float:
    """A finite number, checked where it is read, so errors name the file's key."""
    return _check_finite(f"{path}.{key}", _get(obj, key, path))


def _as_points(value: Any, path: str) -> tuple[Point, ...]:
    if not isinstance(value, list):
        raise ValidationError(path, "expected a list of [x, y] points")
    pts = []
    for k, p in enumerate(value):
        if not isinstance(p, list) or len(p) != 2:
            raise ValidationError(f"{path}[{k}]", "expected [x, y]")
        pts.append((_as_float(p[0], f"{path}[{k}][0]"), _as_float(p[1], f"{path}[{k}][1]")))
    return tuple(pts)


#: Kind and intent labels as a file writes them, to their members.
_AGENT_KINDS = {k.value: k for k in AgentKind}
_MAP_KINDS = {k.value: k for k in MapKind}
_INTENTS = {m.value: m for m in MetaAction}


def scenario_from_dict(obj: Any) -> Scenario:
    """The scenario a decoded JSONL line holds; ``ValidationError`` names the bad field."""
    scenario = _scenario_fast(obj)
    return _scenario_checked(obj) if scenario is None else scenario


def _scenario_fast(obj: Any) -> Scenario | None:
    """The one pass of ``scenario_from_dict``: what the checked path returns, or None.

    It takes plain dicts, lists, strs, ints and floats and checks every number at once
    (an exact int or float, finite sum: no bool, subclass, NaN, infinity or int too large
    for a float), then only the bounds ``validate()`` sets on values of the right types.
    """
    try:
        ego, agents, polylines = obj["ego"], obj["agents"], obj["map"]
        if (type(obj) is not dict or type(ego) is not dict or type(agents) is not list
                or type(polylines) is not list or not set(map(type, agents + polylines)) <= {dict}
                or len(agents) > A_MAX or len(polylines) > M_MAX):
            return None
        point_lists = [*(a["future"] for a in agents), *(m["points"] for m in polylines),
                       obj["gt_future"]]
        points = list(chain.from_iterable(point_lists))
        if (set(map(type, point_lists)) != {list} or set(map(type, points)) != {list}
                or set(map(len, points)) != {2}):
            return None
        numbers = [ego["x"], ego["y"], ego["heading"], ego["speed"], ego["accel"]]
        for a in agents:
            numbers += (a["x"], a["y"], a["heading"], a["speed"], a["length"], a["width"])
        numbers += chain.from_iterable(points)
        if not (set(map(type, numbers)) <= {float, int} and math.isfinite(math.fsum(numbers))):
            return None
        values = map(float, numbers)    # read in the order the numbers were collected
        x, y, heading, speed, accel = islice(values, 5)
        fields = [tuple(islice(values, 6)) for _ in agents]
        pairs = zip(values, values)
        point_tuples = [tuple(islice(pairs, len(p))) for p in point_lists]
        tracks = tuple(AgentTrack(a["id"], _AGENT_KINDS[a["kind"]], (x, y), heading, speed,
                                  (length, width), future)
                       for a, (x, y, heading, speed, length, width), future
                       in zip(agents, fields, point_tuples))
        lines = tuple(MapPolyline(m["id"], _MAP_KINDS[m["kind"]], pts)
                      for m, pts in zip(polylines, point_tuples[len(agents):]))
        scenario_id, seed, gt_future = obj["id"], obj["seed"], point_tuples[-1]
        if (not -math.pi < heading <= math.pi or speed < 0
                or any(type(t.id) is not int or not -math.pi < t.heading <= math.pi or t.speed < 0
                       or min(t.extent) <= 0 or len(t.future) != T_F for t in tracks)
                or len({t.id for t in tracks}) != len(tracks)
                or any(type(m.id) is not int or len(m.points) != POLYLINE_POINTS
                       or any(map(operator.eq, m.points, m.points[1:])) for m in lines)
                or type(scenario_id) is not str or not scenario_id or type(seed) is not int
                or not 0 <= seed < 1 << 64 or len(gt_future) != T_F):
            return None
        return Scenario(scenario_id, EgoState((x, y), heading, speed, accel), tracks, lines,
                        _INTENTS[obj["route_intent"]], gt_future, seed)
    except (ArithmeticError, LookupError, TypeError, ValueError):
        return None     # a sum that overflows, a missing key, an unknown or unhashable label


def _scenario_checked(obj: Any) -> Scenario:
    if not isinstance(obj, dict):
        raise ValidationError("", "scenario line must be a JSON object")
    ego_obj = _get(obj, "ego", "")
    if not isinstance(ego_obj, dict):
        raise ValidationError("ego", "expected object")
    ego = EgoState(
        position=(_number(ego_obj, "x", "ego"), _number(ego_obj, "y", "ego")),
        heading=_number(ego_obj, "heading", "ego"),
        speed=_number(ego_obj, "speed", "ego"),
        accel=_number(ego_obj, "accel", "ego"),
    )
    agents = []
    agents_obj = _get(obj, "agents", "")
    if not isinstance(agents_obj, list):
        raise ValidationError("agents", "expected list")
    for i, a in enumerate(agents_obj):
        path = f"agents[{i}]"
        if not isinstance(a, dict):
            raise ValidationError(path, "expected object")
        agents.append(AgentTrack(
            id=_as_int(_get(a, "id", path), path + ".id", "integer id"),
            kind=_as_member(_get(a, "kind", path), path + ".kind", AgentKind, "agent kind"),
            position=(_number(a, "x", path), _number(a, "y", path)),
            heading=_number(a, "heading", path),
            speed=_number(a, "speed", path),
            extent=(_number(a, "length", path), _number(a, "width", path)),
            future=_as_points(_get(a, "future", path), path + ".future"),
        ))
    polylines = []
    map_obj = _get(obj, "map", "")
    if not isinstance(map_obj, list):
        raise ValidationError("map", "expected list")
    for i, m in enumerate(map_obj):
        path = f"map[{i}]"
        if not isinstance(m, dict):
            raise ValidationError(path, "expected object")
        polylines.append(MapPolyline(
            id=_as_int(_get(m, "id", path), path + ".id", "integer id"),
            kind=_as_member(_get(m, "kind", path), path + ".kind", MapKind, "map kind"),
            points=_as_points(_get(m, "points", path), path + ".points"),
        ))
    intent = _as_member(_get(obj, "route_intent", ""), "route_intent", MetaAction, "label")
    scenario_id, seed = _get(obj, "id", ""), _get(obj, "seed", "")
    _check_id_and_seed(scenario_id, seed)
    scenario = Scenario(
        id=scenario_id,
        ego=ego,
        agents=tuple(agents),
        map=tuple(polylines),
        route_intent=intent,
        gt_future=_as_points(_get(obj, "gt_future", ""), "gt_future"),
        seed=seed,
    )
    scenario.validate()
    return scenario


def load_scenarios(path: str | os.PathLike) -> list[Scenario]:
    """Read a scenario JSONL file, validating every line.

    Raises ScenarioLoadError with the 1-based line number and field path
    on the first schema violation or duplicate scenario id.
    """
    path = os.fspath(path)
    scenarios: list[Scenario] = []
    seen_ids: set[str] = set()
    with open(path, "rb") as fh:
        for lineno, raw in enumerate(fh, start=1):
            try:    # decoded per line, so bytes that are not UTF-8 get a line number
                line = raw.decode("utf-8")
                if not line.strip():
                    continue
                obj = jsonio.loads(line)
            except ValueError as e:
                raise ScenarioLoadError(path, lineno, "", f"invalid JSON: {e}") from None
            try:
                scenario = scenario_from_dict(obj)
            except ValidationError as e:
                raise ScenarioLoadError(path, lineno, e.field, e.message) from None
            if scenario.id in seen_ids:
                raise ScenarioLoadError(path, lineno, "id", f"duplicate scenario id {scenario.id!r}")
            seen_ids.add(scenario.id)
            scenarios.append(scenario)
    return scenarios


def save_scenarios(scenarios: Iterable[Scenario], path: str | os.PathLike) -> None:
    """Write scenarios as canonical JSONL.

    Everything is validated (including cross-scenario id uniqueness)
    before any byte is written, and the file is replaced atomically, so a
    failed save leaves no partial file.
    """
    scenarios = list(scenarios)
    seen_ids: set[str] = set()
    for s in scenarios:
        s.validate()
        if s.id in seen_ids:
            raise ValidationError("id", f"duplicate scenario id {s.id!r}")
        seen_ids.add(s.id)
    jsonio.write_atomic(path, "".join(scenario_json(s) + "\n" for s in scenarios))
