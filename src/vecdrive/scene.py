"""Vectorized driving-scene types and their deterministic JSONL serialization.

A scenario is a ground-truth snapshot in the ego's frame at t=0, as VAD's
planner sees the scene: the ego state, up to A_MAX agent tracks with 3 s
futures, up to M_MAX fixed-size map polylines, the navigation-level
intended maneuver, and the ground-truth ego future. The ego sits at the
origin with heading 0 (+x forward), so ``EgoState`` holds only its speed
and acceleration and every reader takes a point as it is stored. A file
still writes the ego's ``x``, ``y`` and ``heading`` as 0, and the decoder
refuses any other value (-0.0 counts as 0).

A trajectory, ground truth or predicted, is a plain ``tuple[Point, ...]``
of T_F points 0.5 s apart, as an agent's future is.

All types are immutable after construction and safe to share across
threads. ``Scenario.validate()`` checks every structural invariant;
the decoder and the encoder call it so that any scenario in circulation
is known-good.

``validate()`` accepts exactly what round-trips, type for type: every
number an exact, finite ``float``; every agent and polyline id and the seed
an exact ``int``; the id an exact ``str``; the kinds and the route intent
members; the ego, agents and polylines of their own classes; and the agent
and polyline lists, every point list, point, position and extent an exact
``tuple``. Each refusal names its field. The JSONL decoder's checked path
calls the same checks (``_check_finite``, ``_as_int``, ``_as_member``,
``_check_id_and_seed``) after it turns a file's ``5`` into ``5.0`` and its
lists into tuples (``_as_float``, ``_as_points``), so ``save_scenarios``
never writes a file that ``load_scenarios`` rejects.

``scenario_from_dict`` decodes a line in one pass and keeps the checked,
per-field path for the lines that pass defers, so every error names its field.

``scenario_json`` runs ``validate()`` and then formats the scenario's
canonical line, the bytes of ``jsonio.dumps(scenario_to_dict(s))``, straight
from the dataclasses. Scenario files and oracle wire requests are written
with it, so a scene is checked once on its way out. A scene that
``validate()`` refuses gets its ``ValidationError`` and no line.
"""

from __future__ import annotations

import enum
import math
import operator
import os
from dataclasses import dataclass
from itertools import chain, islice
from typing import Any, Iterable

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
    """A file's number as a float: an int or a float, not a bool, within the float range."""
    if type(value) is float:    # the common case, ahead of the isinstance tests
        return value
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValidationError(path, f"expected number, got {type(value).__name__}")
    try:
        return float(value)
    except OverflowError:
        raise ValidationError(path, "number too large for a float") from None


def _as_int(value: Any, path: str, expected: str) -> int:
    """``value`` if it is an exact int, not a bool; ``expected`` names it in the error."""
    if type(value) is not int:
        raise ValidationError(path, f"expected {expected}")
    return value


def _check_type(path: str, value: Any, cls: type) -> Any:
    if type(value) is not cls:
        raise ValidationError(path, f"expected {cls.__name__}, got {type(value).__name__}")
    return value


def _check_finite(path: str, value: Any) -> float:
    if not math.isfinite(_check_type(path, value, float)):
        raise ValidationError(path, f"non-finite value {value!r}")
    return value


def _pair(path: str, value: Any, expected: str) -> tuple[Any, Any]:
    """``value``, which must be a tuple of two."""
    if type(value) is not tuple or len(value) != 2:
        got = len(value) if type(value) is tuple else type(value).__name__
        raise ValidationError(path, f"expected {expected}, got {got}")
    return value


def _check_point(path: str, p: Any) -> None:
    x, y = _pair(path, p, "2 coordinates")
    _check_finite(path + "[0]", x)
    _check_finite(path + "[1]", y)


def _check_points(path: str, points: Any, count: int, noun: str) -> None:
    """Check that ``points`` is a tuple of ``count`` pairs of finite floats.

    One cheap pass covers the whole tuple. Only when it finds a fault, or a
    sum of two coordinates past the float range, does the per-point loop
    run; that loop builds each point's path and raises the error.
    """
    if len(_check_type(path, points, tuple)) != count:
        raise ValidationError(path, f"expected {count} {noun}, got {len(points)}")
    if not all(type(p) is tuple and len(p) == 2 and type(p[0]) is float
               and type(p[1]) is float and math.isfinite(p[0] + p[1]) for p in points):
        for k, p in enumerate(points):
            _check_point(f"{path}[{k}]", p)


def _check_origin(path: str, value: float) -> None:
    """A file's ego coordinate or heading must be 0: a scenario is in the ego's frame."""
    if value != 0:
        raise ValidationError(path, f"{value!r} is not 0: the ego sits at the origin "
                                    "with heading 0")


def _check_id_and_seed(scenario_id: Any, seed: Any) -> None:
    if type(scenario_id) is not str:
        raise ValidationError("id", "expected string")
    if not scenario_id:
        raise ValidationError("id", "scenario id must be nonempty")
    if not (0 <= _as_int(seed, "seed", "integer") < (1 << 64)):
        raise ValidationError("seed", f"seed {seed} outside u64 range")


@dataclass(frozen=True)
class EgoState:
    """The ego at the origin with heading 0; a file writes its x, y and heading as 0."""

    speed: float        # m/s, >= 0
    accel: float        # m/s^2

    def validate(self) -> None:
        if _check_finite("ego.speed", self.speed) < 0:
            raise ValidationError("ego.speed", f"negative speed {self.speed}")
        _check_finite("ego.accel", self.accel)


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
        _check_point(path + ".position", self.position)
        heading = _check_finite(path + ".heading", self.heading)
        if not (-math.pi < heading <= math.pi):
            raise ValidationError(path + ".heading", f"{heading} outside (-pi, pi]")
        if _check_finite(path + ".speed", self.speed) < 0:
            raise ValidationError(path + ".speed", f"negative speed {self.speed}")
        length, width = _pair(path + ".extent", self.extent, "length and width")
        if not (_check_finite(path + ".length", length) > 0):
            raise ValidationError(path + ".length", f"non-positive length {length}")
        if not (_check_finite(path + ".width", width) > 0):
            raise ValidationError(path + ".width", f"non-positive width {width}")
        _check_points(path + ".future", self.future, T_F, "future points")


@dataclass(frozen=True)
class MapPolyline:
    id: int
    kind: MapKind
    points: tuple[Point, ...]       # exactly POLYLINE_POINTS points

    def validate(self, path: str) -> None:
        _as_int(self.id, path + ".id", "integer id")
        _check_member(self.kind, path + ".kind", MapKind, "map kind")
        _check_points(path + ".points", self.points, POLYLINE_POINTS, "points")
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
        _check_type("ego", self.ego, EgoState).validate()
        if len(_check_type("agents", self.agents, tuple)) > A_MAX:
            raise ValidationError("agents", f"{len(self.agents)} agents exceed A_MAX={A_MAX}")
        seen: set[int] = set()
        for i, agent in enumerate(self.agents):
            _check_type(f"agents[{i}]", agent, AgentTrack).validate(f"agents[{i}]")
            if agent.id in seen:
                raise ValidationError(f"agents[{i}].id", f"duplicate agent id {agent.id}")
            seen.add(agent.id)
        if len(_check_type("map", self.map, tuple)) > M_MAX:
            raise ValidationError("map", f"{len(self.map)} polylines exceed M_MAX={M_MAX}")
        for i, line in enumerate(self.map):
            _check_type(f"map[{i}]", line, MapPolyline).validate(f"map[{i}]")
        _check_member(self.route_intent, "route_intent", MetaAction, "label")
        _check_points("gt_future", self.gt_future, T_F, "waypoints")


# --- JSONL schema -----------------------------------------------------------
# One object per line:
# {"id", "seed", "ego":{"x","y","heading" (all 0),"speed","accel"},
#  "agents":[{"id","kind","x","y","heading","speed","length","width",
#             "future":[[x,y]*6]}],
#  "map":[{"id","kind","points":[[x,y]*4]}],
#  "route_intent", "gt_future":[[x,y]*6]}


def scenario_to_dict(s: Scenario) -> dict[str, Any]:
    return {
        "id": s.id,
        "seed": s.seed,
        "ego": {
            "x": 0.0,
            "y": 0.0,
            "heading": 0.0,
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


def _points_format(count: int) -> str:
    """The format of a list of ``count`` points: ``[[x,y],...]``."""
    return "[" + ",".join(["[%.17g,%.17g]"] * count) + "]"


_HEAD = ('{"id":%s,"seed":%d,"ego":{"x":0,"y":0,"heading":0,"speed":%.17g,"accel":%.17g},'
         '"agents":[')
_AGENT = ('{"id":%d,"kind":"%s","x":%.17g,"y":%.17g,"heading":%.17g,"speed":%.17g,'
          '"length":%.17g,"width":%.17g,"future":' + _points_format(T_F) + '}')
_POLYLINE = '{"id":%d,"kind":"%s","points":' + _points_format(POLYLINE_POINTS) + '}'
_TAIL = '],"route_intent":"%s","gt_future":' + _points_format(T_F) + '}'


def scenario_json(s: Scenario) -> str:
    """The line of a valid scenario: ``jsonio.dumps(scenario_to_dict(s))``, written
    without building the dict.

    ``s.validate()`` runs first, so a scene it refuses gets its ``ValidationError``
    and no line. A scene it passes holds only frozen records, tuples, members and
    exact strs, ints and floats, which cannot change, and has ``T_F`` points in each
    future and ``POLYLINE_POINTS`` in each polyline; each record is then formatted
    with one ``%``, where ``%.17g`` writes an exact float as ``jsonio.format_float``
    does.
    """
    s.validate()
    records = [_AGENT % (a.id, a.kind.value, *a.position, a.heading, a.speed, *a.extent,
                         *chain.from_iterable(a.future)) for a in s.agents]
    lines = [_POLYLINE % (m.id, m.kind.value, *chain.from_iterable(m.points)) for m in s.map]
    return (_HEAD % (jsonio.encode_str(s.id), s.seed, s.ego.speed, s.ego.accel)
            + ",".join(records) + '],"map":[' + ",".join(lines)
            + _TAIL % (s.route_intent.value, *chain.from_iterable(s.gt_future)))


def _in_bounds(s: Scenario) -> bool:
    """``validate()``'s checks of the ids, the seed, every count and every bound,
    in one expression, for a scene whose numbers are finite floats and whose
    positions, extents and points are pairs: what the decoder's fast path checks last."""
    agents, polylines = s.agents, s.map
    return not (
        s.ego.speed < 0 or len(agents) > A_MAX or len(polylines) > M_MAX
        or any(type(t.id) is not int or not -math.pi < t.heading <= math.pi or t.speed < 0
               or min(t.extent) <= 0 or len(t.future) != T_F for t in agents)
        or len({t.id for t in agents}) != len(agents)
        or any(type(m.id) is not int or len(m.points) != POLYLINE_POINTS
               or any(map(operator.eq, m.points, m.points[1:])) for m in polylines)
        or type(s.id) is not str or not s.id or type(s.seed) is not int
        or not 0 <= s.seed < 1 << 64 or len(s.gt_future) != T_F)


def _get(obj: dict, key: str, path: str) -> Any:
    if key not in obj:
        raise ValidationError(f"{path}.{key}" if path else key, "missing field")
    return obj[key]


def _number(obj: dict, key: str, path: str) -> float:
    """A finite number, checked where it is read, so errors name the file's key."""
    field = f"{path}.{key}"
    return _check_finite(field, _as_float(_get(obj, key, path), field))


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
        scenario = Scenario(obj["id"], EgoState(speed, accel), tracks, lines,
                            _INTENTS[obj["route_intent"]], point_tuples[-1], obj["seed"])
        return None if x != 0 or y != 0 or heading != 0 or not _in_bounds(scenario) else scenario
    except (ArithmeticError, LookupError, TypeError, ValueError):
        return None     # a sum that overflows, a missing key, an unknown or unhashable label


def _scenario_checked(obj: Any) -> Scenario:
    if not isinstance(obj, dict):
        raise ValidationError("", "scenario line must be a JSON object")
    ego_obj = _get(obj, "ego", "")
    if not isinstance(ego_obj, dict):
        raise ValidationError("ego", "expected object")
    ego_keys = ("x", "y", "heading", "speed", "accel")
    *pose, speed, accel = [_number(ego_obj, key, "ego") for key in ego_keys]
    for key, value in zip(ego_keys, pose):
        _check_origin("ego." + key, value)
    ego = EgoState(speed, accel)
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
    lines, seen_ids = [], set()
    for s in scenarios:
        lines.append(scenario_json(s) + "\n")  # raises what s.validate() raises
        if s.id in seen_ids:
            raise ValidationError("id", f"duplicate scenario id {s.id!r}")
        seen_ids.add(s.id)
    jsonio.write_atomic(path, "".join(lines))
