"""Deterministic synthetic scenario generation.

Five suites, all ego-centric (ego at the origin, heading 0, +x forward),
all derived from per-index splitmix64 sub-streams so generation is
order-independent and bit-reproducible:

* CRUISE: straight lanes, constant-velocity ego future, vehicles in the
  adjacent lanes.
* TURNS: a left or right intent with a quarter-circle (radius 8 m)
  ground-truth future, arc-length parameterized at the ego speed.
* HAZARD_VRU: TURNS plus a pedestrian or cyclist whose constant-velocity
  future crosses the turn corridor (on the straight approach, timed to
  meet a constant-velocity ego), so the safety override fires on every
  scenario by construction.
* SYMMETRIC_FORK: mirrored pairs; scenario 2k+1 is scenario 2k with all
  y coordinates negated and the intent swapped left/right.
* MIXED: a uniform per-index mixture of the four suites above.

Agent ground-truth futures are constant velocity throughout.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

from .oracle import TURN_RADIUS
from .rng import SplitMix64, check_seed
from .scene import (
    AgentKind,
    AgentTrack,
    EgoState,
    MapKind,
    MapPolyline,
    MetaAction,
    Point,
    Scenario,
    T_F,
    normalize_heading,
)

LANE_WIDTH = 3.5

VEHICLE_EXTENT = (4.2, 1.8)
PEDESTRIAN_EXTENT = (0.5, 0.5)
CYCLIST_EXTENT = (1.8, 0.6)


class Suite(enum.Enum):
    CRUISE = "CRUISE"
    TURNS = "TURNS"
    HAZARD_VRU = "HAZARD_VRU"
    SYMMETRIC_FORK = "SYMMETRIC_FORK"
    MIXED = "MIXED"

    @classmethod
    def parse(cls, label: str) -> "Suite":
        try:
            return cls(label.upper())
        except ValueError:
            raise ValueError(f"unknown suite {label!r}") from None


@dataclass(frozen=True)
class GenSpec:
    n_scenarios: int
    seed: int
    suite: Suite = Suite.MIXED
    agent_density: float = 0.5
    speed_range: tuple[float, float] = (2.0, 6.0)

    def validate(self) -> None:
        if self.n_scenarios <= 0:
            raise ValueError(f"n_scenarios must be positive, got {self.n_scenarios}")
        check_seed(self.seed)
        if not (0.0 <= self.agent_density <= 1.0):
            raise ValueError(f"agent_density {self.agent_density} outside [0, 1]")
        lo, hi = self.speed_range
        if not (math.isfinite(lo) and math.isfinite(hi) and 0.0 <= lo <= hi):
            raise ValueError(f"speed_range {self.speed_range} must be finite "
                             "with 0 <= min <= max")


# --- trajectory primitives -----------------------------------------------------

def turn_future(speed: float, side: float) -> tuple[Point, ...]:
    """Quarter circle of radius TURN_RADIUS at arc speed, tangent +x at
    the origin; continues straight along the exit tangent past the arc.
    ``0.0 +`` makes a right turn's y at zero arc length +0.0, not -0.0."""
    arc_length = TURN_RADIUS * math.pi / 2
    points = []
    for k in range(1, T_F + 1):
        s = speed * 0.5 * k
        if s <= arc_length:
            phi = s / TURN_RADIUS
            points.append((TURN_RADIUS * math.sin(phi),
                           0.0 + side * TURN_RADIUS * (1.0 - math.cos(phi))))
        else:
            points.append((TURN_RADIUS, side * (TURN_RADIUS + (s - arc_length))))
    return tuple(points)


def constant_velocity_future(position: Point, heading: float, speed: float) -> tuple[Point, ...]:
    """Agent futures, the CRUISE ego's ground truth and eval-plan's baseline."""
    vx, vy = speed * math.cos(heading), speed * math.sin(heading)
    return tuple((position[0] + vx * 0.5 * k, position[1] + vy * 0.5 * k)
                 for k in range(1, T_F + 1))


# --- map construction ------------------------------------------------------------

def _lane_segments(line_id: int, y: float, x0: float = 0.0, length: float = 15.0) -> MapPolyline:
    step = length / 3.0
    return MapPolyline(id=line_id, kind=MapKind.LANE_CENTER,
                       points=tuple((x0 + step * i, y) for i in range(4)))


def _arc_branch(line_id: int, side: float) -> MapPolyline:
    angles = (math.pi / 8, math.pi / 4, 3 * math.pi / 8, math.pi / 2)
    return MapPolyline(
        id=line_id, kind=MapKind.LANE_CENTER,
        points=tuple((TURN_RADIUS * math.sin(phi),
                      side * TURN_RADIUS * (1.0 - math.cos(phi))) for phi in angles),
    )


def _crosswalk(line_id: int, x: float) -> MapPolyline:
    return MapPolyline(id=line_id, kind=MapKind.CROSSWALK,
                       points=tuple((x, -3.0 + 2.0 * i) for i in range(4)))


def cruise_map() -> tuple[MapPolyline, ...]:
    lines = []
    next_id = 1
    for y in (-LANE_WIDTH, 0.0, LANE_WIDTH):
        for x0 in (0.0, 15.0):
            lines.append(_lane_segments(next_id, y, x0))
            next_id += 1
    return tuple(lines)


def turn_map(side: float) -> tuple[MapPolyline, ...]:
    return (
        _lane_segments(1, 0.0, 0.0),
        _lane_segments(2, 0.0, 15.0),
        _arc_branch(3, side),
        _crosswalk(4, 6.0),
    )


def fork_map() -> tuple[MapPolyline, ...]:
    return (
        _lane_segments(1, 0.0, 0.0),
        _lane_segments(2, 0.0, 15.0),
        _arc_branch(3, +1.0),
        _arc_branch(4, -1.0),
    )


# --- agents -----------------------------------------------------------------------

def _adjacent_lane_vehicles(rng: SplitMix64, spec: GenSpec, start_id: int,
                            lanes: tuple[float, ...]) -> list[AgentTrack]:
    """Vehicles flowing parallel to the road in the given lanes; they never
    cross the ego lane, so they cannot collide with a straight ego."""
    agents = []
    agent_id = start_id
    for slot in range(4):
        if rng.next_float() >= spec.agent_density:
            continue
        y = lanes[slot % len(lanes)]
        x = 8.0 + 6.0 * slot + rng.uniform(0.0, 3.0)
        heading = 0.0 if y > 0 else math.pi
        speed = rng.uniform(*spec.speed_range)
        position = (x, y)
        agents.append(AgentTrack(
            id=agent_id, kind=AgentKind.VEHICLE, position=position,
            heading=heading, speed=speed, extent=VEHICLE_EXTENT,
            future=constant_velocity_future(position, heading, speed),
        ))
        agent_id += 1
    return agents


_CROSSING_STEP = 3          # the VRU is on the ego lane at t = 1.5 s
_CROSSING_MAX_X = 9.0       # keep the crossing on the corridor approach


def _crossing_vru(rng: SplitMix64, ego_speed: float, agent_id: int) -> AgentTrack:
    """A VRU walking across the road, on the ego lane centerline at
    t = 1.5 s. The crossing point sits on the turn-corridor approach, so
    the safety override fires regardless of turn side; it is also where a
    constant-velocity ego would be at that moment."""
    t_star = 0.5 * _CROSSING_STEP
    cross_x = min(ego_speed * t_star, _CROSSING_MAX_X)
    if rng.next_float() < 0.5:
        kind, extent = AgentKind.PEDESTRIAN, PEDESTRIAN_EXTENT
        speed = rng.uniform(1.0, 2.0)
    else:
        kind, extent = AgentKind.CYCLIST, CYCLIST_EXTENT
        speed = rng.uniform(2.0, 3.5)
    direction = 1.0 if rng.next_float() < 0.5 else -1.0
    heading = direction * math.pi / 2
    position = (cross_x, -direction * speed * t_star)
    return AgentTrack(
        id=agent_id, kind=kind, position=position, heading=heading, speed=speed,
        extent=extent,
        future=constant_velocity_future(position, heading, speed),
    )


def postponed_turn_future(cross_x: float) -> tuple[Point, ...]:
    """Ground-truth behavior when the turn is postponed: ease out along
    the straight lane and stop short of the crossing point (quadratic
    ease-out over the 3 s horizon)."""
    stop_x = max(cross_x - 3.0, 0.5)
    points = []
    for k in range(1, T_F + 1):
        u = k / T_F
        points.append((stop_x * (2.0 * u - u * u), 0.0))
    return tuple(points)


# --- suite builders ------------------------------------------------------------------

def _build_cruise(rng: SplitMix64, spec: GenSpec, scenario_id: str, seed: int) -> Scenario:
    speed = rng.uniform(*spec.speed_range)
    agents = _adjacent_lane_vehicles(rng, spec, 1, (LANE_WIDTH, -LANE_WIDTH))
    return Scenario(
        id=scenario_id,
        ego=EgoState(speed, 0.0),
        agents=tuple(agents),
        map=cruise_map(),
        route_intent=MetaAction.GO_STRAIGHT,
        gt_future=constant_velocity_future((0.0, 0.0), 0.0, speed),
        seed=seed,
    )


def _build_turn(rng: SplitMix64, spec: GenSpec, scenario_id: str, seed: int,
                hazard: bool) -> Scenario:
    speed = rng.uniform(*spec.speed_range)
    side = 1.0 if rng.next_float() < 0.5 else -1.0
    intent = MetaAction.TURN_LEFT if side > 0 else MetaAction.TURN_RIGHT
    agents = _adjacent_lane_vehicles(rng, spec, 1, (-side * LANE_WIDTH,))
    if hazard:
        vru = _crossing_vru(rng, speed, len(agents) + 1)
        agents.append(vru)
        # The recorded behavior postpones the turn and yields to the VRU.
        gt = postponed_turn_future(vru.position[0])
    else:
        gt = turn_future(speed, side)
    return Scenario(
        id=scenario_id,
        ego=EgoState(speed, 0.0),
        agents=tuple(agents),
        map=turn_map(side),
        route_intent=intent,
        gt_future=gt,
        seed=seed,
    )


def _build_fork(rng: SplitMix64, spec: GenSpec, scenario_id: str, seed: int,
                side: float | None = None) -> Scenario:
    speed = rng.uniform(*spec.speed_range)
    if side is None:
        side = 1.0 if rng.next_float() < 0.5 else -1.0
    intent = MetaAction.TURN_LEFT if side > 0 else MetaAction.TURN_RIGHT
    return Scenario(
        id=scenario_id,
        ego=EgoState(speed, 0.0),
        agents=(),
        map=fork_map(),
        route_intent=intent,
        gt_future=turn_future(speed, side),
        seed=seed,
    )


def mirror_scenario(s: Scenario, new_id: str) -> Scenario:
    """Negate every y coordinate and heading and swap left/right intents; the
    ego, at the origin with heading 0, stays. ``0.0 - v`` is ``-v`` for any
    nonzero v, and +0.0, not -0.0, for a zero."""
    flip = {
        MetaAction.TURN_LEFT: MetaAction.TURN_RIGHT,
        MetaAction.TURN_RIGHT: MetaAction.TURN_LEFT,
        MetaAction.GO_STRAIGHT: MetaAction.GO_STRAIGHT,
    }
    return Scenario(
        id=new_id,
        ego=s.ego,
        agents=tuple(
            AgentTrack(a.id, a.kind, (a.position[0], 0.0 - a.position[1]),
                       normalize_heading(0.0 - a.heading), a.speed, a.extent,
                       tuple((x, 0.0 - y) for x, y in a.future))
            for a in s.agents
        ),
        map=tuple(
            MapPolyline(m.id, m.kind, tuple((x, 0.0 - y) for x, y in m.points))
            for m in s.map
        ),
        route_intent=flip[s.route_intent],
        gt_future=tuple((x, 0.0 - y) for x, y in s.gt_future),
        seed=s.seed,
    )


_MIXED_CHOICES = (Suite.CRUISE, Suite.TURNS, Suite.HAZARD_VRU, Suite.SYMMETRIC_FORK)


def generate(spec: GenSpec) -> list[Scenario]:
    """Generate spec.n_scenarios scenarios with distinct ids, bit-deterministically;
    ``scene.scenario_json`` validates each one as it writes it."""
    spec.validate()
    master = SplitMix64(spec.seed)
    scenarios: list[Scenario] = []
    tag = spec.suite.value.lower()
    index = 0
    while len(scenarios) < spec.n_scenarios:
        rng = master.substream(index)
        seed = rng.next_u64()
        scenario_id = f"{tag}-{spec.seed}-{index:05d}"
        suite = spec.suite
        if suite is Suite.MIXED:
            suite = _MIXED_CHOICES[rng.randint(len(_MIXED_CHOICES))]
        if suite is Suite.CRUISE:
            scenarios.append(_build_cruise(rng, spec, scenario_id, seed))
        elif suite is Suite.TURNS:
            scenarios.append(_build_turn(rng, spec, scenario_id, seed, hazard=False))
        elif suite is Suite.HAZARD_VRU:
            scenarios.append(_build_turn(rng, spec, scenario_id, seed, hazard=True))
        elif spec.suite is Suite.MIXED:
            scenarios.append(_build_fork(rng, spec, scenario_id, seed))
        else:
            # SYMMETRIC_FORK: even index is a fresh fork, odd is its mirror.
            base = _build_fork(rng, spec, scenario_id, seed, side=1.0)
            scenarios.append(base)
            if len(scenarios) < spec.n_scenarios:
                index += 1
                scenarios.append(mirror_scenario(base, f"{tag}-{spec.seed}-{index:05d}"))
        index += 1
    return scenarios


def split(scenarios: list[Scenario], train_frac: float,
          seed: int) -> tuple[list[Scenario], list[Scenario]]:
    """Seeded shuffle then prefix split: disjoint, exhaustive, deterministic, both nonempty."""
    if not (0.0 < train_frac < 1.0):
        raise ValueError(f"train_frac {train_frac} outside (0, 1)")
    shuffled = list(scenarios)
    cut = int(train_frac * len(shuffled) + 1e-9)
    if not 0 < cut < len(shuffled):
        raise ValueError(f"train_frac {train_frac} of {len(shuffled)} scenarios leaves the "
                         f"{'train' if cut == 0 else 'eval'} part empty")
    SplitMix64(seed).shuffle(shuffled)
    return shuffled[:cut], shuffled[cut:]
