import math

import pytest

from vecdrive.scene import (
    AgentKind,
    AgentTrack,
    EgoState,
    MapKind,
    MapPolyline,
    MetaAction,
    Scenario,
    normalize_heading,
    scenario_to_dict,
)


def make_ego(speed=4.0, accel=0.0):
    return EgoState(speed=speed, accel=accel)


def moved_scene_dict(s, dx, dy, theta=0.0):
    """``scenario_to_dict(s)`` rotated by ``theta`` about the origin, then moved by
    (dx, dy): the ego's x, y and heading keys, which no ``EgoState`` holds, and
    every agent, map and gt point."""
    c, sn = math.cos(theta), math.sin(theta)

    def move(p):
        return [c * p[0] - sn * p[1] + dx, sn * p[0] + c * p[1] + dy]

    obj = scenario_to_dict(s)
    for record in (obj["ego"], *obj["agents"]):
        record["x"], record["y"] = move((record["x"], record["y"]))
        record["heading"] = normalize_heading(record["heading"] + theta)
    for a in obj["agents"]:
        a["future"] = [move(p) for p in a["future"]]
    for m in obj["map"]:
        m["points"] = [move(p) for p in m["points"]]
    obj["gt_future"] = [move(p) for p in obj["gt_future"]]
    return obj


def make_agent(agent_id=1, kind=AgentKind.VEHICLE, position=(10.0, 3.5),
               heading=0.0, speed=3.0, extent=(4.2, 1.8), future=None):
    if future is None:
        future = tuple(
            (position[0] + speed * 0.5 * k * math.cos(heading),
             position[1] + speed * 0.5 * k * math.sin(heading))
            for k in range(1, 7)
        )
    return AgentTrack(id=agent_id, kind=kind, position=position, heading=heading,
                      speed=speed, extent=extent, future=tuple(future))


def make_polyline(line_id=1, kind=MapKind.LANE_CENTER, y=0.0, x0=0.0, step=10.0):
    return MapPolyline(
        id=line_id, kind=kind,
        points=tuple((x0 + step * i, y) for i in range(4)),
    )


def make_scenario(scenario_id="s0", agents=(), polylines=None,
                  route_intent=MetaAction.GO_STRAIGHT, speed=4.0, gt_future=None,
                  seed=0, ego=None):
    if polylines is None:
        polylines = (make_polyline(),)
    if gt_future is None:
        gt_future = tuple((speed * 0.5 * k, 0.0) for k in range(1, 7))
    if ego is None:
        ego = make_ego(speed=speed)
    s = Scenario(
        id=scenario_id, ego=ego, agents=tuple(agents), map=tuple(polylines),
        route_intent=route_intent, gt_future=gt_future, seed=seed,
    )
    s.validate()
    return s


@pytest.fixture
def basic_scenario():
    return make_scenario(agents=(make_agent(),))
