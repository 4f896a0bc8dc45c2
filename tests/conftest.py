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
)


def make_ego(speed=4.0, accel=0.0, heading=0.0, position=(0.0, 0.0)):
    return EgoState(position=position, heading=heading, speed=speed, accel=accel)


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
