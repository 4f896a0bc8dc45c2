"""A scenario is in the ego's frame: the ego sits at the origin with heading 0.

Every surface that takes a scenario refuses one whose ego was moved:
``validate()``, both decoder paths and ``load_scenarios``, the CLI (exit 3,
no result file) and the oracle server (an error object, then it serves
on). Unmoved scenes load and decide as before.
"""

import io
import math
from dataclasses import replace

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from vecdrive import jsonio, oracle_server, scene, simgen
from vecdrive.cli import main
from vecdrive.external import _encode_request
from vecdrive.oracle import Format, RuleOracle
from vecdrive.scene import (
    AgentTrack,
    EgoState,
    MapPolyline,
    Scenario,
    ScenarioLoadError,
    ValidationError,
    load_scenarios,
    normalize_heading,
    save_scenarios,
    scenario_json,
)

from conftest import make_ego, make_scenario

#: Two scenes of every suite at densities 0, 0.5 and 1, a seed (and so an id) each.
SCENES = [s for suite in simgen.Suite for seed, density in enumerate((0.0, 0.5, 1.0), 31)
          for s in simgen.generate(simgen.GenSpec(n_scenarios=2, seed=seed, suite=suite,
                                                  agent_density=density))]


def moved_scenario(s: Scenario, dx: float, dy: float, theta: float) -> Scenario:
    """``s`` rotated by ``theta`` about the origin, then moved by (dx, dy)."""
    c, sn = math.cos(theta), math.sin(theta)

    def move(p):
        return (c * p[0] - sn * p[1] + dx, sn * p[0] + c * p[1] + dy)

    return Scenario(
        id=s.id,
        ego=EgoState(move(s.ego.position), normalize_heading(s.ego.heading + theta),
                     s.ego.speed, s.ego.accel),
        agents=tuple(
            AgentTrack(a.id, a.kind, move(a.position), normalize_heading(a.heading + theta),
                       a.speed, a.extent, tuple(map(move, a.future)))
            for a in s.agents
        ),
        map=tuple(MapPolyline(m.id, m.kind, tuple(map(move, m.points))) for m in s.map),
        route_intent=s.route_intent,
        gt_future=tuple(map(move, s.gt_future)),
        seed=s.seed,
    )


OFFSETS = st.one_of(st.floats(-1e3, 1e3), st.sampled_from([0.0, -0.0, 5e-324, 30.0]))
ANGLES = st.floats(-math.pi, math.pi).filter(lambda t: normalize_heading(t) != 0)


@st.composite
def rigid_motions(draw):
    """(dx, dy, theta) of a translation, a rotation or both, never the identity."""
    kind = draw(st.sampled_from(["translate", "rotate", "both"]))
    dx, dy = (draw(OFFSETS), draw(OFFSETS)) if kind != "rotate" else (0.0, 0.0)
    theta = draw(ANGLES) if kind != "translate" else 0.0
    if dx == dy == theta == 0:
        dx = 30.0
    return dx, dy, theta


def refused_key(dx, dy):
    """The file key the decoder names for an ego moved by (dx, dy) and turned."""
    return "ego.x" if dx != 0 else "ego.y" if dy != 0 else "ego.heading"


@settings(derandomize=True, max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(index=st.integers(0, len(SCENES) - 1), motion=rigid_motions(),
       line=st.integers(0, 3))
def test_every_surface_refuses_a_moved_scene(tmp_path_factory, capsys, index, motion, line):
    dx, dy, theta = motion
    s = SCENES[index]
    moved = moved_scenario(s, dx, dy, theta)
    key = refused_key(dx, dy)
    # Only the ego makes the moved scene invalid.
    replace(moved, ego=s.ego).validate()

    with pytest.raises(ValidationError) as err:
        moved.validate()
    assert err.value.field == ("ego.heading" if key == "ego.heading" else "ego.position")

    obj = jsonio.loads(scenario_json(moved))
    assert scene._scenario_fast(obj) is None
    with pytest.raises(ValidationError) as err:
        scene._scenario_checked(obj)
    assert err.value.field == key

    others = [o for o in SCENES[:4] if o.id != s.id]
    lines = [scenario_json(o) for o in others]
    lines.insert(line, scenario_json(moved))
    work = tmp_path_factory.mktemp("moved")
    path = work / "scenarios.jsonl"
    path.write_text("".join(text + "\n" for text in lines))
    with pytest.raises(ScenarioLoadError) as err:
        load_scenarios(path)
    assert (err.value.line, err.value.field) == (line + 1, key)

    out = work / "out"
    capsys.readouterr()
    assert main(["eval-plan", "--scenarios", str(path), "--predict", "gt",
                 "--out", str(out)]) == 3
    assert f"{path}:{line + 1}: {key}: " in capsys.readouterr().err
    assert not out.exists() or not list(out.iterdir())

    replies = io.StringIO()
    requests = _encode_request(moved, Format.LONG) + _encode_request(s, Format.LONG)
    oracle_server.serve(io.BytesIO(requests), stdout=replies)
    error, reply = replies.getvalue().splitlines()
    assert list(jsonio.loads(error)) == ["v", "error"] and key in error
    decision = RuleOracle().decide(s, Format.LONG)
    assert jsonio.loads(reply) == {"v": 1, "action": decision.action.value,
                                   "rationale": decision.rationale_long,
                                   "hazard_ids": list(decision.hazard_ids)}


def test_unmoved_scenes_load_and_decide_as_generated(tmp_path):
    path = tmp_path / "scenarios.jsonl"
    save_scenarios(SCENES, path)
    assert load_scenarios(path) == SCENES
    replies = io.StringIO()
    oracle_server.serve(io.BytesIO(b"".join(_encode_request(s, Format.LONG) for s in SCENES)),
                        stdout=replies)
    decisions = [RuleOracle().decide(s, Format.LONG) for s in SCENES]
    assert [jsonio.loads(line) for line in replies.getvalue().splitlines()] == [
        {"v": 1, "action": d.action.value, "rationale": d.rationale_long,
         "hazard_ids": list(d.hazard_ids)} for d in decisions]


def test_a_negative_zero_ego_loads_on_both_decoder_paths():
    obj = jsonio.loads(scenario_json(SCENES[0]))
    obj["ego"].update(x=-0.0, y=-0.0, heading=-0.0)
    assert scene._scenario_fast(obj) == scene._scenario_checked(obj)
    assert scene._scenario_fast(obj).ego.position == (-0.0, -0.0)


@pytest.mark.parametrize("ego, field", [
    (make_ego(position=(-0.0, -0.0), heading=-0.0), None),
    (make_ego(position=(0, 0), heading=0), None),
    (make_ego(position=(1e-300, 0.0)), "ego.position"),
    (make_ego(position=(0.0, -2.0)), "ego.position"),
    (make_ego(heading=-1e-9), "ego.heading"),
    (make_ego(heading=math.pi), "ego.heading"),
], ids=["negative-zero", "int-zero", "tiny-x", "y", "tiny-heading", "pi"])
def test_validate_takes_only_the_origin_with_heading_0(ego, field):
    if field is None:
        make_scenario(ego=ego)
        return
    with pytest.raises(ValidationError) as err:
        make_scenario(ego=ego)
    assert err.value.field == field
    assert "is not 0: the ego sits at the origin with heading 0" in err.value.message
