"""A scenario is in the ego's frame: the ego sits at the origin with heading 0.

``EgoState`` holds only the ego's speed and acceleration, so no scenario
can hold a moved ego; a file or a request still can. Every surface that
reads one refuses a scene whose ego was moved: both decoder paths and
``load_scenarios``, the CLI (exit 3, no result file) and the oracle server
(an error object, then it serves on). Unmoved scenes load and decide as
before.
"""

import io
import math

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from vecdrive import jsonio, oracle_server, scene, simgen
from vecdrive.cli import main
from vecdrive.external import _encode_request
from vecdrive.oracle import Format, RuleOracle
from vecdrive.scene import (
    ScenarioLoadError,
    ValidationError,
    load_scenarios,
    normalize_heading,
    save_scenarios,
    scenario_json,
)

from conftest import moved_scene_dict

#: Two scenes of every suite at densities 0, 0.5 and 1, a seed (and so an id) each.
SCENES = [s for suite in simgen.Suite for seed, density in enumerate((0.0, 0.5, 1.0), 31)
          for s in simgen.generate(simgen.GenSpec(n_scenarios=2, seed=seed, suite=suite,
                                                  agent_density=density))]


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
    moved = jsonio.dumps(moved_scene_dict(s, dx, dy, theta))
    key = refused_key(dx, dy)
    obj = jsonio.loads(moved)
    # Only the ego makes the moved scene invalid.
    scene.scenario_from_dict({**obj, "ego": {**obj["ego"], "x": 0, "y": 0, "heading": 0}})

    assert scene._scenario_fast(obj) is None
    with pytest.raises(ValidationError) as err:
        scene._scenario_checked(obj)
    assert err.value.field == key

    others = [o for o in SCENES[:4] if o.id != s.id]
    lines = [scenario_json(o) for o in others]
    lines.insert(line, moved)
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
    request = jsonio.dumps({"v": 1, "format": "long", "scenario": obj}) + "\n"
    oracle_server.serve(io.BytesIO(request.encode() + _encode_request(s, Format.LONG)),
                        stdout=replies)
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
    assert scene._scenario_fast(obj) == scene._scenario_checked(obj) == SCENES[0]
    # The ego holds no pose, so it is written back at +0.
    assert scenario_json(scene._scenario_fast(obj)) == scenario_json(SCENES[0])


@pytest.mark.parametrize("pose, field", [
    ((-0.0, -0.0, -0.0), None),
    ((0, 0, 0), None),
    ((1e-300, 0.0, 0.0), "ego.x"),
    ((0.0, -2.0, 0.0), "ego.y"),
    ((0.0, 0.0, -1e-9), "ego.heading"),
    ((0.0, 0.0, math.pi), "ego.heading"),
], ids=["negative-zero", "int-zero", "tiny-x", "y", "tiny-heading", "pi"])
def test_the_decoder_takes_only_the_origin_with_heading_0(pose, field):
    obj = jsonio.loads(scenario_json(SCENES[0]))
    obj["ego"].update(zip(("x", "y", "heading"), pose))
    if field is None:
        assert scene._scenario_fast(obj) == scene._scenario_checked(obj) == SCENES[0]
        return
    assert scene._scenario_fast(obj) is None
    with pytest.raises(ValidationError) as err:
        scene.scenario_from_dict(obj)
    assert err.value.field == field
    assert "is not 0: the ego sits at the origin with heading 0" in err.value.message
