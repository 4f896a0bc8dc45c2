import math
import os

import pytest
from hypothesis import given, strategies as st

from vecdrive import jsonio
from vecdrive.scene import (
    AgentKind,
    MetaAction,
    Scenario,
    ScenarioLoadError,
    Trajectory,
    ValidationError,
    load_scenarios,
    normalize_heading,
    save_scenarios,
    scenario_from_dict,
    scenario_to_dict,
)

from conftest import make_agent, make_ego, make_polyline, make_scenario


# --- normalize_heading -------------------------------------------------------

def loop_normalize(theta: float) -> float:
    # Brute-force oracle: repeatedly add/subtract one full turn.
    while theta > math.pi:
        theta -= 2 * math.pi
    while theta <= -math.pi:
        theta += 2 * math.pi
    return theta


def test_normalize_zero():
    assert normalize_heading(0.0) == 0.0


def test_normalize_three_pi():
    assert normalize_heading(3 * math.pi) == pytest.approx(math.pi, abs=1e-12)


def test_normalize_against_loop_oracle():
    for theta in [-7.5, 7.5, 100.0, -100.0, 6.5, -6.5, 3.20, -3.20, 2.9, -2.9]:
        assert normalize_heading(theta) == pytest.approx(loop_normalize(theta), abs=1e-9)


def test_normalize_rejects_non_finite():
    with pytest.raises(ValidationError):
        normalize_heading(float("nan"))
    with pytest.raises(ValidationError):
        normalize_heading(float("inf"))


@given(st.floats(min_value=-1e6, max_value=1e6))
def test_normalize_properties(theta):
    r = normalize_heading(theta)
    assert -math.pi < r <= math.pi
    # Equivalent mod 2*pi.
    assert math.remainder(r - theta, 2 * math.pi) == pytest.approx(0.0, abs=1e-6)
    # Idempotent.
    assert normalize_heading(r) == r


# --- validation --------------------------------------------------------------

def test_valid_scenario_passes():
    make_scenario(agents=(make_agent(),)).validate()


def test_too_many_agents_rejected():
    agents = tuple(make_agent(agent_id=i, position=(5.0 + i, 3.5)) for i in range(9))
    s = Scenario(id="s", ego=make_ego(), agents=agents, map=(make_polyline(),),
                 route_intent=MetaAction.GO_STRAIGHT,
                 gt_future=Trajectory(tuple((0.5 * k, 0.0) for k in range(1, 7))))
    with pytest.raises(ValidationError) as err:
        s.validate()
    assert "agents" in err.value.field


def test_duplicate_agent_id_rejected():
    agents = (make_agent(agent_id=3), make_agent(agent_id=3, position=(20.0, -3.5)))
    with pytest.raises(ValidationError) as err:
        make_scenario(agents=agents)
    assert err.value.field.endswith(".id")


def test_bad_gt_future_length_rejected():
    with pytest.raises(ValidationError) as err:
        make_scenario(gt_future=Trajectory(tuple((0.5 * k, 0.0) for k in range(1, 8))))
    assert "gt_future" in err.value.field


def test_negative_speed_rejected():
    with pytest.raises(ValidationError) as err:
        make_scenario(ego=make_ego(speed=-1.0))
    assert "speed" in err.value.field


def test_non_positive_extent_rejected():
    with pytest.raises(ValidationError) as err:
        make_scenario(agents=(make_agent(extent=(0.0, 1.0)),))
    assert "length" in err.value.field


def test_heading_out_of_range_rejected():
    with pytest.raises(ValidationError) as err:
        make_scenario(ego=make_ego(heading=3.5))
    assert "heading" in err.value.field


@pytest.mark.parametrize("coordinate, error", [
    ("1.5", None), (7, None), (math.nan, ValidationError), (math.inf, ValidationError),
    (None, TypeError), ("x", ValueError), (10 ** 400, OverflowError),
])
def test_point_check_takes_what_float_takes(coordinate, error):
    # The whole-list check falls back to the per-point loop, which calls
    # float() on each coordinate; both must accept and refuse the same.
    future = [(10.0 + k, 3.5) for k in range(6)]
    future[4] = (10.0, coordinate)
    agent = make_agent(future=future)
    if error is None:
        agent.validate("agents[0]")
        return
    with pytest.raises(error) as err:
        agent.validate("agents[0]")
    if error is ValidationError:
        assert err.value.field == "agents[0].future[4][1]"


def test_polyline_repeated_point_rejected():
    from vecdrive.scene import MapPolyline, MapKind
    bad = MapPolyline(id=1, kind=MapKind.LANE_CENTER,
                      points=((0.0, 0.0), (1.0, 0.0), (1.0, 0.0), (2.0, 0.0)))
    with pytest.raises(ValidationError):
        bad.validate("map[0]")


def test_meta_action_round_trip():
    for action in MetaAction:
        assert MetaAction.parse(action.value) is action
    with pytest.raises(ValidationError):
        MetaAction.parse("REVERSE")


# --- serialization -----------------------------------------------------------

def test_load_empty_file(tmp_path):
    p = tmp_path / "empty.jsonl"
    p.write_text("")
    assert load_scenarios(p) == []


def test_save_load_round_trip(tmp_path):
    scenarios = [
        make_scenario("a", agents=(make_agent(),)),
        make_scenario("b", agents=(make_agent(2, AgentKind.PEDESTRIAN, (6.0, 2.0), 1.25, 1.4),),
                      route_intent=MetaAction.TURN_LEFT, speed=1.0 / 3.0),
    ]
    p = tmp_path / "scenes.jsonl"
    save_scenarios(scenarios, p)
    loaded = load_scenarios(p)
    assert loaded == scenarios
    assert [s.id for s in loaded] == ["a", "b"]


def test_save_is_byte_deterministic(tmp_path):
    scenarios = [make_scenario("a", agents=(make_agent(),), speed=math.pi)]
    p1 = tmp_path / "one.jsonl"
    p2 = tmp_path / "two.jsonl"
    save_scenarios(scenarios, p1)
    save_scenarios(scenarios, p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_save_rejects_invalid_before_writing(tmp_path):
    agents = tuple(make_agent(agent_id=i, position=(5.0 + i, 3.5)) for i in range(9))
    bad = Scenario(id="s", ego=make_ego(), agents=agents, map=(make_polyline(),),
                   route_intent=MetaAction.GO_STRAIGHT,
                   gt_future=Trajectory(tuple((0.5 * k, 0.0) for k in range(1, 7))))
    p = tmp_path / "out.jsonl"
    with pytest.raises(ValidationError):
        save_scenarios([make_scenario("ok"), bad], p)
    assert not p.exists()


def test_failed_save_keeps_previous_file(tmp_path, monkeypatch):
    p = tmp_path / "out.jsonl"
    save_scenarios([make_scenario("a")], p)
    before = p.read_bytes()

    def fail(*args):
        raise OSError("replace failed")

    monkeypatch.setattr(os, "replace", fail)
    with pytest.raises(OSError):
        save_scenarios([make_scenario("b"), make_scenario("c")], p)
    monkeypatch.undo()
    assert p.read_bytes() == before
    assert [f.name for f in tmp_path.iterdir()] == ["out.jsonl"]


def test_load_error_names_field_and_line(tmp_path):
    obj = scenario_to_dict(make_scenario("bad"))
    obj["gt_future"] = obj["gt_future"] + [[9.9, 9.9]]   # 7 points
    p = tmp_path / "bad.jsonl"
    p.write_text(jsonio.dumps(obj) + "\n")
    with pytest.raises(ScenarioLoadError) as err:
        load_scenarios(p)
    assert err.value.line == 1
    assert "gt_future" in err.value.field


def test_load_error_line_number_counts_from_one(tmp_path):
    good = jsonio.dumps(scenario_to_dict(make_scenario("ok")))
    obj = scenario_to_dict(make_scenario("bad"))
    obj["ego"]["speed"] = -2.0
    p = tmp_path / "mixed.jsonl"
    p.write_text(good + "\n" + jsonio.dumps(obj) + "\n")
    with pytest.raises(ScenarioLoadError) as err:
        load_scenarios(p)
    assert err.value.line == 2
    assert "speed" in err.value.field


def test_load_rejects_integer_too_large_for_a_float(tmp_path):
    obj = scenario_to_dict(make_scenario("huge"))
    obj["ego"]["speed"] = 10 ** 400
    p = tmp_path / "huge.jsonl"
    p.write_text(jsonio.dumps(obj) + "\n")
    with pytest.raises(ScenarioLoadError) as err:
        load_scenarios(p)
    assert (err.value.line, err.value.field) == (1, "ego.speed")


def test_load_rejects_duplicate_ids(tmp_path):
    line = jsonio.dumps(scenario_to_dict(make_scenario("dup")))
    p = tmp_path / "dup.jsonl"
    p.write_text(line + "\n" + line + "\n")
    with pytest.raises(ScenarioLoadError) as err:
        load_scenarios(p)
    assert err.value.line == 2
    assert err.value.field == "id"


def test_load_rejects_invalid_json(tmp_path):
    p = tmp_path / "garbage.jsonl"
    p.write_text("{not json\n")
    with pytest.raises(ScenarioLoadError) as err:
        load_scenarios(p)
    assert err.value.line == 1


def test_dict_round_trip_preserves_values():
    s = make_scenario("x", agents=(make_agent(),), speed=0.1)
    assert scenario_from_dict(scenario_to_dict(s)) == s


def test_unknown_action_label_in_file(tmp_path):
    obj = scenario_to_dict(make_scenario("bad"))
    obj["route_intent"] = "REVERSE"
    p = tmp_path / "bad.jsonl"
    p.write_text(jsonio.dumps(obj) + "\n")
    with pytest.raises(ScenarioLoadError) as err:
        load_scenarios(p)
    assert "route_intent" in err.value.field


# --- canonical JSON ----------------------------------------------------------

def test_float_formatting_round_trips():
    for x in [0.1, 1 / 3, math.pi, 1e-17, 123456.789, -0.25]:
        assert float(jsonio.format_float(x)) == x


def test_dumps_rejects_non_finite():
    with pytest.raises(ValueError):
        jsonio.dumps({"x": float("nan")})
