import copy
import dataclasses
import enum
import math
import os
from dataclasses import replace
from decimal import Decimal
from fractions import Fraction
from types import MappingProxyType

import pytest
from hypothesis import given, settings, strategies as st

from vecdrive import jsonio, scene, simgen
from vecdrive.scene import (
    AgentKind,
    MapKind,
    MetaAction,
    Scenario,
    ScenarioLoadError,
    ValidationError,
    load_scenarios,
    normalize_heading,
    save_scenarios,
    scenario_from_dict,
    scenario_json,
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
                 gt_future=tuple((0.5 * k, 0.0) for k in range(1, 7)))
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
        make_scenario(gt_future=tuple((0.5 * k, 0.0) for k in range(1, 8)))
    assert err.value.field == "gt_future"
    assert err.value.message == "expected 6 waypoints, got 7"


def test_negative_speed_rejected():
    with pytest.raises(ValidationError) as err:
        make_scenario(ego=make_ego(speed=-1.0))
    assert "speed" in err.value.field


def test_non_positive_extent_rejected():
    with pytest.raises(ValidationError) as err:
        make_scenario(agents=(make_agent(extent=(0.0, 1.0)),))
    assert "length" in err.value.field


def test_heading_out_of_range_rejected():
    # The ego holds no heading; a file's ego heading other than 0 is refused
    # as test_ego_origin checks.
    with pytest.raises(ValidationError) as err:
        make_scenario(agents=(make_agent(heading=3.5),))
    assert err.value.field == "agents[0].heading"


@pytest.mark.parametrize("coordinate, error", [
    (7, ValidationError), (math.nan, ValidationError), (math.inf, ValidationError),
    ("1.5", ValidationError), (None, ValidationError), ("x", ValidationError),
    (True, ValidationError), (10 ** 400, ValidationError),
])
def test_point_check_takes_what_float_takes(coordinate, error):
    # A coordinate is an exact, finite float: what a float field of a loaded
    # scenario holds. The decoder turns a file's int into a float; a scene
    # built in code with an int would load back with another type, so
    # validate() refuses it, and save_scenarios with it. float() alone would
    # take "1.5" and True. The whole-list check falls back to the per-point
    # loop, which must say the same.
    future = [(10.0 + k, 3.5) for k in range(6)]
    future[4] = (10.0, coordinate)
    agent = make_agent(future=future)
    with pytest.raises(error) as err:
        agent.validate("agents[0]")
    assert err.value.field == "agents[0].future[4][1]"
    if type(coordinate) is float:
        assert err.value.message == f"non-finite value {coordinate!r}"
    else:
        assert err.value.message == f"expected float, got {type(coordinate).__name__}"


def test_polyline_repeated_point_rejected():
    from vecdrive.scene import MapPolyline
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
                   gt_future=tuple((0.5 * k, 0.0) for k in range(1, 7)))
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


def with_agent(s, **changes):
    return replace(s, agents=(replace(s.agents[0], **changes), *s.agents[1:]))


def with_future_y(s, coordinate):
    future = list(s.agents[0].future)
    future[4] = (future[4][0], coordinate)
    return with_agent(s, future=tuple(future))


#: Scenarios built in code with one field of a type the loader refuses:
#: (fault, build, field the loader names, whether scenario_to_dict can
#: write it at all). A str label has no ``.value`` to write.
CODE_BUILT_FAULTS = [
    ("str coordinate", lambda s: with_future_y(s, "1.5"), "agents[0].future[4][1]", True),
    ("huge coordinate", lambda s: with_future_y(s, 10 ** 400), "agents[0].future[4][1]", True),
    ("bool agent id", lambda s: with_agent(s, id=True), "agents[0].id", True),
    ("bool polyline id", lambda s: replace(s, map=(replace(s.map[0], id=True),)), "map[0].id",
     True),
    ("int scenario id", lambda s: replace(s, id=7), "id", True),
    ("bool seed", lambda s: replace(s, seed=True), "seed", True),
    ("str agent kind", lambda s: with_agent(s, kind="VEHICLE"), "agents[0].kind", False),
    ("str route intent", lambda s: replace(s, route_intent="GO_STRAIGHT"), "route_intent", False),
]


@pytest.mark.parametrize("build, field, writable", [case[1:] for case in CODE_BUILT_FAULTS],
                         ids=[case[0] for case in CODE_BUILT_FAULTS])
def test_save_refuses_what_load_refuses(tmp_path, build, field, writable):
    bad = build(make_scenario("s", agents=(make_agent(),)))
    p = tmp_path / "out.jsonl"
    with pytest.raises(ValidationError) as err:
        save_scenarios([bad], p)
    assert err.value.field == field
    assert not p.exists()
    if writable:    # the same line written without validation: the loader names the field
        p.write_text(jsonio.dumps(scenario_to_dict(bad)) + "\n")
        with pytest.raises(ScenarioLoadError) as err:
            load_scenarios(p)
        assert err.value.field == field


def with_future_point(s, point):
    future = list(s.agents[0].future)
    future[2] = point
    return with_agent(s, future=tuple(future))


#: Scenarios built in code with a point, position or extent that is not a
#: sequence of two: (fault, build, field validate() names).
CODE_BUILT_SHAPES = [
    ("int point", lambda s: with_future_point(s, 5), "agents[0].future[2]"),
    ("None point", lambda s: with_future_point(s, None), "agents[0].future[2]"),
    ("set point", lambda s: with_future_point(s, {1.0, 2.0}), "agents[0].future[2]"),
    ("dict point", lambda s: with_future_point(s, {"x": 1.0, "y": 2.0}), "agents[0].future[2]"),
    ("int position", lambda s: with_agent(s, position=5), "agents[0].position"),
    ("int extent", lambda s: with_agent(s, extent=5), "agents[0].extent"),
    ("3-tuple extent", lambda s: with_agent(s, extent=(4.2, 1.8, 1.5)), "agents[0].extent"),
]


@pytest.mark.parametrize("build, field", [case[1:] for case in CODE_BUILT_SHAPES],
                         ids=[case[0] for case in CODE_BUILT_SHAPES])
def test_validate_names_a_field_that_is_not_a_pair(tmp_path, build, field):
    bad = build(make_scenario("s", agents=(make_agent(),)))
    with pytest.raises(ValidationError) as err:
        bad.validate()
    assert err.value.field == field
    p = tmp_path / "out.jsonl"
    with pytest.raises(ValidationError) as saved:
        save_scenarios([bad], p)
    assert (saved.value.field, saved.value.message) == (field, err.value.message)
    assert not p.exists()


def leaves(value, path=()):
    """(path, value) of every number, id, seed, label and coordinate of a scenario."""
    if dataclasses.is_dataclass(value):
        for f in dataclasses.fields(value):
            yield from leaves(getattr(value, f.name), (*path, f.name))
    elif isinstance(value, tuple):
        for i, item in enumerate(value):
            yield from leaves(item, (*path, i))
    else:
        yield path, value


def replace_leaf(value, path, new):
    if not path:
        return new
    head, rest = path[0], path[1:]
    if isinstance(head, int):
        return (*value[:head], replace_leaf(value[head], rest, new), *value[head + 1:])
    return replace(value, **{head: replace_leaf(getattr(value, head), rest, new)})


#: Values of every type a leaf could be given, 10**400 past the float range.
OTHER_VALUES = st.one_of(
    st.none(), st.booleans(), st.integers(), st.just(10 ** 400),
    st.floats(allow_nan=True, allow_infinity=True), st.text(max_size=6),
    st.sampled_from([*MetaAction, *AgentKind, *MapKind]),
    st.sampled_from([m.value for m in (*MetaAction, *AgentKind, *MapKind)]),
    st.just([]), st.just((1.0, 2.0)),
)


@pytest.fixture(scope="module")
def simgen_scenario():
    spec = simgen.GenSpec(n_scenarios=8, seed=4, suite=simgen.Suite.MIXED, agent_density=1.0)
    return next(s for s in simgen.generate(spec) if s.agents and s.map)


def read_back(scenario, path):
    """What the scenario's line, written without validation, loads as; None if nothing."""
    try:
        line = jsonio.dumps(scenario_to_dict(scenario))
    except (AttributeError, TypeError, ValueError):     # cannot be written at all
        return None
    path.write_text(line + "\n")
    try:
        return load_scenarios(path)[0]
    except ScenarioLoadError:
        return None


@settings(derandomize=True, max_examples=400, deadline=None)
@given(data=st.data())
def test_validate_accepts_exactly_what_round_trips(simgen_scenario, tmp_path_factory, data):
    path, old = data.draw(st.sampled_from(list(leaves(simgen_scenario))))
    new = data.draw(OTHER_VALUES.filter(lambda v: type(v) is not type(old)))
    scenario = replace_leaf(simgen_scenario, path, new)
    out = tmp_path_factory.getbasetemp() / "leaf.jsonl"
    try:
        scenario.validate()
        accepted = True
    except ValidationError:
        accepted = False
    back = read_back(scenario, out)
    # Round-tripping keeps the leaf's type: the emitter writes 5.0 as ``5``,
    # so a float id or seed would load back as an int, and an int in a float
    # field loads back as a float.
    round_trips = (back is not None and back == replace_leaf(simgen_scenario, path, new)
                   and type(dict(leaves(back))[path]) is type(new))
    assert accepted == round_trips
    if accepted:
        save_scenarios([scenario], out)
        assert load_scenarios(out) == [back]


# --- canonical JSON ----------------------------------------------------------

def test_float_formatting_round_trips():
    for x in [0.1, 1 / 3, math.pi, 1e-17, 123456.789, -0.25]:
        assert float(jsonio.format_float(x)) == x


def test_dumps_rejects_non_finite():
    with pytest.raises(ValueError):
        jsonio.dumps({"x": float("nan")})


# --- scenario_json -------------------------------------------------------------

class IntSub(int):
    pass


class FloatSub(float):
    pass


class StrSub(str):
    pass


class OddKind(enum.Enum):
    """Members whose values the emitter must escape or write as numbers."""
    QUOTE = 'a"b'
    NUMBER = 5


def nodes(value, path=()):
    """(path, value) of every tuple in a scenario: point lists, points, positions, extents."""
    if dataclasses.is_dataclass(value):
        for f in dataclasses.fields(value):
            yield from nodes(getattr(value, f.name), (*path, f.name))
    elif isinstance(value, tuple):
        yield path, value
        for i, item in enumerate(value):
            yield from nodes(item, (*path, i))


#: Ids and labels with quotes, backslashes, control characters and non-ASCII.
AWKWARD_TEXT = st.text(st.one_of(st.sampled_from('"\\/\x00\x1f\x7f é漢😀'), st.characters()),
                       max_size=8)

#: What a code-built scenario may hold in place of a value of the fast path.
AWKWARD_VALUES = [
    0, 7, -7, 10 ** 17, -10 ** 17, 12345678901234567, 10 ** 400, True, False, None,
    IntSub(3), IntSub(10 ** 17), FloatSub(1.5), StrSub('a"b'), "1.5", 'q"\\\x00\x1fé漢',
    -0.0, 5e-324, 2.2250738585072e-308, 1e300, -1e300, math.nan, math.inf, -math.inf,
    [], (1.0, 2.0), (1.0, 2.0, 3.0), {1.0, 2.0}, Fraction(1, 3), Decimal("sNaN"),
    *MetaAction, *AgentKind, *MapKind, *(m.value for m in (*MetaAction, *AgentKind, *MapKind)),
    *OddKind,
]

EMITTER_VALUES = st.one_of(
    st.sampled_from(AWKWARD_VALUES), st.integers(), st.integers().map(IntSub),
    st.floats(allow_nan=True, allow_infinity=True), st.floats(allow_nan=False).map(FloatSub),
    AWKWARD_TEXT, AWKWARD_TEXT.map(StrSub),
)


def generic_line(scenario):
    return jsonio.dumps(scenario_to_dict(scenario))


def assert_written_iff_valid(build):
    """Either ``validate()`` passes and ``scenario_json`` writes what the generic
    emitter writes, or both raise ``ValidationError`` with the same field and
    message. ``build()`` makes the scene afresh for each call, so a generator
    in it is read by one call only."""
    try:
        build().validate()
    except ValidationError as e:
        with pytest.raises(ValidationError) as err:
            scenario_json(build())
        assert (err.value.field, err.value.message) == (e.field, e.message)
    else:
        assert scenario_json(build()) == generic_line(build())


@st.composite
def simgen_scenarios(draw):
    spec = simgen.GenSpec(n_scenarios=3, seed=draw(st.integers(0, 2 ** 32)),
                          suite=draw(st.sampled_from(simgen.Suite)),
                          agent_density=draw(st.floats(0.0, 1.0)))
    return draw(st.sampled_from(simgen.generate(spec)))


def with_generator(scenario, field):
    """``scenario`` with a generator over its ``field`` (agents or map) in its place."""
    return replace(scenario, **{field: (x for x in getattr(scenario, field))})


@settings(derandomize=True, max_examples=300, deadline=None)
@given(data=st.data())
def test_scenario_json_writes_what_the_generic_emitter_writes(data):
    scenario = data.draw(simgen_scenarios())
    # Every generated scenario is valid and written.
    assert scenario_json(scenario) == generic_line(scenario)
    if data.draw(st.booleans()):
        scenario = replace(scenario, id=data.draw(AWKWARD_TEXT))
    for _ in range(data.draw(st.integers(0, 3))):
        if data.draw(st.booleans()):
            path, old = data.draw(st.sampled_from(list(leaves(scenario))))
            new = data.draw(EMITTER_VALUES)
        else:   # a list in place of a tuple
            path, old = data.draw(st.sampled_from(list(nodes(scenario))))
            new = list(old)
        scenario = replace_leaf(scenario, path, new)
    field = data.draw(st.sampled_from([None, "agents", "map"]))
    assert_written_iff_valid(lambda: scenario if field is None
                             else with_generator(scenario, field))


def test_scenario_json_writes_what_the_generic_emitter_writes_for_each_field(simgen_scenario):
    # Every field of the schema (the first agent, polyline and point stand
    # for the rest) against every awkward value, and every tuple as a list.
    fields = {}
    for path, _ in leaves(simgen_scenario):
        fields.setdefault(tuple(0 if isinstance(k, int) else k for k in path), path)
    cases = [(path, new) for path in fields.values() for new in AWKWARD_VALUES]
    cases += [(path, list(old)) for path, old in nodes(simgen_scenario)]
    for path, new in cases:
        scenario = replace_leaf(simgen_scenario, path, new)
        assert_written_iff_valid(lambda: scenario)


@pytest.mark.parametrize("field", ["agents", "map"])
def test_scenario_json_reads_a_generator_once(simgen_scenario, field):
    # A generator in place of a tuple, alone and after an int speed: each
    # call reads a fresh generator, and both calls refuse it alike.
    int_speed = replace_leaf(simgen_scenario, ("ego", "speed"), 5)
    for scenario in (simgen_scenario, int_speed):
        assert_written_iff_valid(lambda: with_generator(scenario, field))


def test_a_valid_scene_whose_numbers_sum_past_the_float_range_is_written(tmp_path):
    spec = simgen.GenSpec(n_scenarios=8, seed=4, agent_density=1.0)
    s = next(s for s in simgen.generate(spec) if s.agents)
    far = replace(s, agents=(replace(s.agents[0], position=(1e308, 1e308)), *s.agents[1:]))
    far.validate()
    assert scenario_json(far) == generic_line(far)
    save_scenarios([far], tmp_path / "far.jsonl")
    assert load_scenarios(tmp_path / "far.jsonl") == [far]


# --- scenario_from_dict: the one pass against the checked path -------------------

def decoded(decode, obj):
    """Each leaf of the scenario ``decode`` builds, with its type; the
    ``(field, message)`` it raises; or None."""
    try:
        s = decode(obj)
    except ValidationError as e:
        return e.field, e.message
    return None if s is None else [(path, type(v), repr(v)) for path, v in leaves(s)]


def json_nodes(value, path=()):
    """(path, value) of every node of a decoded line, the line itself first."""
    yield path, value
    if type(value) is dict:
        for key, item in value.items():
            yield from json_nodes(item, (*path, key))
    elif type(value) is list:
        for i, item in enumerate(value):
            yield from json_nodes(item, (*path, i))


def set_node(obj, path, new):
    if not path:
        return new
    parent = obj
    for key in path[:-1]:
        parent = parent[key]
    parent[path[-1]] = new
    return obj


#: Values at the bounds the one pass checks itself: numbers, and an empty id.
BOUND_VALUES = [math.pi, -math.pi, 4, -4.0, -1, -0.0, 2 ** 64 - 1, 2 ** 64, 1e308, ""]

#: What a line, or a dict built in code, may hold in place of a field.
DECODER_VALUES = st.one_of(
    st.sampled_from(AWKWARD_VALUES + BOUND_VALUES), st.booleans(), st.integers(-2, 9),
    st.integers(), st.integers().map(IntSub), st.floats(allow_nan=True, allow_infinity=True),
    st.floats(allow_nan=False).map(FloatSub), AWKWARD_TEXT,
)


def shape(path):
    """A node's path with every list index as ``*``: its field in the schema."""
    return tuple("*" if isinstance(key, int) else key for key in path)


def assert_one_pass_agrees(obj):
    checked = decoded(scene._scenario_checked, obj)
    fast = decoded(scene._scenario_fast, obj)
    assert fast is None or fast == checked, obj
    assert decoded(scenario_from_dict, obj) == checked


def test_one_pass_builds_what_the_checked_path_builds_for_each_field(simgen_scenario):
    # Every field of the line (the first agent, polyline and point stand for
    # the rest) against every awkward value, and every object and list
    # changed in shape: wrapped, short of a key or an item, with one more,
    # or with every item the same (a repeated point or agent id).
    line = scenario_json(simgen_scenario)
    fields = {}
    for path, node in json_nodes(jsonio.loads(line)):
        fields.setdefault(shape(path), (path, node))
    for path, node in fields.values():
        variants = [*AWKWARD_VALUES, *BOUND_VALUES]
        if type(node) is dict:
            variants += [MappingProxyType(node), {**node, "extra": 1},
                         *({k: v for k, v in node.items() if k != key} for key in node)]
        elif type(node) is list:
            variants += [tuple(node), node[:-1], node + node[-1:], node[:1] * len(node)]
        for new in variants:
            assert_one_pass_agrees(set_node(jsonio.loads(line), path, new))
    # Too many agents (with distinct ids), too many polylines, and both as tuples.
    obj = jsonio.loads(line)
    obj["agents"] = [{**obj["agents"][0], "id": k} for k in range(scene.A_MAX + 1)]
    assert_one_pass_agrees(obj)
    obj = jsonio.loads(line)
    obj["map"] = obj["map"][:1] * (scene.M_MAX + 1)
    assert_one_pass_agrees(obj)
    obj = jsonio.loads(line)
    obj["agents"], obj["map"] = tuple(obj["agents"]), tuple(obj["map"])
    assert_one_pass_agrees(obj)


@settings(derandomize=True, max_examples=300, deadline=None)
@given(data=st.data())
def test_one_pass_builds_what_the_checked_path_builds_or_defers(data):
    scenario = data.draw(simgen_scenarios())
    obj = jsonio.loads(scenario_json(scenario))
    # Every generated scenario takes the one pass.
    assert decoded(scene._scenario_fast, obj) == decoded(scene._scenario_checked, obj)
    for _ in range(data.draw(st.integers(1, 3))):
        nodes = list(json_nodes(obj))
        field = data.draw(st.sampled_from(sorted({shape(p) for p, _ in nodes}, key=repr)))
        path, node = data.draw(st.sampled_from([n for n in nodes if shape(n[0]) == field]))
        change = data.draw(st.sampled_from(["replace", "delete", "extra", "container", "copy"]))
        if change == "replace":
            obj = set_node(obj, path, data.draw(DECODER_VALUES))
        elif change == "container" and type(node) in (dict, list):
            wrapped = MappingProxyType(node) if type(node) is dict else tuple(node)
            obj = set_node(obj, path, wrapped)
        elif change == "delete" and node:
            if type(node) is dict:
                del node[data.draw(st.sampled_from(sorted(node)))]
            elif type(node) is list:
                del node[data.draw(st.integers(0, len(node) - 1))]
        elif change == "extra" and type(node) is dict:
            node[data.draw(st.text(max_size=8))] = data.draw(DECODER_VALUES)
        elif change == "copy" and type(node) is list and node:
            i = data.draw(st.integers(0, len(node)))    # over its neighbour, or appended
            item = copy.deepcopy(node[max(i - 1, 0)])
            if i < len(node):
                node[i] = item
            else:
                node.append(item)
    assert_one_pass_agrees(obj)


@pytest.mark.parametrize("speeds", [(2.0, 6.0), (0.0, 0.0)], ids=["default-speeds", "speed-0"])
def test_load_never_falls_back_on_simgen_files(tmp_path, monkeypatch, speeds):
    def fallback(obj):
        raise AssertionError("a generated line left the one pass")
    monkeypatch.setattr(scene, "_scenario_checked", fallback)
    for suite in simgen.Suite:
        for density in (0.0, 0.5, 1.0):
            spec = simgen.GenSpec(n_scenarios=40, seed=5, suite=suite, agent_density=density,
                                  speed_range=speeds)
            scenarios = simgen.generate(spec)
            path = tmp_path / f"{suite.value}-{density}.jsonl"
            save_scenarios(scenarios, path)
            assert load_scenarios(path) == scenarios
