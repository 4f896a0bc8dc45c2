import copy
import hashlib
import math
import pickle

import pytest

from vecdrive import jsonio, planner, simgen
from vecdrive import oracle as oracle_module
from vecdrive.oracle import (
    APPROACH_LENGTH,
    CORRIDOR_HALF_WIDTH,
    POSTPONEMENT_CLAUSE,
    TURN_RADIUS,
    _KIND_NOUN,
    _MAP_NOUN,
    _TURN_WORD,
    Format,
    MetaDecision,
    QATask,
    bearing_sector,
    compass_direction,
    corridor_centerline_distance,
    generate_qa,
    planning_accuracy,
    point_in_turn_corridor,
    qa_item_from_dict,
    qa_item_to_dict,
    RuleOracle,
    rule_oracle_decide,
)
from vecdrive.rng import SplitMix64
from vecdrive.scene import (
    AgentKind,
    AgentTrack,
    MapKind,
    MapPolyline,
    MetaAction,
    Scenario,
    VRU_KINDS,
    normalize_heading,
)

from conftest import make_agent, make_scenario


def vru_crossing_left_corridor(agent_id=7):
    # Future point 3 sits exactly on the left-turn arc centerline.
    phi = 0.6
    target = (TURN_RADIUS * math.sin(phi), TURN_RADIUS * (1 - math.cos(phi)))
    vel = (0.0, -1.4)
    t_star = 1.5  # reaches target at the 3rd future step
    start = (target[0] - vel[0] * t_star, target[1] - vel[1] * t_star)
    future = tuple((start[0] + vel[0] * 0.5 * k, start[1] + vel[1] * 0.5 * k)
                   for k in range(1, 7))
    return make_agent(agent_id=agent_id, kind=AgentKind.PEDESTRIAN, position=start,
                      speed=1.4, extent=(0.5, 0.5), future=future)


def mirror_scenario(s: Scenario) -> Scenario:
    flip_intent = {
        MetaAction.TURN_LEFT: MetaAction.TURN_RIGHT,
        MetaAction.TURN_RIGHT: MetaAction.TURN_LEFT,
        MetaAction.GO_STRAIGHT: MetaAction.GO_STRAIGHT,
    }
    return Scenario(
        id=s.id + "_mirror",
        ego=s.ego,      # at the origin with heading 0, its own mirror image
        agents=tuple(
            AgentTrack(a.id, a.kind, (a.position[0], -a.position[1]),
                       normalize_heading(-a.heading), a.speed, a.extent,
                       tuple((x, -y) for x, y in a.future))
            for a in s.agents
        ),
        map=tuple(
            MapPolyline(m.id, m.kind, tuple((x, -y) for x, y in m.points))
            for m in s.map
        ),
        route_intent=flip_intent[s.route_intent],
        gt_future=tuple((x, -y) for x, y in s.gt_future),
        seed=s.seed,
    )


# --- corridor geometry ---------------------------------------------------------

def sampled_centerline(side: MetaAction, n=4000):
    pts = [(APPROACH_LENGTH * i / n, 0.0) for i in range(n + 1)]
    sign = 1.0 if side is MetaAction.TURN_LEFT else -1.0
    for i in range(n + 1):
        phi = (math.pi / 2) * i / n
        pts.append((TURN_RADIUS * math.sin(phi),
                    sign * TURN_RADIUS * (1 - math.cos(phi))))
    return pts


def brute_corridor_distance(p, side):
    return min(math.hypot(p[0] - x, p[1] - y) for x, y in sampled_centerline(side))


def test_corridor_distance_matches_brute_force():
    rng = SplitMix64(55)
    for side in (MetaAction.TURN_LEFT, MetaAction.TURN_RIGHT):
        for _ in range(250):
            p = (rng.uniform(-6, 16), rng.uniform(-12, 12))
            exact = corridor_centerline_distance(p, side)
            brute = brute_corridor_distance(p, side)
            assert exact == pytest.approx(brute, abs=2e-3)


def test_corridor_membership_matches_brute_force_outside_band():
    rng = SplitMix64(56)
    checked = 0
    for _ in range(600):
        p = (rng.uniform(-6, 16), rng.uniform(-12, 12))
        side = MetaAction.TURN_LEFT if rng.next_float() < 0.5 else MetaAction.TURN_RIGHT
        brute = brute_corridor_distance(p, side)
        if abs(brute - CORRIDOR_HALF_WIDTH) < 5e-3:
            continue
        checked += 1
        assert point_in_turn_corridor(p, side) == (brute <= CORRIDOR_HALF_WIDTH)
    assert checked > 500


def test_corridor_rejects_straight_side():
    with pytest.raises(ValueError):
        corridor_centerline_distance((0.0, 0.0), MetaAction.GO_STRAIGHT)


# --- rule oracle ----------------------------------------------------------------

def test_clear_turn_keeps_intent():
    s = make_scenario(route_intent=MetaAction.TURN_LEFT)
    d = rule_oracle_decide(s)
    assert d.action is MetaAction.TURN_LEFT
    assert d.hazard_ids == ()
    assert "clear" in d.rationale_short


def test_vru_in_corridor_forces_straight():
    ped = vru_crossing_left_corridor()
    s = make_scenario(agents=(ped,), route_intent=MetaAction.TURN_LEFT)
    d = rule_oracle_decide(s)
    assert d.action is MetaAction.GO_STRAIGHT
    assert d.hazard_ids == (ped.id,)
    assert POSTPONEMENT_CLAUSE in d.rationale_short
    assert "pedestrian" in d.rationale_short


def test_mirrored_scenario_same_hazard_count():
    ped = vru_crossing_left_corridor()
    s = make_scenario(agents=(ped,), route_intent=MetaAction.TURN_LEFT)
    m = mirror_scenario(s)
    assert m.route_intent is MetaAction.TURN_RIGHT
    d = rule_oracle_decide(s)
    dm = rule_oracle_decide(m)
    assert dm.action is MetaAction.GO_STRAIGHT
    assert len(dm.hazard_ids) == len(d.hazard_ids)


def test_straight_intent_never_overridden():
    ped = vru_crossing_left_corridor()
    s = make_scenario(agents=(ped,), route_intent=MetaAction.GO_STRAIGHT)
    d = rule_oracle_decide(s)
    assert d.action is MetaAction.GO_STRAIGHT
    assert d.hazard_ids == ()


def test_vehicle_in_corridor_does_not_trigger():
    # Same crossing geometry but a vehicle: no override.
    ped = vru_crossing_left_corridor()
    car = make_agent(agent_id=9, kind=AgentKind.VEHICLE, position=ped.position,
                     future=ped.future)
    s = make_scenario(agents=(car,), route_intent=MetaAction.TURN_LEFT)
    assert rule_oracle_decide(s).action is MetaAction.TURN_LEFT


def test_override_monotone_in_hazards():
    ped = vru_crossing_left_corridor(7)
    ped2 = vru_crossing_left_corridor(8)
    one = make_scenario(agents=(ped,), route_intent=MetaAction.TURN_LEFT)
    two = make_scenario(agents=(ped, ped2), route_intent=MetaAction.TURN_LEFT)
    d1 = rule_oracle_decide(one)
    d2 = rule_oracle_decide(two)
    assert d1.action is MetaAction.GO_STRAIGHT
    assert d2.action is MetaAction.GO_STRAIGHT
    assert set(d1.hazard_ids) <= set(d2.hazard_ids)


def test_decide_deterministic_and_long_contains_short():
    ped = vru_crossing_left_corridor()
    s = make_scenario(agents=(ped,), route_intent=MetaAction.TURN_LEFT)
    a = rule_oracle_decide(s, Format.LONG)
    b = rule_oracle_decide(s, Format.LONG)
    assert a == b
    assert a.rationale_short in a.rationale_long
    assert "sector" in a.rationale_long.lower()


def test_distances_rounded_to_tenth():
    ped = vru_crossing_left_corridor()
    s = make_scenario(agents=(ped,), route_intent=MetaAction.TURN_LEFT)
    d = rule_oracle_decide(s)
    nearest = math.hypot(*ped.position)
    assert f"{nearest:.1f} m" in d.rationale_short


def test_meta_decision_validation():
    with pytest.raises(ValueError):
        MetaDecision(MetaAction.GO_STRAIGHT, "", "x").validate()
    with pytest.raises(ValueError):
        MetaDecision(MetaAction.GO_STRAIGHT, "abc", "def").validate()
    s = make_scenario()
    with pytest.raises(ValueError):
        MetaDecision(MetaAction.GO_STRAIGHT, "ok", "ok", hazard_ids=(42,)).validate(s)


def test_meta_decision_refuses_a_repeated_hazard_id():
    s = make_scenario(agents=(make_agent(agent_id=1), make_agent(agent_id=2)))
    MetaDecision(MetaAction.GO_STRAIGHT, "ok", "ok", hazard_ids=(1, 2)).validate(s)
    for ids in ((1, 1), (1, 2, 1)):
        with pytest.raises(ValueError, match="more than once"):
            MetaDecision(MetaAction.GO_STRAIGHT, "ok", "ok", hazard_ids=ids).validate(s)
        with pytest.raises(ValueError, match="more than once"):
            MetaDecision(MetaAction.GO_STRAIGHT, "ok", "ok", hazard_ids=ids).validate()


def test_bearing_sectors():
    assert bearing_sector(0.0) == "front"
    assert bearing_sector(math.radians(44.9)) == "front"
    assert bearing_sector(math.radians(46)) == "left"
    assert bearing_sector(math.radians(-46)) == "right"
    assert bearing_sector(math.radians(180)) == "rear"


# --- QA generation --------------------------------------------------------------

def test_qa_counts_empty_scene():
    s = make_scenario(agents=())
    items = generate_qa(s)
    assert len(items) == 2
    assert items[0].task is QATask.PERCEPTION
    assert "no other road users" in items[0].answer
    assert items[-1].task is QATask.PLANNING
    assert items[-1].gt_action is s.route_intent


def test_qa_counts_three_agents():
    agents = tuple(make_agent(agent_id=i, position=(8.0 + i, 2.0)) for i in range(3))
    items = generate_qa(make_scenario(agents=agents))
    assert len(items) == 5
    assert sum(1 for i in items if i.task is QATask.PREDICTION) == 3


def test_qa_deterministic():
    agents = (make_agent(agent_id=1), make_agent(agent_id=2, position=(5.0, -2.0)))
    s = make_scenario(agents=agents)
    a = [qa_item_to_dict(i) for i in generate_qa(s)]
    b = [qa_item_to_dict(i) for i in generate_qa(s)]
    assert a == b


def test_qa_planning_answer_is_long_rationale():
    ped = vru_crossing_left_corridor()
    s = make_scenario(agents=(ped,), route_intent=MetaAction.TURN_LEFT)
    items = generate_qa(s)
    planning = items[-1]
    decision = rule_oracle_decide(s, Format.LONG)
    assert planning.answer == decision.rationale_long
    assert planning.gt_action is decision.action


def test_qa_round_trip():
    items = generate_qa(make_scenario(agents=(make_agent(),)))
    for item in items:
        assert qa_item_from_dict(qa_item_to_dict(item)) == item


@pytest.mark.parametrize("obj, named", [
    (["PLANNING"], "object"),
    ({"task": "PLANNING"}, "question"),
    ({"task": "PLANNING", "question": "q", "answer": 5, "scenario_id": "s",
      "gt_action": "GO_STRAIGHT"}, "answer"),
    ({"task": "PLANNING", "question": "q", "answer": "a", "scenario_id": "s",
      "gt_action": ["GO_STRAIGHT"]}, "gt_action"),
])
def test_qa_item_from_dict_rejects_malformed(obj, named):
    with pytest.raises(ValueError, match=named):
        qa_item_from_dict(obj)


def test_compass_quantization():
    assert compass_direction(1.0, 0.0) == "east"
    assert compass_direction(1.0, 1.0) == "north-east"
    assert compass_direction(0.0, 1.0) == "north"
    assert compass_direction(-1.0, 0.0) == "west"
    assert compass_direction(0.0, -1.0) == "south"
    assert compass_direction(1.0, -1.0) == "south-east"


def test_prediction_answer_direction_and_distance():
    agent = make_agent(agent_id=1, position=(10.0, 0.0), speed=2.0, heading=0.0)
    items = generate_qa(make_scenario(agents=(agent,)))
    pred = [i for i in items if i.task is QATask.PREDICTION][0]
    assert "east" in pred.answer
    assert "6.0 m" in pred.answer    # 2 m/s * 3 s


# --- planning accuracy -----------------------------------------------------------

def test_accuracy_all_match():
    labels = [MetaAction.TURN_LEFT, MetaAction.GO_STRAIGHT]
    assert planning_accuracy(labels, labels) == 100.0


def test_accuracy_none_match():
    a = [MetaAction.TURN_LEFT, MetaAction.TURN_LEFT]
    b = [MetaAction.TURN_RIGHT, MetaAction.GO_STRAIGHT]
    assert planning_accuracy(a, b) == 0.0


def test_accuracy_requires_equal_nonempty():
    with pytest.raises(ValueError):
        planning_accuracy([], [])
    with pytest.raises(ValueError):
        planning_accuracy([MetaAction.TURN_LEFT], [])


# --- golden text -------------------------------------------------------------------

#: sha256 of the oracle's text over every suite at densities 0, 0.5 and 1:
#: a change here changes a decision or a QA line.
ORACLE_TEXT_DIGEST = "e32eb11de8ea651301f4fcfee5d27384a8def1669d904b622fbe4259b4acbc07"


def test_oracle_text_matches_golden_digest():
    oracle = RuleOracle()
    digest = hashlib.sha256()
    for suite in simgen.Suite:
        for density in (0.0, 0.5, 1.0):
            spec = simgen.GenSpec(n_scenarios=40, seed=2024, suite=suite,
                                  agent_density=density)
            for s in simgen.generate(spec):
                lines = [repr(oracle.decide(s, fmt)) for fmt in (Format.SHORT, Format.LONG)]
                lines += [jsonio.dumps(qa_item_to_dict(item)) for item in generate_qa(s)]
                digest.update("".join(line + "\n" for line in lines).encode("utf-8"))
    assert digest.hexdigest() == ORACLE_TEXT_DIGEST


def test_generate_qa_builds_the_sector_entries_once(monkeypatch):
    calls = []
    entries = oracle_module._agent_sector_entries

    def counted(scenario):
        calls.append(scenario.id)
        return entries(scenario)

    monkeypatch.setattr(oracle_module, "_agent_sector_entries", counted)
    scenes = simgen.generate(simgen.GenSpec(n_scenarios=30, seed=5, agent_density=1.0))
    scenes += simgen.generate(simgen.GenSpec(n_scenarios=4, seed=5, agent_density=0.0))
    for s in scenes:
        calls.clear()
        items = generate_qa(s)
        assert calls == [s.id]
        assert items[-1].answer == RuleOracle().decide(s, Format.LONG).rationale_long


# --- label enums ---------------------------------------------------------------------

LABEL_ENUMS = (MetaAction, AgentKind, MapKind, Format, QATask)


@pytest.mark.parametrize("cls", LABEL_ENUMS, ids=lambda cls: cls.__name__)
def test_labels_hash_by_identity_and_copy_to_themselves(cls):
    for member in cls:
        assert hash(member) == object.__hash__(member)
        assert cls(member.value) is member
        assert copy.copy(member) is member
        assert copy.deepcopy(member) is member
        for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
            assert pickle.loads(pickle.dumps(member, protocol)) is member


def test_every_label_resolves_in_the_tables_keyed_by_it():
    assert [_KIND_NOUN[kind] for kind in AgentKind] == ["vehicle", "pedestrian", "cyclist"]
    assert [_MAP_NOUN[kind] for kind in MapKind] == [
        "lane centerline", "lane boundary", "crosswalk"]
    assert [_TURN_WORD[a] for a in (MetaAction.TURN_LEFT, MetaAction.TURN_RIGHT)] == [
        "left", "right"]
    assert [planner._ONE_HOT[a] for a in MetaAction] == [
        (1.0, 0.0, 0.0), (0.0, 1.0, 0.0), (0.0, 0.0, 1.0)]
    assert [kind in VRU_KINDS for kind in AgentKind] == [False, True, True]
    copies = pickle.loads(pickle.dumps((AgentKind.CYCLIST, MapKind.CROSSWALK,
                                        MetaAction.TURN_LEFT)))
    assert copies[0] in VRU_KINDS and _KIND_NOUN[copies[0]] == "cyclist"
    assert _MAP_NOUN[copies[1]] == "crosswalk"
    assert _TURN_WORD[copies[2]] == "left" and planner._ONE_HOT[copies[2]] == (0.0, 1.0, 0.0)
