import math
from collections import Counter

import pytest

from vecdrive import jsonio
from vecdrive.oracle import rule_oracle_decide
from vecdrive.cli import main as cli_main
from vecdrive.scene import (
    AgentKind,
    MetaAction,
    VRU_KINDS,
    load_scenarios,
    save_scenarios,
    scenario_json,
    scenario_to_dict,
)
from vecdrive.simgen import GenSpec, Suite, generate, mirror_scenario, split

from test_oracle import brute_corridor_distance


def spec_for(suite, n=20, seed=11, density=0.5, speeds=(2.0, 6.0)):
    return GenSpec(n_scenarios=n, seed=seed, suite=suite,
                   agent_density=density, speed_range=speeds)


def test_generate_deterministic_byte_identical():
    for suite in Suite:
        a = generate(spec_for(suite, n=12))
        b = generate(spec_for(suite, n=12))
        assert [jsonio.dumps(scenario_to_dict(s)) for s in a] == \
               [jsonio.dumps(scenario_to_dict(s)) for s in b]


def test_generate_all_valid_and_unique_ids():
    # generate() checks nothing itself: every scene must pass validate() and be written.
    for density in (0.0, 0.5, 1.0):
        for speeds in ((0.0, 0.0), (2.0, 6.0), (0.0, 12.0)):
            for suite in Suite:
                spec = spec_for(suite, n=15, seed=3, density=density, speeds=speeds)
                scenarios = generate(spec)
                assert len(scenarios) == 15
                ids = [s.id for s in scenarios]
                assert len(set(ids)) == len(ids)
                for s in scenarios:
                    s.validate()
                    assert scenario_json(s) == jsonio.dumps(scenario_to_dict(s))


def test_different_seeds_differ():
    a = generate(spec_for(Suite.MIXED, n=10, seed=1))
    b = generate(spec_for(Suite.MIXED, n=10, seed=2))
    assert [scenario_to_dict(s)["ego"] for s in a] != \
           [scenario_to_dict(s)["ego"] for s in b]


def test_cruise_suite_shape():
    scenarios = generate(spec_for(Suite.CRUISE, n=10))
    for s in scenarios:
        assert s.route_intent is MetaAction.GO_STRAIGHT
        # Constant-velocity ego future along +x.
        for k, (x, y) in enumerate(s.gt_future, start=1):
            assert y == 0.0
            assert x == pytest.approx(s.ego.speed * 0.5 * k)
        assert all(a.kind is AgentKind.VEHICLE for a in s.agents)


def test_turns_suite_quarter_circle():
    scenarios = generate(spec_for(Suite.TURNS, n=10))
    sides_seen = set()
    for s in scenarios:
        assert s.route_intent in (MetaAction.TURN_LEFT, MetaAction.TURN_RIGHT)
        side = 1.0 if s.route_intent is MetaAction.TURN_LEFT else -1.0
        sides_seen.add(side)
        for k, (x, y) in enumerate(s.gt_future, start=1):
            arc = s.ego.speed * 0.5 * k
            if arc <= 8.0 * math.pi / 2:
                phi = arc / 8.0
                assert x == pytest.approx(8.0 * math.sin(phi), abs=1e-12)
                assert y == pytest.approx(side * 8.0 * (1 - math.cos(phi)), abs=1e-12)
    assert sides_seen == {1.0, -1.0}


def test_hazard_suite_always_triggers_override():
    scenarios = generate(spec_for(Suite.HAZARD_VRU, n=30, seed=9))
    for s in scenarios:
        vrus = [a for a in s.agents if a.kind in VRU_KINDS]
        assert len(vrus) == 1
        # Brute-force corridor check: some future point within the swath.
        assert any(
            brute_corridor_distance(p, s.route_intent) <= 1.75 + 1e-6
            for p in vrus[0].future
        )
        decision = rule_oracle_decide(s)
        assert decision.action is MetaAction.GO_STRAIGHT
        assert vrus[0].id in decision.hazard_ids


def test_hazard_gt_stops_short_of_crossing():
    scenarios = generate(spec_for(Suite.HAZARD_VRU, n=20, seed=4))
    for s in scenarios:
        vru = [a for a in s.agents if a.kind in VRU_KINDS][0]
        cross_x = vru.position[0]
        final_x = s.gt_future[-1][0]
        assert final_x == pytest.approx(max(cross_x - 3.0, 0.5))
        # Clears the 2.0 m ego half-length with margin: the recorded
        # behavior never reaches the crossing point.
        assert final_x <= cross_x - 2.25
        xs = [p[0] for p in s.gt_future]
        assert xs == sorted(xs)                 # monotone ease-out
        assert all(p[1] == 0.0 for p in s.gt_future)


def test_fork_pairs_are_mirrors():
    scenarios = generate(spec_for(Suite.SYMMETRIC_FORK, n=10, seed=5))
    for k in range(0, 10, 2):
        base, mirrored = scenarios[k], scenarios[k + 1]
        rebuilt = mirror_scenario(base, mirrored.id)
        assert rebuilt == mirrored
        assert base.route_intent is MetaAction.TURN_LEFT
        assert mirrored.route_intent is MetaAction.TURN_RIGHT
        assert mirrored.seed == base.seed


def test_fork_odd_count():
    scenarios = generate(spec_for(Suite.SYMMETRIC_FORK, n=7, seed=5))
    assert len(scenarios) == 7


def test_mixed_covers_all_suites():
    scenarios = generate(spec_for(Suite.MIXED, n=80, seed=13))
    kinds = Counter()
    for s in scenarios:
        if s.route_intent is MetaAction.GO_STRAIGHT:
            kinds["cruise"] += 1
        elif any(a.kind in VRU_KINDS for a in s.agents):
            kinds["hazard"] += 1
        elif not s.agents and len(s.map) == 4 and s.map[2].points[0][1] > 0 > s.map[3].points[0][1]:
            kinds["fork"] += 1
        else:
            kinds["turn"] += 1
    assert set(kinds) == {"cruise", "hazard", "fork", "turn"}


def test_kinematic_plausibility():
    for suite in Suite:
        spec = spec_for(suite, n=15, seed=21, speeds=(2.0, 6.0))
        for s in generate(spec):
            prev = (0.0, 0.0)
            for p in s.gt_future:
                step = math.hypot(p[0] - prev[0], p[1] - prev[1])
                assert step <= 6.0 * 0.5 + 0.5
                prev = p


def test_density_zero_no_background_vehicles():
    scenarios = generate(spec_for(Suite.CRUISE, n=10, density=0.0))
    assert all(not s.agents for s in scenarios)
    hazard = generate(spec_for(Suite.HAZARD_VRU, n=10, density=0.0))
    for s in hazard:
        assert len(s.agents) == 1
        assert s.agents[0].kind in VRU_KINDS


def test_genspec_validation():
    with pytest.raises(ValueError):
        GenSpec(n_scenarios=0, seed=1).validate()
    with pytest.raises(ValueError):
        GenSpec(n_scenarios=1, seed=1, agent_density=1.5).validate()
    with pytest.raises(ValueError):
        GenSpec(n_scenarios=1, seed=1, speed_range=(5.0, 2.0)).validate()
    with pytest.raises(ValueError):
        Suite.parse("DONUTS")


@pytest.mark.parametrize("suite", [suite.value for suite in Suite])
@pytest.mark.parametrize("speeds", [(), ("--speed-min", "0"),
                                    ("--speed-min", "0", "--speed-max", "0")],
                         ids=["default-speeds", "speed-min-0", "speed-0"])
def test_simgen_file_round_trips_byte_for_byte(tmp_path, suite, speeds):
    # -0.0 is written "-0" and read back as the int 0, so a file holding it
    # would change when loaded and saved: mirrored forks (a negated y or
    # heading of 0) and right turns at zero speed must not make one.
    out = tmp_path / "gen"
    assert cli_main(["simgen", "--out", str(out), "--n", "40", "--seed", "3",
                     "--suite", suite, *speeds]) == 0
    written = (out / "scenarios.jsonl").read_bytes()
    save_scenarios(load_scenarios(out / "scenarios.jsonl"), tmp_path / "again.jsonl")
    assert (tmp_path / "again.jsonl").read_bytes() == written


# --- split ------------------------------------------------------------------------

def test_split_half():
    scenarios = generate(spec_for(Suite.MIXED, n=10, seed=2))
    train, evalset = split(scenarios, 0.5, seed=3)
    assert len(train) == 5 and len(evalset) == 5


def test_split_deterministic():
    scenarios = generate(spec_for(Suite.MIXED, n=20, seed=2))
    a = split(scenarios, 0.8, seed=3)
    b = split(scenarios, 0.8, seed=3)
    assert [s.id for s in a[0]] == [s.id for s in b[0]]
    assert [s.id for s in a[1]] == [s.id for s in b[1]]


def test_split_union_is_input_multiset():
    scenarios = generate(spec_for(Suite.MIXED, n=17, seed=2))
    train, evalset = split(scenarios, 0.7, seed=9)
    assert Counter(s.id for s in train + evalset) == Counter(s.id for s in scenarios)
    assert not (set(s.id for s in train) & set(s.id for s in evalset))


def test_split_rejects_bad_inputs():
    scenarios = generate(spec_for(Suite.MIXED, n=4, seed=2))
    with pytest.raises(ValueError):
        split(scenarios, 1.5, seed=1)
    with pytest.raises(ValueError):
        split([], 0.5, seed=1)


@pytest.mark.parametrize("n, frac, empty", [
    (1, 0.5, "train"), (4, 0.2, "train"), (4, 1 - 1e-10, "eval"), (2, 5e-324, "train"),
])
def test_split_refuses_an_empty_part(n, frac, empty):
    scenarios = generate(spec_for(Suite.MIXED, n=n, seed=2))
    with pytest.raises(ValueError, match=f"leaves the {empty} part empty"):
        split(scenarios, frac, seed=1)


def test_split_takes_the_smallest_parts():
    scenarios = generate(spec_for(Suite.MIXED, n=16, seed=2))
    assert tuple(map(len, split(scenarios, 0.2, seed=1))) == (3, 13)
    assert tuple(map(len, split(scenarios[:2], 0.5, seed=1))) == (1, 1)
