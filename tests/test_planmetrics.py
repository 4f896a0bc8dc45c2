import math
import re
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from vecdrive.planmetrics import (
    EGO_EXTENT,
    HORIZON_STEPS,
    OrientedBox,
    PlanEvalRow,
    TextEvalRow,
    boxes_overlap,
    collision_horizons,
    ego_headings,
    l2_horizons,
    latency_stats,
    mean_rows,
    separation_margin,
    _with_avg,
)
from vecdrive.rng import SplitMix64
from vecdrive.scene import T_F, ValidationError, scenario_from_dict
from vecdrive.simgen import GenSpec, Suite, constant_velocity_future, generate

from conftest import make_agent, make_scenario, moved_scene_dict


def traj(points):
    return tuple(points)


STRAIGHT = traj([(0.5 * k, 0.0) for k in range(1, 7)])


# --- l2_horizons -------------------------------------------------------------

def test_l2_identical_is_zero():
    out = l2_horizons(STRAIGHT, STRAIGHT)
    assert out == {"1s": 0.0, "2s": 0.0, "3s": 0.0, "avg": 0.0}


def test_l2_constant_shift():
    shifted = traj([(x + 1.0, y) for x, y in STRAIGHT])
    out = l2_horizons(shifted, STRAIGHT)
    assert out["1s"] == out["2s"] == out["3s"] == pytest.approx(1.0)
    assert out["avg"] == pytest.approx(1.0)


def test_l2_random_pair_matches_independent_computation():
    rng = SplitMix64(5)
    a = traj([(rng.uniform(-5, 5), rng.uniform(-5, 5)) for _ in range(6)])
    b = traj([(rng.uniform(-5, 5), rng.uniform(-5, 5)) for _ in range(6)])
    out = l2_horizons(a, b)
    for key, idx in (("1s", 1), ("2s", 3), ("3s", 5)):
        expected = math.sqrt((a[idx][0] - b[idx][0]) ** 2 + (a[idx][1] - b[idx][1]) ** 2)
        assert out[key] == pytest.approx(expected, abs=1e-12)
    assert out["avg"] == pytest.approx((out["1s"] + out["2s"] + out["3s"]) / 3, abs=1e-15)


def test_l2_rejects_wrong_length():
    with pytest.raises(ValueError):
        l2_horizons(traj([(float(k), 0.0) for k in range(5)]), STRAIGHT)


# --- oriented boxes ----------------------------------------------------------

def grid_overlap_oracle(a: OrientedBox, b: OrientedBox, step=0.01) -> bool:
    """Brute force: sample a grid inside each box, test point-in-other-box."""
    def points_inside(box, other):
        nx = max(int(box.length / step), 1)
        ny = max(int(box.width / step), 1)
        xs = np.linspace(-box.length / 2, box.length / 2, nx + 1)
        ys = np.linspace(-box.width / 2, box.width / 2, ny + 1)
        gx, gy = np.meshgrid(xs, ys)
        c, s = math.cos(box.heading), math.sin(box.heading)
        wx = box.center[0] + c * gx - s * gy
        wy = box.center[1] + s * gx + c * gy
        # Transform into other's frame.
        co, so = math.cos(other.heading), math.sin(other.heading)
        rx = wx - other.center[0]
        ry = wy - other.center[1]
        lx = co * rx + so * ry
        ly = -so * rx + co * ry
        return np.any((np.abs(lx) <= other.length / 2) & (np.abs(ly) <= other.width / 2))

    return bool(points_inside(a, b) or points_inside(b, a))


def test_identical_boxes_overlap():
    box = OrientedBox((1.0, 2.0), 0.3, 4.0, 1.8)
    assert boxes_overlap(box, box)


def test_distant_squares_do_not_overlap():
    a = OrientedBox((0.0, 0.0), 0.0, 1.0, 1.0)
    b = OrientedBox((10.0, 0.0), 0.0, 1.0, 1.0)
    assert not boxes_overlap(a, b)


def test_touching_counts_as_overlap():
    a = OrientedBox((0.0, 0.0), 0.0, 1.0, 1.0)
    b = OrientedBox((1.0, 0.0), 0.0, 1.0, 1.0)
    assert boxes_overlap(a, b)
    assert separation_margin(a, b) == pytest.approx(0.0, abs=1e-15)


def test_rotated_square_near_touching_agrees_with_sampling():
    # 45-degree square with corner pointing at an axis-aligned square.
    rotated = OrientedBox((0.0, 0.0), math.pi / 4, 2.0, 2.0)
    for gap in (-0.05, 0.05):
        # Corner of the rotated square reaches x = sqrt(2).
        other = OrientedBox((math.sqrt(2) + 0.5 + gap, 0.0), 0.0, 1.0, 1.0)
        if abs(separation_margin(rotated, other)) < 0.01:
            continue
        assert boxes_overlap(rotated, other) == grid_overlap_oracle(rotated, other)


def test_overlap_is_symmetric_on_random_pairs():
    rng = SplitMix64(17)
    for _ in range(300):
        a = OrientedBox((rng.uniform(-3, 3), rng.uniform(-3, 3)),
                        rng.uniform(-math.pi, math.pi),
                        rng.uniform(0.3, 3.0), rng.uniform(0.3, 3.0))
        b = OrientedBox((rng.uniform(-3, 3), rng.uniform(-3, 3)),
                        rng.uniform(-math.pi, math.pi),
                        rng.uniform(0.3, 3.0), rng.uniform(0.3, 3.0))
        assert boxes_overlap(a, b) == boxes_overlap(b, a)


def test_overlap_agrees_with_grid_oracle_sample():
    # Smaller copy of the acceptance sweep for fast feedback.
    rng = SplitMix64(2024)
    checked = 0
    for _ in range(150):
        a = OrientedBox((rng.uniform(-2, 2), rng.uniform(-2, 2)),
                        rng.uniform(-math.pi, math.pi),
                        rng.uniform(0.4, 3.0), rng.uniform(0.4, 3.0))
        b = OrientedBox((rng.uniform(-2, 2), rng.uniform(-2, 2)),
                        rng.uniform(-math.pi, math.pi),
                        rng.uniform(0.4, 3.0), rng.uniform(0.4, 3.0))
        if abs(separation_margin(a, b)) < 0.01:
            continue
        checked += 1
        assert boxes_overlap(a, b) == grid_overlap_oracle(a, b)
    assert checked > 100


# --- collision_horizons ------------------------------------------------------

def test_no_agents_no_collision():
    out = collision_horizons(STRAIGHT, [])
    assert out == {"1s": 0.0, "2s": 0.0, "3s": 0.0, "avg": 0.0}


def test_agent_parked_on_second_waypoint():
    # Stationary agent sitting exactly on pred[2] (1-based), inside 1 s.
    spot = STRAIGHT[1]
    agent = make_agent(agent_id=1, position=spot, speed=0.0,
                       future=tuple(spot for _ in range(6)))
    out = collision_horizons(STRAIGHT, [agent])
    assert out["1s"] == out["2s"] == out["3s"] == 100.0


def test_collision_monotone_over_horizons_random():
    rng = SplitMix64(31)
    for _ in range(300):
        pred = traj([(rng.uniform(0, 3) * k, rng.uniform(-1, 1)) for k in range(1, 7)])
        agents = []
        for i in range(rng.randint(4)):
            pos = (rng.uniform(-2, 10), rng.uniform(-3, 3))
            vel = (rng.uniform(-2, 2), rng.uniform(-2, 2))
            future = tuple((pos[0] + vel[0] * 0.5 * k, pos[1] + vel[1] * 0.5 * k)
                           for k in range(1, 7))
            agents.append(make_agent(agent_id=i + 1, position=pos, future=future))
        out = collision_horizons(pred, agents)
        assert out["1s"] <= out["2s"] <= out["3s"]
        assert out["avg"] == pytest.approx((out["1s"] + out["2s"] + out["3s"]) / 3)


def test_ego_headings_follow_segments():
    pred = traj([(1.0, 0.0), (1.0, 1.0), (1.0, 1.0), (0.0, 1.0), (0.0, 0.0), (0.0, 0.0)])
    hs = ego_headings(pred)
    assert hs[0] == pytest.approx(0.0)
    assert hs[1] == pytest.approx(math.pi / 2)
    assert hs[2] == pytest.approx(math.pi / 2)   # zero-length segment reuses heading
    assert hs[3] == pytest.approx(math.pi)
    assert hs[4] == pytest.approx(-math.pi / 2)
    assert hs[5] == pytest.approx(-math.pi / 2)


def test_ego_headings_start_at_the_origin_with_heading_0():
    assert ego_headings(traj([(0.0, 0.0)] * T_F)) == [0.0] * T_F
    assert ego_headings(traj([(0.0, -0.0)] * T_F)) == [0.0] * T_F
    pred = traj([(0.0, float(k)) for k in range(1, 7)])
    assert ego_headings(pred) == [math.pi / 2] * T_F


def pedestrian_beside_the_ego():
    """An ego driving along the x axis and a pedestrian 2 m to its left."""
    pedestrian = make_agent(position=(1.0, 2.0), speed=0.0, extent=(0.5, 0.5),
                            future=((1.0, 2.0),) * T_F)
    pred = traj([(float(k), 0.0) for k in range(1, 7)])
    return pred, [pedestrian]


def test_collision_starts_at_the_ego_at_the_origin():
    pred, agents = pedestrian_beside_the_ego()
    assert collision_horizons(pred, agents) == {"1s": 0.0, "2s": 0.0, "3s": 0.0, "avg": 0.0}
    # The same scene with the ego at y = 5: no scenario holds it, and a file
    # that does is refused, so no collision check reads it from the origin.
    obj = moved_scene_dict(make_scenario(agents=agents, gt_future=pred), 0.0, 5.0)
    with pytest.raises(ValidationError) as err:
        scenario_from_dict(obj)
    assert err.value.field == "ego.y"


@pytest.mark.parametrize("offset", [(64.0, -32.0), (-0.5, 1024.0)])
def test_a_moved_scene_never_reaches_collision_checking(offset):
    scenarios = generate(GenSpec(n_scenarios=60, seed=11, suite=Suite.MIXED,
                                 agent_density=1.0))
    for scenario in scenarios:
        with pytest.raises(ValidationError) as err:
            scenario_from_dict(moved_scene_dict(scenario, *offset))
        assert err.value.field == "ego.x"
    # The unmoved scenes are checked, and some collide.
    assert any(collision_horizons(pred, s.agents)["3s"] > 0 for s in scenarios
               for pred in (s.gt_future, constant_velocity_future((0.0, 0.0), 0.0, s.ego.speed)))


def test_collision_rejects_bad_future():
    bad = make_agent(future=((0.0, 0.0),) * 6)
    object.__setattr__(bad, "future", ((0.0, 0.0),) * 5)
    with pytest.raises(ValueError):
        collision_horizons(STRAIGHT, [bad])


# --- bounding-circle prefilter ----------------------------------------------

def all_pairs_collision_horizons(pred, agents):
    """``collision_horizons`` before its prefilter: every (step, agent) pair
    goes through the full separating-axis margin. Reference for the tests
    below."""
    if len(pred) != T_F:
        raise ValueError(f"predicted trajectory must have {T_F} waypoints")
    for agent in agents:
        if len(agent.future) != T_F:
            raise ValueError(f"agent {agent.id} future has {len(agent.future)} points")
    headings = ego_headings(pred)
    collided_at_step = []
    for k in range(T_F):
        ego_box = OrientedBox(pred[k], headings[k], *EGO_EXTENT)
        hit = any(
            separation_margin(
                ego_box,
                OrientedBox(agent.future[k], agent.heading,
                            agent.extent[0], agent.extent[1]),
            ) <= 0.0
            for agent in agents
        )
        collided_at_step.append(hit)
    out = {}
    for key, step in HORIZON_STEPS.items():
        out[key] = 100.0 if any(collided_at_step[:step]) else 0.0
    return _with_avg(out)


def reach(a, b):
    return 0.5 * math.hypot(a.length, a.width) + 0.5 * math.hypot(b.length, b.width)


def magnitude(draw, lo, hi):
    """A positive float whose decimal exponent is drawn from [lo, hi]."""
    return draw(st.floats(1.0, 10.0)) * 10.0 ** draw(st.integers(lo, hi))


RELATIVE_NUDGE = st.one_of(st.sampled_from([0.0, 1e-9, -1e-9]), st.floats(-1e-9, 1e-9))


@st.composite
def box_pairs(draw):
    """Two boxes, placed freely, face to face, or corner to corner at the
    bounding-circle distance, each touching placement nudged by up to 1e-9
    of its distance. Coordinates reach 1e-3 to 1e300."""
    def coord():
        return draw(st.sampled_from([-1.0, 1.0])) * magnitude(draw, -3, 300)

    def extent():
        return magnitude(draw, -3, draw(st.sampled_from([1, 300])))

    a = OrientedBox((coord(), coord()), draw(st.floats(-math.pi, math.pi)),
                    extent(), extent())
    b_length, b_width = extent(), extent()
    placement = draw(st.sampled_from(["free", "face", "corner"]))
    nudge = 1.0 + draw(RELATIVE_NUDGE)
    if placement == "free":
        return a, OrientedBox((coord(), coord()), draw(st.floats(-math.pi, math.pi)),
                              b_length, b_width)
    if placement == "face":
        heading = a.heading
        distance = 0.5 * (a.length + b_length) * nudge
        direction = heading
    else:
        direction = a.heading + math.atan2(a.width, a.length)
        heading = direction - math.atan2(b_width, b_length)
        distance = (0.5 * math.hypot(a.length, a.width)
                    + 0.5 * math.hypot(b_length, b_width)) * nudge
    center = (a.center[0] + distance * math.cos(direction),
              a.center[1] + distance * math.sin(direction))
    return a, OrientedBox(center, heading, b_length, b_width)


def _circles_apart(px, py, ax, ay, reach):
    """The prefilter ``collision_horizons`` inlines, with the same slack.

    True when two boxes' bounding circles are disjoint beyond a slack;
    ``reach`` is the sum of the two half-diagonals.
    """
    slack = 1e-9 * (1.0 + reach + abs(px) + abs(py) + abs(ax) + abs(ay))
    return math.hypot(ax - px, ay - py) - reach > slack


def test_prefilter_keeps_touching_squares_and_rejects_distant_ones():
    a = OrientedBox((0.0, 0.0), 0.0, 1.0, 1.0)
    touching = OrientedBox((1.0, 0.0), 0.0, 1.0, 1.0)
    distant = OrientedBox((10.0, 0.0), 0.0, 1.0, 1.0)
    assert not _circles_apart(*a.center, *touching.center, reach(a, touching))
    assert _circles_apart(*a.center, *distant.center, reach(a, distant))


@settings(max_examples=600, derandomize=True, deadline=None)
@given(box_pairs())
def test_prefilter_never_rejects_an_overlapping_pair(pair):
    a, b = pair
    r = reach(a, b)
    if separation_margin(a, b) <= 0.0:
        assert not _circles_apart(*a.center, *b.center, r)
    if separation_margin(b, a) <= 0.0:
        assert not _circles_apart(*b.center, *a.center, r)


@st.composite
def box_pairs_with_nan(draw):
    """``box_pairs``, with up to two of the numbers that place and size the
    boxes set to NaN, or a center or an extent set to infinity: an infinite
    extent gives a box whose projections mix infinities and NaN."""
    boxes = list(draw(box_pairs()))
    for _ in range(draw(st.integers(0, 2))):
        i = draw(st.integers(0, 1))
        field = draw(st.sampled_from(["x", "y", "heading", "length", "width"]))
        value = (math.nan if field == "heading"
                 else draw(st.sampled_from([math.nan, math.inf, -math.inf])))
        if field in ("length", "width"):
            value = abs(value)
        box = boxes[i]
        if field in ("x", "y"):
            x, y = box.center
            boxes[i] = replace(box, center=(value, y) if field == "x" else (x, value))
        else:
            boxes[i] = replace(box, **{field: value})
    return tuple(boxes)


@settings(max_examples=600, derandomize=True, deadline=None)
@given(box_pairs_with_nan())
def test_overlap_is_the_sign_of_the_separation_margin(pair):
    a, b = pair
    assert boxes_overlap(a, b) == (separation_margin(a, b) <= 0.0)
    assert boxes_overlap(b, a) == (separation_margin(b, a) <= 0.0)


SPEED_RANGES = [(2.0, 6.0), (0.0, 0.5), (1e5, 1e6), (1e299, 1e300)]


@pytest.mark.parametrize("speed_range", SPEED_RANGES)
def test_collision_matches_all_pairs_loop_on_dense_scenes(speed_range):
    spec = GenSpec(n_scenarios=60, seed=11, suite=Suite.MIXED, agent_density=1.0,
                   speed_range=speed_range)
    flagged = 0
    for scenario in generate(spec):
        for pred in (scenario.gt_future,
                     constant_velocity_future((0.0, 0.0), 0.0, scenario.ego.speed)):
            out = collision_horizons(pred, scenario.agents)
            assert out == all_pairs_collision_horizons(pred, scenario.agents)
            flagged += out["3s"] > 0
    if speed_range[1] < 1e6:
        assert flagged > 0


@st.composite
def near_touching_samples(draw):
    """A random ego trajectory, and agents whose future points sit near the
    bounding-circle or face-to-face distance of the ego box at each step."""
    scale = magnitude(draw, -3, 300)
    pred = traj([(scale * draw(st.floats(-3, 3)), scale * draw(st.floats(-3, 3)))
                 for _ in range(T_F)])
    headings = ego_headings(pred)
    ego_reach = 0.5 * math.hypot(*EGO_EXTENT)
    agents = []
    for i in range(draw(st.integers(0, 4))):
        extent = (draw(st.floats(0.3, 6.0)), draw(st.floats(0.3, 3.0)))
        heading = draw(st.floats(-math.pi, math.pi))
        future = []
        for k in range(T_F):
            if draw(st.booleans()):
                distance = ego_reach + 0.5 * math.hypot(*extent)
                direction = draw(st.floats(-math.pi, math.pi))
            else:
                distance = 0.5 * (EGO_EXTENT[0] + extent[0])
                direction = headings[k]
            distance *= 1.0 + draw(st.one_of(RELATIVE_NUDGE, st.floats(-0.5, 0.5)))
            future.append((pred[k][0] + distance * math.cos(direction),
                           pred[k][1] + distance * math.sin(direction)))
        agents.append(make_agent(agent_id=i + 1, heading=heading, extent=extent,
                                 future=future))
    return pred, agents


@settings(max_examples=300, derandomize=True, deadline=None)
@given(near_touching_samples())
def test_collision_matches_all_pairs_loop_near_touching(sample):
    pred, agents = sample
    assert collision_horizons(pred, agents) == all_pairs_collision_horizons(pred, agents)


@pytest.mark.parametrize("pred_len, future_len", [(5, 6), (6, 5), (7, 7)])
def test_collision_raises_the_same_error_as_all_pairs_loop(pred_len, future_len):
    pred = traj([(0.5 * k, 0.0) for k in range(1, pred_len + 1)])
    agent = make_agent(future=((0.0, 0.0),) * 6)
    object.__setattr__(agent, "future", ((0.0, 0.0),) * future_len)
    with pytest.raises(ValueError) as expected:
        all_pairs_collision_horizons(pred, [agent])
    with pytest.raises(ValueError, match=f"^{re.escape(str(expected.value))}$"):
        collision_horizons(pred, [agent])


# --- latency -----------------------------------------------------------------

def test_latency_single_sample_fixture():
    out = latency_stats([0.878])
    assert out["mean"] == out["p50"] == out["p95"] == pytest.approx(0.878)


def test_latency_three_samples():
    out = latency_stats([3.0, 1.0, 2.0])
    assert out["mean"] == pytest.approx(2.0)
    assert out["p50"] == 2.0
    assert out["p95"] == 3.0


def test_latency_percentile_nearest_rank_100():
    rng = SplitMix64(8)
    samples = [rng.uniform(0.0, 1.0) for _ in range(100)]
    out = latency_stats(samples)
    ordered = sorted(samples)
    assert out["p95"] == ordered[94]
    assert out["p50"] == ordered[49]


def test_latency_rejects_empty():
    with pytest.raises(ValueError):
        latency_stats([])


# --- row types ---------------------------------------------------------------

def test_plan_eval_row_validates_avg():
    good = PlanEvalRow(
        l2={"1s": 1.0, "2s": 2.0, "3s": 3.0, "avg": 2.0},
        collision={"1s": 0.0, "2s": 0.0, "3s": 0.0, "avg": 0.0},
    )
    good.validate()
    bad = PlanEvalRow(
        l2={"1s": 1.0, "2s": 2.0, "3s": 3.0, "avg": 2.5},
        collision={"1s": 0.0, "2s": 0.0, "3s": 0.0, "avg": 0.0},
    )
    with pytest.raises(ValueError):
        bad.validate()


def test_plan_eval_row_avg_tolerance_is_relative():
    # One ULP off at 2e307 m passes; a mean whose sum overflows does not.
    mean = (1.9e307 + 2.1e307 + 2.2e307) / 3
    collision = {"1s": 0.0, "2s": 0.0, "3s": 0.0, "avg": 0.0}
    PlanEvalRow(l2={"1s": 1.9e307, "2s": 2.1e307, "3s": 2.2e307,
                    "avg": math.nextafter(mean, math.inf)}, collision=collision).validate()
    with pytest.raises(ValueError):
        PlanEvalRow(l2={"1s": 1.7e308, "2s": 1.7e308, "3s": 1.7e308, "avg": 1.7e308},
                    collision=collision).validate()


def test_text_eval_row_ranges():
    TextEvalRow(bleu=64.60, meteor=73.27, rouge_l=72.40, cider=3.71).validate()
    with pytest.raises(ValueError):
        TextEvalRow(bleu=101.0, meteor=0.0, rouge_l=0.0, cider=0.0).validate()


def test_evaluate_explanations_identity_and_judge():
    from vecdrive.planmetrics import evaluate_explanations
    texts = ["Proceed with the left turn; the corridor is clear.",
             "Continue straight; the lane ahead stays clear today."]
    row = evaluate_explanations(texts, texts)
    assert row.bleu == pytest.approx(100.0, abs=1e-6)
    assert row.rouge_l == pytest.approx(100.0, abs=1e-6)
    assert row.gpt_score is None
    judged = evaluate_explanations(texts, texts, judge=lambda c, r: 5.0)
    assert judged.gpt_score == pytest.approx(5.0)
    with pytest.raises(ValueError):
        evaluate_explanations([], [])


def test_mean_rows():
    rows = [
        {"1s": 0.0, "2s": 0.0, "3s": 100.0, "avg": 100.0 / 3},
        {"1s": 100.0, "2s": 100.0, "3s": 100.0, "avg": 100.0},
    ]
    out = mean_rows(rows)
    assert out["1s"] == pytest.approx(50.0)
    assert out["3s"] == pytest.approx(100.0)
