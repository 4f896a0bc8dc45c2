import json
import logging
import math
import os
import re
import subprocess
import sys
import warnings
from functools import cache

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import vecdrive
from vecdrive import jsonio, planner, simgen
from vecdrive.cli import main as cli_main
from vecdrive.planner import (
    INPUT_SCALE,
    CheckpointError,
    PlannerConfig,
    PlannerError,
    PlannerModel,
    backward,
    forward,
    init_model,
    load_checkpoint,
    save_checkpoint,
    train,
    TrainingDiverged,
)
from vecdrive.oracle import Format, RuleOracle
from vecdrive.rng import SplitMix64
from vecdrive.scene import A_MAX, M_MAX, MetaAction, save_scenarios

from conftest import make_agent, make_ego, make_polyline, make_scenario
from helpers_grad import (
    attention_weights,
    fd_gradients,
    imitation_loss,
    max_relative_error,
    ref_backward,
    ref_run_forward,
    ref_step,
    ref_train,
)

TINY = PlannerConfig(d_model=2, n_heads=1, hidden=2)


def zero_model(config=TINY):
    model = init_model(config, seed=1)
    for arr in model.params.values():
        arr[:] = 0.0
    return model


def rand_model(config=TINY, seed=3):
    return init_model(config, seed)


def encode(model, scenario):
    """Agent and map encoder rows, as the forward pass computes them."""
    bound = planner._bind(model.params)
    agent_rows, map_rows = planner._pack(scenario, MetaAction.GO_STRAIGHT)[:2]
    q_a, _ = planner._mlp_forward(bound["agent_enc"], agent_rows)
    q_m, _ = planner._mlp_forward(bound["map_enc"], map_rows)
    return q_a, q_m


def attend(model, stage, q_in, k_src, q_pos, k_pos):
    """One attention stage of the forward pass over the given key rows."""
    out, _ = planner._attention_forward(planner._bind(model.params)[stage], model.config,
                                        q_in, k_src, q_pos, k_pos)
    return out


def test_planner_imports_neither_the_oracle_nor_the_cli():
    # The planner takes commands, not an oracle: importing it alone must
    # not load the modules that decide them or drive it.
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(vecdrive.__file__)))
    probe = ("import sys, vecdrive.planner; "
             "print([m for m in ('vecdrive.oracle', 'vecdrive.cli') if m in sys.modules])")
    proc = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True,
                          text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"


# --- config / init -----------------------------------------------------------

def test_config_validation(tmp_path, capsys):
    with pytest.raises(PlannerError):
        PlannerConfig(d_model=5, n_heads=2).validate()
    # The schema limits are not config fields: a checkpoint may omit them,
    # and one that states another value for one is rejected with exit 2.
    checkpoint = tmp_path / "model.json"
    save_checkpoint(init_model(TINY, 1), checkpoint)
    obj = json.loads(checkpoint.read_text())
    assert list(obj["config"]) == ["d_model", "n_heads", "hidden", "t_f", "a_max", "m_max", "p_m"]
    for key in ("t_f", "a_max", "m_max", "p_m"):
        del obj["config"][key]
    checkpoint.write_text(json.dumps(obj))
    assert load_checkpoint(checkpoint).config == TINY
    obj["config"]["t_f"] = 7
    checkpoint.write_text(json.dumps(obj))
    save_scenarios([make_scenario()], tmp_path / "s.jsonl")
    assert cli_main(["eval-plan", "--scenarios", str(tmp_path / "s.jsonl"),
                     "--checkpoint", str(checkpoint), "--out", str(tmp_path)]) == 2
    assert "t_f" in capsys.readouterr().err
    with pytest.raises(PlannerError):
        PlannerConfig(hidden=0).validate()
    PlannerConfig().validate()


def test_config_refuses_more_parameters_than_the_cap():
    # hidden adds the same count per unit, so the largest accepted width
    # sits where the count crosses MAX_PARAMS.
    count = planner.param_count
    per_unit = count(PlannerConfig(hidden=2)) - count(PlannerConfig(hidden=1))
    widest = 1 + (planner.MAX_PARAMS - count(PlannerConfig(hidden=1))) // per_unit
    assert count(PlannerConfig(hidden=widest)) <= planner.MAX_PARAMS
    PlannerConfig(hidden=widest).validate()
    for config in (PlannerConfig(hidden=widest + 1), PlannerConfig(hidden=100_000_000),
                   PlannerConfig(d_model=4_000_000, n_heads=1)):
        with pytest.raises(PlannerError, match="parameters, more than"):
            config.validate()


def test_checkpoint_with_an_oversized_config_is_refused(tmp_path):
    p = tmp_path / "model.json"
    save_checkpoint(init_model(TINY, 23), p)
    obj = json.loads(p.read_text())
    obj["config"]["hidden"] = 100_000_000
    p.write_text(json.dumps(obj))
    with pytest.raises(CheckpointError, match="parameters, more than"):
        load_checkpoint(p)


def test_init_same_seed_identical():
    a = init_model(PlannerConfig(), 42)
    b = init_model(PlannerConfig(), 42)
    for name in a.params:
        assert np.array_equal(a.params[name], b.params[name])


def test_init_different_seeds_differ():
    a = init_model(TINY, 1)
    b = init_model(TINY, 2)
    assert any(not np.array_equal(a.params[n], b.params[n]) for n in a.params)


def test_init_fan_in_bounds():
    # hidden=4 puts fan_in=4 on every *.w2, so the bound is 0.5.
    model = init_model(PlannerConfig(d_model=4, n_heads=2, hidden=4), 9)
    for name, arr in model.params.items():
        if name.endswith(".w2"):
            assert np.all(np.abs(arr) <= 0.5)
    pooled = np.concatenate([model.params[n].ravel()
                             for n in model.params if n.endswith(".w2")])
    assert np.max(np.abs(pooled)) > 0.4   # the range is actually used


def test_init_biases_zero():
    model = init_model(TINY, 5)
    for name, arr in model.params.items():
        if name.endswith(".b1") or name.endswith(".b2"):
            assert np.all(arr == 0.0)


def test_param_layout_closed_set():
    # params is derived from theta: no name can be added, replaced or removed.
    model = init_model(TINY, 1)
    assert [(n, a.shape) for n, a in model.params.items()] == planner.param_layout(TINY)
    with pytest.raises(TypeError):
        model.params["bogus"] = np.zeros(2)
    with pytest.raises(TypeError):
        model.params["ego_query"] = np.zeros(2)
    with pytest.raises(TypeError):
        del model.params["ego_query"]
    assert "bogus" not in model.params and "ego_query" in model.params
    model.validate()


def test_params_and_bound_are_views_into_theta():
    model = init_model(TINY, 1)
    for arr in model.params.values():
        assert arr.base is model.theta
    model.theta[0] = 0.5
    assert model.params["ego_query"][0] == model.bound["ego_query"][0] == 0.5
    model.params["plan_head.b2"][-1] = 2.0
    assert model.theta[-1] == model.bound["plan_head"][3][-1] == 2.0
    stage = [model.params[f"attn1.{w}"] for w in ("wq", "wk", "wv", "wo")]
    assert all(a is b for a, b in zip(model.bound["attn1"], stage, strict=True))


@pytest.mark.parametrize("make_theta", [
    lambda n: np.zeros(n - 1),
    lambda n: np.zeros(n + 1),
    lambda n: np.zeros(n, dtype=np.float32),
    lambda n: np.zeros((1, n)),
    lambda n: np.zeros(2 * n)[::2],
    lambda n: [0.0] * n,
], ids=["short", "long", "float32", "2d", "non_contiguous", "list"])
def test_model_refuses_a_theta_that_is_not_one_float64_vector(make_theta):
    n = planner.param_count(TINY)
    with pytest.raises(PlannerError, match=f"float64 array of {n} values"):
        PlannerModel(TINY, make_theta(n))


def test_model_attributes_cannot_be_rebound():
    model = init_model(TINY, 1)
    for name in ("theta", "params", "bound", "config"):
        with pytest.raises(AttributeError):
            setattr(model, name, getattr(model, name))


# --- scene encoding --------------------------------------------------------------

def reference_pack(scenario, command):
    """Inputs as the per-field helpers built them: each row from scalar products."""
    s = INPUT_SCALE
    ego = [0.0, 0.0]    # every scenario's ego sits at the origin
    return (
        [[a.position[0] * s, a.position[1] * s, math.cos(a.heading), math.sin(a.heading),
          a.speed * s, a.extent[0] * s, a.extent[1] * s] for a in scenario.agents],
        [[c * s for p in line.points for c in p] for line in scenario.map],
        [ego] + [[a.position[0] * s, a.position[1] * s] for a in scenario.agents],
        [ego] + [[line.points[0][0] * s, line.points[0][1] * s] for line in scenario.map],
        [scenario.ego.speed * s, scenario.ego.accel * s, 1.0,
         *(float(command is c) for c in MetaAction)],
        [list(p) for p in scenario.gt_future],
    )


def test_pack_is_bit_identical_to_per_field_reference():
    spec = simgen.GenSpec(n_scenarios=30, seed=9, agent_density=1.0)
    hand_made = make_scenario(
        ego=make_ego(speed=2.5, accel=-0.3),
        agents=(make_agent(1, position=(12.0, -3.0), heading=-2.0, speed=4.0, extent=(4.0, 2.0)),
                make_agent(2, position=(-6.5, 8.25), heading=3.0)),
        polylines=(make_polyline(1, y=-0.5, x0=-3.3, step=2.7), make_polyline(2, y=4.0)))
    for scenario in [*simgen.generate(spec), hand_made, make_scenario(polylines=())]:
        for command in MetaAction:
            packed = planner._pack(scenario, command, scenario.gt_future)
            for got, want in zip(packed, reference_pack(scenario, command), strict=True):
                want = np.array(want, dtype=float)
                assert got.shape == want.shape or got.size == want.size == 0
                assert got.dtype == np.float64 and got.tobytes() == want.tobytes()


def test_encode_empty_scene():
    model = rand_model()
    s = make_scenario(agents=(), polylines=())
    q_a, q_m = encode(model, s)
    assert q_a.shape == (0, 2) and q_m.shape == (0, 2)
    weights = attention_weights(model, s, MetaAction.GO_STRAIGHT)
    assert weights["agents"].shape == (1, 0) and weights["map"].shape == (1, 0)


def test_encode_identical_agents_identical_rows():
    model = rand_model()
    a = make_agent(agent_id=1, position=(5.0, 2.0))
    b = make_agent(agent_id=2, position=(5.0, 2.0))
    q_a, _ = encode(model, make_scenario(agents=(a, b)))
    assert np.array_equal(q_a[0], q_a[1])
    assert q_a.shape == (2, 2)


def test_encode_hand_computed_row():
    # d_model=2, hidden=2, explicit weights: row = w2 @ tanh(w1 @ f) + b2.
    model = zero_model()
    model.params["agent_enc.w1"][:] = [[0.1, 0.0, 0.2, 0.0, 0.0, 0.0, 0.0],
                                       [0.0, 0.3, 0.0, 0.0, 0.1, 0.0, 0.0]]
    model.params["agent_enc.b1"][:] = [0.05, -0.02]
    model.params["agent_enc.w2"][:] = [[1.0, -0.5], [0.25, 0.75]]
    model.params["agent_enc.b2"][:] = [0.01, 0.02]
    agent = make_agent(agent_id=1, position=(4.0, -2.0), heading=0.5, speed=3.0,
                       extent=(4.2, 1.8))
    q_a, _ = encode(model, make_scenario(agents=(agent,)))
    f = [4.0 * INPUT_SCALE, -2.0 * INPUT_SCALE, math.cos(0.5), math.sin(0.5),
         3.0 * INPUT_SCALE, 4.2 * INPUT_SCALE, 1.8 * INPUT_SCALE]
    h0 = math.tanh(0.1 * f[0] + 0.2 * f[2] + 0.05)
    h1 = math.tanh(0.3 * f[1] + 0.1 * f[4] - 0.02)
    expected = (1.0 * h0 - 0.5 * h1 + 0.01, 0.25 * h0 + 0.75 * h1 + 0.02)
    assert q_a[0] == pytest.approx(expected, abs=1e-15)


# --- attention -------------------------------------------------------------------

def test_attention_all_masked_returns_zero():
    # No valid key: the stage output is exactly zero.
    model = rand_model()
    out = attend(model, "attn1", q_in=np.ones(2), k_src=np.ones((0, 2)),
                 q_pos=np.zeros(2), k_pos=np.zeros((0, 2)))
    assert np.array_equal(out, np.zeros(2))


def test_attention_single_key_ignores_logits():
    model = rand_model(seed=8)
    k = np.array([0.7, -1.3])
    out = attend(model, "attn2", q_in=np.array([5.0, -2.0]), k_src=k[None, :],
                 q_pos=np.array([1.0, 1.0]), k_pos=np.array([[0.3, 0.4]]))
    expected = model.params["attn2.wo"] @ (model.params["attn2.wv"] @ k)
    assert out == pytest.approx(expected, abs=1e-12)


def test_attention_two_keys_hand_computed():
    model = zero_model()
    model.params["attn1.wq"][:] = [[1.0, 0.0], [0.0, 1.0]]
    model.params["attn1.wk"][:] = [[0.5, 0.0], [0.0, 0.5]]
    model.params["attn1.wv"][:] = [[0.0, 1.0], [1.0, 0.0]]
    model.params["attn1.wo"][:] = [[2.0, 0.0], [0.0, 2.0]]
    q_in = np.array([1.0, 0.5])
    q_pos = np.array([0.1, -0.1])
    k_src = np.array([[1.0, 0.0], [0.0, 1.0]])
    k_pos = np.array([[0.0, 0.2], [0.2, 0.0]])
    out = attend(model, "attn1", q_in, k_src, q_pos, k_pos)
    # Hand evaluation with scalar arithmetic (single head, d_k = 2).
    q = (1.1, 0.4)
    keys = [(0.5 * 1.0, 0.5 * 0.2), (0.5 * 0.2, 0.5 * 1.0)]
    logits = [(q[0] * k[0] + q[1] * k[1]) / math.sqrt(2.0) for k in keys]
    m = max(logits)
    w = [math.exp(l - m) for l in logits]
    total = sum(w)
    w = [x / total for x in w]
    values = [(0.0 * 1.0 + 1.0 * 0.0, 1.0 * 1.0 + 0.0 * 0.0),
              (0.0 * 0.0 + 1.0 * 1.0, 1.0 * 0.0 + 0.0 * 1.0)]
    mixed = (w[0] * values[0][0] + w[1] * values[1][0],
             w[0] * values[0][1] + w[1] * values[1][1])
    expected = (2.0 * mixed[0], 2.0 * mixed[1])
    assert out == pytest.approx(expected, abs=1e-12)


def test_attention_weights_sum_to_one():
    model = init_model(PlannerConfig(), 7)
    s = make_scenario(agents=(make_agent(1), make_agent(2, position=(8.0, -3.0))),
                      polylines=(make_polyline(1), make_polyline(2, y=3.5)))
    weights = attention_weights(model, s, MetaAction.GO_STRAIGHT)
    for name in ("agents", "map"):
        sums = weights[name].sum(axis=1)
        assert np.allclose(sums, 1.0, atol=1e-9)


# --- forward ---------------------------------------------------------------------

def test_forward_zero_params_zero_waypoints():
    model = zero_model()
    out = forward(model, make_scenario(agents=(make_agent(),)), MetaAction.GO_STRAIGHT)
    assert all(p == (0.0, 0.0) for p in out)


def test_forward_deterministic():
    model = init_model(PlannerConfig(), 11)
    s = make_scenario(agents=(make_agent(),))
    a = forward(model, s, MetaAction.TURN_LEFT)
    b = forward(model, s, MetaAction.TURN_LEFT)
    assert a == b


def test_forward_empty_scene_equals_hand_plan_head():
    model = zero_model()
    rng = SplitMix64(21)
    for name in ("plan_head.w1", "plan_head.b1", "plan_head.w2", "plan_head.b2"):
        arr = model.params[name]
        arr[:] = np.array([rng.uniform(-0.4, 0.4) for _ in range(arr.size)]).reshape(arr.shape)
    s = make_scenario(agents=(), polylines=(), speed=3.0)
    out = forward(model, s, MetaAction.TURN_RIGHT)
    # With no keys both attention stages give zero vectors.
    x = np.concatenate([np.zeros(2), np.zeros(2),
                        [3.0 * INPUT_SCALE, 0.0, 1.0], [0.0, 0.0, 1.0]])
    h = np.tanh(model.params["plan_head.w1"] @ x + model.params["plan_head.b1"])
    y = model.params["plan_head.w2"] @ h + model.params["plan_head.b2"]
    expected = y.reshape(6, 2)
    flat = np.array(out)
    assert np.allclose(flat, expected, atol=1e-15)


def test_forward_permutation_invariant_over_keys():
    model = init_model(PlannerConfig(), 13)
    agents = tuple(make_agent(agent_id=i, position=(4.0 + 2 * i, (-1) ** i * 2.5))
                   for i in range(5))
    lines = tuple(make_polyline(i, y=3.5 * (i - 1)) for i in range(3))
    s = make_scenario(agents=agents, polylines=lines)
    base = np.array(forward(model, s, MetaAction.GO_STRAIGHT))
    perm_agents = (agents[3], agents[0], agents[4], agents[2], agents[1])
    perm_lines = (lines[2], lines[0], lines[1])
    s2 = make_scenario(agents=perm_agents, polylines=perm_lines)
    permuted = np.array(forward(model, s2, MetaAction.GO_STRAIGHT))
    assert np.max(np.abs(base - permuted)) <= 1e-9


def test_forward_output_shape_and_finite():
    model = init_model(PlannerConfig(), 19)
    s = make_scenario(agents=(make_agent(),))
    out = forward(model, s, MetaAction.TURN_LEFT)
    assert type(out) is tuple and len(out) == 6
    assert all(type(p) is tuple and len(p) == 2 for p in out)
    assert all(math.isfinite(x) and math.isfinite(y) for x, y in out)


# --- imitation loss ----------------------------------------------------------------

def test_loss_identical_zero():
    t = tuple((0.5 * k, 0.0) for k in range(1, 7))
    assert imitation_loss(t, t) == 0.0


def test_loss_unit_offset():
    t = tuple((0.5 * k, 0.0) for k in range(1, 7))
    shifted = tuple((x + 1.0, y) for x, y in t)
    assert imitation_loss(shifted, t) == pytest.approx(1.0)


def test_loss_random_matches_reference():
    rng = SplitMix64(2)
    a = tuple((rng.uniform(-3, 3), rng.uniform(-3, 3)) for _ in range(6))
    b = tuple((rng.uniform(-3, 3), rng.uniform(-3, 3)) for _ in range(6))
    expected = sum((ax - bx) ** 2 + (ay - by) ** 2
                   for (ax, ay), (bx, by) in zip(a, b)) / 6
    assert imitation_loss(a, b) == pytest.approx(expected, abs=1e-15)


# --- backward ----------------------------------------------------------------------

def grad_scenario():
    agents = (make_agent(1, position=(6.0, 2.0), heading=0.3),
              make_agent(2, position=(10.0, -3.0), heading=-0.7, speed=1.5))
    lines = (make_polyline(1, y=0.0), make_polyline(2, y=3.5))
    return make_scenario(agents=agents, polylines=lines, speed=3.5,
                         route_intent=MetaAction.TURN_LEFT)


def test_backward_zero_model_zero_gt():
    model = zero_model()
    s = make_scenario(gt_future=((0.0, 0.0),) * 6, speed=0.0)
    loss, grads = backward(model, s, MetaAction.GO_STRAIGHT, s.gt_future)
    assert loss == 0.0
    assert all(np.all(g == 0.0) for g in grads.values())


def test_backward_matches_finite_differences_tiny():
    model = init_model(TINY, seed=4)
    s = grad_scenario()
    loss, grads = backward(model, s, MetaAction.TURN_LEFT, s.gt_future)
    numeric = fd_gradients(model, s, MetaAction.TURN_LEFT, s.gt_future)
    assert max_relative_error(grads, numeric, loss) <= 1e-4
    assert loss > 0


def test_backward_empty_scene_agent_params_zero_grad():
    model = init_model(TINY, seed=6)
    s = make_scenario(agents=(), polylines=())
    _, grads = backward(model, s, MetaAction.GO_STRAIGHT, s.gt_future)
    for name in grads:
        if name.startswith(("agent_enc", "map_enc", "attn1", "attn2", "ego_query")):
            assert np.all(grads[name] == 0.0), name


def test_backward_calls_return_independent_gradients():
    model = init_model(TINY, seed=9)
    s = grad_scenario()
    _, first = backward(model, s, MetaAction.TURN_LEFT, s.gt_future)
    snapshot = {name: g.copy() for name, g in first.items()}
    _, second = backward(model, s, MetaAction.TURN_LEFT, s.gt_future)
    for name in first:
        assert not any(np.shares_memory(first[name], g) for g in second.values()), name
    for g in second.values():
        g += 1.0
    for name in first:
        assert np.array_equal(first[name], snapshot[name]), name


def test_backward_loss_equals_forward_loss():
    model = init_model(TINY, seed=9)
    s = grad_scenario()
    loss, _ = backward(model, s, MetaAction.TURN_LEFT, s.gt_future)
    assert loss == pytest.approx(
        imitation_loss(forward(model, s, MetaAction.TURN_LEFT), s.gt_future), abs=1e-15
    )


# --- train -------------------------------------------------------------------------

def train_set(n=4):
    scenarios = []
    for i in range(n):
        scenarios.append(make_scenario(
            scenario_id=f"t{i}", agents=(make_agent(1, position=(5.0 + i, 2.0)),),
            speed=2.0 + i,
        ))
    return scenarios


def rule_commands(scenarios):
    """The rule oracle's SHORT command for each scenario, as ``vecdrive train`` passes."""
    oracle = RuleOracle()
    return [oracle.decide(s, Format.SHORT).action for s in scenarios]


def reference_train(model, scenarios, commands, epochs, lr, seed):
    """Per-sample SGD through the public backward() and a per-parameter update."""
    trained = PlannerModel(model.config, model.theta.copy())
    rng = SplitMix64(seed)
    order = list(range(len(scenarios)))
    curve = []
    for _ in range(epochs):
        rng.shuffle(order)
        total = 0.0
        for i in order:
            loss, grads = backward(trained, scenarios[i], commands[i], scenarios[i].gt_future)
            for name, grad in grads.items():
                trained.params[name][...] -= lr * grad
            total += loss
        curve.append(total / len(scenarios))
    return trained, curve


def test_train_bit_identical_to_reference_loop():
    model = init_model(PlannerConfig(d_model=8, n_heads=2, hidden=16), 3)
    scenarios = train_set(3) + [
        make_scenario(scenario_id="no_agents", agents=(), speed=3.0),
        make_scenario(scenario_id="no_map", agents=(make_agent(1),), polylines=(),
                      route_intent=MetaAction.TURN_RIGHT),
    ]
    commands = rule_commands(scenarios)
    trained, curve = train(model, scenarios, iter(commands), epochs=3, lr=1e-2, seed=5)
    ref, ref_curve = reference_train(model, scenarios, commands, epochs=3, lr=1e-2, seed=5)
    assert curve == ref_curve
    for name in ref.params:
        assert np.array_equal(trained.params[name], ref.params[name]), name
    assert not np.array_equal(trained.params["agent_enc.w1"], model.params["agent_enc.w1"])


def keyless_after_keyed_set():
    """MIXED scenes plus hand-built ones, among them one with no agents and
    one with no map; in seed 5's shuffle each comes right after a scene
    that has what it lacks."""
    spec = simgen.GenSpec(n_scenarios=12, seed=4, agent_density=0.5)
    return simgen.generate(spec) + train_set(3) + [
        make_scenario(scenario_id="no_agents", agents=(), speed=3.0),
        make_scenario(scenario_id="no_map", agents=(make_agent(1),), polylines=(),
                      route_intent=MetaAction.TURN_RIGHT),
    ]


@pytest.mark.parametrize("config", [TINY, PlannerConfig()], ids=["tiny", "default"])
def test_train_and_backward_bit_identical_to_accumulate_into_zeros_step(config):
    scenarios = keyless_after_keyed_set()
    commands = rule_commands(scenarios)
    rng, order, steps = SplitMix64(5), list(range(len(scenarios))), []
    for _ in range(3):
        rng.shuffle(order)
        steps += order
    pairs = [(scenarios[a], scenarios[b]) for a, b in zip(steps, steps[1:])]
    assert any(a.agents and b.id == "no_agents" for a, b in pairs)
    assert any(a.map and b.id == "no_map" for a, b in pairs)

    model = init_model(config, 3)
    trained, curve = train(model, scenarios, commands, epochs=3, lr=1e-2, seed=5)
    ref, ref_curve = ref_train(model, scenarios, commands, epochs=3, lr=1e-2, seed=5)
    assert curve == ref_curve
    for name, value in trained.params.items():
        assert value.tobytes() == ref.params[name].tobytes(), name
        assert not np.any((value == 0.0) & np.signbit(value)), name
    assert not np.array_equal(trained.params["attn1.wk"], model.params["attn1.wk"])
    for s, command in zip(scenarios, commands):
        loss, grads = backward(trained, s, command, s.gt_future)
        ref_loss, ref_grads = ref_backward(trained, s, command, s.gt_future)
        assert loss == ref_loss
        for name in ref_grads:
            assert np.array_equal(grads[name], ref_grads[name]), (s.id, name)


@pytest.mark.parametrize("hidden", [1, 5])
def test_train_at_d_model_1_bit_identical_to_the_reference(hidden):
    # With d_model = 1, np.dot may give a gradient of -0.0 where the
    # reference's matmul gives +0.0 (see the planner's docstring). No
    # weight, loss or prediction may see it.
    scenarios = keyless_after_keyed_set()
    commands = rule_commands(scenarios)
    model = init_model(PlannerConfig(d_model=1, n_heads=1, hidden=hidden), 3)
    trained, curve = train(model, scenarios, commands, epochs=3, lr=1e-2, seed=5)
    ref, ref_curve = ref_train(model, scenarios, commands, epochs=3, lr=1e-2, seed=5)
    assert [c.hex() for c in curve] == [c.hex() for c in ref_curve]
    for name, value in trained.params.items():
        assert value.tobytes() == ref.params[name].tobytes(), name
    for s, command in zip(scenarios, commands):
        pred = ref_run_forward(planner._bind(trained.params), trained.config,
                               planner._pack(s, command))[0]
        assert np.array(forward(trained, s, command)).tobytes() == pred.tobytes(), s.id


@cache
def mixed_scenes():
    return tuple(s for density in (0.0, 0.5, 1.0)
                 for s in simgen.generate(simgen.GenSpec(n_scenarios=6, seed=12,
                                                         agent_density=density)))


@st.composite
def planner_configs(draw):
    n_heads = draw(st.integers(1, 4))
    d_model = n_heads * draw(st.integers(1, 48 // n_heads))
    return PlannerConfig(d_model=d_model, n_heads=n_heads, hidden=draw(st.integers(1, 80)))


@st.composite
def planner_scenes(draw):
    """A MIXED scene at density 0, 0.5 or 1, or 0..A_MAX agents and 0..M_MAX
    polylines at drawn poses."""
    if draw(st.booleans()):
        return draw(st.sampled_from(mixed_scenes()))
    coord = st.floats(-40.0, 40.0)
    agents = tuple(
        make_agent(i + 1, position=(draw(coord), draw(coord)),
                   heading=draw(st.floats(-math.pi, math.pi)), speed=draw(st.floats(0.0, 15.0)))
        for i in range(draw(st.integers(0, A_MAX))))
    lines = tuple(make_polyline(i + 1, y=draw(coord), x0=draw(coord))
                  for i in range(draw(st.integers(0, M_MAX))))
    return make_scenario(agents=agents, polylines=lines, speed=draw(st.floats(0.0, 15.0)))


@settings(max_examples=200, deadline=None, derandomize=True)
@given(config=planner_configs(), scenario=planner_scenes(),
       command=st.sampled_from(list(MetaAction)), seed=st.integers(0, 1000))
def test_step_and_forward_bit_identical_to_the_matmul_einsum_step(config, scenario, command,
                                                                    seed):
    # np.dot picks gemv, gemm or a scalar product by operand shape, so the
    # bits are checked over shapes, not at one config.
    model = init_model(config, seed)
    bound = planner._bind(model.params)
    packed = planner._pack(scenario, command, scenario.gt_future)
    got = planner._views(config, np.full(planner.param_count(config), np.nan))
    # -0.0 + x is x, so the reference's accumulation keeps every value's bits.
    want = planner._views(config, np.full(planner.param_count(config), -0.0))
    loss = planner._step(bound, planner._bind(got), config, packed)
    assert loss.hex() == ref_step(bound, planner._bind(want), config, packed).hex()
    for name in want:
        if config.d_model == 1:
            # One-element products may give an exact zero the other sign
            # (see the planner's docstring); every other value keeps its bits.
            assert np.array_equal(got[name], want[name]), name
        else:
            assert got[name].tobytes() == want[name].tobytes(), name
    pred = ref_run_forward(bound, config, packed)[0]
    assert np.array(forward(model, scenario, command)).tobytes() == pred.tobytes()


@pytest.mark.parametrize("prefix, scenario", [
    ("agent_enc", make_scenario(agents=(), speed=3.0)),
    ("map_enc", make_scenario(agents=(make_agent(1),), polylines=())),
], ids=["no_agents", "no_polylines"])
def test_step_writes_plus_zero_for_an_encoder_over_no_rows(prefix, scenario):
    # The encoder's forward and backward are skipped; its gradients must
    # still be written, as the +0.0 the empty products gave.
    config = PlannerConfig()
    model = init_model(config, 3)
    bound = planner._bind(model.params)
    packed = planner._pack(scenario, MetaAction.GO_STRAIGHT, scenario.gt_future)
    got = planner._views(config, np.full(planner.param_count(config), np.nan))
    want = planner._views(config, np.full(planner.param_count(config), -0.0))
    loss = planner._step(bound, planner._bind(got), config, packed)
    assert loss.hex() == ref_step(bound, planner._bind(want), config, packed).hex()
    for name in want:
        assert got[name].tobytes() == want[name].tobytes(), name
        if name.startswith(prefix):
            assert got[name].tobytes() == bytes(got[name].nbytes), name


def test_step_and_forward_go_around_numpys_function_dispatch(monkeypatch):
    # Products are ndarray.dot and the positional gradients one array, so
    # neither np.dot nor np.concatenate is called, keyed or keyless.
    config = PlannerConfig()
    model = init_model(config, 3)
    bound = planner._bind(model.params)
    grads = planner._bind(planner._views(config, np.zeros(planner.param_count(config))))
    scenarios = [grad_scenario(), make_scenario(agents=(), polylines=())]
    packed = [planner._pack(s, s.route_intent, s.gt_future) for s in scenarios]

    def refuse(*args, **kwargs):
        raise AssertionError("a numpy function went through its dispatcher")

    monkeypatch.setattr(np, "dot", refuse)
    monkeypatch.setattr(np, "concatenate", refuse)
    for s, sample in zip(scenarios, packed):
        assert math.isfinite(planner._step(bound, grads, config, sample))
        assert len(forward(model, s, s.route_intent)) == 6


def test_train_logs_one_info_line_per_epoch(caplog):
    scenarios = train_set()
    with caplog.at_level(logging.INFO, logger="vecdrive"):
        _, curve = train(init_model(TINY, 3), scenarios, rule_commands(scenarios),
                         epochs=3, lr=1e-2, seed=5)
    records = [r for r in caplog.records if r.name == "vecdrive"]
    assert [r.levelno for r in records] == [logging.INFO] * 3
    for epoch, (record, loss) in enumerate(zip(records, curve)):
        m = re.fullmatch(r"epoch (\d+): mean loss (\S+), (\d+) samples/s", record.getMessage())
        assert m, record.getMessage()
        assert int(m[1]) == epoch and m[2] == jsonio.format_float(loss) and int(m[3]) > 0


def test_train_lr_zero_no_change():
    model = init_model(TINY, 3)
    trained, curve = train(model, train_set(), rule_commands(train_set()), epochs=3, lr=0.0,
                           seed=5)
    for name in model.params:
        assert np.array_equal(model.params[name], trained.params[name])
    assert len(curve) == 3
    assert curve[0] == pytest.approx(curve[1]) == pytest.approx(curve[2])


@pytest.mark.parametrize("epochs, lr", [(0, 0.01), (-1, 0.01), (1, math.nan),
                                        (1, math.inf), (1, -1.0)])
def test_train_rejects_bad_epochs_and_lr_before_any_decide(epochs, lr):
    class Unread:
        """Commands that fail when read: none may be drawn before the checks."""

        def __iter__(self):
            raise AssertionError("commands read")

    with pytest.raises(PlannerError) as err:
        train(init_model(TINY, 3), train_set(), Unread(), epochs=epochs, lr=lr, seed=5)
    assert not isinstance(err.value, TrainingDiverged)


@pytest.mark.parametrize("n_commands", [0, 3, 5])
def test_train_refuses_a_command_count_other_than_the_scenario_count(monkeypatch, n_commands):
    def no_step(*args):
        raise AssertionError("a training step ran")

    monkeypatch.setattr(planner, "_step", no_step)
    with pytest.raises(PlannerError) as err:
        train(init_model(TINY, 3), train_set(4), [MetaAction.GO_STRAIGHT] * n_commands,
              epochs=1, lr=1e-2, seed=5)
    assert str(err.value) == f"{n_commands} commands for 4 scenarios"


def test_train_overfits_single_scenario():
    model = init_model(PlannerConfig(d_model=8, n_heads=2, hidden=16), 3)
    scenarios = train_set(1)
    trained, curve = train(model, scenarios, rule_commands(scenarios), epochs=300, lr=1e-2,
                           seed=5)
    assert curve[-1] < 0.01 * curve[0]


def test_train_same_seed_bitwise_identical():
    model = init_model(TINY, 3)
    commands = rule_commands(train_set())
    a, curve_a = train(model, train_set(), commands, epochs=4, lr=1e-2, seed=7)
    b, curve_b = train(model, train_set(), commands, epochs=4, lr=1e-2, seed=7)
    assert curve_a == curve_b
    for name in a.params:
        assert np.array_equal(a.params[name], b.params[name])


def test_train_does_not_mutate_input_model():
    model = init_model(TINY, 3)
    snapshot = {k: v.copy() for k, v in model.params.items()}
    before = model.theta.tobytes()
    trained, _ = train(model, train_set(), rule_commands(train_set()), epochs=2, lr=1e-2,
                       seed=7)
    for name in snapshot:
        assert np.array_equal(snapshot[name], model.params[name])
    # The trained model owns a new vector, and its views are into it.
    assert model.theta.tobytes() == before != trained.theta.tobytes()
    assert not np.shares_memory(trained.theta, model.theta)
    assert all(arr.base is trained.theta for arr in trained.params.values())


def test_train_divergence_raises():
    model = init_model(TINY, 3)
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(TrainingDiverged) as err:
            train(model, train_set(), rule_commands(train_set()), epochs=200, lr=1e6, seed=5)
    assert "learning rate" in str(err.value)


def test_train_divergence_raises_no_floating_point_warning():
    # These scenes overflow a product and then multiply inf by 0 before
    # the loss turns non-finite.
    scenarios = simgen.generate(simgen.GenSpec(n_scenarios=32, seed=1, agent_density=0.5))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(TrainingDiverged, match="non-finite loss at epoch 2"):
            train(init_model(PlannerConfig(), 0), scenarios, rule_commands(scenarios),
                  epochs=3, lr=5.0, seed=0)


def test_train_rejects_misshapen_parameter():
    # A misshapen parameter cannot be built: its theta is refused.
    model = init_model(TINY, 3)
    with pytest.raises(TypeError):
        model.params["agent_enc.w1"] = model.params["agent_enc.w1"].T.copy()
    with pytest.raises(PlannerError, match="array of"):
        PlannerModel(PlannerConfig(d_model=2, n_heads=1, hidden=3), model.theta.copy())


def test_train_empty_rejected():
    with pytest.raises(PlannerError):
        train(init_model(TINY, 3), [], [], epochs=1, lr=0.1, seed=1)


# --- checkpoints ---------------------------------------------------------------------

def test_checkpoint_round_trip_bit_identical(tmp_path):
    model = init_model(PlannerConfig(), 23)
    p = tmp_path / "model.json"
    save_checkpoint(model, p)
    loaded = load_checkpoint(p)
    assert loaded.config == model.config
    for name in model.params:
        assert np.array_equal(loaded.params[name], model.params[name])


def test_checkpoint_write_deterministic(tmp_path):
    model = init_model(TINY, 23)
    p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
    save_checkpoint(model, p1)
    save_checkpoint(model, p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_checkpoint_rejects_missing_param(tmp_path):
    model = init_model(TINY, 23)
    p = tmp_path / "model.json"
    save_checkpoint(model, p)
    obj = __import__("json").loads(p.read_text())
    del obj["params"]["ego_query"]
    p.write_text(__import__("json").dumps(obj))
    with pytest.raises(CheckpointError) as err:
        load_checkpoint(p)
    assert "ego_query" in str(err.value)


def test_checkpoint_rejects_bad_shape(tmp_path):
    model = init_model(TINY, 23)
    p = tmp_path / "model.json"
    save_checkpoint(model, p)
    obj = __import__("json").loads(p.read_text())
    obj["params"]["ego_query"]["shape"] = [3]
    p.write_text(__import__("json").dumps(obj))
    with pytest.raises(CheckpointError):
        load_checkpoint(p)


def _set(obj, keys, value):
    for key in keys[:-1]:
        obj = obj[key]
    obj[keys[-1]] = value


@pytest.mark.parametrize("keys, value, named", [
    (("params", "ego_query"), 5, "ego_query"),
    (("params", "ego_query", "data"), ["a", "b"], "ego_query"),
    (("params", "ego_query", "shape"), 2, "ego_query"),
    (("params", "ego_query", "data", 0), 10**400, "ego_query"),
    (("params", "ego_query", "data"), [[0.5], [0.5, 0.5]], "ego_query"),
    (("config", "n_heads"), "1", "n_heads"),
    (("params", "plan_head.b2", "data", 0), True, "plan_head.b2"),
    (("params", "plan_head.w2", "shape"), [12.0, 2.0], "plan_head.w2"),
    (("params", "ego_query", "shape"), [2.0], "ego_query"),
    (("version",), True, "version"),
    (("version",), 1.0, "version"),
], ids=["entry_not_object", "data_not_numeric", "shape_not_list", "data_out_of_range",
        "data_ragged", "config_not_integer", "data_boolean", "shape_float",
        "shape_float_1d", "version_true", "version_float"])
def test_checkpoint_rejects_malformed_field(tmp_path, keys, value, named):
    p = tmp_path / "model.json"
    save_checkpoint(init_model(TINY, 23), p)
    obj = json.loads(p.read_text())
    _set(obj, keys, value)
    p.write_text(json.dumps(obj))
    with pytest.raises(CheckpointError) as err:
        load_checkpoint(p)
    assert named in str(err.value)


def test_checkpoint_refuses_true_for_a_dimension_of_1(tmp_path):
    p = tmp_path / "model.json"
    save_checkpoint(init_model(PlannerConfig(d_model=2, n_heads=1, hidden=1), 23), p)
    obj = json.loads(p.read_text())
    assert obj["params"]["agent_enc.b1"]["shape"] == [1]
    obj["params"]["agent_enc.b1"]["shape"] = [True]
    p.write_text(json.dumps(obj))
    with pytest.raises(CheckpointError, match=r"agent_enc\.b1: shape \[True\] != \[1\]"):
        load_checkpoint(p)


@pytest.mark.parametrize("module, name", [("jsonio", "dumps"), ("os", "replace")])
def test_checkpoint_failed_save_keeps_previous_file(tmp_path, monkeypatch, module, name):
    p = tmp_path / "model.json"
    save_checkpoint(init_model(TINY, 23), p)
    before = p.read_bytes()

    def fail(*args):
        raise RuntimeError(f"{module}.{name} failed")

    monkeypatch.setattr(getattr(planner, module), name, fail)
    with pytest.raises(RuntimeError):
        save_checkpoint(init_model(TINY, 24), p)
    monkeypatch.undo()
    assert p.read_bytes() == before
    assert [f.name for f in tmp_path.iterdir()] == ["model.json"]
