"""Acceptance battery: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines as they complete. The training-based criteria share one module-scoped
trained model (400 MIXED scenarios, 50 epochs, lr 1e-2, seed 7).
"""

import itertools
import math
import sys
import textwrap
import time
from contextlib import contextmanager

import numpy as np
import pytest

from vecdrive import jsonio, planner
from vecdrive.cli import main as cli_main
from vecdrive.external import ExecOracle, OracleTimeout
from vecdrive.oracle import (
    Format,
    POSTPONEMENT_CLAUSE,
    RuleOracle,
    rule_oracle_decide,
)
from vecdrive.planmetrics import (
    OrientedBox,
    boxes_overlap,
    collision_horizons,
    l2_horizons,
    mean_rows,
    separation_margin,
)
from vecdrive.planner import (
    PlannerConfig,
    backward,
    forward,
    init_model,
    train,
)
from vecdrive.report import render_latency_table
from vecdrive.rng import SplitMix64
from vecdrive.scene import MetaAction, Scenario, VRU_KINDS
from vecdrive.simgen import GenSpec, Suite, constant_velocity_future, generate, split
from vecdrive.textmetrics import lcs_length, meteor, rouge_l

from helpers_grad import attention_weights, fd_gradients, max_relative_error
from test_planmetrics import grid_overlap_oracle
from test_textmetrics import corpus_bleu, corpus_cider, hand_cider_three_pairs


@contextmanager
def criterion(label):
    try:
        yield
    except BaseException:
        print(f"{label}: FAIL")
        raise
    print(f"{label}: PASS")


def constant_velocity_baseline(s: Scenario) -> tuple:
    return constant_velocity_future((0.0, 0.0), 0.0, s.ego.speed)


# --- shared trained model (A3 protocol) ----------------------------------------

TRAIN_SPEC = GenSpec(n_scenarios=500, seed=7, suite=Suite.MIXED,
                     agent_density=0.5, speed_range=(2.0, 6.0))


@pytest.fixture(scope="module")
def trained_setup():
    scenarios = generate(TRAIN_SPEC)
    train_set, eval_set = split(scenarios, 0.8, seed=7)
    assert len(train_set) == 400 and len(eval_set) == 100
    model = init_model(PlannerConfig(), seed=7)
    start = time.monotonic()
    oracle = RuleOracle()
    commands = (oracle.decide(s, Format.SHORT).action for s in train_set)
    trained, curve = train(model, train_set, commands,
                           epochs=50, lr=1e-2, seed=7)
    elapsed = time.monotonic() - start
    return trained, curve, eval_set, elapsed


# --- A1 -------------------------------------------------------------------------

def test_a1_gradient_exactness():
    with criterion("A1 gradient exactness"):
        start = time.monotonic()
        configs = [PlannerConfig(d_model=2, n_heads=1, hidden=2), PlannerConfig()]
        worst = 0.0
        for seed in (11, 22, 33):
            scenario = generate(GenSpec(n_scenarios=1, seed=seed,
                                        suite=Suite.HAZARD_VRU))[0]
            for config in configs:
                model = init_model(config, seed)
                command = rule_oracle_decide(scenario).action
                loss, grads = backward(model, scenario, command, scenario.gt_future)
                numeric = fd_gradients(model, scenario, command, scenario.gt_future,
                                       eps=1e-5)
                worst = max(worst, max_relative_error(grads, numeric, loss, eps=1e-5))
        elapsed = time.monotonic() - start
        print(f"  max relative error {worst:.3e} over 3 seeds x 2 configs "
              f"({elapsed:.1f} s)")
        assert worst <= 1e-4
        assert elapsed < 60.0


# --- A2 -------------------------------------------------------------------------

def test_a2_attention_invariants():
    with criterion("A2 attention invariants"):
        model = init_model(PlannerConfig(), seed=5)
        scenarios = generate(GenSpec(n_scenarios=10, seed=5, suite=Suite.MIXED))
        for s in scenarios:
            weights = attention_weights(model, s, s.route_intent)
            for arr in weights.values():
                if arr.shape[1]:
                    assert np.max(np.abs(arr.sum(axis=1) - 1.0)) <= 1e-9
        # Permutation invariance over keys.
        rng = SplitMix64(3)
        for s in scenarios:
            if len(s.agents) < 2:
                continue
            base = np.array(forward(model, s, s.route_intent))
            perm = list(s.agents)
            rng.shuffle(perm)
            permuted_scene = Scenario(
                id=s.id + "p", ego=s.ego, agents=tuple(perm), map=s.map,
                route_intent=s.route_intent, gt_future=s.gt_future, seed=s.seed)
            other = np.array(forward(model, permuted_scene, s.route_intent))
            assert np.max(np.abs(base - other)) <= 1e-9
        # Attention with no valid key returns exactly zero.
        out, _ = planner._attention_forward(
            planner._bind(model.params)["attn1"], model.config, np.ones(32),
            np.ones((0, 32)), np.ones(32), np.ones((0, 32)))
        assert np.array_equal(out, np.zeros(32))


# --- A3 -------------------------------------------------------------------------

def test_a3_planning_efficacy(trained_setup):
    with criterion("A3 planning efficacy at desk scale"):
        trained, curve, eval_set, train_time = trained_setup
        oracle = RuleOracle()
        model_l2, base_l2 = [], []
        for s in eval_set:
            command = oracle.decide(s, Format.SHORT).action
            model_l2.append(l2_horizons(forward(trained, s, command), s.gt_future))
            base_l2.append(l2_horizons(constant_velocity_baseline(s), s.gt_future))
        model_avg = mean_rows(model_l2)["avg"]
        base_avg = mean_rows(base_l2)["avg"]
        print(f"  L2 avg: planner {model_avg:.3f} m, baseline {base_avg:.3f} m "
              f"(train {train_time:.0f} s, loss {curve[0]:.2f} -> {curve[-1]:.3f})")
        assert curve[-1] < 0.25 * curve[0]
        assert model_avg <= 0.7 * base_avg

        hazard = generate(GenSpec(n_scenarios=50, seed=77, suite=Suite.HAZARD_VRU,
                                  agent_density=0.5, speed_range=(2.0, 6.0)))
        model_col, base_col = [], []
        for s in hazard:
            command = oracle.decide(s, Format.SHORT).action
            model_col.append(collision_horizons(forward(trained, s, command), s.agents))
            base_col.append(collision_horizons(constant_velocity_baseline(s), s.agents))
        model_rate = mean_rows(model_col)["avg"]
        base_rate = mean_rows(base_col)["avg"]
        print(f"  hazard collision avg: planner {model_rate:.1f}%, "
              f"baseline {base_rate:.1f}%")
        assert model_rate < base_rate
        assert train_time < 600.0


# --- A4 -------------------------------------------------------------------------

def test_a4_command_conditioning(trained_setup):
    with criterion("A4 command conditioning"):
        trained, _, _, _ = trained_setup
        forks = generate(GenSpec(n_scenarios=40, seed=99, suite=Suite.SYMMETRIC_FORK,
                                 agent_density=0.5, speed_range=(2.0, 6.0)))
        opposite = 0
        pairs = 0
        for k in range(0, len(forks) - 1, 2):
            s = forks[k]
            y_left = forward(trained, s, MetaAction.TURN_LEFT)[-1][1]
            y_right = forward(trained, s, MetaAction.TURN_RIGHT)[-1][1]
            pairs += 1
            if y_left * y_right < 0:
                opposite += 1
        print(f"  opposite-sign pairs: {opposite}/{pairs}")
        assert opposite >= 0.9 * pairs


# --- A5 -------------------------------------------------------------------------

def all_sequences(alphabet, max_len):
    for length in range(max_len + 1):
        yield from itertools.product(alphabet, repeat=length)


def subsequence_set(seq):
    out = set()
    for r in range(len(seq) + 1):
        out.update(itertools.combinations(seq, r))
    return out


def brute_lcs_via_enumeration(cand, ref_subseqs):
    best = 0
    for r in range(len(cand), 0, -1):
        if r <= best:
            break
        for sub in itertools.combinations(cand, r):
            if sub in ref_subseqs:
                best = r
                break
    return best


def test_a5_metric_oracles():
    with criterion("A5 metric oracles"):
        # Hand-computed fixtures, to 1e-6.
        eps = 1e-9
        bleu_fixture = 100.0 * math.exp(0.25 * (math.log(0.25) + 3 * math.log(eps)))
        assert corpus_bleu([["the"] * 4], [["the", "cat", "sat", "down"]]) == pytest.approx(
            bleu_fixture, abs=1e-6)
        assert meteor(["the", "cat", "sat"], ["the", "cat", "sat"]) == pytest.approx(
            100.0 * (1.0 - 0.5 / 27.0), abs=1e-6)
        assert meteor(["a", "x"], ["y", "a"]) == pytest.approx(25.0, abs=1e-6)
        assert rouge_l(list("abcd"), list("acbd")) == pytest.approx(75.0, abs=1e-6)
        cands = [["a", "red", "car", "turns", "left"],
                 ["a", "blue", "car", "stops", "here"],
                 ["the", "cyclist", "crosses", "the", "road"]]
        refs = [["a", "red", "car", "turns", "right"],
                ["a", "blue", "truck", "stops", "here"],
                ["the", "cyclist", "crosses", "a", "road"]]
        assert corpus_cider(cands, refs) == pytest.approx(
            hand_cider_three_pairs(cands, refs), abs=1e-6)

        # Identity corpus: 100/100/100/10 within 1e-6. Sentences are long
        # (500 distinct tokens), so the METEOR fragmentation penalty
        # 0.5/m^3 falls below the tolerance.
        identity = [[f"s{j}w{i:03d}" for i in range(500)] for j in range(3)]
        assert corpus_bleu(identity, identity) == pytest.approx(100.0, abs=1e-6)
        for sent in identity:
            assert meteor(sent, sent) == pytest.approx(100.0, abs=1e-6)
            assert rouge_l(sent, sent) == pytest.approx(100.0, abs=1e-6)
        assert corpus_cider(identity, identity) == pytest.approx(10.0, abs=1e-6)

        # LCS vs exhaustive subsequence enumeration: every candidate
        # sequence of length <= 8 over {a, b, c} against fixed references,
        # plus all pairs up to length 4 exhaustively.
        alphabet = ("a", "b", "c")
        fixed_refs = [tuple("abcabcab"), tuple("cbacbacb"), tuple("aabbccaa")]
        ref_sets = [(r, subsequence_set(r)) for r in fixed_refs]
        checked = 0
        for cand in all_sequences(alphabet, 8):
            for ref, subs in ref_sets:
                assert lcs_length(cand, ref) == brute_lcs_via_enumeration(cand, subs)
                checked += 1
        for cand in all_sequences(alphabet, 4):
            for ref in all_sequences(alphabet, 4):
                assert lcs_length(cand, ref) == brute_lcs_via_enumeration(
                    cand, subsequence_set(ref))
                checked += 1
        print(f"  LCS agreed with enumeration oracle on {checked} pairs")


# --- A6 -------------------------------------------------------------------------

def test_a6_collision_geometry():
    with criterion("A6 collision geometry"):
        rng = SplitMix64(606)
        tested = 0
        for _ in range(1000):
            a = OrientedBox((rng.uniform(-2.5, 2.5), rng.uniform(-2.5, 2.5)),
                            rng.uniform(-math.pi, math.pi),
                            rng.uniform(0.3, 4.0), rng.uniform(0.3, 2.5))
            b = OrientedBox((rng.uniform(-2.5, 2.5), rng.uniform(-2.5, 2.5)),
                            rng.uniform(-math.pi, math.pi),
                            rng.uniform(0.3, 4.0), rng.uniform(0.3, 2.5))
            if abs(separation_margin(a, b)) < 0.01:
                continue
            tested += 1
            assert boxes_overlap(a, b) == grid_overlap_oracle(a, b)
        print(f"  grid oracle agreed on {tested}/1000 pairs "
              f"(rest within the 1 cm boundary band)")
        assert tested > 800

        scen_rng = SplitMix64(707)
        for _ in range(1000):
            pred = tuple(
                (scen_rng.uniform(0.0, 2.5) * k, scen_rng.uniform(-1.5, 1.5))
                for k in range(1, 7))
            agents = []
            for i in range(scen_rng.randint(4)):
                pos = (scen_rng.uniform(-2, 12), scen_rng.uniform(-4, 4))
                heading = scen_rng.uniform(-math.pi, math.pi)
                speed = scen_rng.uniform(0.0, 3.0)
                future = tuple(
                    (pos[0] + speed * math.cos(heading) * 0.5 * k,
                     pos[1] + speed * math.sin(heading) * 0.5 * k)
                    for k in range(1, 7))
                from vecdrive.scene import AgentTrack, AgentKind
                agents.append(AgentTrack(
                    id=i + 1, kind=AgentKind.VEHICLE, position=pos, heading=0.0,
                    speed=speed, extent=(2.0, 1.0), future=future))
            out = collision_horizons(pred, agents)
            assert out["1s"] <= out["2s"] <= out["3s"]


# --- A7 -------------------------------------------------------------------------

def test_a7_pipeline_determinism(tmp_path):
    with criterion("A7 determinism"):
        def run_pipeline(root):
            root.mkdir()
            assert cli_main(["simgen", "--out", str(root), "--n", "30", "--seed",
                             "17", "--suite", "MIXED", "--train-frac", "0.8"]) == 0
            assert cli_main(["qagen", "--scenarios", str(root / "scenarios.jsonl"),
                             "--out", str(root / "qa.jsonl")]) == 0
            assert cli_main(["train", "--scenarios",
                             str(root / "scenarios_train.jsonl"), "--out", str(root),
                             "--epochs", "3", "--lr", "0.01", "--seed", "17"]) == 0
            assert cli_main(["eval-plan", "--scenarios",
                             str(root / "scenarios_eval.jsonl"),
                             "--checkpoint", str(root / "checkpoint.json"),
                             "--out", str(root)]) == 0
            assert cli_main(["eval-text", "--scenarios",
                             str(root / "scenarios_eval.jsonl"),
                             "--format", "long", "--out", str(root)]) == 0
            assert cli_main(["eval-actions", "--scenarios",
                             str(root / "scenarios.jsonl"),
                             "--qa", str(root / "qa.jsonl"), "--out", str(root)]) == 0

        run_pipeline(tmp_path / "one")
        run_pipeline(tmp_path / "two")
        compared = []
        for name in ("scenarios.jsonl", "scenarios_train.jsonl",
                     "scenarios_eval.jsonl", "qa.jsonl", "checkpoint.json",
                     "loss_curve.csv", "eval_plan.json", "eval_plan.txt",
                     "eval_text.json", "eval_text.txt", "eval_actions.json",
                     "eval_actions.txt"):
            a = (tmp_path / "one" / name).read_bytes()
            b = (tmp_path / "two" / name).read_bytes()
            assert a == b, f"{name} differs between runs"
            compared.append(name)
        print(f"  {len(compared)} artifacts byte-identical across two runs")


# --- A8 -------------------------------------------------------------------------

def test_a8_safety_override_semantics():
    with criterion("A8 safety-override semantics"):
        scenarios = generate(GenSpec(n_scenarios=60, seed=808,
                                     suite=Suite.HAZARD_VRU,
                                     agent_density=0.5, speed_range=(2.0, 6.0)))
        for s in scenarios:
            decision = rule_oracle_decide(s, Format.SHORT)
            assert s.route_intent in (MetaAction.TURN_LEFT, MetaAction.TURN_RIGHT)
            assert decision.action is MetaAction.GO_STRAIGHT
            vru_ids = {a.id for a in s.agents if a.kind in VRU_KINDS}
            assert vru_ids & set(decision.hazard_ids)
            assert POSTPONEMENT_CLAUSE in decision.rationale_short
            cleared = Scenario(
                id=s.id + "c", ego=s.ego,
                agents=tuple(a for a in s.agents if a.id not in decision.hazard_ids),
                map=s.map, route_intent=s.route_intent, gt_future=s.gt_future,
                seed=s.seed)
            assert rule_oracle_decide(cleared).action is s.route_intent


# --- A9 -------------------------------------------------------------------------

def test_a9_oracle_self_consistency(tmp_path):
    with criterion("A9 oracle self-consistency"):
        root = tmp_path
        assert cli_main(["simgen", "--out", str(root), "--n", "12",
                         "--seed", "31", "--suite", "MIXED"]) == 0
        scenarios_path = str(root / "scenarios.jsonl")
        qa_path = str(root / "qa.jsonl")
        assert cli_main(["qagen", "--scenarios", scenarios_path,
                         "--out", qa_path]) == 0
        # Rule oracle against its own labels.
        assert cli_main(["eval-actions", "--scenarios", scenarios_path,
                         "--qa", qa_path, "--out", str(root)]) == 0
        obj = jsonio.loads((root / "eval_actions.json").read_text())
        assert obj["rows"]["rule"]["accuracy"] == 100.0
        # Loopback external mock over the full wire protocol.
        endpoint = f"exec:{sys.executable} -m vecdrive.oracle_server"
        assert cli_main(["eval-actions", "--scenarios", scenarios_path,
                         "--qa", qa_path, "--oracle", endpoint,
                         "--out", str(root)]) == 0
        obj = jsonio.loads((root / "eval_actions.json").read_text())
        assert obj["rows"][endpoint]["accuracy"] == 100.0
        # Timeout path under a delayed mock.
        sleepy = root / "sleepy.py"
        sleepy.write_text(textwrap.dedent("""\
            import json, sys, time
            for line in sys.stdin:
                json.loads(line)
                time.sleep(0.8)
                sys.stdout.write(json.dumps({"v": 1, "action": "GO_STRAIGHT",
                    "rationale": "late", "hazard_ids": []}) + "\\n")
                sys.stdout.flush()
        """))
        from vecdrive.scene import load_scenarios
        scenario = load_scenarios(scenarios_path)[0]
        with ExecOracle(f"{sys.executable} {sleepy}", timeout=0.2) as oracle:
            with pytest.raises(OracleTimeout):
                oracle.decide(scenario)
        code = cli_main(["eval-actions", "--scenarios", scenarios_path,
                         "--qa", qa_path, "--timeout", "0.2",
                         "--oracle", f"exec:{sys.executable} {sleepy}",
                         "--out", str(root)])
        assert code == 5


# --- A10 ------------------------------------------------------------------------

def test_a10_latency_harness(tmp_path):
    with criterion("A10 latency harness"):
        root = tmp_path
        assert cli_main(["simgen", "--out", str(root), "--n", "8",
                         "--seed", "41", "--suite", "CRUISE"]) == 0
        mock = root / "sleep50.py"
        mock.write_text(textwrap.dedent("""\
            import json, sys, time
            for line in sys.stdin:
                json.loads(line)
                time.sleep(0.05)
                sys.stdout.write(json.dumps({"v": 1, "action": "GO_STRAIGHT",
                    "rationale": "timed mock", "hazard_ids": []}) + "\\n")
                sys.stdout.flush()
        """))
        assert cli_main(["bench-oracle", "--scenarios",
                         str(root / "scenarios.jsonl"),
                         "--oracle", f"exec:{sys.executable} {mock}",
                         "--out", str(root)]) == 0
        obj = jsonio.loads((root / "bench.json").read_text())
        assert set(obj["rows"]) == {"Long", "Short"}
        for label, stats in obj["rows"].items():
            assert set(stats) == {"mean", "p50", "p95"}
            assert 0.050 <= stats["mean"] <= 0.060, (label, stats)
        print(f"  50 ms mock mean: Long {obj['rows']['Long']['mean'] * 1e3:.1f} ms, "
              f"Short {obj['rows']['Short']['mean'] * 1e3:.1f} ms")
        # Layout fixture: reference inference times (seconds, as bench.json
        # holds them) render in milliseconds in the Long/Short rows with
        # mean/p50/p95 columns.
        fixture = {"Long": {"mean": 3.407, "p50": 3.407, "p95": 3.407},
                   "Short": {"mean": 0.878, "p50": 0.878, "p95": 0.878}}
        table = render_latency_table(fixture)
        lines = table.splitlines()
        assert lines[0].split() == ["Format", "Mean", "(ms)", "p50", "(ms)", "p95", "(ms)"]
        assert any(l.startswith("Short") and "878.000" in l for l in lines)
        assert any(l.startswith("Long") and "3407.000" in l for l in lines)
