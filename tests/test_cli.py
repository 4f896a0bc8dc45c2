import contextlib
import io
import json
import math
import os
import re
import shutil
import socket
import subprocess
import sys
import textwrap

import pytest
from hypothesis import given, settings, strategies as st

import vecdrive
from vecdrive import cli, jsonio, planner
from vecdrive.cli import ConfigError, main
from vecdrive.external import MAX_TIMEOUT, OracleTimeout
from vecdrive.oracle import Format, RuleOracle, rule_oracle_decide
from vecdrive.planner import (
    MAX_PARAMS,
    CheckpointError,
    PlannerConfig,
    TrainingDiverged,
    init_model,
    load_checkpoint,
    param_count,
    save_checkpoint,
)
from vecdrive.planmetrics import TextEvalRow, evaluate_explanations
from vecdrive.report import render_text_table, text_row_to_dict
from vecdrive.scene import ScenarioLoadError, ValidationError, load_scenarios


def run(args):
    return main(args)


def read(path):
    with open(path, "rb") as fh:
        return fh.read()


@pytest.fixture
def workdir(tmp_path):
    return tmp_path


def gen(workdir, name="base", n=20, seed=7, suite="MIXED", extra=()):
    out = workdir / name
    code = run(["simgen", "--out", str(out), "--n", str(n), "--seed", str(seed),
                "--suite", suite, "--train-frac", "0.8", *extra])
    assert code == 0
    return out


# --- simgen ------------------------------------------------------------------

def test_simgen_writes_expected_counts(workdir, capsys):
    out = gen(workdir, n=30)
    scenarios = load_scenarios(out / "scenarios.jsonl")
    assert len(scenarios) == 30
    assert len(load_scenarios(out / "scenarios_train.jsonl")) == 24
    assert len(load_scenarios(out / "scenarios_eval.jsonl")) == 6


def test_simgen_rerun_byte_identical(workdir):
    a = gen(workdir, "a", n=25, seed=11)
    b = gen(workdir, "b", n=25, seed=11)
    for name in ("scenarios.jsonl", "scenarios_train.jsonl", "scenarios_eval.jsonl"):
        assert read(a / name) == read(b / name)


def test_simgen_invalid_frac_exit_2(workdir, capsys):
    # The fraction is refused before any file is written: one already in
    # --out keeps its bytes, and nothing is printed.
    out = workdir / "x"
    out.mkdir()
    (out / "scenarios.jsonl").write_bytes(b"kept\n")
    code = run(["simgen", "--out", str(out), "--n", "5", "--seed", "1",
                "--train-frac", "1.5"])
    assert code == 2
    captured = capsys.readouterr()
    assert "train-frac" in captured.err
    assert captured.out == ""
    assert sorted(os.listdir(out)) == ["scenarios.jsonl"]
    assert read(out / "scenarios.jsonl") == b"kept\n"


def test_simgen_refuses_an_empty_split_before_writing(workdir, capsys):
    # One scene split 0.5 would write an empty train file that `train` refuses.
    out = workdir / "x"
    code = run(["simgen", "--out", str(out), "--n", "1", "--train-frac", "0.5"])
    assert code == 2
    captured = capsys.readouterr()
    assert "--train-frac: train_frac 0.5 of 1 scenarios leaves the train part empty" \
        in captured.err
    assert captured.out == "" and not out.exists()


def test_simgen_invalid_density_exit_2_names_field(workdir, capsys):
    code = run(["simgen", "--out", str(workdir / "x"), "--n", "5", "--seed", "1",
                "--density", "2.0"])
    assert code == 2
    assert "agent_density" in capsys.readouterr().err


@pytest.mark.parametrize("flag, value", [("--speed-max", "inf"), ("--speed-max", "nan"),
                                         ("--speed-min", "nan"), ("--speed-min", "-inf")])
def test_simgen_non_finite_speed_exit_2_names_speed_range(workdir, capsys, flag, value):
    code = run(["simgen", "--out", str(workdir / "x"), "--n", "5", "--seed", "1",
                f"{flag}={value}"])
    assert code == 2
    assert "speed_range" in capsys.readouterr().err
    assert not (workdir / "x" / "scenarios.jsonl").exists()


def test_simgen_hazard_all_flagged(workdir):
    out = gen(workdir, "hz", n=15, suite="HAZARD_VRU")
    from vecdrive.oracle import rule_oracle_decide
    from vecdrive.scene import MetaAction
    for s in load_scenarios(out / "scenarios.jsonl"):
        assert rule_oracle_decide(s).action is MetaAction.GO_STRAIGHT


def test_config_file_supplies_defaults(workdir):
    config = workdir / "cfg.json"
    config.write_text(json.dumps({"n": 8, "seed": 3, "suite": "CRUISE"}))
    out = workdir / "fromcfg"
    assert run(["simgen", "--config", str(config), "--out", str(out)]) == 0
    assert len(load_scenarios(out / "scenarios.jsonl")) == 8
    # Explicit flags beat the config file.
    out2 = workdir / "fromcfg2"
    assert run(["simgen", "--config", str(config), "--out", str(out2), "--n", "4"]) == 0
    assert len(load_scenarios(out2 / "scenarios.jsonl")) == 4


def test_single_config_drives_whole_pipeline(workdir):
    root = workdir / "pipe"
    config = workdir / "pipeline.json"
    config.write_text(json.dumps({
        "out": str(root),
        "seed": 9,
        "simgen": {"n": 20, "suite": "MIXED", "train_frac": 0.8},
        "qagen": {"scenarios": str(root / "scenarios.jsonl"),
                  "out": str(root / "qa.jsonl")},
        "train": {"scenarios": str(root / "scenarios_train.jsonl"),
                  "epochs": 2, "lr": 0.01},
        "eval-plan": {"scenarios": str(root / "scenarios_eval.jsonl"),
                      "checkpoint": str(root / "checkpoint.json")},
    }))
    for command in ("simgen", "qagen", "train", "eval-plan"):
        assert run([command, "--config", str(config)]) == 0
    assert (root / "eval_plan.json").exists()


# --- qagen -------------------------------------------------------------------

def test_qagen_counts_and_determinism(workdir, capsys):
    out = gen(workdir, n=15)
    qa1 = workdir / "qa1.jsonl"
    qa2 = workdir / "qa2.jsonl"
    assert run(["qagen", "--scenarios", str(out / "scenarios.jsonl"), "--out", str(qa1)]) == 0
    printed = capsys.readouterr().out
    assert "PERCEPTION: 15" in printed
    assert "PLANNING: 15" in printed
    assert run(["qagen", "--scenarios", str(out / "scenarios.jsonl"), "--out", str(qa2)]) == 0
    assert read(qa1) == read(qa2)
    scenarios = load_scenarios(out / "scenarios.jsonl")
    total_agents = sum(len(s.agents) for s in scenarios)
    n_items = sum(1 for line in qa1.read_text().splitlines() if line.strip())
    assert n_items == 2 * len(scenarios) + total_agents


def test_qagen_prints_action_distribution_matching_rule_oracle(workdir, capsys):
    out = gen(workdir, n=12)
    qa = workdir / "qa.jsonl"
    assert run(["qagen", "--scenarios", str(out / "scenarios.jsonl"),
                "--out", str(qa)]) == 0
    printed = capsys.readouterr().out
    from collections import Counter
    from vecdrive.oracle import rule_oracle_decide
    from vecdrive.scene import load_scenarios as load
    expected = Counter(rule_oracle_decide(s).action.value
                       for s in load(out / "scenarios.jsonl"))
    dist_line = [l for l in printed.splitlines() if "gt_action" in l][0]
    for action in ("GO_STRAIGHT", "TURN_LEFT", "TURN_RIGHT"):
        assert f"{action}={expected.get(action, 0)}" in dist_line


def test_qagen_missing_input_exit_3(workdir, capsys):
    code = run(["qagen", "--scenarios", str(workdir / "nope.jsonl"),
                "--out", str(workdir / "qa.jsonl")])
    assert code == 3


# --- train -------------------------------------------------------------------

def test_train_lr_zero_checkpoint_equals_init(workdir):
    out = gen(workdir, n=10)
    assert run(["train", "--scenarios", str(out / "scenarios_train.jsonl"),
                "--out", str(out), "--epochs", "2", "--lr", "0", "--seed", "5"]) == 0
    trained = load_checkpoint(out / "checkpoint.json")
    fresh = init_model(PlannerConfig(), 5)
    import numpy as np
    for name in fresh.params:
        assert np.array_equal(trained.params[name], fresh.params[name])
    curve = (out / "loss_curve.csv").read_text().splitlines()
    assert curve[0] == "epoch,mean_loss"
    assert len(curve) == 3


def test_train_deterministic_checkpoint_bytes(workdir):
    out = gen(workdir, n=10)
    a = workdir / "ta"
    b = workdir / "tb"
    for dest in (a, b):
        assert run(["train", "--scenarios", str(out / "scenarios_train.jsonl"),
                    "--out", str(dest), "--epochs", "3", "--lr", "0.01",
                    "--seed", "5"]) == 0
    assert read(a / "checkpoint.json") == read(b / "checkpoint.json")
    assert read(a / "loss_curve.csv") == read(b / "loss_curve.csv")


def test_train_divergence_exit_4(workdir, capsys):
    out = gen(workdir, n=10)
    import numpy as np
    with np.errstate(over="ignore", invalid="ignore"):
        code = run(["train", "--scenarios", str(out / "scenarios_train.jsonl"),
                    "--out", str(out), "--epochs", "50", "--lr", "1e9", "--seed", "5"])
    assert code == 4
    assert "learning rate" in capsys.readouterr().err


def test_train_diverging_in_the_last_update_exits_4_without_a_checkpoint(workdir, capsys):
    # One scene, one step: its loss is finite, and its update makes the
    # weights infinite. One scene cannot be split, so simgen writes no split.
    out = workdir / "base"
    assert run(["simgen", "--out", str(out), "--n", "1", "--seed", "7", "--suite", "MIXED"]) == 0
    code = run(["train", "--scenarios", str(out / "scenarios.jsonl"), "--out", str(out / "t"),
                "--epochs", "1", "--lr", "1e308"])
    assert code == 4
    assert capsys.readouterr().err == ("error: non-finite weights after epoch 0; "
                                       "the learning rate 1e+308 is likely too high\n")
    assert not (out / "t" / "checkpoint.json").exists()


def test_train_divergence_prints_no_runtime_warning(workdir):
    # On these scenes a product overflows and inf then meets 0 before the
    # loss turns non-finite; stderr holds the error line alone.
    out = gen(workdir, n=40, seed=1)
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(vecdrive.__file__)))
    env.pop("PYTHONWARNINGS", None)
    proc = subprocess.run(
        [sys.executable, "-m", "vecdrive", "train", "--scenarios", str(out / "scenarios.jsonl"),
         "--out", str(out / "t"), "--epochs", "3", "--lr", "5"],
        env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 4
    assert proc.stderr == ("error: non-finite loss at epoch 1, scenario 'mixed-1-00022'; "
                           "the learning rate 5.0 is likely too high\n")
    assert not (out / "t" / "checkpoint.json").exists()


def train_warnings(workdir, caplog, capsys, speed_max, lr):
    """Train on 40 MIXED scenes for 10 epochs; the exit code, stdout, the
    loss curve and the warnings logged."""
    out = gen(workdir, n=40, extra=("--speed-max", speed_max))
    caplog.clear()
    capsys.readouterr()
    code = run(["train", "--scenarios", str(out / "scenarios.jsonl"), "--out", str(out),
                "--epochs", "10", "--lr", lr, "--seed", "7"])
    curve = [float(line.split(",")[1])
             for line in (out / "loss_curve.csv").read_text().splitlines()[1:]]
    warnings = [r.getMessage() for r in caplog.records
                if r.name == "vecdrive" and r.levelname == "WARNING"]
    return code, capsys.readouterr().out, curve, warnings


def test_train_warns_when_it_ends_worse_than_it_started(workdir, caplog, capsys):
    code, printed, curve, warnings = train_warnings(workdir, caplog, capsys, "12", "0.05")
    assert code == 0
    assert printed == (f"wrote {workdir / 'base' / 'checkpoint.json'}\n"
                       "final mean loss 213.963646 (initial 116.403147)\n")
    assert curve[-1] > curve[0]
    assert len(warnings) == 1
    assert "213.963646" in warnings[0] and "116.403147" in warnings[0]


def test_train_that_converges_logs_no_warning(workdir, caplog, capsys):
    code, printed, curve, warnings = train_warnings(workdir, caplog, capsys, "6", "0.01")
    assert code == 0
    assert curve[-1] < curve[0]
    assert warnings == []


def test_train_logs_epochs_on_stderr_only_with_vlad_log_info(workdir):
    """The per-epoch lines go to stderr under VLAD_LOG=info and nowhere by
    default; stdout, loss_curve.csv and checkpoint.json keep their bytes."""
    scenarios = gen(workdir, n=10) / "scenarios_train.jsonl"
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(vecdrive.__file__)))
    env.pop("VLAD_LOG", None)
    runs = {}
    for level in (None, "info"):
        out = workdir / f"log-{level}"
        proc = subprocess.run(
            [sys.executable, "-m", "vecdrive", "train", "--scenarios", str(scenarios),
             "--out", str(out), "--epochs", "3", "--lr", "0.01", "--seed", "7"],
            env=env if level is None else dict(env, VLAD_LOG=level),
            capture_output=True, text=True, timeout=60)
        assert proc.returncode == 0, proc.stderr
        files = [(out / name).read_bytes() for name in ("loss_curve.csv", "checkpoint.json")]
        runs[level] = (proc.stdout.replace(str(out), "OUT"), files, proc.stderr)
    assert runs[None][:2] == runs["info"][:2]
    assert runs[None][2] == ""
    losses = runs["info"][1][0].decode().splitlines()[1:]
    epochs = [line for line in runs["info"][2].splitlines() if ": epoch " in line]
    assert len(epochs) == 3
    for line, row in zip(epochs, losses):
        epoch, loss = row.split(",")
        assert line.startswith(f"INFO vecdrive: epoch {epoch}: mean loss {loss}, "), line
        assert line.endswith(" samples/s"), line


# --- eval-plan ---------------------------------------------------------------

def test_eval_plan_gt_bypass_zero_l2(workdir, capsys):
    out = gen(workdir, n=12)
    assert run(["eval-plan", "--scenarios", str(out / "scenarios_eval.jsonl"),
                "--predict", "gt", "--out", str(out)]) == 0
    obj = jsonio.loads((out / "eval_plan.json").read_text())
    planner_row = obj["rows"]["planner"]
    assert all(planner_row["l2"][k] == 0.0 for k in ("1s", "2s", "3s", "avg"))
    assert "const-velocity" in obj["rows"]


def test_eval_plan_no_agent_suite_zero_collisions(workdir):
    out = gen(workdir, "forks", n=10, suite="SYMMETRIC_FORK")
    assert run(["eval-plan", "--scenarios", str(out / "scenarios.jsonl"),
                "--predict", "gt", "--out", str(out)]) == 0
    obj = jsonio.loads((out / "eval_plan.json").read_text())
    for row in obj["rows"].values():
        assert all(row["collision"][k] == 0.0 for k in ("1s", "2s", "3s", "avg"))


def test_eval_plan_requires_checkpoint_for_model(workdir, capsys):
    out = gen(workdir, n=6)
    code = run(["eval-plan", "--scenarios", str(out / "scenarios_eval.jsonl"),
                "--out", str(out)])
    assert code == 2
    assert "checkpoint" in capsys.readouterr().err


def test_eval_plan_malformed_checkpoint_exit_2(workdir, capsys):
    out = gen(workdir, n=6)
    ckpt = out / "checkpoint.json"
    obj = {"version": 1, "config": PlannerConfig().to_dict(),
           "params": {name: 5 for name in init_model(PlannerConfig(), 1).params}}
    ckpt.write_text(json.dumps(obj))
    code = run(["eval-plan", "--scenarios", str(out / "scenarios_eval.jsonl"),
                "--checkpoint", str(ckpt), "--out", str(out)])
    assert code == 2
    assert "not an object" in capsys.readouterr().err


def test_eval_plan_deterministic(workdir):
    out = gen(workdir, n=10)
    assert run(["train", "--scenarios", str(out / "scenarios_train.jsonl"),
                "--out", str(out), "--epochs", "2", "--lr", "0.01", "--seed", "5"]) == 0
    a, b = workdir / "ea", workdir / "eb"
    for dest in (a, b):
        assert run(["eval-plan", "--scenarios", str(out / "scenarios_eval.jsonl"),
                    "--checkpoint", str(out / "checkpoint.json"),
                    "--out", str(dest)]) == 0
    assert read(a / "eval_plan.json") == read(b / "eval_plan.json")
    assert read(a / "eval_plan.txt") == read(b / "eval_plan.txt")


def test_eval_plan_refuses_a_boolean_weight_exit_2(workdir, capsys):
    out = gen(workdir, n=6)
    ckpt = out / "checkpoint.json"
    save_checkpoint(init_model(PlannerConfig(), 1), ckpt)
    obj = json.loads(ckpt.read_text())
    obj["params"]["plan_head.b2"]["data"][0] = True
    ckpt.write_text(json.dumps(obj))
    code = run(["eval-plan", "--scenarios", str(out / "scenarios_eval.jsonl"),
                "--checkpoint", str(ckpt), "--out", str(out)])
    assert code == 2
    assert "plan_head.b2: data is not a list of numbers" in capsys.readouterr().err
    assert not (out / "eval_plan.json").exists()


def test_eval_plan_refuses_a_checkpoint_whose_prediction_overflows(workdir):
    # Every weight stays finite, so the checkpoint loads, but the plan
    # head's output overflows; stderr holds the error line alone.
    out = gen(workdir, n=20, seed=7)
    assert run(["train", "--scenarios", str(out / "scenarios_train.jsonl"),
                "--out", str(out), "--epochs", "2"]) == 0
    ckpt = out / "checkpoint.json"
    obj = json.loads(ckpt.read_text())
    w2 = obj["params"]["plan_head.w2"]
    w2["data"] = [v * 1e308 for v in w2["data"]]
    ckpt.write_text(json.dumps(obj))
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(vecdrive.__file__)))
    env.pop("PYTHONWARNINGS", None)
    proc = subprocess.run(
        [sys.executable, "-m", "vecdrive", "eval-plan", "--scenarios",
         str(out / "scenarios_eval.jsonl"), "--checkpoint", str(ckpt), "--out", str(out)],
        env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 2
    assert proc.stderr == (f"error: {ckpt}: non-finite prediction for scenario "
                           "'mixed-7-00011'\n")
    assert not (out / "eval_plan.json").exists() and not (out / "eval_plan.txt").exists()


@pytest.mark.parametrize("scale, problem", [
    (3e307, "l2[avg] of scenario 'mixed-7-00011' overflows to inf"),
    (1e307, "the mean l2[3s] over 4 scenarios overflows to inf"),
])
def test_eval_plan_refuses_a_checkpoint_whose_l2_overflows(workdir, scale, problem):
    # Every prediction is finite, but its distance to the ground truth (at
    # 3e307) or the table's mean of the distances (at 1e307) is not. The
    # error names the checkpoint, and the scenario when one is at fault.
    out = gen(workdir, n=20, seed=7)
    assert run(["train", "--scenarios", str(out / "scenarios_train.jsonl"),
                "--out", str(out), "--epochs", "2"]) == 0
    ckpt = out / "checkpoint.json"
    obj = json.loads(ckpt.read_text())
    w2 = obj["params"]["plan_head.w2"]
    w2["data"] = [v * scale for v in w2["data"]]
    ckpt.write_text(json.dumps(obj))
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(vecdrive.__file__)))
    env.pop("PYTHONWARNINGS", None)
    proc = subprocess.run(
        [sys.executable, "-m", "vecdrive", "eval-plan", "--scenarios",
         str(out / "scenarios_eval.jsonl"), "--checkpoint", str(ckpt), "--out", str(out)],
        env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 2
    assert proc.stderr == f"error: {ckpt}: {problem}\n"
    assert not (out / "eval_plan.json").exists() and not (out / "eval_plan.txt").exists()


def test_eval_plan_and_report_accept_an_avg_one_ulp_off_at_a_huge_l2(workdir, capsys):
    # At ~1e307 m one ULP is far above any absolute tolerance, and the row's
    # avg (a mean of per-sample avgs) rounds differently from the mean of
    # its horizons.
    out = gen(workdir, n=6, seed=1)
    assert run(["train", "--scenarios", str(out / "scenarios_train.jsonl"),
                "--out", str(out), "--epochs", "2", "--seed", "5"]) == 0
    ckpt = out / "checkpoint.json"
    obj = json.loads(ckpt.read_text())
    w2 = obj["params"]["plan_head.w2"]
    w2["data"] = [v * 1e308 for v in w2["data"]]
    ckpt.write_text(json.dumps(obj))
    assert run(["eval-plan", "--scenarios", str(out / "scenarios_eval.jsonl"),
                "--checkpoint", str(ckpt), "--out", str(out)]) == 0
    l2 = json.loads((out / "eval_plan.json").read_text())["rows"]["planner"]["l2"]
    assert 1e307 < l2["avg"] != (l2["1s"] + l2["2s"] + l2["3s"]) / 3
    capsys.readouterr()
    assert run(["report", "--dir", str(out)]) == 0
    assert f"{l2['avg']:.2f}" in capsys.readouterr().out


# --- eval-text ----------------------------------------------------------------

def test_eval_text_identity_rule_oracle(workdir):
    out = gen(workdir, n=10)
    assert run(["eval-text", "--scenarios", str(out / "scenarios_eval.jsonl"),
                "--format", "long", "--out", str(out)]) == 0
    obj = jsonio.loads((out / "eval_text.json").read_text())
    row = obj["rows"]["rule"]
    assert row["bleu"] == pytest.approx(100.0, abs=1e-6)
    assert row["rouge_l"] == pytest.approx(100.0, abs=1e-6)
    assert row["meteor"] == pytest.approx(100.0, abs=0.2)   # fragmentation penalty
    assert row["cider"] == pytest.approx(10.0, abs=1e-6)
    assert "gpt_score" not in row


def test_eval_text_rule_oracle_decides_each_scene_once(workdir, monkeypatch):
    out = gen(workdir, n=10)
    scenarios = load_scenarios(out / "scenarios_eval.jsonl")
    texts = [rule_oracle_decide(s, Format.LONG).rationale_long for s in scenarios]
    calls = []
    decide = RuleOracle.decide

    def counted(self, scenario, format=Format.SHORT):
        calls.append(scenario.id)
        return decide(self, scenario, format)

    monkeypatch.setattr(RuleOracle, "decide", counted)
    assert run(["eval-text", "--scenarios", str(out / "scenarios_eval.jsonl"),
                "--format", "long", "--out", str(out)]) == 0
    assert calls == [s.id for s in scenarios]
    obj = jsonio.loads((out / "eval_text.json").read_text())
    assert obj["rows"] == {"rule": text_row_to_dict(evaluate_explanations(texts, texts))}


def test_eval_text_external_candidates_scored(workdir):
    out = gen(workdir, n=6)
    mock = workdir / "fixed.py"
    mock.write_text(textwrap.dedent("""\
        import json, sys
        for line in sys.stdin:
            json.loads(line)
            sys.stdout.write(json.dumps({"v": 1, "action": "GO_STRAIGHT",
                "rationale": "a fixed very short rationale", "hazard_ids": []}) + "\\n")
            sys.stdout.flush()
    """))
    endpoint = f"exec:{sys.executable} {mock}"
    assert run(["eval-text", "--scenarios", str(out / "scenarios_eval.jsonl"),
                "--oracle", endpoint, "--format", "short", "--out", str(out)]) == 0
    obj = jsonio.loads((out / "eval_text.json").read_text())
    row = obj["rows"][endpoint]
    assert row["bleu"] < 50.0
    assert row["rouge_l"] < 80.0


def test_shuffled_tokens_lower_rouge_equal_unigram_overlap():
    # ROUGE-L is order-sensitive while unigram counts are not.
    from vecdrive.textmetrics import rouge_l
    ref = "the cyclist crosses the road ahead now".split()
    shuffled = "now the road crosses cyclist ahead the".split()
    assert sorted(ref) == sorted(shuffled)
    assert rouge_l(shuffled, ref) < 100.0


# --- eval-actions ---------------------------------------------------------------

def test_eval_actions_rule_self_consistency(workdir, capsys):
    out = gen(workdir, n=12)
    qa = out / "qa.jsonl"
    assert run(["qagen", "--scenarios", str(out / "scenarios.jsonl"), "--out", str(qa)]) == 0
    assert run(["eval-actions", "--scenarios", str(out / "scenarios.jsonl"),
                "--qa", str(qa), "--out", str(out)]) == 0
    obj = jsonio.loads((out / "eval_actions.json").read_text())
    assert obj["rows"]["rule"]["accuracy"] == 100.0


def test_eval_actions_constant_oracle_matches_label_fraction(workdir):
    out = gen(workdir, "turnset", n=14, suite="TURNS")
    qa = out / "qa.jsonl"
    assert run(["qagen", "--scenarios", str(out / "scenarios.jsonl"), "--out", str(qa)]) == 0
    mock = workdir / "always_straight.py"
    mock.write_text(textwrap.dedent("""\
        import json, sys
        for line in sys.stdin:
            json.loads(line)
            sys.stdout.write(json.dumps({"v": 1, "action": "GO_STRAIGHT",
                "rationale": "always straight", "hazard_ids": []}) + "\\n")
            sys.stdout.flush()
    """))
    endpoint = f"exec:{sys.executable} {mock}"
    assert run(["eval-actions", "--scenarios", str(out / "scenarios.jsonl"),
                "--qa", str(qa), "--oracle", endpoint, "--out", str(out)]) == 0
    obj = jsonio.loads((out / "eval_actions.json").read_text())
    labels = [item for line in qa.read_text().splitlines() if line.strip()
              for item in [jsonio.loads(line)] if item["task"] == "PLANNING"]
    straight_fraction = 100.0 * sum(
        1 for i in labels if i["gt_action"] == "GO_STRAIGHT") / len(labels)
    assert obj["rows"][endpoint]["accuracy"] == pytest.approx(straight_fraction)


def test_eval_actions_loopback_mock_100(workdir):
    out = gen(workdir, n=8)
    qa = out / "qa.jsonl"
    assert run(["qagen", "--scenarios", str(out / "scenarios.jsonl"), "--out", str(qa)]) == 0
    endpoint = f"exec:{sys.executable} -m vecdrive.oracle_server"
    assert run(["eval-actions", "--scenarios", str(out / "scenarios.jsonl"),
                "--qa", str(qa), "--oracle", endpoint, "--out", str(out)]) == 0
    obj = jsonio.loads((out / "eval_actions.json").read_text())
    assert obj["rows"][endpoint]["accuracy"] == 100.0


def test_eval_actions_oracle_failure_exit_5(workdir):
    out = gen(workdir, n=6)
    qa = out / "qa.jsonl"
    assert run(["qagen", "--scenarios", str(out / "scenarios.jsonl"), "--out", str(qa)]) == 0
    mock = workdir / "sleepy.py"
    mock.write_text(textwrap.dedent("""\
        import json, sys, time
        for line in sys.stdin:
            json.loads(line)
            time.sleep(0.8)
            sys.stdout.write(json.dumps({"v": 1, "action": "GO_STRAIGHT",
                "rationale": "late", "hazard_ids": []}) + "\\n")
            sys.stdout.flush()
    """))
    code = run(["eval-actions", "--scenarios", str(out / "scenarios.jsonl"),
                "--qa", str(qa), "--oracle", f"exec:{sys.executable} {mock}",
                "--timeout", "0.2", "--out", str(out)])
    assert code == 5


def test_oracle_stderr_tail_in_exit_5_message(workdir, capsys):
    out = gen(workdir, n=6)
    mock = workdir / "crash.py"
    mock.write_text('import sys\nsys.stderr.write("boom: weights missing\\n")\nsys.exit(1)\n')
    code = run(["eval-text", "--scenarios", str(out / "scenarios_eval.jsonl"),
                "--oracle", f"exec:{sys.executable} {mock}", "--out", str(out)])
    assert code == 5
    assert "boom: weights missing" in capsys.readouterr().err


# --- bench-oracle ----------------------------------------------------------------

def test_bench_rule_oracle_fast_and_shaped(workdir):
    out = gen(workdir, n=10)
    assert run(["bench-oracle", "--scenarios", str(out / "scenarios_eval.jsonl"),
                "--out", str(out)]) == 0
    obj = jsonio.loads((out / "bench.json").read_text())
    assert set(obj["rows"]) == {"Long", "Short"}
    for stats in obj["rows"].values():
        assert set(stats) == {"mean", "p50", "p95"}
        assert stats["mean"] < 1e-3   # rule oracle answers in well under 1 ms
    table = (out / "bench.txt").read_text()
    assert table.splitlines()[0].startswith("Format")


def test_bench_rule_oracle_prints_a_nonzero_p50_in_ms(workdir, capsys):
    out = gen(workdir, n=10)
    capsys.readouterr()
    assert run(["bench-oracle", "--scenarios", str(out / "scenarios_eval.jsonl"),
                "--out", str(out)]) == 0
    printed = capsys.readouterr().out
    assert printed == (out / "bench.txt").read_text()
    header, _rule, *rows = printed.splitlines()
    assert header.split() == ["Format", "Mean", "(ms)", "p50", "(ms)", "p95", "(ms)"]
    assert [row.split()[0] for row in rows] == ["Long", "Short"]
    for row in rows:
        assert float(row.split()[2]) > 0.0     # a rule decision is µs, not 0.000


def test_bench_sleepy_mock_mean_in_band(workdir):
    out = gen(workdir, "bench", n=6, suite="CRUISE")
    mock = workdir / "sleep50.py"
    mock.write_text(textwrap.dedent("""\
        import json, sys, time
        for line in sys.stdin:
            json.loads(line)
            time.sleep(0.05)
            sys.stdout.write(json.dumps({"v": 1, "action": "GO_STRAIGHT",
                "rationale": "slow mock", "hazard_ids": []}) + "\\n")
            sys.stdout.flush()
    """))
    assert run(["bench-oracle", "--scenarios", str(out / "scenarios.jsonl"),
                "--oracle", f"exec:{sys.executable} {mock}", "--out", str(out)]) == 0
    obj = jsonio.loads((out / "bench.json").read_text())
    for stats in obj["rows"].values():
        assert 0.050 <= stats["mean"] <= 0.060


def test_bench_oracle_refuses_negative_warmup_before_opening_the_oracle(workdir, capsys,
                                                                         monkeypatch):
    out = gen(workdir, n=5)
    def no_oracle(*args, **kwargs):
        raise AssertionError("the oracle was opened")
    monkeypatch.setattr(cli, "open_oracle", no_oracle)
    assert run(["bench-oracle", "--scenarios", str(out / "scenarios.jsonl"),
                "--warmup", "-3", "--out", str(out)]) == 2
    assert "--warmup" in capsys.readouterr().err
    assert not (out / "bench.json").exists()


# --- report / fixtures --------------------------------------------------------------

def test_report_renders_paper_style_fixture_rows(workdir, capsys):
    # Formatting fixture: explanation-metric and latency layouts render
    # reference values in column order (values are not reproduced here).
    out = workdir / "fixtures"
    out.mkdir()
    text_rows = {"full-ft-1ep": {"bleu": 64.60, "meteor": 73.27,
                                 "rouge_l": 72.40, "cider": 3.71}}
    (out / "eval_text.json").write_text(jsonio.dumps({"rows": text_rows}) + "\n")
    actions_rows = {"full-ft-1ep": {"accuracy": 90.15, "confusion": {}}}
    (out / "eval_actions.json").write_text(jsonio.dumps({"rows": actions_rows}) + "\n")
    bench_rows = {"Long": {"mean": 3.407, "p50": 3.407, "p95": 3.407},
                  "Short": {"mean": 0.878, "p50": 0.878, "p95": 0.878}}
    (out / "bench.json").write_text(jsonio.dumps({"rows": bench_rows}) + "\n")
    assert run(["report", "--dir", str(out)]) == 0
    printed = capsys.readouterr().out
    header_idx = printed.index("BLEU")
    assert header_idx < printed.index("METEOR") < printed.index("ROUGE-L") < printed.index("CIDEr")
    row_line = [l for l in printed.splitlines() if l.startswith("full-ft-1ep")][0]
    assert row_line.split()[1:] == ["64.60", "73.27", "72.40", "3.71"]
    assert "90.15" in printed          # accuracy column fixture
    short_line = [l for l in printed.splitlines() if l.startswith("Short")][0]
    assert "878.000" in short_line     # bench.json holds seconds, the table ms
    long_line = [l for l in printed.splitlines() if l.startswith("Long")][0]
    assert "3407.000" in long_line


def test_report_empty_dir_exit_2(workdir, capsys):
    out = workdir / "empty"
    out.mkdir()
    assert run(["report", "--dir", str(out)]) == 2


def test_text_table_includes_gpt_column_only_when_scored():
    rows = {"a": TextEvalRow(bleu=1.0, meteor=2.0, rouge_l=3.0, cider=0.5)}
    assert "GPT-Score" not in render_text_table(rows)
    rows = {"a": TextEvalRow(bleu=1.0, meteor=2.0, rouge_l=3.0, cider=0.5, gpt_score=3.76)}
    table = render_text_table(rows)
    assert "GPT-Score" in table and "3.76" in table


def test_vlad_log_env_controls_stderr(workdir, monkeypatch, capsys):
    monkeypatch.setenv("VLAD_LOG", "banana")
    code = run(["simgen", "--out", str(workdir / "x"), "--n", "2", "--seed", "1"])
    assert code == 2
    assert "VLAD_LOG" in capsys.readouterr().err


# --- the shared skeleton: exit codes, malformed inputs, report --------------------

BAD_TRAIN_ARGS = [["--epochs", "0"], ["--lr", "nan"], ["--lr", "inf"], ["--lr", "-1"]]

BAD_QA_LINES = [
    '["PLANNING"]',
    '{"task": "PLANNING"}',
    '{"task": "PLANNING", "question": 1, "answer": "a", "scenario_id": "s"}',
]

PLAN_ROW = {"l2": {"1s": 1.0, "2s": 2.0, "3s": 3.0, "avg": 2.0}}
TEXT_ROW = {"bleu": 1.0, "meteor": 2.0, "rouge_l": 3.0, "cider": 4.0}
LATENCY_ROW = {"mean": 1.0, "p50": 1.0, "p95": 1.0}
BAD_RESULT_FILES = [
    ("eval_plan", {}),
    ("eval_text", {"rows": ["rule"]}),
    ("eval_plan", {"rows": {"planner": PLAN_ROW}}),
    ("eval_plan", {"rows": {"planner": {"l2": dict(PLAN_ROW["l2"], avg=10 ** 400),
                                        "collision": PLAN_ROW["l2"]}}}),
    *[("eval_plan", {"rows": {"planner": {"l2": dict(PLAN_ROW["l2"], **{"1s": value}),
                                          "collision": PLAN_ROW["l2"]}}})
      for value in (math.nan, math.inf, -math.inf)],
    *[("eval_text", {"rows": {"rule": dict(TEXT_ROW, **{name: value})}})
      for name in ("bleu", "cider", "gpt_score") for value in (math.nan, math.inf, -math.inf)],
    ("eval_text", {"rows": {"rule": dict(TEXT_ROW, gpt_score=5.5)}}),
    *[("eval_actions", {"rows": {"rule": {"accuracy": value, "confusion": {}}}})
      for value in (math.nan, math.inf, -math.inf, 250.0, -0.5, "90")],
    ("eval_actions", {"rows": {"rule": {"accuracy": 50.0,
                                        "confusion": {"STOP": {"STOP": math.nan}}}}}),
    ("eval_actions", {"rows": {"rule": {"accuracy": 50.0,
                                        "confusion": {"STOP": {"STOP": -1}}}}}),
    *[("bench", {"rows": {"Long": dict(LATENCY_ROW, **{name: value})}})
      for name in ("mean", "p50", "p95") for value in (math.nan, math.inf, -1.0)],
    ("bench", {"rows": {"Long": {"mean": -1.0, "p50": math.nan, "p95": math.inf}}}),
    ("bench", {"rows": {"Long": dict(LATENCY_ROW, p50=2.0, p95=1.0)}}),
    *[("eval_plan", {"rows": {"planner": {"l2": PLAN_ROW["l2"], "collision": {
        "1s": r1, "2s": r2, "3s": r3, "avg": (r1 + r2 + r3) / 3}}}})
      for r1, r2, r3 in ((150.0, 150.0, 150.0), (0.0, 50.0, 100.5),
                         (50.0, 25.0, 75.0), (0.0, 75.0, 25.0))],
    # A JSON boolean where a number belongs, one per reader; each passes the
    # range checks as 1.
    ("eval_plan", {"rows": {"planner": {"l2": dict(PLAN_ROW["l2"], **{"1s": True}),
                                        "collision": PLAN_ROW["l2"]}}}),
    ("eval_text", {"rows": {"rule": dict(TEXT_ROW, bleu=True)}}),
    ("eval_actions", {"rows": {"rule": {"accuracy": True, "confusion": {}}}}),
    ("bench", {"rows": {"Long": dict(LATENCY_ROW, mean=True)}}),
]


def write_bad_result(directory, stem, obj):
    directory.mkdir(exist_ok=True)
    path = directory / f"{stem}.json"
    path.write_text(json.dumps(obj))
    return path


@pytest.mark.parametrize("extra", [["--hidden", "100000000"],
                                   ["--d-model", "4000000", "--n-heads", "1"]])
def test_train_oversized_planner_exit_2_before_allocating(workdir, capsys, monkeypatch, extra):
    out = gen(workdir, n=6)
    def no_model(*args, **kwargs):
        raise AssertionError("the model was allocated")
    monkeypatch.setattr(planner, "init_model", no_model)
    code = run(["train", "--scenarios", str(out / "scenarios_train.jsonl"),
                "--out", str(out), *extra])
    assert code == 2
    assert f"parameters, more than the {MAX_PARAMS} allowed" in capsys.readouterr().err
    assert not (out / "checkpoint.json").exists()


@contextlib.contextmanager
def oracle_spy():
    """Endpoints ``cli`` opened inside the block. The marker alone can miss a
    spawn: a command that fails at once terminates the child before it runs."""
    opened, real = [], cli.open_oracle

    def spy(endpoint, **kwargs):
        opened.append(endpoint)
        return real(endpoint, **kwargs)

    cli.open_oracle = spy
    try:
        yield opened
    finally:
        cli.open_oracle = real


@pytest.mark.parametrize("seed", [-1, 2 ** 64])
def test_train_seed_outside_u64_exit_2_before_the_oracle_starts(workdir, capsys, seed):
    out = gen(workdir, n=6)
    marker = workdir / "spawned"
    mock = workdir / "spawn.py"
    mock.write_text(f"open({str(marker)!r}, 'w').close()\n")
    with oracle_spy() as opened:
        code = run(["train", "--scenarios", str(out / "scenarios_train.jsonl"),
                    "--out", str(out), "--oracle", f"exec:{sys.executable} {mock}",
                    "--seed", str(seed)])
    assert code == 2
    assert f"error: seed {seed} outside u64 range" in capsys.readouterr().err
    assert not opened and not marker.exists()
    assert not (out / "checkpoint.json").exists()


@pytest.mark.parametrize("seed", [0, 2 ** 64 - 1])
def test_train_seed_at_the_u64_bounds_is_accepted(workdir, seed):
    out = gen(workdir, n=6)
    assert run(["train", "--scenarios", str(out / "scenarios_train.jsonl"), "--out", str(out),
                "--epochs", "1", "--seed", str(seed)]) == 0
    assert (out / "checkpoint.json").exists()


@pytest.mark.parametrize("extra", BAD_TRAIN_ARGS)
def test_train_bad_epochs_or_lr_exit_2_before_writing(workdir, capsys, extra):
    out = gen(workdir, n=6)
    code = run(["train", "--scenarios", str(out / "scenarios_train.jsonl"),
                "--out", str(out), *extra])
    assert code == 2
    assert ("epochs" if extra[0] == "--epochs" else "learning rate") in capsys.readouterr().err
    assert not (out / "checkpoint.json").exists()


@pytest.mark.parametrize("line", BAD_QA_LINES)
def test_eval_actions_malformed_qa_line_exit_2(workdir, capsys, line):
    out = gen(workdir, n=6)
    qa = workdir / "bad_qa.jsonl"
    qa.write_text("\n" + line + "\n")
    code = run(["eval-actions", "--scenarios", str(out / "scenarios_eval.jsonl"),
                "--qa", str(qa), "--out", str(out)])
    assert code == 2
    assert f"{qa}:2: " in capsys.readouterr().err


def test_eval_actions_second_planning_label_exit_2(workdir, capsys):
    out = gen(workdir, n=50, seed=1)
    qa = workdir / "qa.jsonl"
    assert run(["qagen", "--scenarios", str(out / "scenarios_eval.jsonl"),
                "--out", str(qa)]) == 0
    lines = qa.read_text().splitlines()
    item = next(jsonio.loads(line) for line in lines if '"PLANNING"' in line)
    item["gt_action"] = "TURN_RIGHT" if item["gt_action"] == "TURN_LEFT" else "TURN_LEFT"
    qa.write_text("\n".join([*lines, jsonio.dumps(item)]) + "\n")
    capsys.readouterr()
    code = run(["eval-actions", "--scenarios", str(out / "scenarios_eval.jsonl"),
                "--qa", str(qa), "--out", str(out)])
    assert code == 2
    assert (f"{qa}:{len(lines) + 1}: a second planning item for scenario "
            f"{item['scenario_id']!r}") in capsys.readouterr().err
    assert not (out / "eval_actions.json").exists()


def test_eval_actions_empty_scenarios_exit_2(workdir, capsys):
    empty = workdir / "empty.jsonl"
    empty.write_text("")
    code = run(["eval-actions", "--scenarios", str(empty), "--qa", str(empty),
                "--out", str(workdir)])
    assert code == 2
    assert "holds no scenarios" in capsys.readouterr().err


@pytest.mark.parametrize("stem, obj", BAD_RESULT_FILES)
def test_report_malformed_result_file_exit_2(workdir, capsys, stem, obj):
    path = write_bad_result(workdir / "bad", stem, obj)
    assert run(["report", "--dir", str(workdir / "bad")]) == 2
    assert f"error: {path}: malformed result file" in capsys.readouterr().err


def test_report_accepts_valid_plan_and_text_rows(workdir):
    write_bad_result(workdir, "eval_plan", {"rows": {"planner": {
        "l2": PLAN_ROW["l2"], "collision": PLAN_ROW["l2"]}}})
    write_bad_result(workdir, "eval_text", {"rows": {"rule": dict(TEXT_ROW, gpt_score=5.0)}})
    assert run(["report", "--dir", str(workdir)]) == 0


def test_report_accepts_actions_and_bench_rows_at_their_bounds(workdir):
    write_bad_result(workdir, "eval_actions", {"rows": {
        "rule": {"accuracy": 100.0, "confusion": {"STOP": {"STOP": 3, "YIELD": 0}}},
        "other": {"accuracy": 0}}})
    write_bad_result(workdir, "bench", {"rows": {"Long": {"mean": 0.0, "p50": 0.0, "p95": 0.0}}})
    assert run(["report", "--dir", str(workdir)]) == 0


BAD_TIMEOUTS = ["nan", "inf", "-inf", "0", "-1",
                # beyond MAX_TIMEOUT: the next float, then far beyond
                repr(math.nextafter(MAX_TIMEOUT, math.inf)), "1e12", "1e300"]


@pytest.mark.parametrize("timeout", BAD_TIMEOUTS)
def test_bad_timeout_flag_exit_2_before_the_oracle_starts(workdir, capsys, timeout):
    out = gen(workdir, n=6)
    marker = workdir / "spawned"
    mock = workdir / "spawn.py"
    mock.write_text(f"open({str(marker)!r}, 'w').close()\n")
    with oracle_spy() as opened:
        code = run(["eval-text", "--scenarios", str(out / "scenarios_eval.jsonl"),
                    "--oracle", f"exec:{sys.executable} {mock}", f"--timeout={timeout}",
                    "--out", str(out)])
    assert code == 2
    assert "error: --timeout must be a finite number of seconds above 0" in (
        capsys.readouterr().err)
    assert not opened and not marker.exists()


def test_timeout_at_the_bound_reaches_the_oracle(workdir):
    out = gen(workdir, n=6)
    qa = out / "qa.jsonl"
    assert run(["qagen", "--scenarios", str(out / "scenarios.jsonl"), "--out", str(qa)]) == 0
    endpoint = f"exec:{sys.executable} -m vecdrive.oracle_server"
    assert run(["eval-actions", "--scenarios", str(out / "scenarios.jsonl"), "--qa", str(qa),
                "--oracle", endpoint, "--timeout", repr(MAX_TIMEOUT), "--out", str(out)]) == 0
    with socket.create_server(("127.0.0.1", 0)) as server:
        port = server.getsockname()[1]
    # Nothing listens on the port any more: an oracle error, not a crash.
    assert run(["eval-actions", "--scenarios", str(out / "scenarios.jsonl"), "--qa", str(qa),
                "--oracle", f"tcp:127.0.0.1:{port}", "--timeout", repr(MAX_TIMEOUT),
                "--out", str(out)]) == 5


@pytest.mark.parametrize("timeout", [0, -2.5])
def test_bad_timeout_in_config_exit_2(workdir, capsys, timeout):
    out = gen(workdir, n=6)
    config = workdir / "cfg.json"
    config.write_text(json.dumps({"eval-plan": {"timeout": timeout}}))
    code = run(["eval-plan", "--config", str(config), "--predict", "gt",
                "--scenarios", str(out / "scenarios_eval.jsonl"), "--out", str(out)])
    assert code == 2
    assert "--timeout" in capsys.readouterr().err


def test_defects_exit_cleanly_without_traceback(workdir):
    out = gen(workdir, n=6)
    cases = [["train", "--scenarios", str(out / "scenarios_train.jsonl"),
              "--out", str(out), *extra] for extra in BAD_TRAIN_ARGS]
    for i, line in enumerate(BAD_QA_LINES):
        qa = workdir / f"qa{i}.jsonl"
        qa.write_text(line + "\n")
        cases.append(["eval-actions", "--scenarios", str(out / "scenarios_eval.jsonl"),
                      "--qa", str(qa), "--out", str(out)])
    for i, (stem, obj) in enumerate(BAD_RESULT_FILES):
        write_bad_result(workdir / f"report{i}", stem, obj)
        cases.append(["report", "--dir", str(workdir / f"report{i}")])
    huge = jsonio.loads((out / "scenarios.jsonl").read_text().splitlines()[0])
    huge["ego"]["speed"] = 10 ** 400
    (workdir / "huge.jsonl").write_text(jsonio.dumps(huge) + "\n")
    cases.append(["qagen", "--scenarios", str(workdir / "huge.jsonl"),
                  "--out", str(workdir / "qa.jsonl")])
    for endpoint in ("exec:", "exec:   "):
        cases.append(["train", "--scenarios", str(out / "scenarios_train.jsonl"),
                      "--out", str(out), "--oracle", endpoint])
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(vecdrive.__file__)))
    for argv in cases:
        proc = subprocess.run([sys.executable, "-m", "vecdrive", *argv], env=env,
                              capture_output=True, text=True, timeout=60)
        assert proc.returncode in (2, 3), (argv, proc.stderr)
        assert "Traceback" not in proc.stderr, (argv, proc.stderr)


DEEP = "[" * 100_000 + "]" * 100_000


@pytest.mark.parametrize("case, code, named", [
    ("scenarios", 3, "deep.json:1: "),
    ("checkpoint", 2, "deep.json: "),
    ("qa", 2, "deep.json:1: "),
    ("report", 2, "eval_plan.json: malformed result file"),
    ("config", 2, "config "),
    ("oracle reply", 5, "nested too deeply"),
])
def test_deeply_nested_json_is_a_decode_error(workdir, capsys, case, code, named):
    out = gen(workdir, n=6)
    deep = workdir / "deep.json"
    deep.write_text(DEEP + "\n")
    (workdir / "report").mkdir()
    (workdir / "report" / "eval_plan.json").write_text(DEEP)
    mock = workdir / "deep_oracle.py"
    mock.write_text("import sys\nfor line in sys.stdin:\n"
                    "    sys.stdout.write('[' * 100000 + ']' * 100000 + '\\n')\n"
                    "    sys.stdout.flush()\n")
    eval_set = str(out / "scenarios_eval.jsonl")
    argv = {
        "scenarios": ["qagen", "--scenarios", str(deep), "--out", str(workdir / "qa.jsonl")],
        "checkpoint": ["eval-plan", "--scenarios", eval_set, "--checkpoint", str(deep),
                       "--out", str(out)],
        "qa": ["eval-actions", "--scenarios", eval_set, "--qa", str(deep), "--out", str(out)],
        "report": ["report", "--dir", str(workdir / "report")],
        "config": ["simgen", "--config", str(deep), "--out", str(out)],
        "oracle reply": ["eval-text", "--scenarios", eval_set, "--out", str(out),
                         "--oracle", f"exec:{sys.executable} {mock}"],
    }[case]
    assert run(argv) == code
    err = capsys.readouterr().err
    assert named in err and "nested too deeply" in err


@pytest.mark.parametrize("case, code, named", [
    ("scenarios", 3, "bad.jsonl:2: "),
    ("qa", 2, "bad.jsonl:2: "),
    ("report", 2, "eval_plan.json: malformed result file"),
])
def test_non_utf8_input_names_its_file(workdir, capsys, case, code, named):
    out = gen(workdir, n=6)
    bad = workdir / "bad.jsonl"
    bad.write_bytes(b"\n\xff\xfe{}\n")
    (workdir / "report").mkdir()
    (workdir / "report" / "eval_plan.json").write_bytes(b'{"rows": "\xff"}')
    argv = {
        "scenarios": ["qagen", "--scenarios", str(bad), "--out", str(workdir / "qa.jsonl")],
        "qa": ["eval-actions", "--scenarios", str(out / "scenarios_eval.jsonl"),
               "--qa", str(bad), "--out", str(out)],
        "report": ["report", "--dir", str(workdir / "report")],
    }[case]
    assert run(argv) == code
    err = capsys.readouterr().err
    assert named in err and "utf-8" in err


def every_flag():
    """(subcommand, dest, flag type) for each flag a config file may set."""
    return [(name, dest, cli.FLAGS[dest][0])
            for name, (_, flags) in cli.COMMANDS.items() for dest in flags]


WRONG_CONFIG_VALUES = {
    int: [[1], True, 5.9, "5", {"a": 1}],
    float: [[1], True, "1.0", {"a": 1}, 10 ** 400],
    None: [5, [1], True, 1.5, {"a": 1}],
}


@pytest.mark.parametrize("command, dest, flag_type", every_flag(),
                         ids=[f"{c}-{d}" for c, d, _ in every_flag()])
def test_config_value_must_have_its_flag_type(workdir, capsys, command, dest, flag_type):
    config = workdir / "cfg.json"
    for value in WRONG_CONFIG_VALUES[flag_type]:
        config.write_text(jsonio.dumps({dest: value}))
        assert run([command, "--config", str(config)]) == 2, (dest, value)
        assert f"config {config}: {dest!r}" in capsys.readouterr().err, (dest, value)


def test_config_null_is_unset_and_float_flags_take_ints(workdir):
    config = workdir / "cfg.json"
    config.write_text(json.dumps({"n": 4, "seed": None, "suite": "CRUISE", "density": 1}))
    assert run(["simgen", "--config", str(config), "--out", str(workdir / "cfg")]) == 0
    assert run(["simgen", "--n", "4", "--seed", "0", "--suite", "CRUISE", "--density", "1.0",
                "--out", str(workdir / "flags")]) == 0
    assert (read(workdir / "cfg" / "scenarios.jsonl")
            == read(workdir / "flags" / "scenarios.jsonl"))


def required_argv(command, workdir, skip=None):
    """Every required flag of ``command`` but ``skip``, each naming a path under ``workdir``."""
    return [arg for dest, default in cli.COMMANDS[command][1].items()
            if default is cli.REQUIRED and dest != skip
            for arg in ("--" + dest.replace("_", "-"), str(workdir / dest))]


@pytest.mark.parametrize("command, dest", [
    (command, dest) for command, (_, flags) in cli.COMMANDS.items()
    for dest, default in flags.items() if default is cli.REQUIRED])
def test_missing_required_flag_exit_2_before_the_command_runs(workdir, monkeypatch, capsys,
                                                              command, dest):
    def ran(args):
        raise AssertionError("the command ran")

    monkeypatch.setattr(cli, "cmd_" + command.replace("-", "_"), ran)
    assert run([command, *required_argv(command, workdir, skip=dest)]) == 2
    flag = "--" + dest.replace("_", "-")
    assert capsys.readouterr().err == f"error: missing required option {flag}\n"


def test_help_shows_each_default_or_required(monkeypatch, capsys):
    monkeypatch.setenv("COLUMNS", "1000")   # one line per help text
    for command in cli.COMMANDS:
        with pytest.raises(SystemExit) as exit_info:
            main([command, "--help"])
        assert exit_info.value.code == 0, command
        text = capsys.readouterr().out
        for dest, default in cli.command_flags(command).items():
            shown = ("required" if default is cli.REQUIRED
                     else f"default {'none' if default is None else default}")
            line = (rf"--{dest.replace('_', '-')} {dest.upper()}\s+"
                    + re.escape(f"{cli.FLAGS[dest][1]} ({shown})") + "\n")
            assert re.search(line, text), (command, dest, text)


def test_every_default_has_its_flag_type():
    for command, (_, flags) in cli.COMMANDS.items():
        for dest, default in flags.items():
            if default is not None and default is not cli.REQUIRED:
                assert type(default) is (cli.FLAGS[dest][0] or str), (command, dest)
    used = {dest for name in cli.COMMANDS for dest in cli.command_flags(name)}
    assert used == set(cli.FLAGS)
    # The table holds literals, so importing cli does not import numpy.
    train = cli.COMMANDS["train"][1]
    assert {k: train[k] for k in ("d_model", "n_heads", "hidden")} == PlannerConfig().to_dict()


@pytest.mark.parametrize("command, text, named", [
    ("simgen", '{"speed-min": 1.0, "speed_min": 5.0, "n": 3}', ["'speed-min'", "'speed_min'"]),
    ("simgen", '{"n": 3, "n": 5}', ["'n' and 'n'"]),
    ("simgen", '{"simgen": {"train_frac": 0.5, "train-frac": 0.5}}',
     ["'train_frac'", "'train-frac'"]),
    ("simgen", '{"train": {"lr": 0.5, "lr": 0.1}}', ["'lr' and 'lr'"]),
    ("train", '{"learning_rate": 5}', ["'learning_rate'"]),
    ("train", '{"eval_plan": {"predict": "gt"}}', ["'eval_plan'"]),
    ("train", '{"train": {"n": 5}}', ["'n'", "train"]),
    ("qagen", '{"qagen": {"seed": 5}}', ["'seed'", "qagen"]),
])
def test_config_unknown_or_doubled_key_exit_2(workdir, capsys, command, text, named):
    out = gen(workdir, n=6)
    config = workdir / "cfg.json"
    config.write_text(text)
    result = workdir / "result"
    argv = [command, "--config", str(config), "--out", str(result)]
    if command != "simgen":
        argv += ["--scenarios", str(out / "scenarios.jsonl")]
    assert run(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: config {config}: ") and all(n in err for n in named), err
    assert not result.exists()


def test_config_keys_of_other_commands_are_accepted(workdir):
    """A top-level flag of another command and another command's section
    are left to that command, so one file still drives the pipeline."""
    config = workdir / "cfg.json"
    config.write_text(json.dumps({"n": 4, "warmup": 1, "config": "ignored.json",
                                  "train": {"learning_rate": 5}, "simgen": {"seed": 2}}))
    assert run(["simgen", "--config", str(config), "--out", str(workdir / "cfg")]) == 0
    assert run(["simgen", "--n", "4", "--seed", "2", "--out", str(workdir / "flags")]) == 0
    assert (read(workdir / "cfg" / "scenarios.jsonl")
            == read(workdir / "flags" / "scenarios.jsonl"))


@pytest.mark.parametrize("error, code", [
    (ConfigError("bad flag"), 2),
    (ValidationError("agents[0]", "bad value"), 2),
    (CheckpointError("bad checkpoint"), 2),
    (ScenarioLoadError("s.jsonl", 3, "ego", "bad line"), 3),
    (OSError("disk full"), 3),
    (TrainingDiverged("non-finite loss"), 4),
    (OracleTimeout("exec:slow", 0.5), 5),
])
def test_exit_code_table(workdir, monkeypatch, capsys, error, code):
    """Each command's error maps to its exit code, and ``main`` runs the
    module's current ``cmd_*``, so a patched or traced command is the one
    that runs."""
    def fail(args):
        raise error

    for command in cli.COMMANDS:
        monkeypatch.setattr(cli, "cmd_" + command.replace("-", "_"), fail)
        assert run([command, *required_argv(command, workdir)]) == code, command
        assert capsys.readouterr().err == f"error: {error}\n", command


def test_unmapped_exception_propagates(workdir, monkeypatch):
    def fail(args):
        raise RuntimeError("bug")

    monkeypatch.setattr(cli, "cmd_report", fail)
    with pytest.raises(RuntimeError):
        run(["report", "--dir", str(workdir)])


def test_report_prints_each_command_table(workdir, capsys):
    out = gen(workdir, n=12)
    scenarios = str(out / "scenarios_eval.jsonl")
    qa = str(out / "qa.jsonl")
    assert run(["qagen", "--scenarios", scenarios, "--out", qa]) == 0
    commands = {
        "eval_plan": ["eval-plan", "--predict", "gt"],
        "eval_text": ["eval-text"],
        "eval_actions": ["eval-actions", "--qa", qa],
        "bench": ["bench-oracle"],
    }
    expected = ""
    for stem, argv in commands.items():
        capsys.readouterr()
        assert run([*argv, "--scenarios", scenarios, "--out", str(out)]) == 0
        printed = capsys.readouterr().out
        assert printed == (out / f"{stem}.txt").read_text()
        expected += f"== {stem}.json ==\n" + printed
    assert "Label \\ Decided" in expected     # the eval-actions confusion matrix
    assert run(["report", "--dir", str(out)]) == 0
    assert capsys.readouterr().out == expected


def test_failed_result_write_keeps_previous_file(workdir, monkeypatch):
    out = gen(workdir, n=10)
    argv = ["eval-plan", "--predict", "gt", "--out", str(out), "--scenarios"]
    assert run([*argv, str(out / "scenarios_eval.jsonl")]) == 0
    before = read(out / "eval_plan.json")

    def fail(*args):
        raise OSError("replace failed")

    monkeypatch.setattr(os, "replace", fail)
    assert run([*argv, str(out / "scenarios.jsonl")]) == 3
    monkeypatch.undo()
    assert read(out / "eval_plan.json") == before
    assert not [f.name for f in out.iterdir() if f.name.endswith(".tmp")]


def help_text(capsys, argv):
    """What ``vecdrive *argv --help`` prints, one line per option."""
    with pytest.raises(SystemExit) as exit_info:
        main([*argv, "--help"])
    assert exit_info.value.code == 0
    return capsys.readouterr().out


def test_subcommand_options_unchanged(monkeypatch, capsys):
    monkeypatch.setenv("COLUMNS", "1000")   # one line per option
    common = ["--config", "-h", "--help"]
    expected = {
        "simgen": ["--out", "--n", "--seed", "--suite", "--density", "--speed-min",
                   "--speed-max", "--train-frac"],
        "qagen": ["--scenarios", "--out"],
        "train": ["--scenarios", "--out", "--epochs", "--lr", "--seed", "--d-model",
                  "--n-heads", "--hidden", "--oracle", "--timeout"],
        "eval-plan": ["--scenarios", "--checkpoint", "--predict", "--oracle", "--timeout",
                      "--out"],
        "eval-text": ["--scenarios", "--oracle", "--format", "--timeout", "--out"],
        "eval-actions": ["--scenarios", "--qa", "--oracle", "--timeout", "--out"],
        "bench-oracle": ["--scenarios", "--oracle", "--timeout", "--warmup", "--out"],
        "report": ["--dir"],
    }
    assert help_text(capsys, []).split("{", 1)[1].split("}", 1)[0].split(",") == list(expected)
    for name in expected:
        # Each option line of --help starts with its flags, "-h, --help" or "--out OUT".
        options = {option.split()[0] for line in help_text(capsys, [name]).splitlines()
                   if line.startswith("  -") for option in line.split("  ")[1].split(", ")}
        assert options == set(expected[name] + common), name


# --- flag ranges ------------------------------------------------------------------
#
# Every numeric flag is drawn outside its range (NaN, +-inf, negatives, the
# next float beyond each bound, huge ints) and inside it (tiny sizes only).
# A refusal must exit 2 without a traceback, before an exec: oracle is
# spawned and before a result file is written. --n, --epochs and --warmup
# have no upper bound, so no large value is ever drawn for them.

U64 = 2 ** 64
NAN, INF = math.nan, math.inf
#: The commands that take --oracle and --timeout.
ORACLE_COMMANDS = ["train", "eval-plan", "eval-text", "eval-actions", "bench-oracle"]


def widest(flag):
    """The largest value of one planner-size flag, the others at their
    defaults and --n-heads 1, that MAX_PARAMS allows."""
    lo, hi = 1, MAX_PARAMS
    while lo < hi:
        mid = (lo + hi + 1) // 2
        fields = {"d_model": 32, "n_heads": 1, "hidden": 64, flag: mid}
        if param_count(PlannerConfig(**fields)) <= MAX_PARAMS:
            lo = mid
        else:
            hi = mid - 1
    return lo


def beyond(lo=None, hi=None, lo_open=False, hi_open=False):
    """Floats outside [lo, hi] (an open end refuses the bound itself):
    NaN, the infinities, the next float past each bound and beyond."""
    cases = [st.sampled_from([NAN, INF, -INF])]
    if lo is not None:
        edge = lo if lo_open else math.nextafter(lo, -INF)
        cases += [st.just(edge), st.floats(max_value=edge)]
    if hi is not None:
        edge = hi if hi_open else math.nextafter(hi, INF)
        cases += [st.just(edge), st.floats(min_value=edge)]
    return st.one_of(cases)


def int_beyond(lo, hi=None):
    """Ints below ``lo`` or above ``hi`` (huge ones too), and NaN or inf,
    which argparse refuses for an int flag."""
    cases = [st.sampled_from(["nan", "inf", "-inf", "1.5"]), st.integers(max_value=lo - 1)]
    if hi is not None:
        cases.append(st.integers(min_value=hi + 1, max_value=hi * 2 ** 64))
    return st.one_of(cases)


def flag(name, values):
    return values.map(lambda v: [f"--{name}={v!r}" if isinstance(v, float) else f"--{name}={v}"])


@st.composite
def refused_flags(draw):
    """(command, flags) with exactly one numeric flag out of range."""
    simgen_cases = st.one_of(
        flag("n", int_beyond(1)),
        flag("seed", int_beyond(0, U64 - 1)),
        flag("density", beyond(0.0, 1.0)),
        flag("train-frac", beyond(0.0, 1.0, lo_open=True, hi_open=True)),
        flag("speed-min", beyond(0.0)),
        flag("speed-max", beyond(0.0)),
        st.floats(0.0, 1e6).map(lambda v: [f"--speed-min={v!r}",
                                           f"--speed-max={math.nextafter(v, -INF)!r}"]),
    )
    train_cases = st.one_of(
        flag("seed", int_beyond(0, U64 - 1)),
        flag("epochs", int_beyond(1)),
        flag("lr", beyond(0.0)),
        flag("d-model", int_beyond(1, widest("d_model"))),
        flag("hidden", int_beyond(1, widest("hidden"))),
        flag("n-heads", int_beyond(1)),
        # n_heads must divide d_model (32 by default).
        flag("n-heads", st.integers(1, 2 ** 70).filter(lambda h: 32 % h)),
    )
    command, cases = draw(st.sampled_from([
        ("simgen", simgen_cases),
        ("train", train_cases),
        ("bench-oracle", flag("warmup", int_beyond(0))),
        (None, flag("timeout", beyond(0.0, MAX_TIMEOUT, lo_open=True))),
    ]))
    return command or draw(st.sampled_from(ORACLE_COMMANDS)), draw(cases)


@pytest.fixture(scope="module")
def flag_inputs(tmp_path_factory):
    """Six MIXED scenes, their QA file and a spawn marker's oracle."""
    root = tmp_path_factory.mktemp("flags")
    assert main(["simgen", "--out", str(root), "--n", "6", "--seed", "3"]) == 0
    scenarios = root / "scenarios.jsonl"
    assert main(["qagen", "--scenarios", str(scenarios), "--out", str(root / "qa.jsonl")]) == 0
    marker = root / "spawned"
    (root / "spawn.py").write_text(f"open({str(marker)!r}, 'w').close()\n")
    return root, marker


def run_flags(root, command, flags, oracle, out):
    """Exit code and stderr of ``command`` over the fixture's inputs."""
    argv = [command, "--out", str(out), *flags]
    if command != "simgen":
        argv += ["--scenarios", str(root / "scenarios.jsonl")]
    if command in ORACLE_COMMANDS:
        argv += ["--oracle", oracle]
    if command == "eval-plan":
        argv += ["--predict", "gt"]
    if command == "eval-actions":
        argv += ["--qa", str(root / "qa.jsonl")]
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as e:     # argparse refuses a value that is not a number
            code = e.code
    return code, err.getvalue()


@settings(max_examples=120, deadline=None, derandomize=True)
@given(case=refused_flags())
def test_flag_outside_its_range_exits_2_before_spawning_or_writing(flag_inputs, case):
    root, marker = flag_inputs
    command, flags = case
    out = root / "refused"
    with oracle_spy() as opened:
        code, err = run_flags(root, command, flags,
                              f"exec:{sys.executable} {root / 'spawn.py'}", out)
    assert code == 2, (command, flags, err)
    assert "Traceback" not in err and ("error: " in err or "usage: " in err), err
    assert not opened and not marker.exists(), (command, flags)
    assert not out.exists() or not any(out.iterdir()), (command, flags)


@st.composite
def accepted_flags(draw):
    """(command, flags, result file) with every numeric flag in range, at
    tiny sizes; each range's edges (the bound, or the first float inside an
    open end) are drawn as often as the rest."""
    def inside(edges, values):
        return draw(st.one_of(st.sampled_from(edges), values))

    u64 = st.integers(0, U64 - 1)
    command = draw(st.sampled_from(["simgen", "train", "bench-oracle", *ORACLE_COMMANDS[1:4]]))
    if command == "simgen":
        lo = inside([0.0], st.floats(0.0, 30.0))
        # Each split part must hold a scene: at n scenes the fraction's edges
        # are 1/n and 1 - 1/n, and 1 - 1/n rounds down to n - 1 scenes.
        n = draw(st.integers(2, 5))
        frac = inside([1 / n, 1 - 1 / n], st.floats(1 / n, 1 - 1 / n))
        flags = [f"--n={n}", f"--seed={inside([0, U64 - 1], u64)}",
                 f"--density={inside([0.0, 1.0], st.floats(0.0, 1.0))!r}",
                 f"--train-frac={frac!r}", f"--speed-min={lo!r}",
                 f"--speed-max={inside([lo], st.floats(lo, 30.0))!r}"]
        return command, flags, "scenarios_eval.jsonl"
    timeout = inside([MAX_TIMEOUT, 5e-324], st.floats(0.0, MAX_TIMEOUT, exclude_min=True))
    flags = [f"--timeout={timeout!r}"]
    if command == "train":
        n_heads = draw(st.integers(1, 2))
        flags += [f"--seed={inside([0, U64 - 1], u64)}", f"--epochs={draw(st.integers(1, 2))}",
                  f"--lr={inside([0.0], st.floats(0.0, 0.05))!r}", f"--n-heads={n_heads}",
                  f"--d-model={n_heads * draw(st.integers(1, 2))}",
                  f"--hidden={draw(st.integers(1, 3))}"]
        return command, flags, "checkpoint.json"
    if command == "bench-oracle":
        return command, flags + [f"--warmup={draw(st.integers(0, 3))}"], "bench.json"
    return command, flags, command.replace("-", "_") + ".json"


@settings(max_examples=30, deadline=None, derandomize=True)
@given(case=accepted_flags())
def test_flag_inside_its_range_is_accepted(flag_inputs, case):
    root, _ = flag_inputs
    command, flags, result = case
    out = root / "accepted"
    shutil.rmtree(out, ignore_errors=True)
    code, err = run_flags(root, command, flags, "rule", out)
    assert code == 0, (command, flags, err)
    assert (out / result).exists()
