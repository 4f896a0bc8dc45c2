"""numpy loads only where the planner runs.

``cli`` registers ``vecdrive.planner`` lazily, so the stages that never
touch the planner start without numpy. Each test runs a fresh
interpreter, since the test process itself has long imported numpy.
"""

import hashlib
import json
import os
import subprocess
import sys
import textwrap

import pytest

import vecdrive
from vecdrive import cli
from vecdrive.external import _encode_request, _parse_response
from vecdrive.oracle import Format
from vecdrive.planner import MAX_PARAMS

from conftest import make_agent, make_scenario
from test_jsonio import GOLDEN_DIGESTS

SRC = os.path.dirname(os.path.dirname(vecdrive.__file__))


def python(*args, **kwargs):
    """Run a fresh interpreter that imports the package from this checkout."""
    env = dict(os.environ, PYTHONPATH=SRC)
    env.pop("PYTHONWARNINGS", None)
    return subprocess.run([sys.executable, *args], env=env, capture_output=True,
                          timeout=300, **kwargs)


#: The README stages in one interpreter: every stage but ``train`` and
#: ``eval-plan --predict model`` leaves numpy unimported.
PIPELINE = textwrap.dedent("""
    import sys
    from vecdrive import cli

    out = sys.argv[1]
    scenarios, eval_set = f"{out}/scenarios.jsonl", f"{out}/scenarios_eval.jsonl"

    def stage(*argv):
        assert cli.main(list(argv)) == 0, argv
        return "numpy" in sys.modules

    assert "numpy" not in sys.modules
    for argv in (
        ["simgen", "--out", out, "--n", "24", "--seed", "3", "--density", "1.0",
         "--train-frac", "0.5"],
        ["qagen", "--scenarios", scenarios, "--out", f"{out}/qa.jsonl"],
        ["eval-text", "--scenarios", eval_set, "--out", out],
        ["eval-actions", "--scenarios", eval_set, "--qa", f"{out}/qa.jsonl", "--out", out],
        ["bench-oracle", "--scenarios", eval_set, "--out", out],
        ["eval-plan", "--scenarios", eval_set, "--predict", "gt", "--out", f"{out}/gt"],
        ["report", "--dir", out],
    ):
        assert not stage(*argv), f"{argv[0]} imported numpy"
    assert stage("train", "--scenarios", f"{out}/scenarios_train.jsonl", "--out", out,
                 "--epochs", "1", "--lr", "0")
    assert stage("eval-plan", "--scenarios", eval_set, "--checkpoint",
                 f"{out}/checkpoint.json", "--out", out)
""")


def test_stages_without_the_planner_never_import_numpy(tmp_path):
    fresh, here = tmp_path / "fresh", tmp_path / "here"
    proc = python("-c", PIPELINE, str(fresh))
    assert proc.returncode == 0, proc.stderr.decode()
    # With --lr 0 the trained checkpoint is the initial one, whose digest is golden.
    assert {name: hashlib.sha256((fresh / name).read_bytes()).hexdigest()
            for name in GOLDEN_DIGESTS} == GOLDEN_DIGESTS
    # train and eval-plan write the same bytes as in a process that imported numpy first.
    eval_set = str(fresh / "scenarios_eval.jsonl")
    assert cli.main(["train", "--scenarios", str(fresh / "scenarios_train.jsonl"),
                     "--out", str(here), "--epochs", "1", "--lr", "0"]) == 0
    assert cli.main(["eval-plan", "--scenarios", eval_set, "--checkpoint",
                     str(here / "checkpoint.json"), "--out", str(here)]) == 0
    for name in ("checkpoint.json", "loss_curve.csv", "eval_plan.json", "eval_plan.txt"):
        assert (fresh / name).read_bytes() == (here / name).read_bytes(), name


def test_the_stdio_oracle_server_answers_without_numpy():
    scenario = make_scenario(agents=(make_agent(),))
    proc = python("-X", "importtime", "-m", "vecdrive.oracle_server",
                  input=_encode_request(scenario, Format.SHORT))
    assert proc.returncode == 0, proc.stderr.decode()
    _parse_response(proc.stdout.decode(), scenario, Format.SHORT, "server")
    imported = [line.rpartition("|")[2].strip()
                for line in proc.stderr.decode().splitlines() if line.startswith("import time:")]
    assert "vecdrive.oracle" in imported
    assert [name for name in imported if name.partition(".")[0] == "numpy"] == []


#: Imports the planner and cli in the order given, checks that both see
#: one planner module, and prints the exit codes of a diverging and an
#: oversized train.
IMPORT_ORDER = textwrap.dedent("""
    import json
    import sys

    order, scenarios, out = sys.argv[1:]
    if order == "planner-first":
        import vecdrive.planner
        import vecdrive.cli
    else:
        import vecdrive.cli
        assert "numpy" not in sys.modules
    import vecdrive
    from vecdrive import cli
    assert cli.planner is sys.modules["vecdrive.planner"] is vecdrive.planner
    codes = [cli.main(["train", "--scenarios", scenarios, "--out", out, "--epochs", "1",
                       "--lr", "1e308"]),
             cli.main(["train", "--scenarios", scenarios, "--out", out,
                       "--hidden", "100000000"])]
    import vecdrive.planner
    assert cli.planner is sys.modules["vecdrive.planner"] is vecdrive.planner
    print(json.dumps(codes))
""")


@pytest.mark.parametrize("order", ["planner-first", "cli-first"])
def test_either_import_order_gives_one_planner_and_its_exit_codes(tmp_path, order):
    assert cli.main(["simgen", "--out", str(tmp_path), "--n", "1"]) == 0
    proc = python("-c", IMPORT_ORDER, order, str(tmp_path / "scenarios.jsonl"),
                  str(tmp_path / "t"), text=True)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout.splitlines()[-1]) == [4, 2]
    diverged, oversized = proc.stderr.splitlines()
    assert diverged == ("error: non-finite weights after epoch 0; "
                        "the learning rate 1e+308 is likely too high")
    assert oversized.startswith("error: PlannerConfig(")
    assert oversized.endswith(f"parameters, more than the {MAX_PARAMS} allowed")
    assert not (tmp_path / "t" / "checkpoint.json").exists()
