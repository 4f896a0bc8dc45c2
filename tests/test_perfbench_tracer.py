"""The benchmark's span tracer still finds every function it wraps.

``perfbench/tracer.py`` wraps functions by name; a rename in ``vecdrive``
would break every ``--trace 1`` run. This test installs it over the
imported package, as ``perfbench/run.py`` does, and checks one traced
external decide and one traced explanation evaluation, whose BLEU and
CIDEr spans the per-layer metrics read. ``cli`` registers the planner
lazily; one more test checks, in a fresh interpreter as ``run.py`` starts,
that the tracer still wraps and records the planner's functions.
"""

import importlib.util
import json
import os
import pathlib
import subprocess
import sys
import textwrap

import pytest

import vecdrive.cli  # imports every module the tracer wraps
from vecdrive import external, planmetrics
from vecdrive.oracle import Format

from conftest import make_agent, make_scenario

TRACER_PATH = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


@pytest.fixture
def tracer_module():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def resolve(full_name):
    module_name, _, attr = full_name.partition(".")
    owner = sys.modules[f"vecdrive.{module_name}"]
    for part in attr.split("."):
        owner = getattr(owner, part)
    return owner


def test_every_traced_name_resolves(tracer_module):
    for name in tracer_module.traced_names() + list(tracer_module._WIRE_HELPERS):
        assert callable(resolve(name)), name


def test_traced_exec_decide_records_the_encode_span(tracer_module):
    tracer = tracer_module.Tracer()
    originals = {name: resolve(name) for name in tracer_module._WIRE_HELPERS}
    tracer.install()
    try:
        with external.open_oracle(f"exec:{sys.executable} -m vecdrive.oracle_server") as oracle:
            tracer.active = True
            oracle.decide(make_scenario(agents=(make_agent(),)), Format.SHORT)
            tracer.active = False
    finally:
        tracer.uninstall()
    assert {name: resolve(name) for name in originals} == originals
    names = {span_id: name for span_id, name, *_ in tracer.spans}
    parents = {name: names.get(parent) for _, name, _, _, parent, _ in tracer.spans}
    assert parents["external._encode_request"] == tracer_module.DECIDE
    assert parents["external._parse_response"] == tracer_module.DECIDE
    assert list(tracer.decide_wait_s().values())[0] > 0


def test_traced_evaluate_explanations_records_one_bleu_and_one_cider_span(tracer_module):
    tracer = tracer_module.Tracer()
    tracer.install()
    try:
        tracer.active = True
        planmetrics.evaluate_explanations(["the car turns left now", "stop for the cyclist"],
                                          ["the car turns right now", "stop for a cyclist"])
        tracer.active = False
    finally:
        tracer.uninstall()
    names = {span_id: name for span_id, name, *_ in tracer.spans}
    spans = [(name, names.get(parent)) for _, name, _, _, parent, _ in tracer.spans]
    for metric in ("textmetrics.bleu", "textmetrics.cider"):
        assert [parent for name, parent in spans if name == metric] == [
            "planmetrics.evaluate_explanations"]


#: After ``import vecdrive.cli`` the planner is registered, not executed;
#: ``install`` loads and wraps it, and a traced train and eval-plan print
#: their span names with counts.
TRACED_PLANNER = textwrap.dedent("""
    import collections
    import importlib.util
    import json
    import sys

    import vecdrive.cli
    from vecdrive import cli

    tracer_path, out = sys.argv[1:]
    planner = sys.modules["vecdrive.planner"]
    assert "numpy" not in sys.modules
    assert "train" not in object.__getattribute__(planner, "__dict__")
    spec = importlib.util.spec_from_file_location("perfbench_tracer", tracer_path)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    tracer = tracing.Tracer()
    tracer.install()
    for name in ("train", "forward"):
        assert getattr(planner, name).__wrapped__.__module__ == "vecdrive.planner", name
    assert cli.main(["simgen", "--out", out, "--n", "10", "--train-frac", "0.8"]) == 0
    tracer.active = True
    assert cli.main(["train", "--scenarios", f"{out}/scenarios_train.jsonl", "--out", out,
                     "--epochs", "1"]) == 0
    assert cli.main(["eval-plan", "--scenarios", f"{out}/scenarios_eval.jsonl",
                     "--checkpoint", f"{out}/checkpoint.json", "--out", out]) == 0
    tracer.active = False
    tracer.uninstall()
    names = {span_id: name for span_id, name, *_ in tracer.spans}
    print(json.dumps(collections.Counter(
        f"{name} < {names.get(parent)}" for _, name, _, _, parent, _ in tracer.spans
        if name.startswith("planner."))))
""")


def test_traced_train_and_eval_plan_record_the_lazy_planners_spans(tmp_path):
    env = dict(os.environ, PYTHONPATH=str(pathlib.Path(vecdrive.cli.__file__).parents[1]))
    proc = subprocess.run([sys.executable, "-c", TRACED_PLANNER, str(TRACER_PATH),
                           str(tmp_path)], env=env, capture_output=True, text=True,
                          timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout.splitlines()[-1]) == {
        "planner.init_model < cli.cmd_train": 1,
        "planner.train < cli.cmd_train": 1,
        "planner.save_checkpoint < cli.cmd_train": 1,
        "planner.load_checkpoint < cli.cmd_eval_plan": 1,
        "planner.forward < cli.cmd_eval_plan": 2,
    }
