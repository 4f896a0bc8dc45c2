"""The benchmark's span tracer still finds every function it wraps.

``perfbench/tracer.py`` wraps functions by name; a rename in ``vecdrive``
would break every ``--trace 1`` run. This test installs it over the
imported package, as ``perfbench/run.py`` does, and checks one traced
external decide and one traced explanation evaluation, whose BLEU and
CIDEr spans the per-layer metrics read.
"""

import importlib.util
import pathlib
import sys

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
