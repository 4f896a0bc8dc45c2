"""Fuzz gate: mutated input files never escape the CLI as an exception.

Each example takes one valid input file (config, scenario JSONL, QA
JSONL, checkpoint or result file), applies one mutation (a byte flip,
a truncation, a JSON value swapped for one of another type, a value
replaced by a ``NaN``, ``Infinity`` or ``-Infinity`` token, or a value
replaced by deep nesting) and runs the command that reads it through
``cli.main`` in-process. The command must succeed or fail with a
configuration (2) or I/O (3) exit code; a result file holding a
non-finite number must fail with 2. Derandomized and bounded, so the
suite stays deterministic and a few seconds longer.
"""

import json
import math
import os

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from vecdrive.cli import main

EXAMPLES_PER_TARGET = 60
DEEP_MARK = "\x00deep\x00"

#: JSON values of every type, including non-finite floats (the decoder
#: accepts NaN and Infinity) and an integer past the float range.
SWAP_VALUES = st.one_of(
    st.none(), st.booleans(), st.integers(-10, 10), st.just(10 ** 400),
    st.floats(allow_nan=True, allow_infinity=True), st.text(max_size=8),
    st.just([]), st.just({}), st.lists(st.integers(0, 3), max_size=3),
    st.just(DEEP_MARK),
)


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    """Valid files of every kind, plus the argv that reads each one."""
    root = tmp_path_factory.mktemp("fuzz")
    data = root / "data"
    assert main(["simgen", "--out", str(data), "--n", "6", "--seed", "3",
                 "--train-frac", "0.5"]) == 0
    eval_set = str(data / "scenarios_eval.jsonl")
    assert main(["qagen", "--scenarios", eval_set, "--out", str(data / "qa.jsonl")]) == 0
    assert main(["train", "--scenarios", str(data / "scenarios_train.jsonl"),
                 "--out", str(data), "--epochs", "1", "--d-model", "2", "--n-heads", "1",
                 "--hidden", "2"]) == 0
    assert main(["eval-plan", "--scenarios", eval_set, "--checkpoint",
                 str(data / "checkpoint.json"), "--out", str(data)]) == 0
    assert main(["eval-actions", "--scenarios", eval_set, "--qa", str(data / "qa.jsonl"),
                 "--out", str(data)]) == 0
    assert main(["bench-oracle", "--scenarios", eval_set, "--out", str(data)]) == 0
    (data / "config.json").write_text(json.dumps({
        "n": 4, "seed": 2, "suite": "MIXED", "density": 0.5, "speed_min": 2.0,
        "speed_max": 6.0, "train_frac": 0.5, "simgen": {"seed": 5}}))
    out = str(root / "out")

    def report(f):
        return ["report", "--dir", os.path.dirname(f)]

    return root, {
        "config": (data / "config.json",
                   lambda f: ["simgen", "--config", f, "--out", out]),
        "scenarios": (data / "scenarios_eval.jsonl",
                      lambda f: ["qagen", "--scenarios", f, "--out", f"{out}/qa.jsonl"]),
        "qa": (data / "qa.jsonl",
               lambda f: ["eval-actions", "--scenarios", eval_set, "--qa", f, "--out", out]),
        "checkpoint": (data / "checkpoint.json",
                       lambda f: ["eval-plan", "--scenarios", eval_set, "--checkpoint", f,
                                  "--out", out]),
        "report": (data / "eval_plan.json", report),
        "report_actions": (data / "eval_actions.json", report),
        "report_bench": (data / "bench.json", report),
    }


def json_paths(value, prefix=()):
    """Every path (tuple of keys and indices) to a value inside ``value``."""
    paths = [prefix]
    stack = [(value, prefix)]
    while stack:
        node, path = stack.pop()
        children = node.items() if isinstance(node, dict) else (
            enumerate(node) if isinstance(node, list) else ())
        for key, child in children:
            paths.append(path + (key,))
            stack.append((child, path + (key,)))
    return paths


def swap(text, draw, new=None):
    """Replace one JSON value of one line of ``text`` with ``new``, or with a
    drawn value of another type."""
    lines = text.splitlines()
    i = draw(st.integers(0, len(lines) - 1))
    obj = json.loads(lines[i])
    paths = json_paths(obj)
    path = paths[draw(st.integers(0, len(paths) - 1))]
    old = obj
    for key in path:
        old = old[key]
    if new is None:
        new = draw(SWAP_VALUES.filter(lambda v: type(v) is not type(old)))
    if not path:
        obj = new
    else:
        parent = obj
        for key in path[:-1]:
            parent = parent[key]
        parent[path[-1]] = new
    depth = draw(st.sampled_from([2, 40, 600, 100_000]))
    lines[i] = json.dumps(obj).replace(json.dumps(DEEP_MARK), "[" * depth + "]" * depth)
    return "\n".join(lines) + "\n"


@st.composite
def mutated(draw, data: bytes):
    kind = draw(st.sampled_from(["flip", "truncate", "swap", "deep", "nonfinite"]))
    if kind == "flip":
        at = draw(st.integers(0, len(data) - 1))
        return data[:at] + bytes([draw(st.integers(0, 255))]) + data[at + 1:]
    if kind == "truncate":
        return data[:draw(st.integers(0, len(data) - 1))]
    new = None
    if kind == "deep":
        new = DEEP_MARK
    elif kind == "nonfinite":
        new = draw(st.sampled_from([math.nan, math.inf, -math.inf]))
    return swap(data.decode("utf-8"), draw, new).encode("utf-8")


@pytest.mark.parametrize("target", ["config", "scenarios", "qa", "checkpoint", "report",
                                    "report_actions", "report_bench"])
def test_mutated_inputs_exit_0_2_or_3(inputs, target):
    root, cases = inputs
    path, argv = cases[target]
    original = path.read_bytes()
    work = root / f"work_{target}"
    work.mkdir(exist_ok=True)
    mutant_path = work / path.name

    @settings(max_examples=EXAMPLES_PER_TARGET, derandomize=True, deadline=None,
              database=None, suppress_health_check=list(HealthCheck))
    @given(st.data())
    def run(data):
        mutant = data.draw(mutated(original))
        mutant_path.write_bytes(mutant)
        code = main(argv(str(mutant_path)))
        if target.startswith("report") and (b"NaN" in mutant or b"Infinity" in mutant):
            assert code == 2
        assert code in (0, 2, 3)

    run()
