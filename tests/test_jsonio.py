"""Byte identity of the canonical codec.

``reference_dumps`` is the plain ``isinstance``-chain emitter that
``jsonio.dumps`` replaced; the emitter must write the same string for every
value and raise the same exception for every value it refuses. The
scenario decoder must report the same ``(field, message)`` for every
mutated slot of a dense scenario as the decoder before its fast paths;
``golden/decoder_errors.json`` holds that scenario and what that decoder
said for each mutation.
"""

import enum
import hashlib
import json
import math
import os
import sys

import pytest
from hypothesis import given, settings, strategies as st

from vecdrive import jsonio
from vecdrive.cli import main
from vecdrive.oracle import RuleOracle
from vecdrive.planner import PlannerConfig, init_model, save_checkpoint
from vecdrive.scene import ValidationError, load_scenarios, scenario_from_dict

GOLDEN_DIR = os.path.join(os.path.dirname(__file__), "golden")
SRC = os.path.dirname(os.path.dirname(jsonio.__file__))


def reference_dumps(value):
    out = []
    _reference_emit(value, out)
    return "".join(out)


def _reference_emit(value, out):
    if value is None:
        out.append("null")
    elif value is True:
        out.append("true")
    elif value is False:
        out.append("false")
    elif isinstance(value, str):
        out.append(json.dumps(value, ensure_ascii=False))
    elif isinstance(value, int):
        out.append(str(value))
    elif isinstance(value, float):
        out.append(jsonio.format_float(value))
    elif isinstance(value, dict):
        out.append("{")
        for i, (k, v) in enumerate(value.items()):
            if not isinstance(k, str):
                raise TypeError(f"JSON object keys must be str, got {type(k).__name__}")
            if i:
                out.append(",")
            out.append(json.dumps(k, ensure_ascii=False))
            out.append(":")
            _reference_emit(v, out)
        out.append("}")
    elif isinstance(value, (list, tuple)):
        out.append("[")
        for i, v in enumerate(value):
            if i:
                out.append(",")
            _reference_emit(v, out)
        out.append("]")
    else:
        raise TypeError(f"cannot serialize {type(value).__name__}")


def outcome(dump, value):
    """The string ``dump`` writes for ``value``, or its exception's type and message."""
    try:
        return dump(value)
    except Exception as e:
        return type(e), str(e)


# --- emitter ------------------------------------------------------------------

SPECIAL_FLOATS = [-0.0, 0.0, 5.0, -5.0, 1e300, -1e300, 5e-324, -5e-324,
                  2.2250738585072009e-308, 1.7976931348623157e308, 0.1, 1 / 3]
TEXT = st.text(alphabet=st.one_of(
    st.sampled_from('"\\/\b\f\n\r\t\x00\x1f\x7f é中\U0001f697'),
    st.characters()), max_size=12)
#: What a float list may hold beyond SPECIAL_FLOATS: the largest powers of ten
#: and the negative largest subnormal.
EXTREME_FLOATS = [1e308, -1e308, -2.2250738585072009e-308]
FLOATS = st.one_of(st.sampled_from(SPECIAL_FLOATS + EXTREME_FLOATS),
                   st.floats(allow_nan=False, allow_infinity=False))
SCALARS = st.one_of(
    st.none(), st.booleans(), FLOATS, TEXT,
    st.integers(), st.integers(min_value=2 ** 64, max_value=2 ** 200),
    st.integers(min_value=-2 ** 200, max_value=-2 ** 64),
)
VALUES = st.recursive(
    SCALARS,
    lambda children: st.one_of(
        st.lists(children, max_size=6),
        st.lists(children, max_size=6).map(tuple),
        st.lists(FLOATS, min_size=1, max_size=8),
        st.lists(FLOATS, min_size=1, max_size=8).map(tuple),
        st.dictionaries(TEXT, children, max_size=6),
    ),
    max_leaves=40,
)


@settings(max_examples=500, derandomize=True, deadline=None)
@given(VALUES)
def test_dumps_matches_reference_emitter(value):
    assert jsonio.dumps(value) == reference_dumps(value)


@pytest.mark.parametrize("value", SPECIAL_FLOATS + [[SPECIAL_FLOATS], tuple(SPECIAL_FLOATS)])
def test_dumps_special_floats(value):
    assert jsonio.dumps(value) == reference_dumps(value)


@pytest.mark.parametrize("value", [
    [-0.0, 0.0, -0.0], [5e-324, -5e-324, 2.2250738585072009e-308], EXTREME_FLOATS,
    SPECIAL_FLOATS + EXTREME_FLOATS, [1e308] * 40,
], ids=["signed zeros", "subnormals", "extremes", "all", "long"])
def test_dumps_float_lists_as_reference(value):
    assert jsonio.dumps(value) == reference_dumps(value)
    assert jsonio.dumps(tuple(value)) == reference_dumps(value)


class Label(str, enum.Enum):
    GO = "GO"


class Level(enum.IntEnum):
    LOW = 1


class Flag(enum.IntFlag):
    A = 1


class Tag(str):
    pass


class Meters(float):
    pass


class Points(list):
    pass


class Row(dict):
    pass


SUBCLASS_VALUES = [
    Label.GO, Level.LOW, Flag.A, Tag('a"b\n'), Meters(2.5), Meters(math.nan),
    Points([1.0, 2.0]), Points([1.0, Meters(2.0)]), Row(a=1.0), {Tag("k"): 1.0},
    [Meters(1.0), 2.0], (Level.LOW, 2.0),
]


@pytest.mark.parametrize("value", SUBCLASS_VALUES, ids=repr)
def test_dumps_subclasses_as_reference(value):
    assert outcome(jsonio.dumps, value) == outcome(reference_dumps, value)


BAD_VALUES = [
    math.nan, math.inf, -math.inf,
    [1.0, math.nan], [math.inf, 1.0], [1.0, 2.0, -math.inf], (0.5, math.nan),
    [1, math.nan], ["a", [1.0, math.inf]], {"a": [math.nan]}, {"a": 1.0, "b": -math.inf},
    [math.nan, {1: 2}], [{1: 2}, math.nan],
    {1: 2}, {None: 1}, {(1, 2): 3}, {1.5: 0}, {True: 0}, {"a": 1, 2: 3}, {Level.LOW: 0},
    {"a": {3: 4}},
    {1, 2}, b"bytes", bytearray(b"x"), object(), 1j, [1, {2}], {"a": frozenset()},
    Meters(math.inf), [Meters(math.nan)],
]


def _bad_value_id(value):
    # A bare object's repr holds its address, which would rename the case on every run.
    return "object()" if type(value) is object else repr(value)


@pytest.mark.parametrize("value", BAD_VALUES, ids=_bad_value_id)
def test_dumps_refuses_as_reference(value):
    got = outcome(jsonio.dumps, value)
    assert isinstance(got, tuple)
    assert got == outcome(reference_dumps, value)


# --- scenario decoder -------------------------------------------------------------

NUMBER_MUTATIONS = {"NaN": math.nan, "Infinity": math.inf, "bool": True, "string": "1.5",
                    "10**400": 10 ** 400}
POINT_MUTATIONS = {"one element": lambda p: p[:1], "not a list": lambda p: p[0]}


def label(keys):
    return "".join(f"[{k}]" if isinstance(k, int) else f".{k}" for k in keys).lstrip(".")


def slots(value, keys=()):
    """(keys, "number" | "point") of every numeric leaf and [x, y] point, in document order."""
    if isinstance(value, dict):
        for k, v in value.items():
            yield from slots(v, (*keys, k))
    elif isinstance(value, list):
        if len(value) == 2 and all(type(v) in (int, float) for v in value):
            yield keys, "point"
        for i, v in enumerate(value):
            yield from slots(v, (*keys, i))
    elif type(value) in (int, float):
        yield keys, "number"


def replaced(obj, keys, new):
    obj = json.loads(json.dumps(obj))
    parent = obj
    for k in keys[:-1]:
        parent = parent[k]
    parent[keys[-1]] = new(parent[keys[-1]]) if callable(new) else new
    return obj


def decoder_cases(scenario):
    """[slot, mutation, field, message] for every single-slot mutation of ``scenario``.

    Each mutated object goes through JSON text, so NaN and Infinity arrive
    as the tokens a scenario file would hold.
    """
    cases = []
    for keys, kind in slots(scenario):
        mutations = NUMBER_MUTATIONS if kind == "number" else POINT_MUTATIONS
        for name, new in mutations.items():
            line = json.dumps(replaced(scenario, keys, new))
            try:
                scenario_from_dict(jsonio.loads(line))
                field, message = None, None
            except ValidationError as e:
                field, message = e.field, e.message
            cases.append([label(keys), name, field, message])
    return cases


def test_decoder_reports_what_it_reported_before_its_fast_paths():
    with open(os.path.join(GOLDEN_DIR, "decoder_errors.json"), encoding="utf-8") as fh:
        golden = json.load(fh)
    assert len(golden["scenario"]["agents"]) >= 4
    assert decoder_cases(golden["scenario"]) == golden["cases"]


# --- golden digests -------------------------------------------------------------

#: sha256 of the files a small dense simgen + qagen run writes, and of a
#: freshly initialised checkpoint (no BLAS call touches its values). Any
#: codec change that moves a byte of these files fails here.
GOLDEN_DIGESTS = {
    "scenarios.jsonl": "66de0658da633c852d9444f92bed8f9558cb0e4a76cdfdabfae0a4956dbe2bb7",
    "scenarios_train.jsonl": "79577edcac24ea766cc7cd334d297a3714480a08e155346493d25ca5a03a7a5e",
    "scenarios_eval.jsonl": "56706f3cc63ac6efdb6081a54765589fc9962016c9434eaa95cf13afefd90eca",
    "qa.jsonl": "55c3913932a33ffb5d1b1e36b08638da84a85a34918e43cd42585cf2312bd609",
    "checkpoint.json": "8469b4f18cb2e84b9b27048835a118b93ae52c1ece674dbe97099c666d3c1a54",
}


def test_written_files_match_golden_digests(tmp_path, capsys):
    out = str(tmp_path)
    assert main(["simgen", "--out", out, "--n", "24", "--seed", "3", "--density", "1.0",
                 "--train-frac", "0.5"]) == 0
    assert main(["qagen", "--scenarios", os.path.join(out, "scenarios.jsonl"),
                 "--out", os.path.join(out, "qa.jsonl")]) == 0
    save_checkpoint(init_model(PlannerConfig(), 7), os.path.join(out, "checkpoint.json"))
    digests = {}
    for name in GOLDEN_DIGESTS:
        with open(os.path.join(out, name), "rb") as fh:
            digests[name] = hashlib.sha256(fh.read()).hexdigest()
    assert digests == GOLDEN_DIGESTS


#: sha256 of every result file of a small README pipeline run through
#: ``cli.main`` (``PIPELINE_RUN``), and of ``report``'s stdout. The mixed
#: scenes cover the four builders, scenes without agents and scenes where
#: the safety override fires, in both parts of the split; ``fork/`` holds
#: the SYMMETRIC_FORK suite, mirrors included. Training runs on numpy's
#: BLAS kernels: where other kernels give other bits, the assertion names
#: the files that moved. A change that moves a result byte updates these
#: digests in the same diff and says why.
PIPELINE_DIGESTS = {
    "scenarios.jsonl": "bde982a513ff72fd590038124cbe9e5812c6916dfb0747717e3e8d24d2bc1731",
    "scenarios_train.jsonl": "f2482a6ba6b20e946273d17eb483fd7d7b115abab25d0d8c7394388eb1f3bb6b",
    "scenarios_eval.jsonl": "239daf0ab1e2bd0e2376503fd966e5ebc1875bb9e0ed23c02285ba584d7f31ed",
    "fork/scenarios.jsonl": "f7275922635d8573069c7546f3e70d4612dff0323cc30e35d91837ae667082ab",
    "qa.jsonl": "76845a2ccb4a970fde90649d92b11e7e65991b53ee0b010a17aa40883d7e9cc4",
    "checkpoint.json": "81cb3107fe08d4800d636a4f5b2f4918ebecdabca6e17c52a76cfe50602f9b63",
    "loss_curve.csv": "6d3f4a8dbe1d3fd503e98159122ce7571f97244d0b502646ed6b8ee5ca537654",
    "eval_plan.json": "0a0583fc3a2032b3581a2d9d341f2b3ae18c69456526ecfc7fff9e3a2bac40fa",
    "eval_plan.txt": "5b54fd737feb8992a7111d0645cbf9a09649d8bfa04c9c03572a3942de19b5f5",
    "gt/eval_plan.json": "ca80832b6b1ab951dce2550630836a804e6f9144dbf9dd0f87a0130a54f34f24",
    "gt/eval_plan.txt": "a20f04e2dba17f65ac3af44ebe9cf2bed7fa0bb29faf00d254fb867aba188ca9",
    "eval_text.json": "f453d77fc9cdae6dbb439222dd0330e4ebed0f0f025fdee15eb2734ad90cca52",
    "eval_text.txt": "38983bec115511aca7a7dd908cbe046ea88351b89f586cddcc0c1607334d17b4",
    "long/eval_text.json": "66abd0a903f7a4a69666559eea3d47a3da7c2ddaa6619e66cfb73008a7eaaa00",
    "long/eval_text.txt": "3f456f5977a78441a1b96c2d51ac4cb1e2891c573b4cad26966979be6c362ebb",
    "eval_actions.json": "64094ac8f435c086a171b0ea8b04833972a8daef73673ee7866de031bf251a9c",
    "eval_actions.txt": "2b9287099260a574fc517ec13fa1f2d3a18a44933c94154b85bca13704b968ac",
    "report.stdout": "e8bdbe8a377050a68f9c2c1f4b9af72007f711536908babc3e169c2a0309d06b",
}

#: An exec oracle that answers as the rule oracle but appends text to every
#: second rationale, so eval-text scores candidates that are not their
#: references. The endpoint names a result row, so it holds no path.
NEAR_MISS_ORACLE = "exec:python -m perfbench.faulty_oracle --every 2"

#: The stages of ``PIPELINE_DIGESTS``; ``{out}`` is the run's directory.
PIPELINE_RUN = [
    ["simgen", "--out", "{out}", "--n", "24", "--seed", "5", "--density", "0.3",
     "--train-frac", "0.5"],
    ["simgen", "--out", "{out}/fork", "--n", "4", "--seed", "5", "--suite", "SYMMETRIC_FORK"],
    ["qagen", "--scenarios", "{out}/scenarios.jsonl", "--out", "{out}/qa.jsonl"],
    ["train", "--scenarios", "{out}/scenarios_train.jsonl", "--out", "{out}", "--epochs", "3"],
    ["eval-plan", "--scenarios", "{out}/scenarios_eval.jsonl", "--checkpoint",
     "{out}/checkpoint.json", "--out", "{out}"],
    ["eval-plan", "--scenarios", "{out}/scenarios_eval.jsonl", "--predict", "gt",
     "--out", "{out}/gt"],
    ["eval-text", "--scenarios", "{out}/scenarios_eval.jsonl", "--oracle", NEAR_MISS_ORACLE,
     "--format", "short", "--out", "{out}"],
    ["eval-text", "--scenarios", "{out}/scenarios_eval.jsonl", "--oracle", NEAR_MISS_ORACLE,
     "--format", "long", "--out", "{out}/long"],
    ["eval-actions", "--scenarios", "{out}/scenarios_eval.jsonl", "--qa", "{out}/qa.jsonl",
     "--out", "{out}"],
    ["bench-oracle", "--scenarios", "{out}/scenarios_eval.jsonl", "--out", "{out}/bench"],
]


def test_a_pipeline_run_matches_golden_digests(tmp_path, capsys, monkeypatch):
    # The near-miss oracle runs this interpreter, with this checkout importable.
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    monkeypatch.setenv("PATH", os.pathsep.join([os.path.dirname(sys.executable),
                                                os.environ.get("PATH", "")]))
    monkeypatch.setenv("PYTHONPATH", os.pathsep.join([SRC, root]))
    out = str(tmp_path)
    for argv in PIPELINE_RUN:
        assert main([arg.format(out=out) for arg in argv]) == 0, argv
    capsys.readouterr()
    assert main(["report", "--dir", out]) == 0
    (tmp_path / "report.stdout").write_text(capsys.readouterr().out, encoding="utf-8")
    digests = {name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
               for name in PIPELINE_DIGESTS}
    assert {name: d for name, d in digests.items() if d != PIPELINE_DIGESTS[name]} == {}
    # Latencies are measurements: bench-oracle's file is pinned by its keys.
    bench = json.loads((tmp_path / "bench" / "bench.json").read_text())
    assert [(label, list(row)) for label, row in bench["rows"].items()] == [
        (label, ["mean", "p50", "p95"]) for label in ("Long", "Short")]
    # What the digests cover: scenes without agents and a fired override, in both parts.
    oracle = RuleOracle()
    for part in ("train", "eval"):
        scenes = load_scenarios(tmp_path / f"scenarios_{part}.jsonl")
        assert any(not s.agents for s in scenes)
        assert any(oracle.decide(s).action is not s.route_intent for s in scenes)
