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

import pytest
from hypothesis import given, settings, strategies as st

from vecdrive import jsonio
from vecdrive.cli import main
from vecdrive.planner import PlannerConfig, init_model, save_checkpoint
from vecdrive.scene import ValidationError, scenario_from_dict

GOLDEN_DIR = os.path.join(os.path.dirname(__file__), "golden")


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
