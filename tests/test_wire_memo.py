"""Each end of the oracle wire remembers the one scene it handled last.

The server answers a request whose scenario bytes it decoded last from the
``Scenario`` it validated then, and the client sends a scene object it sent
last without encoding it again. Neither may change a byte on the wire: every
reply is the one ``_reply`` writes for that line alone, every request the
one ``_encode_request`` writes, and the packaged server behind ``ExecOracle``
answers as the in-process ``RuleOracle`` does, signed zeros included.
"""

import importlib.util
import io
import math
import os
import pathlib
import sys
from dataclasses import replace

import pytest
from hypothesis import HealthCheck, assume, given, settings, strategies as st

import vecdrive.cli  # imports every module the tracer wraps
from vecdrive import external, oracle_server, simgen
from vecdrive.external import ExecOracle, _LineOracle, _encode_request, _reply
from vecdrive.oracle import Format, RuleOracle
from vecdrive.scene import A_MAX, AgentKind, AgentTrack, MapPolyline, ValidationError

from conftest import make_agent, make_scenario

SERVER = f"exec:{sys.executable} -m vecdrive.oracle_server"

#: A few scenes with agents, so a stream of requests repeats some of them.
SCENES = [s for s in simgen.generate(simgen.GenSpec(n_scenarios=12, seed=5, agent_density=1.0))
          if s.agents][:4]


class Recorder:
    """A text stdout that keeps each reply ``serve`` writes."""

    def __init__(self):
        self.replies = []

    def write(self, text):
        self.replies.append(text)

    def flush(self):
        pass


def served(lines):
    """The reply ``oracle_server.serve`` writes to each of ``lines``, in one stream."""
    out = Recorder()
    oracle_server.serve(io.BytesIO(b"".join(lines)), stdout=out)
    return out.replies


def scene_bytes(s):
    """``S``: the scenario bytes of a request for ``s``."""
    return _encode_request(s, Format.SHORT)[len(external._REQUEST_HEAD[Format.SHORT]):-2]


def one_ulp_off(s):
    """``s`` with the first ground-truth x one float further from zero."""
    (x, y), *rest = s.gt_future
    return replace(s, gt_future=((math.nextafter(x, math.inf), y), *rest))


def variants(s):
    """Request lines for ``s``: canonical, near-duplicate, or of a shape the memo passes on."""
    short, long = (_encode_request(s, f) for f in (Format.SHORT, Format.LONG))
    head, scene = external._REQUEST_HEAD[Format.SHORT], scene_bytes(s)
    return {
        "short": short,
        "long": long,
        "ulp": _encode_request(one_ulp_off(s), Format.LONG),
        "true_id": short.replace(b'{"id":1,"kind"', b'{"id":true,"kind"', 1),
        "true_seed": head + scene.replace(b'"seed":%d,' % s.seed, b'"seed":true,', 1) + b"}\n",
        "minus_zero": short.replace(b'"ego":{"x":0,', b'"ego":{"x":-0,', 1),
        "dup_format": head + scene + b',"format":"long"}\n',
        "dup_scenario": head + scene + b',"scenario":' + scene_bytes(SCENES[0]) + b"}\n",
        "two_values": head + scene + b"," + scene + b"}\n",
        "not_utf8": short.replace(b'"id":"', b'"id":"\xff', 1),
        "spaced": short.replace(b'{"v":1,', b'{"v": 1, ', 1),
        "v2": short.replace(b'{"v":1,', b'{"v":2,', 1),
        "no_v": short.replace(b'{"v":1,', b'{', 1),
        "unknown_format": short.replace(b'"short"', b'"medium"', 1),
    }


LINE_KINDS = sorted(variants(SCENES[0]))


@st.composite
def request_streams(draw):
    """Request lines mixing SHORT/LONG pairs, repeats and near-duplicates; the
    last one may lack its newline."""
    lines = []
    for _ in range(draw(st.integers(1, 10))):
        lines_of = variants(SCENES[draw(st.integers(0, len(SCENES) - 1))])
        kind = draw(st.sampled_from(["pair", *LINE_KINDS]))
        lines += [lines_of["short"], lines_of["long"]] if kind == "pair" else [lines_of[kind]]
    if draw(st.booleans()):
        lines[-1] = lines[-1].rstrip(b"\n")
    return lines


@settings(derandomize=True, max_examples=60, deadline=None)
@given(lines=request_streams())
def test_the_server_memo_never_changes_a_reply(lines):
    expected = [_reply(line, RuleOracle()) for line in lines]
    assert served(lines) == expected


def test_every_line_kind_reaches_the_server():
    # Each variant is its own line, and the near-duplicates differ from the canonical one.
    lines = variants(SCENES[1])
    assert all(line.count(b"\n") == 1 and line.endswith(b"\n") for line in lines.values())
    assert len(set(lines.values())) == len(lines)
    assert served(list(lines.values())) == [_reply(line, RuleOracle())
                                            for line in lines.values()]


def test_the_oracle_is_asked_every_time_and_the_scene_decoded_once(monkeypatch):
    asked, decoded = [], []

    class SpyOracle(RuleOracle):
        def decide(self, scenario, format=Format.SHORT):
            asked.append((scenario.id, format))
            return super().decide(scenario, format)

    def spy_from_dict(obj):
        decoded.append(obj["id"])
        return scenario_from_dict(obj)

    scenario_from_dict = external.scenario_from_dict
    monkeypatch.setattr(oracle_server, "RuleOracle", SpyOracle)
    monkeypatch.setattr(external, "scenario_from_dict", spy_from_dict)
    a, b = SCENES[:2]
    requests = [(a, Format.SHORT), (a, Format.LONG), (a, Format.LONG),
                (b, Format.SHORT), (a, Format.SHORT)]
    replies = served([_encode_request(s, f) for s, f in requests])
    assert len(replies) == len(requests)
    assert asked == [(s.id, f) for s, f in requests]
    assert decoded == [a.id, b.id, a.id]


# --- client -------------------------------------------------------------------------

REPLY = b'{"v":1,"action":"GO_STRAIGHT","rationale":"ok","hazard_ids":[]}\n'


def sent_over_pipes(calls):
    """Decide each ``(scenario, format, then)`` on one channel over pipes, running
    ``then()`` after it; returns the bytes the client wrote."""
    request_r, request_w = os.pipe()
    reply_r, reply_w = os.pipe()
    try:
        os.write(reply_w, REPLY * len(calls))
        oracle = _LineOracle("pipe:test", 5.0, reply_r, request_w)
        for scenario, format, then in calls:
            assert oracle.decide(scenario, format).rationale_short == "ok"
            then()
        os.close(request_w)
        request_w = -1
        chunks = []
        while chunk := os.read(request_r, 65536):
            chunks.append(chunk)
        return b"".join(chunks)
    finally:
        for fd in (request_r, request_w, reply_r, reply_w):
            if fd >= 0:
                os.close(fd)


def nothing():
    pass


def test_the_same_object_sent_twice_writes_encode_requests_bytes(monkeypatch):
    encoded = []
    encode = external._encode_request
    monkeypatch.setattr(external, "_encode_request",
                        lambda s, f: encoded.append(s.id) or encode(s, f))
    a, b = SCENES[:2]
    calls = [(a, Format.SHORT), (a, Format.LONG), (a, Format.LONG), (b, Format.LONG),
             (a, Format.SHORT)]
    sent = sent_over_pipes([(s, f, nothing) for s, f in calls])
    assert sent == b"".join(encode(s, f) for s, f in calls)
    assert encoded == [a.id, b.id, a.id]


#: An exec oracle that appends each request line it reads to the file it is
#: given, then answers ``REPLY``.
RECORDING_SERVER = f"""
import sys
with open(sys.argv[1], "ab", buffering=0) as log:
    for line in sys.stdin.buffer:
        log.write(line)
        sys.stdout.buffer.write({REPLY!r})
        sys.stdout.flush()
"""


def test_a_scene_holding_a_list_is_refused_before_a_byte_is_written(tmp_path):
    # A list could change after the scene was sent; scenario_json refuses it,
    # so the client's memo never meets one.
    s = replace(SCENES[0], gt_future=[list(p) for p in SCENES[0].gt_future])
    with pytest.raises(ValidationError) as invalid:
        s.validate()
    assert invalid.value.field == "gt_future"
    script, log = tmp_path / "record.py", tmp_path / "requests"
    script.write_text(RECORDING_SERVER)
    with ExecOracle([sys.executable, str(script), str(log)], timeout=5.0) as oracle:
        with pytest.raises(ValidationError) as refused:
            oracle.decide(s, Format.SHORT)
        assert (refused.value.field, refused.value.message) == (
            invalid.value.field, invalid.value.message)
        assert oracle.decide(SCENES[1], Format.LONG).rationale_short == "ok"
    assert log.read_bytes() == _encode_request(SCENES[1], Format.LONG)


TRACER_PATH = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def test_a_traced_decide_records_the_wire_spans_on_a_miss():
    spec = importlib.util.spec_from_file_location("perfbench_tracer_memo", TRACER_PATH)
    tracer_module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer_module)
    tracer = tracer_module.Tracer()
    tracer.install()
    try:
        with external.open_oracle(SERVER) as oracle:
            tracer.active = True
            for s, f in [(SCENES[0], Format.SHORT), (SCENES[0], Format.LONG),
                         (SCENES[1], Format.SHORT)]:
                oracle.decide(s, f)
            tracer.active = False
    finally:
        tracer.uninstall()
    names = {span_id: name for span_id, name, *_ in tracer.spans}
    spans = [(name, names.get(parent)) for _, name, _, _, parent, _ in tracer.spans]
    decide = tracer_module.DECIDE
    assert spans.count((decide, None)) == 3
    assert spans.count(("external._encode_request", decide)) == 2     # the two misses
    assert spans.count(("external._parse_response", decide)) == 3


# --- the wire against the in-process oracle -------------------------------------------

@pytest.fixture(scope="module")
def packaged_server():
    with ExecOracle(SERVER.removeprefix("exec:")) as oracle:
        yield oracle


ZERO_CHOICES = st.sampled_from(["keep", "keep", "+0", "-0"])


@st.composite
def signed_zero_scenes(draw):
    """A simgen scene with signed zeros drawn into its coordinates, and maybe an
    agent at the ego's own spot."""
    spec = simgen.GenSpec(n_scenarios=4, seed=draw(st.integers(0, 2 ** 16)),
                          suite=draw(st.sampled_from(simgen.Suite)),
                          agent_density=draw(st.sampled_from([0.0, 0.5, 1.0])))
    s = draw(st.sampled_from(simgen.generate(spec)))

    def zero(v):
        choice = draw(ZERO_CHOICES)
        return v if choice == "keep" else 0.0 if choice == "+0" else -0.0

    def point(p):
        return (zero(p[0]), zero(p[1]))

    def points(ps):
        out = [point(ps[0])]
        for p in ps[1:]:
            q = point(p)
            out.append(p if q == out[-1] else q)    # polyline points stay distinct
        return tuple(out)

    agents = [AgentTrack(a.id, a.kind, point(a.position), zero(a.heading), a.speed, a.extent,
                         tuple(map(point, a.future))) for a in s.agents]
    if len(agents) < A_MAX and draw(st.booleans()):
        agents.append(make_agent(agent_id=max((a.id for a in agents), default=0) + 1,
                                 kind=draw(st.sampled_from(AgentKind)),
                                 position=(zero(0.0), zero(0.0)), speed=0.0))
    moved = replace(s, agents=tuple(agents),
                    map=tuple(MapPolyline(m.id, m.kind, points(m.points)) for m in s.map),
                    gt_future=tuple(map(point, s.gt_future)))
    try:
        moved.validate()
    except ValidationError:
        assume(False)
    return moved


@settings(derandomize=True, max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(s=signed_zero_scenes())
def test_the_wire_answers_as_the_rule_oracle(packaged_server, s):
    for format in (Format.SHORT, Format.LONG):
        got = packaged_server.decide(s, format)
        want = RuleOracle().decide(s, format)
        assert (got.action, got.rationale(format), got.hazard_ids) == (
            want.action, want.rationale(format), want.hazard_ids)


def test_a_negative_zero_ego_is_answered_as_the_origin():
    # No Scenario holds an ego at -0.0; a request line still can.
    request = _encode_request(SCENES[0], Format.LONG)
    signed = request.replace(b'"ego":{"x":0,', b'"ego":{"x":-0.0,', 1)
    assert signed != request
    assert _reply(signed, RuleOracle()) == _reply(request, RuleOracle())
    assert served([signed, request, signed]) == served([request]) * 3


@pytest.mark.parametrize("position", [(0.0, 0.0), (0.0, -0.0), (-0.0, 0.0), (-0.0, -0.0)])
def test_an_agent_at_the_ego_spot_is_in_front_whatever_its_zeros(packaged_server, position):
    s = make_scenario(agents=(make_agent(position=position, speed=0.0),))
    rationale = RuleOracle().decide(s, Format.LONG).rationale_long
    assert rationale.startswith("Front sector: 1 vehicle at 0.0 m.")
    assert packaged_server.decide(s, Format.LONG).rationale_long == rationale
