import io
import os
import shlex
import socket
import subprocess
import sys
import threading
import textwrap
import time

import pytest

from vecdrive import jsonio, oracle_server, simgen
from vecdrive.external import (
    ExecOracle,
    OracleError,
    OracleProtocolError,
    OracleTimeout,
    STDERR_TAIL_BYTES,
    TcpOracle,
    _LineOracle,
    _encode_request,
    _parse_response,
    open_oracle,
)
from vecdrive.oracle import Format, RuleOracle
from vecdrive.scene import MetaAction, scenario_to_dict

from conftest import make_agent, make_scenario


def write_mock(tmp_path, name, body):
    script = tmp_path / name
    script.write_text(textwrap.dedent(body))
    return f"{sys.executable} {script}"


FIXED_RESPONSE_MOCK = """\
    import json, sys
    for line in sys.stdin:
        req = json.loads(line)
        resp = {"v": 1, "action": "TURN_LEFT",
                "rationale": "mock turn rationale", "hazard_ids": []}
        sys.stdout.write(json.dumps(resp) + "\\n")
        sys.stdout.flush()
"""

UNKNOWN_LABEL_MOCK = """\
    import json, sys
    for line in sys.stdin:
        json.loads(line)
        sys.stdout.write(json.dumps({"v": 1, "action": "REVERSE",
                                     "rationale": "x", "hazard_ids": []}) + "\\n")
        sys.stdout.flush()
"""

SLEEPY_MOCK = """\
    import json, sys, time
    for line in sys.stdin:
        json.loads(line)
        time.sleep(0.6)
        sys.stdout.write(json.dumps({"v": 1, "action": "GO_STRAIGHT",
                                     "rationale": "late", "hazard_ids": []}) + "\\n")
        sys.stdout.flush()
"""

ECHO_INTENT_MOCK = """\
    import json, sys
    for line in sys.stdin:
        req = json.loads(line)
        resp = {"v": 1, "action": req["scenario"]["route_intent"],
                "rationale": "echoing the navigation intent", "hazard_ids": []}
        sys.stdout.write(json.dumps(resp) + "\\n")
        sys.stdout.flush()
"""


def test_exec_loopback_fixed_response(tmp_path):
    cmd = write_mock(tmp_path, "fixed.py", FIXED_RESPONSE_MOCK)
    with ExecOracle(cmd, timeout=5.0) as oracle:
        d = oracle.decide(make_scenario(), Format.SHORT)
    assert d.action is MetaAction.TURN_LEFT
    assert d.rationale_short == "mock turn rationale"
    assert d.hazard_ids == ()


def test_exec_multiple_requests_one_process(tmp_path):
    cmd = write_mock(tmp_path, "echo.py", ECHO_INTENT_MOCK)
    with ExecOracle(cmd, timeout=5.0) as oracle:
        for intent in (MetaAction.TURN_LEFT, MetaAction.GO_STRAIGHT, MetaAction.TURN_RIGHT):
            d = oracle.decide(make_scenario(route_intent=intent))
            assert d.action is intent


def test_unknown_action_label_raises_protocol_error(tmp_path):
    cmd = write_mock(tmp_path, "reverse.py", UNKNOWN_LABEL_MOCK)
    with ExecOracle(cmd, timeout=5.0) as oracle:
        with pytest.raises(OracleProtocolError) as err:
            oracle.decide(make_scenario())
    assert "REVERSE" in str(err.value)


def test_delayed_mock_times_out(tmp_path):
    cmd = write_mock(tmp_path, "sleepy.py", SLEEPY_MOCK)
    with ExecOracle(cmd, timeout=0.2) as oracle:
        with pytest.raises(OracleTimeout):
            oracle.decide(make_scenario())


def test_malformed_json_reports_payload(tmp_path):
    cmd = write_mock(tmp_path, "bad.py", """\
        import sys
        for line in sys.stdin:
            sys.stdout.write("not json at all\\n")
            sys.stdout.flush()
    """)
    with ExecOracle(cmd, timeout=5.0) as oracle:
        with pytest.raises(OracleProtocolError) as err:
            oracle.decide(make_scenario())
    assert "not json" in err.value.payload


def test_huge_reply_is_quoted_up_to_2_kb(tmp_path):
    cmd = write_mock(tmp_path, "huge.py", """\
        import sys
        for line in sys.stdin:
            sys.stdout.write("[" * 100000 + "]" * 100000 + "\\n")
            sys.stdout.flush()
    """)
    with ExecOracle(cmd, timeout=5.0) as oracle:
        with pytest.raises(OracleProtocolError) as err:
            oracle.decide(make_scenario())
    assert len(err.value.payload) == 200_000
    message = str(err.value)
    assert len(message) < len(oracle.endpoint) + STDERR_TAIL_BYTES + 200
    assert "[" * STDERR_TAIL_BYTES + "' ... 197952 more characters)" in message
    # The cut counts UTF-8 bytes and never splits a character.
    wide = str(OracleProtocolError("exec:x", "bad", "\u00e9" * STDERR_TAIL_BYTES))
    assert "\u00e9" * (STDERR_TAIL_BYTES // 2) + "' ... 1024 more characters)" in wide


def test_long_reply_line_is_read_in_linear_time(tmp_path):
    # Searching and copying the whole buffer for each 64 KB chunk made the
    # read quadratic, and a line this long timed out instead of failing to parse.
    cmd = write_mock(tmp_path, "long.py", """\
        import sys
        for line in sys.stdin:
            sys.stdout.write("x" * 40_000_000 + "\\n")
            sys.stdout.flush()
    """)
    with ExecOracle(cmd, timeout=5.0) as oracle:
        with pytest.raises(OracleProtocolError, match="invalid JSON") as err:
            oracle.decide(make_scenario())
    assert len(err.value.payload) == 40_000_000


def test_read_line_joins_chunks_and_keeps_what_follows():
    read_fd, write_fd = os.pipe()
    long = b"y" * 200_000   # more than one 64 KB read
    writer = threading.Thread(target=os.write, args=(write_fd, b"a\n" + long + b"\nb\nc"))
    writer.start()
    channel = _LineOracle("pipe", 5.0, read_fd, write_fd)
    deadline = time.monotonic() + 5.0
    try:
        assert channel._read_line(deadline) == b"a"
        assert channel._read_line(deadline) == long
        writer.join(timeout=5.0)
        assert not writer.is_alive()
        assert channel._read_line(deadline) == b"b"
        os.close(write_fd)
        with pytest.raises(OracleProtocolError, match="closed the stream"):
            channel._read_line(deadline)
    finally:
        os.close(read_fd)


def test_hazard_ids_must_exist_in_scenario(tmp_path):
    cmd = write_mock(tmp_path, "ghost.py", """\
        import json, sys
        for line in sys.stdin:
            json.loads(line)
            sys.stdout.write(json.dumps({"v": 1, "action": "GO_STRAIGHT",
                                         "rationale": "x", "hazard_ids": [99]}) + "\\n")
            sys.stdout.flush()
    """)
    with ExecOracle(cmd, timeout=5.0) as oracle:
        with pytest.raises(OracleProtocolError):
            oracle.decide(make_scenario(agents=(make_agent(agent_id=1),)))


def test_repeated_hazard_id_is_a_protocol_error_quoting_the_payload():
    s = make_scenario(agents=(make_agent(agent_id=1), make_agent(agent_id=2, position=(5.0, 3.0))))
    raw = jsonio.dumps({"v": 1, "action": "GO_STRAIGHT", "rationale": "x",
                        "hazard_ids": [1, 2, 1]})
    with pytest.raises(OracleProtocolError, match="more than once") as info:
        _parse_response(raw, s, Format.SHORT, "exec:mock")
    assert info.value.payload == raw
    assert repr(raw) in str(info.value)
    ok = raw.replace("[1,2,1]", "[2,1]")
    assert _parse_response(ok, s, Format.SHORT, "exec:mock").hazard_ids == (1, 2)


def test_dead_subprocess_reported(tmp_path):
    cmd = write_mock(tmp_path, "quit.py", "import sys; sys.exit(3)\n")
    oracle = ExecOracle(cmd, timeout=5.0)
    try:
        oracle._proc.wait(timeout=5.0)
        with pytest.raises(OracleProtocolError):
            oracle.decide(make_scenario())
    finally:
        oracle.close()


def test_packaged_stdio_server_matches_rule_oracle(tmp_path):
    s = make_scenario(agents=(make_agent(),), route_intent=MetaAction.TURN_LEFT)
    expected = RuleOracle().decide(s, Format.LONG)
    with ExecOracle(f"{sys.executable} -m vecdrive.oracle_server", timeout=10.0) as oracle:
        d = oracle.decide(s, Format.LONG)
    assert d.action is expected.action
    assert d.rationale_long == expected.rationale_long
    assert d.hazard_ids == expected.hazard_ids


class OneShotTcpServer(threading.Thread):
    def __init__(self, handler):
        super().__init__(daemon=True)
        self.handler = handler
        self.sock = socket.create_server(("127.0.0.1", 0))
        self.port = self.sock.getsockname()[1]

    def run(self):
        conn, _ = self.sock.accept()
        with conn:
            buf = b""
            while b"\n" not in buf:
                chunk = conn.recv(65536)
                if not chunk:
                    return
                buf += chunk
            line = buf.split(b"\n", 1)[0].decode()
            conn.sendall(self.handler(line).encode() + b"\n")
        self.sock.close()


def test_tcp_oracle_round_trip():
    def handler(line):
        req = jsonio.loads(line)
        return jsonio.dumps({
            "v": 1,
            "action": req["scenario"]["route_intent"],
            "rationale": "tcp echo",
            "hazard_ids": [],
        })

    server = OneShotTcpServer(handler)
    server.start()
    with TcpOracle("127.0.0.1", server.port, timeout=5.0) as oracle:
        d = oracle.decide(make_scenario(route_intent=MetaAction.TURN_RIGHT))
    assert d.action is MetaAction.TURN_RIGHT


def test_open_oracle_endpoint_parsing():
    assert isinstance(open_oracle("rule"), RuleOracle)
    with pytest.raises(ValueError):
        open_oracle("carrier-pigeon:coop")
    with pytest.raises(ValueError):
        open_oracle("tcp:no-port")
    with pytest.raises(ValueError):
        open_oracle("tcp:127.0.0.1:99999")   # would wrap to port 34463
    with pytest.raises(OracleError):
        open_oracle("exec:/nonexistent/binary-xyz")
    for endpoint in ("exec:", "exec:   "):
        with pytest.raises(ValueError, match="needs a command"):
            open_oracle(endpoint)


# --- one behaviour set over both transports ---------------------------------------

LATE_FIRST_REPLY_MOCK = """\
    import json, sys, time
    for n, line in enumerate(sys.stdin, start=1):
        req = json.loads(line)
        if n == 1:
            time.sleep(0.6)
        action = "TURN_LEFT" if n == 1 else req["scenario"]["route_intent"]
        sys.stdout.write(json.dumps({"v": 1, "action": action,
                                     "rationale": f"reply {n}", "hazard_ids": []}) + "\\n")
        sys.stdout.flush()
"""

ERROR_THEN_ECHO_MOCK = """\
    import json, sys
    for n, line in enumerate(sys.stdin, start=1):
        req = json.loads(line)
        resp = {"v": 1, "action": req["scenario"]["route_intent"],
                "rationale": "echo", "hazard_ids": []}
        if n == 1:
            resp = {"v": 1, "error": "scenario too crowded"}
        sys.stdout.write(json.dumps(resp) + "\\n")
        sys.stdout.flush()
"""

HANG_UP_MOCK = """\
    import sys
    sys.stdin.readline()
"""

CRASH_MOCK = """\
    import sys
    sys.stderr.write("loading model\\nboom: weights missing\\n")
    sys.exit(1)
"""


@pytest.fixture(params=["exec", "tcp"])
def connect(request, tmp_path):
    """Open an oracle on a mock script, as its subprocess or over TCP.

    For TCP the accepted socket is the mock's stdin and stdout, so the
    same script serves both transports.
    """
    children = []

    def connect(body, timeout=5.0):
        cmd = write_mock(tmp_path, "mock.py", body)
        if request.param == "exec":
            return ExecOracle(cmd, timeout=timeout)
        with socket.create_server(("127.0.0.1", 0)) as server:
            oracle = TcpOracle("127.0.0.1", server.getsockname()[1], timeout=timeout)
            conn, _ = server.accept()
        with conn:
            children.append(subprocess.Popen(shlex.split(cmd), stdin=conn, stdout=conn))
        return oracle

    yield connect
    for child in children:
        child.kill()
        child.wait(timeout=5.0)


def test_transport_round_trip(connect):
    with connect(ECHO_INTENT_MOCK) as oracle:
        for intent in (MetaAction.TURN_LEFT, MetaAction.GO_STRAIGHT, MetaAction.TURN_RIGHT):
            d = oracle.decide(make_scenario(route_intent=intent))
            assert d.action is intent
            assert d.rationale_short == "echoing the navigation intent"


def test_transport_timeout(connect):
    with connect(SLEEPY_MOCK, timeout=0.2) as oracle:
        with pytest.raises(OracleTimeout):
            oracle.decide(make_scenario())


def test_transport_late_reply_never_answers_a_later_request(connect):
    with connect(LATE_FIRST_REPLY_MOCK, timeout=0.2) as oracle:
        with pytest.raises(OracleTimeout):
            oracle.decide(make_scenario(route_intent=MetaAction.TURN_LEFT))
        time.sleep(0.8)   # an open stream would now hold the late "reply 1"
        with pytest.raises(OracleProtocolError, match="did not answer within"):
            oracle.decide(make_scenario(route_intent=MetaAction.TURN_RIGHT))
        with pytest.raises(OracleProtocolError, match="did not answer within"):
            oracle.decide(make_scenario(route_intent=MetaAction.TURN_RIGHT))


def test_transport_stream_closed_by_oracle(connect):
    with connect(HANG_UP_MOCK) as oracle:
        with pytest.raises(OracleProtocolError) as first:
            oracle.decide(make_scenario())
        with pytest.raises(OracleProtocolError, match="stream is closed") as later:
            oracle.decide(make_scenario())
    assert str(first.value) in str(later.value)


def test_transport_error_object_raises_and_stream_stays_usable(connect):
    with connect(ERROR_THEN_ECHO_MOCK) as oracle:
        with pytest.raises(OracleProtocolError, match="oracle error: scenario too crowded") as err:
            oracle.decide(make_scenario())
        assert jsonio.loads(err.value.payload) == {"v": 1, "error": "scenario too crowded"}
        d = oracle.decide(make_scenario(route_intent=MetaAction.TURN_RIGHT))
    assert d.action is MetaAction.TURN_RIGHT


NOT_UTF8_THEN_ECHO_MOCK = """\
    import json, sys
    for n, line in enumerate(sys.stdin, start=1):
        req = json.loads(line)
        if n == 1:
            sys.stdout.buffer.write(b'{"v": 1, "action": "GO_STRAIGHT", '
                                    b'"rationale": "go \\xff\\xfe straight", "hazard_ids": []}\\n')
        else:
            sys.stdout.buffer.write(json.dumps({
                "v": 1, "action": req["scenario"]["route_intent"],
                "rationale": "echo", "hazard_ids": []}).encode() + b"\\n")
        sys.stdout.flush()
"""


def test_exec_reply_not_utf8_is_rejected_and_the_channel_stays_usable(tmp_path):
    cmd = write_mock(tmp_path, "not_utf8.py", NOT_UTF8_THEN_ECHO_MOCK)
    with ExecOracle(cmd, timeout=5.0) as oracle:
        with pytest.raises(OracleProtocolError, match="reply is not UTF-8") as err:
            oracle.decide(make_scenario())
        assert "go \ufffd\ufffd straight" in err.value.payload
        d = oracle.decide(make_scenario(route_intent=MetaAction.TURN_RIGHT))
    assert d.action is MetaAction.TURN_RIGHT


def test_exec_error_carries_stderr_tail(tmp_path):
    cmd = write_mock(tmp_path, "crash.py", CRASH_MOCK)
    with ExecOracle(cmd, timeout=5.0) as oracle:
        with pytest.raises(OracleProtocolError, match="boom: weights missing"):
            oracle.decide(make_scenario())


@pytest.mark.parametrize("format", list(Format))
def test_request_bytes_are_the_generic_emitters(format):
    spec = simgen.GenSpec(n_scenarios=20, seed=11, agent_density=1.0)
    for s in [make_scenario('q"\\é', agents=(make_agent(),)), *simgen.generate(spec)]:
        request = {"v": 1, "format": format.value, "scenario": scenario_to_dict(s)}
        assert _encode_request(s, format) == (jsonio.dumps(request) + "\n").encode("utf-8")


# --- server side -------------------------------------------------------------------

def request_line(scenario_obj, format="long"):
    return jsonio.dumps({"v": 1, "format": format, "scenario": scenario_obj})


def assert_rule_oracle_reply(line, s):
    d = _parse_response(line, s, Format.LONG, "exec:server")
    expected = RuleOracle().decide(s, Format.LONG)
    assert (d.action, d.rationale_long, d.hazard_ids) == (
        expected.action, expected.rationale_long, expected.hazard_ids)


def test_packaged_server_answers_garbage_and_serves_on():
    s = make_scenario(agents=(make_agent(),), route_intent=MetaAction.TURN_LEFT)
    proc = subprocess.run([sys.executable, "-m", "vecdrive.oracle_server"],
                          input="garbage\n" + request_line(scenario_to_dict(s)) + "\n",
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    error, reply = proc.stdout.splitlines()
    assert set(jsonio.loads(error)) == {"v", "error"}
    assert_rule_oracle_reply(reply, s)


@pytest.mark.parametrize("stdio_encoding", ["utf-8", "ascii"])
def test_packaged_server_answers_a_line_that_is_not_utf8_and_serves_on(stdio_encoding):
    s = make_scenario(agents=(make_agent(),), route_intent=MetaAction.TURN_LEFT)
    requests = ["\xff\xfe".encode("latin-1"),
                request_line(scenario_to_dict(s), format="médium").encode("utf-8"),
                request_line(scenario_to_dict(s)).encode("utf-8")]
    proc = subprocess.run([sys.executable, "-m", "vecdrive.oracle_server"],
                          input=b"\n".join(requests) + b"\n", capture_output=True, timeout=60,
                          env={**os.environ, "PYTHONIOENCODING": stdio_encoding})
    assert (proc.returncode, proc.stderr) == (0, b"")
    not_utf8, unknown_format, reply = proc.stdout.decode("utf-8").splitlines()
    assert list(jsonio.loads(not_utf8)) == ["v", "error"]
    assert "utf-8" in jsonio.loads(not_utf8)["error"]
    assert "médium" in jsonio.loads(unknown_format)["error"]
    assert_rule_oracle_reply(reply, s)


def test_benchmark_fault_server_alters_every_kth_reply():
    # perfbench/faulty_oracle.py hands serve() a text writer of its own; the
    # benchmark's fault check relies on it answering every request.
    s = make_scenario(agents=(make_agent(),))
    script = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                          "perfbench", "faulty_oracle.py")
    proc = subprocess.run([sys.executable, script, "--every", "2"],
                          input=(request_line(scenario_to_dict(s)) + "\n") * 2,
                          capture_output=True, text=True, timeout=60)
    assert (proc.returncode, proc.stderr) == (0, "")
    intact, altered = proc.stdout.splitlines()
    assert_rule_oracle_reply(intact, s)
    rationale = RuleOracle().decide(s, Format.LONG).rationale_long
    assert jsonio.loads(altered)["rationale"] == rationale + " (injected fault)"


def test_server_replies_error_object_per_bad_request():
    s = make_scenario(agents=(make_agent(),))
    negative, huge = scenario_to_dict(s), scenario_to_dict(s)
    negative["ego"]["speed"] = -1.0
    huge["ego"]["speed"] = 10 ** 400
    bad = ["garbage", "[1]", '{"v": 1}', '{"v": 1, "scenario": 5}',
           request_line(negative), request_line(huge),
           request_line(scenario_to_dict(s), format="medium"),
           request_line(scenario_to_dict(s), format=5),
           "[" * 100_000 + "]" * 100_000]
    out = io.StringIO()
    request = "\n".join(bad + [request_line(scenario_to_dict(s))]) + "\n"
    oracle_server.serve(io.BytesIO(request.encode("utf-8")), stdout=out)
    lines = out.getvalue().splitlines()
    assert len(lines) == len(bad) + 1
    for line in lines[:-1]:
        assert list(jsonio.loads(line)) == ["v", "error"]
    assert "ego.speed" in lines[5]
    assert_rule_oracle_reply(lines[-1], s)
