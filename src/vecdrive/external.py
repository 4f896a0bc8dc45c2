"""Out-of-process maneuver oracles: both ends of the wire protocol
(newline-delimited JSON, one in-flight request per connection):

    request : {"v":1, "format":"short"|"long", "scenario":{...}}
    response: {"v":1, "action":"GO_STRAIGHT"|"TURN_LEFT"|"TURN_RIGHT",
               "rationale":"...", "hazard_ids":[...]}
    error   : {"v":1, "error":"<message>"}   (the request was not valid)

Each end refuses a "v" other than the JSON integer 1.

One line channel serves a subprocess kept alive on stdin/stdout
(``exec:CMD``) and a TCP stream (``tcp:HOST:PORT``). A timeout, a reply
line over ``MAX_REPLY_BYTES`` or a broken stream (end of stream, failed
write, exited subprocess) closes it, so no late reply answers a later
request: each later ``decide`` raises ``OracleProtocolError`` naming that
failure. A reply line that fails validation, an error object or bytes
that are not UTF-8 included, leaves it usable; its error quotes the first
2 KB of the line. Errors that close an ``exec:`` channel end with the last
2 KB the subprocess wrote to stderr.

Each end remembers the one scene it handled last. The client sends the
``Scenario`` object it sent last without encoding it again: ``scenario_json``
writes only a scene of frozen records and tuples, which cannot have changed,
and refuses any other before a byte is sent. The server end
(``_ServerEnd``) decodes the scenario of a request once and reuses it for a
later request of the same shape with the same scenario bytes; the oracle
is still asked every time. A SHORT then a LONG question about one scene
thus pays for one encode and one decode, and a model wired into
``oracle_server``'s template gets this for free.
"""

from __future__ import annotations

import os
import select
import shlex
import time

from . import jsonio
from .oracle import Format, MetaDecision, Oracle
from .scene import MetaAction, Scenario, ValidationError, scenario_from_dict, scenario_json

DEFAULT_TIMEOUT = 10.0
#: Longest timeout in seconds, about 31.7 years. Python's clock holds a
#: wait as int64 nanoseconds, so ``select`` overflows past ~9.2e9 s.
MAX_TIMEOUT = 1e9
STDERR_TAIL_BYTES = 2048
#: Longest reply line the client reads; a reply for any simgen scene is under 3 KB.
MAX_REPLY_BYTES = 1 << 20


class OracleError(Exception):
    """Base class for external-oracle failures."""


class OracleTimeout(OracleError):
    def __init__(self, endpoint: str, timeout: float):
        super().__init__(f"oracle {endpoint} did not answer within {timeout:.3g} s")
        self.endpoint = endpoint
        self.timeout = timeout


class OracleProtocolError(OracleError):
    """Malformed or invalid response; carries the raw payload.

    The message quotes at most the first STDERR_TAIL_BYTES of the payload
    (UTF-8) and says how much it left out.
    """

    def __init__(self, endpoint: str, message: str, payload: str = ""):
        detail = f"oracle {endpoint}: {message}"
        if payload:
            head = payload.encode("utf-8")[:STDERR_TAIL_BYTES].decode("utf-8", "ignore")
            cut = len(payload) - len(head)
            more = f" ... {cut} more characters" if cut else ""
            detail += f" (payload: {head!r}{more})"
        super().__init__(detail)
        self.endpoint = endpoint
        self.payload = payload


#: Per format, the bytes of a request before its scenario; ``}\n`` follows it.
_REQUEST_HEAD = {f: ('{"v":1,"format":' + jsonio.encode_str(f.value) + ',"scenario":').encode()
                 for f in Format}


def _encode_request(scenario: Scenario, format: Format) -> bytes:
    """``jsonio.dumps({"v": 1, "format": ..., "scenario": scenario_to_dict(scenario)})``
    and a newline, with the scenario written by ``scenario_json``, which raises
    ``ValidationError`` for a scene that ``validate()`` refuses."""
    return _REQUEST_HEAD[format] + scenario_json(scenario).encode("utf-8") + b"}\n"


def _decode_reply(line: bytes, endpoint: str) -> str:
    try:
        return line.decode("utf-8")
    except UnicodeDecodeError as e:
        raise OracleProtocolError(endpoint, f"reply is not UTF-8: {e}",
                                  line.decode("utf-8", errors="replace")) from None


def _parse_response(raw: str, scenario: Scenario, format: Format,
                    endpoint: str) -> MetaDecision:
    try:
        obj = jsonio.loads(raw)
    except ValueError as e:
        raise OracleProtocolError(endpoint, f"invalid JSON: {e}", raw) from None
    if not isinstance(obj, dict):
        raise OracleProtocolError(endpoint, "response is not an object", raw)
    if type(obj.get("v")) is not int or obj["v"] != 1:
        raise OracleProtocolError(endpoint, f"unsupported version {obj.get('v')!r}", raw)
    if "error" in obj:
        raise OracleProtocolError(endpoint, f"oracle error: {obj['error']}", raw)
    label = obj.get("action")
    try:
        action = MetaAction(label)
    except ValueError:
        raise OracleProtocolError(endpoint, f"unknown action label {label!r}", raw) from None
    rationale = obj.get("rationale")
    if not isinstance(rationale, str) or not rationale:
        raise OracleProtocolError(endpoint, "missing or empty rationale", raw)
    hazard_ids = obj.get("hazard_ids", [])
    if not isinstance(hazard_ids, list) or not all(
        isinstance(i, int) and not isinstance(i, bool) for i in hazard_ids
    ):
        raise OracleProtocolError(endpoint, "hazard_ids must be a list of integers", raw)
    decision = MetaDecision(action, rationale, rationale, tuple(sorted(hazard_ids)))
    try:
        decision.validate(scenario)
    except ValueError as e:
        raise OracleProtocolError(endpoint, str(e), raw) from None
    return decision


def _reply(raw: bytes, oracle: Oracle) -> str:
    """Server side: the reply line to one request line, an error object if it is not
    valid (bytes that are not UTF-8 included), and nothing to a blank line."""
    try:
        line = raw.decode("utf-8")
        if not line.strip():
            return ""
        obj = jsonio.loads(line)
        if not isinstance(obj, dict) or not isinstance(obj.get("scenario"), dict):
            raise ValueError("request is not an object with a scenario object")
        if type(obj.get("v")) is not int or obj["v"] != 1:
            raise ValueError(f"unsupported version {obj.get('v')!r}")
        format = Format.parse(str(obj.get("format", "short")))
        scenario = scenario_from_dict(obj["scenario"])
    except (ValueError, ValidationError) as e:
        return jsonio.dumps({"v": 1, "error": f"invalid request: {e}"}) + "\n"
    return _answer(oracle, scenario, format)


def _answer(oracle: Oracle, scenario: Scenario, format: Format) -> str:
    decision = oracle.decide(scenario, format)
    return jsonio.dumps({"v": 1, "action": decision.action.value,
                         "rationale": decision.rationale(format),
                         "hazard_ids": list(decision.hazard_ids)}) + "\n"


class _ServerEnd:
    """Server end of one stream: ``_reply`` to each line, with the scene it
    decoded last remembered.

    A line ``_REQUEST_HEAD[format] + S + b"}\n"`` whose ``S`` alone is one
    JSON object, and a valid scenario, is answered from the ``Scenario`` it
    holds; the ``Scenario`` of the last such ``S`` is reused when the same
    bytes come again. Any other line, and any failure, goes to ``_reply``,
    so every reply and error object is the one ``_reply`` writes.
    """

    def __init__(self, oracle: Oracle):
        self.oracle = oracle
        self._scene: bytes | None = None
        self._scenario: Scenario | None = None

    def reply(self, raw: bytes) -> str:
        for format, head in _REQUEST_HEAD.items():
            if raw.startswith(head) and raw.endswith(b"}\n"):
                scenario = self._scenario_of(raw[len(head):-2])
                if scenario is not None:
                    return _answer(self.oracle, scenario, format)
                break
        return _reply(raw, self.oracle)

    def _scenario_of(self, scene: bytes) -> Scenario | None:
        if scene == self._scene:
            return self._scenario
        try:
            # In brackets, the scene nests as deep as in the whole line, and
            # anything after its one value (a second "format" or "scenario"
            # member) fails to parse or to unpack.
            (obj,) = jsonio.loads("[" + scene.decode("utf-8") + "]")
            scenario = scenario_from_dict(obj)
        except (ValueError, ValidationError):
            return None
        self._scene, self._scenario = scene, scenario
        return scenario


class _LineOracle:
    """Client end of the protocol over a readable and a writable fd."""

    def __init__(self, endpoint: str, timeout: float, read_fd: int, write_fd: int):
        self.endpoint, self.timeout = endpoint, timeout
        self._read_fd, self._write_fd = read_fd, write_fd
        self._buffer = b""
        self._failure: str | None = None
        self._sent: tuple[Scenario, bytes] | None = None   # the scene sent last, and its JSON

    def _check_alive(self) -> None:
        """Raise OracleError when the far end is known to be gone."""

    def _stderr_tail(self) -> str:
        return ""

    def _read_line(self, deadline: float) -> bytes:
        # A line holds at most MAX_REPLY_BYTES, so searching the whole
        # buffer after each read costs a bounded time.
        while (end := self._buffer.find(b"\n")) < 0 and len(self._buffer) <= MAX_REPLY_BYTES:
            remaining = deadline - time.monotonic()
            if remaining <= 0 or not select.select([self._read_fd], [], [], remaining)[0]:
                raise OracleTimeout(self.endpoint, self.timeout)
            chunk = os.read(self._read_fd, 65536)
            if not chunk:
                raise OracleProtocolError(self.endpoint, "the oracle closed the stream")
            self._buffer += chunk
        if not 0 <= end <= MAX_REPLY_BYTES:
            raise OracleProtocolError(
                self.endpoint, f"reply line longer than MAX_REPLY_BYTES={MAX_REPLY_BYTES} bytes")
        line, self._buffer = self._buffer[:end], self._buffer[end + 1:]
        return line

    def decide(self, scenario: Scenario, format: Format = Format.SHORT) -> MetaDecision:
        if self._failure is not None:
            raise OracleProtocolError(self.endpoint, f"stream is closed ({self._failure})")
        deadline = time.monotonic() + self.timeout
        try:
            self._check_alive()
            request = memoryview(self._request(scenario, format))
            while request:
                request = request[os.write(self._write_fd, request):]
            raw = self._read_line(deadline)
        except OSError as e:
            error = OracleProtocolError(self.endpoint, f"stream failed: {e}")
        except OracleError as e:
            error = e
        else:
            return _parse_response(_decode_reply(raw, self.endpoint), scenario, format,
                                   self.endpoint)
        error.args = (f"{error}{self._stderr_tail()}",)
        self._failure = str(error)
        self.close()
        raise error

    def _request(self, scenario: Scenario, format: Format) -> bytes:
        """``_encode_request(scenario, format)``; the scene sent last, which cannot
        have changed, is not encoded again."""
        if self._sent is not None and scenario is self._sent[0]:
            return _REQUEST_HEAD[format] + self._sent[1] + b"}\n"
        request = _encode_request(scenario, format)
        self._sent = scenario, request[len(_REQUEST_HEAD[format]):-2]
        return request

    def close(self) -> None:
        if self._failure is None:
            self._failure = "closed by the client"
        self._close_stream()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()


class ExecOracle(_LineOracle):
    """Oracle behind a spawned subprocess speaking the stdio line protocol."""

    def __init__(self, command: str | list[str], timeout: float = DEFAULT_TIMEOUT):
        import subprocess   # here, not at the top: the server side starts faster without it
        import tempfile
        self.command = shlex.split(command) if isinstance(command, str) else list(command)
        if not self.command:
            raise ValueError(f"the exec: oracle endpoint needs a command, got {command!r}")
        endpoint = "exec:" + " ".join(self.command)
        self._stderr = tempfile.TemporaryFile()   # unlike an unread pipe, never fills
        try:
            self._proc = subprocess.Popen(self.command, stdin=subprocess.PIPE,
                                          stdout=subprocess.PIPE, stderr=self._stderr)
        except OSError as e:
            self._stderr.close()
            raise OracleError(f"cannot spawn {endpoint}: {e}") from None
        super().__init__(endpoint, timeout, self._proc.stdout.fileno(),
                         self._proc.stdin.fileno())

    def _check_alive(self) -> None:
        if self._proc.poll() is not None:
            raise OracleProtocolError(
                self.endpoint, f"subprocess exited with code {self._proc.returncode}")

    def _stderr_tail(self) -> str:
        fd = self._stderr.fileno()
        start = max(0, os.fstat(fd).st_size - STDERR_TAIL_BYTES)
        tail = os.pread(fd, STDERR_TAIL_BYTES, start).decode("utf-8", errors="replace").strip()
        return f"; stderr: {tail}" if tail else ""

    def _close_stream(self) -> None:
        import subprocess
        if self._proc.poll() is None:
            self._proc.terminate()
            try:
                self._proc.wait(timeout=2.0)
            except subprocess.TimeoutExpired:
                self._proc.kill()
                self._proc.wait()
        for stream in (self._proc.stdin, self._proc.stdout, self._stderr):
            stream.close()


class TcpOracle(_LineOracle):
    """Oracle behind a TCP stream speaking the same line protocol."""

    def __init__(self, host: str, port: int, timeout: float = DEFAULT_TIMEOUT):
        import socket
        endpoint = f"tcp:{host}:{port}"
        try:
            self._sock = socket.create_connection((host, port), timeout=timeout)
        except OSError as e:
            raise OracleError(f"cannot connect to {endpoint}: {e}") from None
        self._sock.setblocking(True)   # reads are bounded by select, as on a pipe
        super().__init__(endpoint, timeout, self._sock.fileno(), self._sock.fileno())

    def _close_stream(self) -> None:
        self._sock.close()


def open_oracle(endpoint: str, timeout: float = DEFAULT_TIMEOUT):
    """Build an oracle from an endpoint string.

    ``rule`` for the in-process rule oracle, ``exec:CMD`` for a
    subprocess, ``tcp:HOST:PORT`` for a TCP stream.
    """
    if endpoint == "rule":
        from .oracle import RuleOracle
        return RuleOracle()
    if endpoint.startswith("exec:"):
        return ExecOracle(endpoint[len("exec:"):], timeout=timeout)
    if endpoint.startswith("tcp:"):
        host, _, port = endpoint[len("tcp:"):].rpartition(":")
        if not host or not port.isdigit() or int(port) > 65535:
            raise ValueError(f"malformed tcp endpoint {endpoint!r}")
        return TcpOracle(host, int(port), timeout=timeout)
    raise ValueError(f"unknown oracle endpoint {endpoint!r}")
