"""Reference external-oracle server: the rule oracle behind the stdio
line protocol that ``vecdrive.external`` defines.

Run as ``python -m vecdrive.oracle_server``: each stdin request line gets
one stdout line, the response or an error object for an invalid request,
and the server serves on. Useful as a loopback fixture for the adapter
and as a template for wiring a real model into the protocol. A model
wired in place of ``RuleOracle`` gets the wire's one-scene memo for free:
a scene asked about twice in a row (SHORT, then LONG) is decoded and
validated once, and the model is still asked each time.
"""

from __future__ import annotations

import codecs
import sys

from .external import _ServerEnd
from .oracle import RuleOracle


def serve(stdin=None, stdout=None) -> None:
    """Answer each line of the binary ``stdin`` with a line of text on ``stdout``; the
    default ``stdout`` writes UTF-8 to ``sys.stdout.buffer`` whatever the locale."""
    stdin = stdin if stdin is not None else sys.stdin.buffer
    stdout = stdout if stdout is not None else codecs.getwriter("utf-8")(sys.stdout.buffer)
    server = _ServerEnd(RuleOracle())
    for raw in stdin:
        reply = server.reply(raw)
        if reply:
            stdout.write(reply)
            stdout.flush()


if __name__ == "__main__":
    serve()
