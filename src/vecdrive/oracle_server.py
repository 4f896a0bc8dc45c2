"""Reference external-oracle server: the rule oracle behind the stdio
line protocol that ``vecdrive.external`` defines.

Run as ``python -m vecdrive.oracle_server``: each stdin request line gets
one stdout line, the response or an error object for an invalid request,
and the server serves on. Useful as a loopback fixture for the adapter
and as a template for wiring a real model into the protocol.
"""

from __future__ import annotations

import sys

from .external import _reply
from .oracle import RuleOracle


def serve(stdin=None, stdout=None) -> None:
    stdin = stdin if stdin is not None else sys.stdin
    stdout = stdout if stdout is not None else sys.stdout
    oracle = RuleOracle()
    for line in stdin:
        if line.strip():
            stdout.write(_reply(line, oracle))
            stdout.flush()


if __name__ == "__main__":
    serve()
