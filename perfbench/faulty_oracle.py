"""Fault-injecting oracle server for the benchmark's smoke test.

Serves ``vecdrive.oracle_server`` on stdio but appends text to the
rationale of every k-th reply. The reply stays valid on the wire, so only
the benchmark's own check against the in-process rule oracle can catch it.

    python perfbench/faulty_oracle.py --every 7
"""

from __future__ import annotations

import argparse
import sys

from vecdrive import jsonio, oracle_server


class CorruptingWriter:
    """stdout wrapper that alters every k-th response line."""

    def __init__(self, out, every: int) -> None:
        self.out, self.every, self.count = out, every, 0

    def write(self, text: str) -> None:
        self.count += 1
        if self.count % self.every == 0:
            obj = jsonio.loads(text)
            obj["rationale"] += " (injected fault)"
            text = jsonio.dumps(obj) + "\n"
        self.out.write(text)

    def flush(self) -> None:
        self.out.flush()


if __name__ == "__main__":
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--every", type=int, required=True)
    oracle_server.serve(stdout=CorruptingWriter(sys.stdout, ap.parse_args().every))
