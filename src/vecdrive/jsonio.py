"""Canonical JSON emission: fixed key order, 17-significant-digit floats.

Python's ``json.dumps`` uses shortest-repr floats, which is stable within
one interpreter but not a portable contract. Every file this package
writes (scenario JSONL, checkpoints, reports) goes through ``dumps`` here
so two runs produce byte-identical output, and reaches disk through
``write_atomic``. Dict key order is the
insertion order of the dict being serialized; builders construct dicts
in the documented schema order.
"""

from __future__ import annotations

import contextlib
import json
import math
import os
from typing import Any


def format_float(x: float) -> str:
    """17 significant digits: exact round-trip for IEEE-754 doubles."""
    if not math.isfinite(x):
        raise ValueError(f"cannot serialize non-finite float {x!r}")
    return format(x, ".17g")


def dumps(value: Any) -> str:
    out: list[str] = []
    _emit(value, out)
    return "".join(out)


def _emit(value: Any, out: list[str]) -> None:
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
        out.append(format_float(value))
    elif isinstance(value, dict):
        out.append("{")
        for i, (k, v) in enumerate(value.items()):
            if not isinstance(k, str):
                raise TypeError(f"JSON object keys must be str, got {type(k).__name__}")
            if i:
                out.append(",")
            out.append(json.dumps(k, ensure_ascii=False))
            out.append(":")
            _emit(v, out)
        out.append("}")
    elif isinstance(value, (list, tuple)):
        out.append("[")
        for i, v in enumerate(value):
            if i:
                out.append(",")
            _emit(v, out)
        out.append("]")
    else:
        raise TypeError(f"cannot serialize {type(value).__name__}")


def loads(text: str) -> Any:
    """``json.loads``; nesting too deep to parse is a ``ValueError`` like any
    other malformed input, so every reader's decode-error handling covers it."""
    try:
        return json.loads(text)
    except RecursionError:
        raise ValueError("JSON nested too deeply") from None


def write_atomic(path: str | os.PathLike, text: str) -> None:
    """Replace ``path`` with ``text`` atomically.

    The text goes to a temporary file in the same directory, which is
    then renamed over ``path``, so a failure leaves any previous file
    intact and no partial one.
    """
    path = os.fspath(path)
    tmp = f"{path}.{os.getpid()}.tmp"
    try:
        with open(tmp, "w", encoding="utf-8") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(OSError):
            os.unlink(tmp)
        raise
