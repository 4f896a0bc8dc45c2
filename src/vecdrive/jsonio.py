"""Canonical JSON emission: fixed key order, 17-significant-digit floats.

Python's ``json.dumps`` uses shortest-repr floats, which is stable within
one interpreter but not a portable contract. Every file this package
writes (checkpoints, reports, QA files) goes through ``dumps`` here so two
runs produce byte-identical output, and reaches disk through
``write_atomic``. Scenario lines, in files and in oracle wire requests,
come from ``scene.scenario_json``: it writes the bytes ``dumps`` writes
for ``scene.scenario_to_dict``, straight from the dataclasses, and
refuses any scene that ``Scenario.validate()`` refuses. Dict key order is the
insertion order of the dict being serialized; builders construct dicts
in the documented schema order.

There is one emitter. It dispatches on the exact type of each value and
falls back to an ``isinstance`` chain for subclasses, so a subclass is
written, or refused, exactly as its base type. Strings and keys are
escaped as ``json.dumps(s, ensure_ascii=False)`` escapes them, and a list
of floats is written with one ``%`` and one non-finite check.
"""

from __future__ import annotations

import contextlib
import json
import math
import os
from typing import Any, Callable

#: A str as a JSON string literal: what ``json.dumps(s, ensure_ascii=False)`` calls.
encode_str = json.encoder.encode_basestring


def format_float(x: float) -> str:
    """17 significant digits: an exact round trip for every finite double
    but -0.0, written ``-0``, which ``json.loads`` reads as the int 0."""
    if not math.isfinite(x):
        raise ValueError(f"cannot serialize non-finite float {x!r}")
    return format(x, ".17g")


def dumps(value: Any) -> str:
    out: list[str] = []
    _EMITTERS.get(type(value), _emit_subclass)(value, out)
    return "".join(out)


def _emit_subclass(value: Any, out: list[str]) -> None:
    """Emit an instance of a subclass of a JSON type as its base type, or refuse it."""
    if isinstance(value, str):
        out.append(encode_str(value))
    elif isinstance(value, int):
        out.append(str(value))
    elif isinstance(value, float):
        out.append(format_float(value))
    elif isinstance(value, dict):
        _emit_dict(value, out)
    elif isinstance(value, (list, tuple)):
        _emit_list(value, out)
    else:
        raise TypeError(f"cannot serialize {type(value).__name__}")


def _emit_dict(value: dict, out: list[str]) -> None:
    out.append("{")
    sep = ""
    for k, v in value.items():
        if not isinstance(k, str):
            raise TypeError(f"JSON object keys must be str, got {type(k).__name__}")
        out.append(sep + encode_str(k) + ":")
        sep = ","
        _EMITTERS.get(type(v), _emit_subclass)(v, out)
    out.append("}")


def _emit_list(value: list | tuple, out: list[str]) -> None:
    if set(map(type, value)) == {float}:
        text = ("%.17g," * len(value))[:-1] % tuple(value)
        if "n" in text:     # "nan", "inf": no finite %.17g string holds an "n"
            for v in value:
                format_float(v)
        out.append("[" + text + "]")
        return
    out.append("[")
    for i, v in enumerate(value):
        if i:
            out.append(",")
        _EMITTERS.get(type(v), _emit_subclass)(v, out)
    out.append("]")


_EMITTERS: dict[type, Callable[[Any, list[str]], None]] = {
    type(None): lambda v, out: out.append("null"),
    bool: lambda v, out: out.append("true" if v else "false"),
    str: lambda v, out: out.append(encode_str(v)),
    int: lambda v, out: out.append(str(v)),
    float: lambda v, out: out.append(format_float(v)),
    dict: _emit_dict,
    list: _emit_list,
    tuple: _emit_list,
}


def loads(text: str, object_pairs_hook=None) -> Any:
    """``json.loads``, with its ``object_pairs_hook``; nesting too deep to parse
    is a ``ValueError`` like any other malformed input, so every reader's
    decode-error handling covers it."""
    try:
        return json.loads(text, object_pairs_hook=object_pairs_hook)
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
