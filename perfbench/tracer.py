"""Span tracer that wraps the public functions of each vecdrive module.

The program itself is not changed: ``install`` replaces each listed
function at every place it is looked up. That means the defining module,
every ``vecdrive`` module that bound it by name with ``from .x import
f`` (``cli`` binds ``forward``, ``collision_horizons``,
``load_scenarios`` ...; ``external`` binds ``scenario_to_dict``), and the
class for methods. Calls made through a module attribute
(``planner.backward`` from ``planner.train``, ``textmetrics.*`` from
``planmetrics``, ``jsonio.*`` everywhere) then reach the wrapper too.

Spans are kept in memory as ``(id, name, start, end, parent, run)`` and
written out when the run ends. Only the recording is switched on and
off (``Tracer.active``): the benchmark's own preparation and output
checks run with the wrappers installed but record nothing.
"""

from __future__ import annotations

import functools
import gzip
import json
import sys
import time

#: Wrapped functions per layer, by module. ``rng`` is not wrapped: its
#: time shows inside ``simgen.generate`` and ``planner.init_model``.
LAYERS: dict[str, tuple[str, ...]] = {
    "scene": ("load_scenarios", "save_scenarios", "scenario_from_dict", "scenario_to_dict"),
    "jsonio": ("dumps", "loads"),
    "simgen": ("generate", "split"),
    "oracle": ("RuleOracle.decide", "generate_qa"),
    "planner": ("init_model", "train", "backward", "forward",
                "save_checkpoint", "load_checkpoint"),
    "planmetrics": ("collision_horizons", "l2_horizons", "evaluate_explanations"),
    "textmetrics": ("tokenize", "bleu", "meteor", "rouge_l", "cider"),
    "external": ("open_oracle", "ExecOracle.decide"),
    "cli": ("cmd_simgen", "cmd_qagen", "cmd_train", "cmd_eval_plan", "cmd_eval_text",
            "cmd_eval_actions", "cmd_bench_oracle", "cmd_report"),
}

#: Client-side encode and parse of one external request. Their spans
#: separate pipe and server time from client work inside
#: ``ExecOracle.decide``; they are not reported as layers of their own.
_WIRE_HELPERS = ("external._encode_request", "external._parse_response")

DECIDE = "external.ExecOracle.decide"


def traced_names() -> list[str]:
    return [f"{module}.{name}" for module, names in LAYERS.items() for name in names]


def per_layer_metric_names() -> list[tuple[str, str]]:
    """(metric name, unit) of every per-layer metric, in report order."""
    out = []
    for name in traced_names():
        out += [(f"{name}.calls", "count"), (f"{name}.busy_s", "s"), (f"{name}.self_s", "s")]
    out += [(f"{DECIDE}.failed", "count"), ("external.decide.wait_s", "s"),
            ("trace.wall_s", "s")]
    return out


class Tracer:
    def __init__(self) -> None:
        self.active = False
        self.run = 0
        self.spans: list[tuple[int, str, float, float, int, int]] = []
        self.failed: dict[str, int] = {}
        self._stack: list[int] = []
        self._next_id = 1
        self._patched: list[tuple[object, str, object]] = []

    # --- recording ---------------------------------------------------------------

    def span(self, name: str):
        """Context manager recording one span (used for the benchmark's stages)."""
        return _Span(self, name)

    def _wrap(self, name: str, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            span_id = tracer._next_id
            tracer._next_id += 1
            parent = tracer._stack[-1] if tracer._stack else 0
            tracer._stack.append(span_id)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            except BaseException:
                tracer.failed[name] = tracer.failed.get(name, 0) + 1
                raise
            finally:
                end = time.perf_counter()
                tracer._stack.pop()
                tracer.spans.append((span_id, name, start, end, parent, tracer.run))

        return wrapper

    # --- patching ----------------------------------------------------------------

    def install(self) -> None:
        """Wrap every function in LAYERS (plus the wire helpers) in place."""
        modules = [m for key, m in sorted(sys.modules.items())
                   if (key == "vecdrive" or key.startswith("vecdrive.")) and m is not None]
        for full in traced_names() + list(_WIRE_HELPERS):
            module_name, _, attr = full.partition(".")
            module = sys.modules[f"vecdrive.{module_name}"]
            cls_name, _, method = attr.rpartition(".")
            if cls_name:
                cls = getattr(module, cls_name)
                self._set(cls, method, self._wrap(full, getattr(cls, method)))
                continue
            original = getattr(module, attr)
            wrapper = self._wrap(full, original)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._set(mod, key, wrapper)

    def _set(self, owner, attr: str, value) -> None:
        self._patched.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    # --- results -----------------------------------------------------------------

    def layer_totals(self) -> dict[int, dict[str, dict[str, float]]]:
        """Per run id: calls / busy / self seconds per span name."""
        child_time: dict[int, float] = {}
        for _, _, start, end, parent, _ in self.spans:
            if parent:
                child_time[parent] = child_time.get(parent, 0.0) + (end - start)
        totals: dict[int, dict[str, dict[str, float]]] = {}
        for span_id, name, start, end, _, run in self.spans:
            t = totals.setdefault(run, {}).setdefault(
                name, {"calls": 0, "busy_s": 0.0, "self_s": 0.0})
            t["calls"] += 1
            t["busy_s"] += end - start
            t["self_s"] += (end - start) - child_time.get(span_id, 0.0)
        return totals

    def decide_wait_s(self) -> dict[int, float]:
        """Per run id: ExecOracle.decide busy time minus its client-side encode and parse."""
        decide_ids = {s[0] for s in self.spans if s[1] == DECIDE}
        wait: dict[int, float] = {}
        for span_id, name, start, end, parent, run in self.spans:
            if name == DECIDE:
                wait[run] = wait.get(run, 0.0) + (end - start)
            elif name in _WIRE_HELPERS and parent in decide_ids:
                wait[run] = wait.get(run, 0.0) - (end - start)
        return wait

    def write(self, path: str) -> None:
        """Write every span as one JSON line (gzip), ids and times as recorded."""
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            for span_id, name, start, end, parent, run in self.spans:
                fh.write(json.dumps({"id": span_id, "name": name, "start": start,
                                     "end": end, "parent": parent, "run": run}))
                fh.write("\n")


class _Span:
    def __init__(self, tracer: Tracer, name: str) -> None:
        self.tracer, self.name = tracer, name

    def __enter__(self):
        tracer = self.tracer
        if tracer.active:
            self.id = tracer._next_id
            tracer._next_id += 1
            self.parent = tracer._stack[-1] if tracer._stack else 0
            tracer._stack.append(self.id)
            self.start = time.perf_counter()
        return self

    def __exit__(self, *exc):
        tracer = self.tracer
        if tracer.active:
            end = time.perf_counter()
            tracer._stack.pop()
            tracer.spans.append((self.id, self.name, self.start, end, self.parent, tracer.run))
        return False
