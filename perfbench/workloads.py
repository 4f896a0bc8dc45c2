"""Workload definitions, one timed pass of the pipeline, and its output checks.

Every workload runs the same pass, so that every end-to-end metric is
measured on every workload: the README pipeline through
``vecdrive.cli.main`` (simgen -> qagen -> train -> eval-plan -> text ->
eval-actions -> bench-oracle -> report), then a closed-loop decide phase
that sends the pass's scenarios, and more drawn from the same seed, once
as SHORT and once as LONG to the workload's oracle, one request in flight. The workloads differ in
their inputs, their sizes and the oracle they use, which decides which
layer the pass spends its time in.

Each pass draws fresh scenarios: pass ``i`` of a run with seed ``s`` uses
the generator seed ``s * 10000 + i``. The benchmark prepares the
references for its checks (the same scenarios built in-process, the
rule oracle's answers, the near-miss text pairs) before the pass and
checks the outputs after it; neither is inside the timed pass.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import math
import os
import shlex
import sys
import time
from array import array
from dataclasses import dataclass, field, replace

import calibrate
from vecdrive import cli, jsonio, planmetrics, report, simgen
from vecdrive.external import OracleError, open_oracle
from vecdrive.oracle import Format, RuleOracle, rule_oracle_decide

FORMATS = (Format.SHORT, Format.LONG)

#: Passes use generator seeds ``seed * PASS_STRIDE + i``.
PASS_STRIDE = 10_000


@dataclass(frozen=True)
class Spec:
    name: str
    n: int                  # scenarios simgen writes per pass
    density: float          # simgen --density
    train_frac: float       # simgen --train-frac
    epochs: int             # train --epochs
    text: str               # "cli": vecdrive eval-text; "near_miss": mirrored rationale pairs
    external: bool          # every --oracle stage and the decide phase use the exec server
    decide_n: int = 0       # scenarios in the decide phase: the pass's n and more (0: n)
    check_l2: bool = False  # check that the planner's L2 avg beats const-velocity

    @property
    def n_decide(self) -> int:
        return max(self.n, self.decide_n)

    @property
    def n_train(self) -> int:
        return int(self.train_frac * self.n + 1e-9)

    @property
    def n_eval(self) -> int:
        return self.n - self.n_train


#: Why each workload exists: the "why" of each in BENCHMARK.json, and README.md.
#: pipeline trains 15 epochs because its L2 check needs a trained model:
#: over 40 eval scenarios the const-velocity L2 avg ranges from ~1.9 to
#: ~4.6 m, and at 6 epochs the planner's reached 2.3 m on about one pass
#: in 10^3. Over 300 generator seeds the planner/const-velocity ratio
#: peaked at 0.79 with 10 epochs and at 0.63 with 15.
SPECS = {
    spec.name: spec for spec in (
        Spec("pipeline", n=200, density=0.5, train_frac=0.8, epochs=15, text="cli",
             external=False, decide_n=600, check_l2=True),
        Spec("eval_dense", n=200, density=1.0, train_frac=0.2, epochs=1, text="near_miss",
             external=False, decide_n=600),
        Spec("oracle_exec", n=200, density=0.5, train_frac=0.2, epochs=1, text="cli",
             external=True, decide_n=800),
    )
}
# A run's first pass alone gives decide_p99_ms 10 samples beyond it.
assert all(2 * spec.n_decide >= 1000 for spec in SPECS.values())


def tiny(spec: Spec) -> Spec:
    """The same workload at smoke-test size.

    A workload that checks L2 keeps its size: with fewer than ~40 eval
    scenarios, or a model trained on fewer, the check is not reliable.
    """
    return replace(spec, n=spec.n if spec.check_l2 else 40, decide_n=0)


def warmup(spec: Spec) -> Spec:
    """The same workload at set-up warm-up size, with the CLI's text stage.

    A near-miss pair's METEOR cost depends on the seed (up to ~100 ms a
    pair), which made the warm-up of eval_dense, and so setup_s, differ by
    up to 40% between seeds.
    """
    return replace(spec, n=16, epochs=1, decide_n=0, text="cli")


def exec_endpoint(*args: str) -> str:
    """``exec:`` endpoint running this interpreter with ``args``."""
    return "exec:" + " ".join(shlex.quote(a) for a in (sys.executable, *args))


@dataclass
class PassResult:
    """Stage times are reference-normalised (see calibrate.py); raw_times as read."""

    times: dict[str, float] = field(default_factory=dict)       # stage -> seconds
    raw_times: dict[str, float] = field(default_factory=dict)
    scale: dict[str, float] = field(default_factory=dict)       # stage -> normalising factor
    refs: list[float] = field(default_factory=list)             # reference times around stages
    wall_s: float = 0.0                                         # sum of the stage times
    # Checks by kind, "stage" or "decide": [attempted, failed].
    checks: dict[str, list[int]] = field(
        default_factory=lambda: {"stage": [0, 0], "decide": [0, 0]})
    failures: list[str] = field(default_factory=list)
    digests: dict[str, str] = field(default_factory=dict)

    @property
    def attempted(self) -> int:
        return sum(n for n, _ in self.checks.values())

    @property
    def failed(self) -> int:
        return sum(f for _, f in self.checks.values())

    def check(self, kind: str, ok: bool, what: str) -> None:
        self.checks[kind][0] += 1
        if not ok:
            self.checks[kind][1] += 1
            if len(self.failures) < 20:
                self.failures.append(what)


@dataclass
class Prepared:
    """In-process references for one pass, built before it is timed."""

    seed: int
    eval_ids: list[str]
    expected: list[tuple]       # (scenario, format, action, text, hazard_ids)
    candidates: list[str]       # near-miss pairs (text == "near_miss")
    references: list[str]


def prepare(spec: Spec, seed: int) -> Prepared:
    # generate() is prefix-stable: the first n scenarios are the ones simgen writes.
    gen = simgen.GenSpec(n_scenarios=spec.n_decide, seed=seed,
                         suite=simgen.Suite.MIXED, agent_density=spec.density)
    scenarios = simgen.generate(gen)
    _, eval_set = simgen.split(scenarios[:spec.n], spec.train_frac, seed)
    expected = []
    for s in scenarios:
        for fmt in FORMATS:
            d = rule_oracle_decide(s, fmt)
            text = d.rationale_long if fmt is Format.LONG else d.rationale_short
            expected.append((s, fmt, d.action, text, d.hazard_ids))
    candidates, references = [], []
    if spec.text == "near_miss":
        for s in eval_set:
            mirror = simgen.mirror_scenario(s, s.id + "-mirror")
            candidates.append(rule_oracle_decide(mirror, Format.LONG).rationale_long)
            references.append(rule_oracle_decide(s, Format.LONG).rationale_long)
    return Prepared(seed, [s.id for s in eval_set], expected, candidates, references)


def _cli(argv: list[str]) -> int:
    with contextlib.redirect_stdout(io.StringIO()):
        return cli.main(argv)


#: Decide-phase time between two reference timings. A phase of the
#: in-process rule oracle (a few ms) is one slice; an exec phase (~1 s) is
#: ~20, so a change of machine speed within the phase is tracked.
DECIDE_SLICE_S = 0.05


class DecideSamples:
    """Every decide round trip of a run, raw and normalised.

    The buffers are allocated in full up front, so the harness's memory,
    and with it peak_rss_mb, does not grow with the number of passes a
    faster program fits into a run. CAPACITY is about eight times the
    samples of a 30 s run; samples beyond it are counted but not kept.
    """

    CAPACITY = 1 << 18

    def __init__(self) -> None:
        self.raw = array("d", bytes(8 * self.CAPACITY))
        self.scaled = array("d", bytes(8 * self.CAPACITY))
        self.kept = 0
        self.seen = 0

    def add(self, samples: list[float], factor: float) -> None:
        self.seen += len(samples)
        for t in samples[:self.CAPACITY - self.kept]:
            self.raw[self.kept] = t
            self.scaled[self.kept] = t * factor
            self.kept += 1

    def quantile(self, q: float, raw: bool = False) -> float:
        return quantile((self.raw if raw else self.scaled)[:self.kept], q)


def _decide_phase(prep: Prepared, oracle, tracer, refs: list[float], res,
                  kept: DecideSamples | None) -> list:
    """Send every prepared request, one in flight, timing each ``decide()``.

    After each DECIDE_SLICE_S of requests the phase times the reference,
    and scales the slice's samples by the references around it; they go
    to ``kept``, if given.
    """
    clock = time.perf_counter
    replies = []
    raw_total = total = 0.0
    requests = iter(prep.expected)
    while len(replies) < len(prep.expected):
        samples = []
        with tracer.span("stage.decide"):
            t0 = clock()
            for scenario, fmt, *_ in requests:
                t = clock()
                try:
                    reply = oracle.decide(scenario, fmt)
                except OracleError as e:
                    reply = e
                samples.append(clock() - t)
                replies.append(reply)
                if t - t0 >= DECIDE_SLICE_S:
                    break
            elapsed = clock() - t0
        refs.append(calibrate.time_reference())
        factor = calibrate.scale(refs[-2], refs[-1])
        if kept is not None:
            kept.add(samples, factor)
        raw_total += elapsed
        total += elapsed * factor
    res.raw_times["decide"] = raw_total
    res.times["decide"] = total
    res.scale["decide"] = total / raw_total
    return replies


def run_pass(spec: Spec, prep: Prepared, oracle, workdir: str, tracer,
             kept: DecideSamples | None = None, digests: bool = False) -> PassResult:
    """Run and time one pass in ``workdir``, then check its outputs.

    The decide samples go to ``kept``, if given.
    """
    res = PassResult()
    os.makedirs(workdir, exist_ok=True)
    p = lambda name: os.path.join(workdir, name)  # noqa: E731
    oracle_args = (["--oracle", exec_endpoint("-m", "vecdrive.oracle_server")]
                   if spec.external else [])
    seed = str(prep.seed)
    stages = [
        ("simgen", ["simgen", "--out", workdir, "--n", str(spec.n), "--seed", seed,
                    "--suite", "MIXED", "--density", repr(spec.density),
                    "--train-frac", repr(spec.train_frac)]),
        ("qagen", ["qagen", "--scenarios", p("scenarios.jsonl"), "--out", p("qa.jsonl")]),
        ("train", ["train", "--scenarios", p("scenarios_train.jsonl"), "--out", workdir,
                   "--epochs", str(spec.epochs), "--seed", seed, *oracle_args]),
        ("eval_plan", ["eval-plan", "--scenarios", p("scenarios_eval.jsonl"),
                       "--checkpoint", p("checkpoint.json"), "--out", workdir, *oracle_args]),
        ("eval_text", ["eval-text", "--scenarios", p("scenarios_eval.jsonl"),
                       "--format", "long", "--out", workdir, *oracle_args]),
        ("eval_actions", ["eval-actions", "--scenarios", p("scenarios_eval.jsonl"),
                          "--qa", p("qa.jsonl"), "--out", workdir, *oracle_args]),
        ("bench_oracle", ["bench-oracle", "--scenarios", p("scenarios_eval.jsonl"),
                          "--out", workdir, *oracle_args]),
        ("report", ["report", "--dir", workdir]),
    ]
    codes: dict[str, int] = {}
    text_row = None
    clock = time.perf_counter
    raw = res.raw_times
    refs = [calibrate.time_reference()]
    for stage, argv in stages:
        with tracer.span("stage." + stage):
            t0 = clock()
            if stage == "eval_text" and spec.text == "near_miss":
                try:
                    text_row = planmetrics.evaluate_explanations(prep.candidates, prep.references)
                    codes[stage] = 0
                except ValueError:
                    codes[stage] = -1
            else:
                codes[stage] = _cli(argv)
            raw[stage] = clock() - t0
        refs.append(calibrate.time_reference())
    for k, stage in enumerate(raw):
        res.scale[stage] = calibrate.scale(refs[k], refs[k + 1])
        res.times[stage] = raw[stage] * res.scale[stage]
    replies = _decide_phase(prep, oracle, tracer, refs, res, kept)
    res.refs = refs
    res.wall_s = sum(res.times.values())
    # The in-process rule oracle is the reference itself: its replies have nothing to check.
    if isinstance(oracle, RuleOracle):
        replies = []
    _check_outputs(spec, prep, workdir, codes, text_row, replies, res)
    if digests:
        res.digests = _digests(workdir, text_row)
    return res


# --- output checks ----------------------------------------------------------------

def _read_json(path: str):
    with open(path, "r", encoding="utf-8") as fh:
        return jsonio.loads(fh.read())


def _check_outputs(spec, prep, workdir, codes, text_row, replies, res: PassResult) -> None:
    p = lambda name: os.path.join(workdir, name)  # noqa: E731
    for stage, code in codes.items():
        ok = code == 0
        try:
            if ok and stage == "simgen":
                ok = _ids(p("scenarios_eval.jsonl")) == prep.eval_ids
            elif ok and stage == "train":
                with open(p("loss_curve.csv"), "r", encoding="utf-8") as fh:
                    losses = [float(row["mean_loss"]) for row in csv.DictReader(fh)]
                ok = len(losses) == spec.epochs and all(math.isfinite(x) for x in losses)
            elif ok and stage == "eval_plan":
                rows = {name: report.plan_row_from_dict(r)
                        for name, r in _read_json(p("eval_plan.json"))["rows"].items()}
                if spec.check_l2:
                    ok = rows["planner"].l2["avg"] < rows["const-velocity"].l2["avg"]
            elif ok and stage == "eval_text":
                if text_row is None:
                    for r in _read_json(p("eval_text.json"))["rows"].values():
                        report.text_row_from_dict(r)
                else:
                    text_row.validate()
            elif ok and stage == "eval_actions":
                rows = _read_json(p("eval_actions.json"))["rows"]
                ok = all(r["accuracy"] == 100.0 for r in rows.values())
        except (OSError, ValueError, KeyError, TypeError) as e:
            ok = False
            stage = f"{stage}: {type(e).__name__}: {e}"
        res.check("stage", ok, f"stage {stage} (exit {code})")
    for (scenario, fmt, action, text, hazard_ids), reply in zip(prep.expected, replies):
        ok = (not isinstance(reply, Exception) and reply.action is action
              and reply.hazard_ids == hazard_ids
              and (reply.rationale_long if fmt is Format.LONG else reply.rationale_short) == text)
        res.check("decide", ok, f"decide {scenario.id} {fmt.value}: {reply!r}")


def quantile(samples: list[float], q: float) -> float:
    """Nearest-rank quantile."""
    ordered = sorted(samples)
    rank = math.ceil(q * len(ordered))
    return ordered[max(rank, 1) - 1]


def _ids(path: str) -> list[str]:
    with open(path, "r", encoding="utf-8") as fh:
        return [jsonio.loads(line)["id"] for line in fh if line.strip()]


#: Result files whose bytes are a function of the inputs alone.
DIGEST_FILES = ("scenarios.jsonl", "qa.jsonl", "checkpoint.json", "loss_curve.csv",
                "eval_plan.json", "eval_text.json", "eval_actions.json")


def _digests(workdir: str, text_row) -> dict[str, str]:
    out = {}
    for name in DIGEST_FILES:
        path = os.path.join(workdir, name)
        if name == "eval_text.json" and text_row is not None:
            data = (jsonio.dumps({"rows": {"near_miss": report.text_row_to_dict(text_row)}})
                    + "\n").encode("utf-8")
        else:
            with open(path, "rb") as fh:
                data = fh.read()
        out[name] = hashlib.sha256(data).hexdigest()
    return out


def open_decide_oracle(spec: Spec, fault_every: int = 0):
    """The oracle of the decide phase: the exec server or the in-process rule oracle.

    With ``fault_every`` (smoke test only) it is a server that corrupts
    every k-th reply.
    """
    if fault_every:
        here = os.path.dirname(os.path.abspath(__file__))
        return open_oracle(exec_endpoint(os.path.join(here, "faulty_oracle.py"),
                                         "--every", str(fault_every)))
    return open_oracle(exec_endpoint("-m", "vecdrive.oracle_server") if spec.external
                       else "rule")
