"""Command-line pipeline driver.

Subcommands compose into the full experimental workflow over synthetic
data: generate scenarios, generate the QA dataset, train the planner with
a frozen oracle supplying commands, then evaluate displacement/collision,
explanation quality, planning accuracy and oracle latency.

    vecdrive simgen --out runs/demo --n 200 --seed 7 --suite MIXED --train-frac 0.8
    vecdrive qagen --scenarios runs/demo/scenarios.jsonl --out runs/demo/qa.jsonl
    vecdrive train --scenarios runs/demo/scenarios_train.jsonl --out runs/demo
    vecdrive eval-plan --scenarios runs/demo/scenarios_eval.jsonl \
        --checkpoint runs/demo/checkpoint.json --out runs/demo
    vecdrive eval-text --scenarios runs/demo/scenarios_eval.jsonl --out runs/demo
    vecdrive eval-actions --scenarios runs/demo/scenarios_eval.jsonl \
        --qa runs/demo/qa.jsonl --out runs/demo
    vecdrive bench-oracle --scenarios runs/demo/scenarios_eval.jsonl --out runs/demo
    vecdrive report --dir runs/demo

Exit codes: 0 success, 2 configuration error, 3 I/O error, 4 numerical
divergence during training, 5 external-oracle failure.

``--config FILE`` supplies defaults for any flag (JSON object keyed by
the long flag name with dashes replaced by underscores); explicit flags
win. The ``--oracle`` endpoint is ``rule``, ``exec:CMD`` or
``tcp:HOST:PORT``. ``VLAD_LOG=debug|info|warn`` controls diagnostics on
stderr; results go to stdout and ``--out`` files only.
"""

from __future__ import annotations

import argparse
import contextlib
import logging
import math
import os
import sys
import time

import numpy as np

from . import jsonio
from .external import MAX_TIMEOUT, OracleError, open_oracle
from .oracle import (
    Format,
    QATask,
    RuleOracle,
    generate_qa,
    planning_accuracy,
    qa_item_from_dict,
    qa_item_to_dict,
    rule_oracle_decide,
)
from .planmetrics import (
    collision_horizons,
    evaluate_explanations,
    l2_horizons,
    latency_stats,
    mean_rows,
)
from .planner import (
    CheckpointError,
    PlannerConfig,
    PlannerError,
    TrainingDiverged,
    forward,
    init_model,
    load_checkpoint,
    save_checkpoint,
    train,
)
from .report import (
    accuracy_from_dict,
    latency_from_dict,
    plan_row_from_dict,
    render_actions_table,
    render_confusion,
    render_latency_table,
    render_plan_table,
    render_text_table,
    text_row_from_dict,
    text_row_to_dict,
)
from .rng import check_seed
from .scene import (
    MetaAction,
    ScenarioLoadError,
    ValidationError,
    load_scenarios,
    scenario_json,
)
from .simgen import GenSpec, Suite, constant_velocity_future, generate, split

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_IO = 3
EXIT_DIVERGENCE = 4
EXIT_ORACLE = 5

log = logging.getLogger("vecdrive")


class ConfigError(Exception):
    pass


#: Exception types -> exit code; the first row that matches wins, so
#: TrainingDiverged comes before its base class PlannerError.
_EXIT_CODES = (
    ((TrainingDiverged,), EXIT_DIVERGENCE),
    ((ConfigError, ValidationError, ValueError, PlannerError), EXIT_CONFIG),
    ((ScenarioLoadError, OSError), EXIT_IO),
    ((OracleError,), EXIT_ORACLE),
)

#: Result stem -> renderer of the ``rows`` object of ``<stem>.json``. The
#: commands print their tables through it and ``report`` re-renders the
#: same bytes; ``eval_actions`` appends each row's confusion matrix.
_TABLES = {
    "eval_plan": lambda rows: render_plan_table(
        {name: plan_row_from_dict(r) for name, r in rows.items()}),
    "eval_text": lambda rows: render_text_table(
        {name: text_row_from_dict(r) for name, r in rows.items()}),
    "eval_actions": lambda rows: render_actions_table(
        {name: accuracy_from_dict(r) for name, r in rows.items()}) + "".join(
        render_confusion(r["confusion"]) for r in rows.values() if r.get("confusion")),
    "bench": lambda rows: render_latency_table(
        {name: latency_from_dict(r) for name, r in rows.items()}),
}


def _setup_logging() -> None:
    level_name = os.environ.get("VLAD_LOG", "warn").lower()
    levels = {"debug": logging.DEBUG, "info": logging.INFO, "warn": logging.WARNING}
    if level_name not in levels:
        raise ConfigError(f"VLAD_LOG must be debug|info|warn, got {level_name!r}")
    logging.basicConfig(stream=sys.stderr, level=levels[level_name],
                        format="%(levelname)s %(name)s: %(message)s")


#: Flag ``type`` (None for a string) -> the JSON values a config file may
#: give that flag, and their description; a bool is never a number.
_CONFIG_TYPES = {int: (int, "an integer"), float: ((int, float), "a number"),
                 None: (str, "a string")}


def _flag_types(parser: argparse.ArgumentParser, command: str) -> dict:
    """dest -> argparse ``type`` of each flag of one subcommand, --help aside."""
    sub = next(a for a in parser._actions if a.dest == "command")
    return {a.dest: a.type for a in sub.choices[command]._actions
            if a.option_strings and a.default != argparse.SUPPRESS}


def _apply_config_file(args: argparse.Namespace, flag_types: dict) -> None:
    """Fill None-valued flags from the --config JSON object.

    A key named after the subcommand may hold a section of
    command-specific values; it is applied before the top-level keys, so
    one config file can drive the whole pipeline. Explicit flags always
    win. A value must have the JSON type its flag parses to (``null``
    leaves the flag unset); float flags take ints.
    """
    path = getattr(args, "config", None)
    if not path:
        return
    try:
        with open(path, "r", encoding="utf-8") as fh:
            obj = jsonio.loads(fh.read())
    except OSError as e:
        raise ConfigError(f"cannot read config {path}: {e}") from None
    except ValueError as e:
        raise ConfigError(f"config {path}: invalid JSON: {e}") from None
    if not isinstance(obj, dict):
        raise ConfigError(f"config {path}: expected a JSON object")
    section = obj.get(args.command, {})
    if not isinstance(section, dict):
        raise ConfigError(f"config {path}: section {args.command!r} must be an object")
    for source in (section, obj):
        for key, value in source.items():
            attr = key.replace("-", "_")
            if attr not in flag_types or getattr(args, attr) is not None or value is None:
                continue
            accepted, kind = _CONFIG_TYPES[flag_types[attr]]
            if isinstance(value, bool) or not isinstance(value, accepted):
                raise ConfigError(f"config {path}: {key!r} must be {kind}, "
                                  f"got {type(value).__name__}")
            if flag_types[attr] is float:
                try:
                    value = float(value)
                except OverflowError:
                    raise ConfigError(f"config {path}: {key!r} is outside the float "
                                      "range") from None
            setattr(args, attr, value)


def _require(args: argparse.Namespace, names: list[str]) -> None:
    for name in names:
        if getattr(args, name) is None:
            flag = "--" + name.replace("_", "-")
            raise ConfigError(f"missing required option {flag}")


def _out_dir(args: argparse.Namespace) -> str:
    out = args.out
    try:
        os.makedirs(out, exist_ok=True)
    except OSError as e:
        raise ConfigError(f"--out {out}: {e}") from None
    return out


def _eval_scenarios(args: argparse.Namespace, *extra_required: str) -> list:
    """Check ``--scenarios``, the extra flags and ``--out``; load a non-empty set."""
    _require(args, ["scenarios", *extra_required, "out"])
    scenarios = load_scenarios(args.scenarios)
    if not scenarios:
        raise ConfigError(f"{args.scenarios} holds no scenarios")
    return scenarios


def _publish(args: argparse.Namespace, stem: str, rows: dict) -> int:
    """Write ``<stem>.json`` and ``<stem>.txt`` under ``--out`` and print the table."""
    table = _TABLES[stem](rows)
    out = _out_dir(args)
    jsonio.write_atomic(os.path.join(out, f"{stem}.json"), jsonio.dumps({"rows": rows}) + "\n")
    jsonio.write_atomic(os.path.join(out, f"{stem}.txt"), table)
    print(table, end="")
    return EXIT_OK


@contextlib.contextmanager
def _oracle(args: argparse.Namespace):
    timeout = float(args.timeout)
    if not (0 < timeout <= MAX_TIMEOUT):
        raise ConfigError(f"--timeout must be a finite number of seconds above 0 "
                          f"and at most {MAX_TIMEOUT:g}, got {timeout!r}")
    oracle = open_oracle(args.oracle, timeout=timeout)
    try:
        yield oracle
    finally:
        close = getattr(oracle, "close", None)
        if close is not None:
            close()


def _gen_spec(args: argparse.Namespace) -> GenSpec:
    spec = GenSpec(
        n_scenarios=int(args.n), seed=int(args.seed), suite=Suite.parse(args.suite),
        agent_density=float(args.density),
        speed_range=(float(args.speed_min), float(args.speed_max)),
    )
    spec.validate()
    return spec


def _planner_config(args: argparse.Namespace) -> PlannerConfig:
    config = PlannerConfig(d_model=int(args.d_model), n_heads=int(args.n_heads),
                           hidden=int(args.hidden))
    config.validate()
    return config


def _commands(oracle, scenarios):
    """Each scenario's planner command, decided lazily: the oracle's, not the route intent."""
    return (oracle.decide(s, Format.SHORT).action for s in scenarios)


# --- subcommands ---------------------------------------------------------------

def cmd_simgen(args: argparse.Namespace) -> int:
    _require(args, ["out"])
    spec = _gen_spec(args)
    frac = None if args.train_frac is None else float(args.train_frac)
    if frac is not None and not (0.0 < frac < 1.0):
        raise ConfigError(f"--train-frac {frac} outside (0, 1)")
    out = _out_dir(args)
    scenarios = generate(spec)     # validated, with distinct ids
    lines = {s.id: scenario_json(s) + "\n" for s in scenarios}
    jsonio.write_atomic(os.path.join(out, "scenarios.jsonl"), "".join(lines.values()))
    print(f"wrote {len(scenarios)} scenarios to {out}/scenarios.jsonl")
    if frac is not None:
        train_set, eval_set = split(scenarios, frac, spec.seed)
        for name, part in (("train", train_set), ("eval", eval_set)):
            jsonio.write_atomic(os.path.join(out, f"scenarios_{name}.jsonl"),
                                "".join(lines[s.id] for s in part))
        print(f"split {len(train_set)} train / {len(eval_set)} eval")
    return EXIT_OK


def cmd_qagen(args: argparse.Namespace) -> int:
    _require(args, ["scenarios", "out"])
    scenarios = load_scenarios(args.scenarios)
    counts = {task: 0 for task in QATask}
    actions = {action: 0 for action in MetaAction}
    lines = []
    for scenario in scenarios:
        for item in generate_qa(scenario):
            counts[item.task] += 1
            if item.gt_action is not None:
                actions[item.gt_action] += 1
            lines.append(jsonio.dumps(qa_item_to_dict(item)))
    jsonio.write_atomic(args.out, "".join(line + "\n" for line in lines))
    total = sum(counts.values())
    print(f"wrote {total} QA items to {args.out}")
    for task in QATask:
        print(f"  {task.value}: {counts[task]}")
    print("planning gt_action distribution: "
          + ", ".join(f"{a.value}={actions[a]}" for a in MetaAction))
    return EXIT_OK


def cmd_train(args: argparse.Namespace) -> int:
    _require(args, ["scenarios", "out"])
    config = _planner_config(args)
    seed = check_seed(int(args.seed))
    scenarios = load_scenarios(args.scenarios)
    out = _out_dir(args)
    model = init_model(config, seed)
    log.info("training on %d scenarios for %d epochs (lr=%g, seed=%d)",
             len(scenarios), int(args.epochs), float(args.lr), seed)

    def commands():
        # train reads them after its own checks, so a bad --epochs or --lr
        # is refused before the oracle starts.
        with _oracle(args) as oracle:
            yield from _commands(oracle, scenarios)

    trained, curve = train(model, scenarios, commands(),
                           epochs=int(args.epochs), lr=float(args.lr), seed=seed)
    checkpoint_path = os.path.join(out, "checkpoint.json")
    save_checkpoint(trained, checkpoint_path)
    curve_lines = ["epoch,mean_loss"]
    curve_lines += [f"{i},{jsonio.format_float(loss)}" for i, loss in enumerate(curve)]
    jsonio.write_atomic(os.path.join(out, "loss_curve.csv"), "\n".join(curve_lines) + "\n")
    print(f"wrote {checkpoint_path}")
    print(f"final mean loss {curve[-1]:.6f} (initial {curve[0]:.6f})")
    if curve[-1] > curve[0]:
        log.warning("training ended worse than it started: final mean loss %.6f is above "
                    "the first epoch's %.6f; see loss_curve.csv, and try a smaller --lr",
                    curve[-1], curve[0])
    return EXIT_OK


def cmd_eval_plan(args: argparse.Namespace) -> int:
    if args.predict not in ("model", "gt"):
        raise ConfigError(f"--predict must be model|gt, got {args.predict!r}")
    use_model = args.predict == "model"
    scenarios = _eval_scenarios(args, *(["checkpoint"] if use_model else []))
    model = load_checkpoint(args.checkpoint) if use_model else None
    rows_l2 = {"planner": [], "const-velocity": []}
    rows_col = {"planner": [], "const-velocity": []}
    # As in train: a non-finite prediction is reported below, not by numpy.
    with _oracle(args) as oracle, np.errstate(over="ignore", invalid="ignore"):
        for scenario, command in zip(scenarios, _commands(oracle, scenarios)):
            if model is not None:
                pred = forward(model, scenario, command)
                if not all(math.isfinite(c) for point in pred for c in point):
                    raise CheckpointError(f"{args.checkpoint}: non-finite prediction for "
                                          f"scenario {scenario.id!r}")
            else:
                pred = scenario.gt_future
            ego = scenario.ego
            baseline = constant_velocity_future(ego.position, ego.heading, ego.speed)
            rows_l2["planner"].append(l2_horizons(pred, scenario.gt_future))
            rows_l2["const-velocity"].append(l2_horizons(baseline, scenario.gt_future))
            rows_col["planner"].append(collision_horizons(pred, ego, scenario.agents))
            rows_col["const-velocity"].append(
                collision_horizons(baseline, ego, scenario.agents))
    return _publish(args, "eval_plan", {
        name: {"l2": mean_rows(rows_l2[name]), "collision": mean_rows(rows_col[name])}
        for name in ("planner", "const-velocity")
    })


def cmd_eval_text(args: argparse.Namespace) -> int:
    fmt = Format.parse(args.format)
    scenarios = _eval_scenarios(args)
    candidates, references = [], []
    with _oracle(args) as oracle:
        # The rule oracle's candidate is its own reference: decisions are deterministic.
        rule = isinstance(oracle, RuleOracle)
        for scenario in scenarios:
            candidate = oracle.decide(scenario, fmt).rationale(fmt)
            candidates.append(candidate)
            references.append(candidate if rule else
                              rule_oracle_decide(scenario, fmt).rationale(fmt))
    row = evaluate_explanations(candidates, references)
    return _publish(args, "eval_text", {args.oracle: text_row_to_dict(row)})


def cmd_eval_actions(args: argparse.Namespace) -> int:
    scenarios = _eval_scenarios(args, "qa")
    labels = {}
    with open(args.qa, "rb") as fh:
        for lineno, raw in enumerate(fh, 1):
            try:    # decoded per line, so bytes that are not UTF-8 get a line number
                line = raw.decode("utf-8")
                if not line.strip():
                    continue
                item = qa_item_from_dict(jsonio.loads(line))
            except (ValueError, ValidationError) as e:
                raise ConfigError(f"{args.qa}:{lineno}: {e}") from None
            if item.task is QATask.PLANNING:
                if item.scenario_id in labels:
                    raise ConfigError(f"{args.qa}:{lineno}: a second planning item for "
                                      f"scenario {item.scenario_id!r}")
                labels[item.scenario_id] = item.gt_action
    missing = [s.id for s in scenarios if s.id not in labels]
    if missing:
        raise ConfigError(f"{args.qa} lacks planning labels for {len(missing)} "
                          f"scenarios (first missing: {missing[0]!r})")
    decided, expected = [], []
    confusion: dict[str, dict[str, int]] = {
        a.value: {b.value: 0 for b in MetaAction} for a in MetaAction
    }
    with _oracle(args) as oracle:
        for scenario, decision in zip(scenarios, _commands(oracle, scenarios)):
            label = labels[scenario.id]
            decided.append(decision)
            expected.append(label)
            confusion[label.value][decision.value] += 1
    accuracy = planning_accuracy(decided, expected)
    rows = {args.oracle: {"accuracy": accuracy, "confusion": confusion}}
    return _publish(args, "eval_actions", rows)


def cmd_bench_oracle(args: argparse.Namespace) -> int:
    scenarios = _eval_scenarios(args)
    warmup = int(args.warmup)
    if warmup < 0:
        raise ConfigError(f"--warmup must be 0 or more, got {warmup}")
    rows = {}
    with _oracle(args) as oracle:
        for label, fmt in (("Long", Format.LONG), ("Short", Format.SHORT)):
            for scenario in scenarios[:warmup]:
                oracle.decide(scenario, fmt)
            samples = []
            for scenario in scenarios:
                start = time.perf_counter()
                oracle.decide(scenario, fmt)
                samples.append(time.perf_counter() - start)
            rows[label] = latency_stats(samples)
    return _publish(args, "bench", rows)


def cmd_report(args: argparse.Namespace) -> int:
    _require(args, ["dir"])
    found = False
    for stem, render in _TABLES.items():
        path = os.path.join(args.dir, f"{stem}.json")
        if not os.path.exists(path):
            continue
        found = True
        with open(path, "rb") as fh:
            data = fh.read()
        try:
            table = render(jsonio.loads(data.decode("utf-8"))["rows"])
        except (KeyError, TypeError, AttributeError, ValueError, OverflowError) as e:
            raise ConfigError(f"{path}: malformed result file "
                              f"({type(e).__name__}: {e})") from None
        print(f"== {stem}.json ==")
        print(table, end="")
    if not found:
        raise ConfigError(f"no report artifacts found in {args.dir}")
    return EXIT_OK


# --- parser ----------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="vecdrive",
        description="Synthetic-scene trajectory planning pipeline: generation, "
                    "QA data, training, and the open-loop evaluation battery.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, func, help_text, **defaults):
        p = sub.add_parser(name, help=help_text)
        p.set_defaults(func=func, command_defaults=defaults)
        p.add_argument("--config", help="JSON file supplying defaults for any flag")
        return p

    def add_oracle(p, help_text):
        p.add_argument("--oracle", help=help_text)
        p.add_argument("--timeout", type=float,
                       help=f"external oracle timeout seconds, above 0 and at most "
                            f"{MAX_TIMEOUT:g}")

    p = add("simgen", cmd_simgen, "generate scenario datasets", n=100, seed=0,
            suite="MIXED", density=0.5, speed_min=2.0, speed_max=6.0)
    p.add_argument("--out", help="output directory")
    p.add_argument("--n", type=int, help="number of scenarios (default 100)")
    p.add_argument("--seed", type=int, help="generator seed (default 0)")
    p.add_argument("--suite", help="CRUISE|TURNS|HAZARD_VRU|SYMMETRIC_FORK|MIXED")
    p.add_argument("--density", type=float, help="agent density in [0,1] (default 0.5)")
    p.add_argument("--speed-min", type=float, dest="speed_min", help="min ego speed m/s")
    p.add_argument("--speed-max", type=float, dest="speed_max", help="max ego speed m/s")
    p.add_argument("--train-frac", type=float, dest="train_frac",
                   help="also write a train/eval split with this train fraction")

    p = add("qagen", cmd_qagen, "generate the ground-truth QA dataset")
    p.add_argument("--scenarios", help="scenario JSONL input")
    p.add_argument("--out", help="QA JSONL output path")

    p = add("train", cmd_train, "train the planner with a frozen oracle", epochs=50,
            lr=1e-2, seed=7, d_model=32, n_heads=2, hidden=64, oracle="rule", timeout=10.0)
    p.add_argument("--scenarios", help="training scenario JSONL")
    p.add_argument("--out", help="output directory for checkpoint.json / loss_curve.csv")
    p.add_argument("--epochs", type=int, help="training epochs (default 50)")
    p.add_argument("--lr", type=float, help="SGD learning rate (default 1e-2)")
    p.add_argument("--seed", type=int, help="init + shuffle seed in [0, 2^64) (default 7)")
    p.add_argument("--d-model", type=int, dest="d_model", help="model width (default 32)")
    p.add_argument("--n-heads", type=int, dest="n_heads", help="attention heads (default 2)")
    p.add_argument("--hidden", type=int, help="MLP hidden width (default 64)")
    add_oracle(p, "rule | exec:CMD | tcp:HOST:PORT (default rule)")

    p = add("eval-plan", cmd_eval_plan, "displacement and collision table",
            oracle="rule", predict="model", timeout=10.0)
    p.add_argument("--scenarios", help="evaluation scenario JSONL")
    p.add_argument("--checkpoint", help="planner checkpoint (for --predict model)")
    p.add_argument("--predict", help="model | gt (default model)")
    add_oracle(p, "oracle endpoint supplying commands")
    p.add_argument("--out", help="output directory")

    p = add("eval-text", cmd_eval_text, "explanation-quality table",
            oracle="rule", format="long", timeout=10.0)
    p.add_argument("--scenarios", help="evaluation scenario JSONL")
    add_oracle(p, "oracle under test (default rule)")
    p.add_argument("--format", help="short | long (default long)")
    p.add_argument("--out", help="output directory")

    p = add("eval-actions", cmd_eval_actions, "planning accuracy vs stored labels",
            oracle="rule", timeout=10.0)
    p.add_argument("--scenarios", help="evaluation scenario JSONL")
    p.add_argument("--qa", help="QA JSONL holding planning labels")
    add_oracle(p, "oracle under test (default rule)")
    p.add_argument("--out", help="output directory")

    p = add("bench-oracle", cmd_bench_oracle, "oracle latency per rationale format",
            oracle="rule", timeout=10.0, warmup=3)
    p.add_argument("--scenarios", help="evaluation scenario JSONL")
    add_oracle(p, "oracle to benchmark (default rule)")
    p.add_argument("--warmup", type=int, help="warm-up calls excluded (default 3)")
    p.add_argument("--out", help="output directory")

    p = add("report", cmd_report, "render stored evaluation JSON as tables")
    p.add_argument("--dir", help="directory holding eval_*.json / bench.json")

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        _setup_logging()
        _apply_config_file(args, _flag_types(parser, args.command))
        for name, value in args.command_defaults.items():
            if getattr(args, name) is None:
                setattr(args, name, value)
        return args.func(args)
    except Exception as e:
        for types, code in _EXIT_CODES:
            if isinstance(e, types):
                print(f"error: {e}", file=sys.stderr)
                return code
        raise


if __name__ == "__main__":
    sys.exit(main())
