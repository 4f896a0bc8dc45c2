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

``vecdrive CMD --help`` shows each flag's default or "(required)".
``--config FILE`` supplies defaults for any flag: a JSON object keyed by
long flag names, where a key named after a command holds its section.
Explicit flags win; a key that names no flag, or two keys of one object
that name one flag, are configuration errors. The ``--oracle`` endpoint
is ``rule``, ``exec:CMD`` or ``tcp:HOST:PORT``. ``VLAD_LOG=debug|info|warn``
controls diagnostics on stderr; results go to stdout and ``--out`` files only.

Importing this module does not import numpy. ``planner``, the one module
that needs it, is registered lazily (``_lazy_module``) and called through
the module, so it and numpy load only in ``train`` and ``eval-plan
--predict model``; the other stages start ≈65 ms sooner. The planner's
exceptions come from the numpy-free ``planner_errors``.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib.util
import logging
import math
import os
import sys
import time

from . import jsonio
from .external import DEFAULT_TIMEOUT, MAX_TIMEOUT, OracleError, open_oracle
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
from .planner_errors import CheckpointError, PlannerError, TrainingDiverged
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


def _lazy_module(name: str):
    """Module ``name``, executed on its first attribute access.

    The stdlib ``importlib.util.LazyLoader`` recipe. A module already
    imported is returned as it is; a new lazy one goes into
    ``sys.modules`` and is bound on its package, as an import would bind
    it, so ``import``, this module and ``perfbench/tracer.py`` (which
    wraps functions through ``sys.modules``) all see one object.
    """
    module = sys.modules.get(name)
    if module is None:
        spec = importlib.util.find_spec(name)
        spec.loader = importlib.util.LazyLoader(spec.loader)
        module = importlib.util.module_from_spec(spec)
        sys.modules[name] = module
        spec.loader.exec_module(module)
        package, _, child = name.rpartition(".")
        setattr(sys.modules[package], child, module)
    return module


#: The planner and numpy load on the first call through it, so only
#: ``train`` and ``eval-plan --predict model`` pay for them.
planner = _lazy_module(f"{__package__}.planner")

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


def _out_dir(args: argparse.Namespace) -> str:
    out = args.out
    try:
        os.makedirs(out, exist_ok=True)
    except OSError as e:
        raise ConfigError(f"--out {out}: {e}") from None
    return out


def _eval_scenarios(args: argparse.Namespace) -> list:
    """The ``--scenarios`` set, refused if it is empty."""
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
    if not (0 < args.timeout <= MAX_TIMEOUT):
        raise ConfigError(f"--timeout must be a finite number of seconds above 0 "
                          f"and at most {MAX_TIMEOUT:g}, got {args.timeout!r}")
    oracle = open_oracle(args.oracle, timeout=args.timeout)
    try:
        yield oracle
    finally:
        close = getattr(oracle, "close", None)
        if close is not None:
            close()


def _gen_spec(args: argparse.Namespace) -> GenSpec:
    spec = GenSpec(n_scenarios=args.n, seed=args.seed, suite=Suite.parse(args.suite),
                   agent_density=args.density, speed_range=(args.speed_min, args.speed_max))
    spec.validate()
    return spec


def _planner_config(args: argparse.Namespace) -> planner.PlannerConfig:
    config = planner.PlannerConfig(d_model=args.d_model, n_heads=args.n_heads,
                                   hidden=args.hidden)
    config.validate()
    return config


def _commands(oracle, scenarios):
    """Each scenario's planner command, decided lazily: the oracle's, not the route intent."""
    return (oracle.decide(s, Format.SHORT).action for s in scenarios)


def _non_finite_key(row: dict[str, float]) -> str | None:
    """The first key of ``row`` whose value is not finite, or None."""
    return next((key for key, value in row.items() if not math.isfinite(value)), None)


# --- subcommands ---------------------------------------------------------------

def cmd_simgen(args: argparse.Namespace) -> int:
    spec = _gen_spec(args)
    scenarios = generate(spec)     # validated, with distinct ids
    if args.train_frac is not None:
        try:    # before any write, so a refused split leaves --out as it was
            train_set, eval_set = split(scenarios, args.train_frac, spec.seed)
        except ValueError as e:
            raise ConfigError(f"--train-frac: {e}") from None
    out = _out_dir(args)
    lines = {s.id: scenario_json(s) + "\n" for s in scenarios}
    jsonio.write_atomic(os.path.join(out, "scenarios.jsonl"), "".join(lines.values()))
    print(f"wrote {len(scenarios)} scenarios to {out}/scenarios.jsonl")
    if args.train_frac is not None:
        for name, part in (("train", train_set), ("eval", eval_set)):
            jsonio.write_atomic(os.path.join(out, f"scenarios_{name}.jsonl"),
                                "".join(lines[s.id] for s in part))
        print(f"split {len(train_set)} train / {len(eval_set)} eval")
    return EXIT_OK


def cmd_qagen(args: argparse.Namespace) -> int:
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
    config = _planner_config(args)
    seed = check_seed(args.seed)
    scenarios = load_scenarios(args.scenarios)
    out = _out_dir(args)
    model = planner.init_model(config, seed)
    log.info("training on %d scenarios for %d epochs (lr=%g, seed=%d)",
             len(scenarios), args.epochs, args.lr, seed)

    def commands():
        # train reads them after its own checks, so a bad --epochs or --lr
        # is refused before the oracle starts.
        with _oracle(args) as oracle:
            yield from _commands(oracle, scenarios)

    trained, curve = planner.train(model, scenarios, commands(),
                                   epochs=args.epochs, lr=args.lr, seed=seed)
    checkpoint_path = os.path.join(out, "checkpoint.json")
    planner.save_checkpoint(trained, checkpoint_path)
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
    if use_model and args.checkpoint is None:
        raise ConfigError("missing required option --checkpoint")
    scenarios = _eval_scenarios(args)
    model = planner.load_checkpoint(args.checkpoint) if use_model else None
    rows_l2 = {"planner": [], "const-velocity": []}
    rows_col = {"planner": [], "const-velocity": []}
    with _oracle(args) as oracle:
        for scenario, command in zip(scenarios, _commands(oracle, scenarios)):
            if model is not None:
                pred = planner.forward(model, scenario, command)
                if not all(math.isfinite(c) for point in pred for c in point):
                    raise CheckpointError(f"{args.checkpoint}: non-finite prediction for "
                                          f"scenario {scenario.id!r}")
            else:
                pred = scenario.gt_future
            baseline = constant_velocity_future((0.0, 0.0), 0.0, scenario.ego.speed)
            l2 = l2_horizons(pred, scenario.gt_future)
            # A finite prediction far enough out overflows the distance;
            # under --predict gt it is 0.
            key = _non_finite_key(l2)
            if key is not None:
                raise CheckpointError(f"{args.checkpoint}: l2[{key}] of scenario "
                                      f"{scenario.id!r} overflows to {l2[key]}")
            rows_l2["planner"].append(l2)
            rows_l2["const-velocity"].append(l2_horizons(baseline, scenario.gt_future))
            rows_col["planner"].append(collision_horizons(pred, scenario.agents))
            rows_col["const-velocity"].append(collision_horizons(baseline, scenario.agents))
    rows = {name: {"l2": mean_rows(rows_l2[name]), "collision": mean_rows(rows_col[name])}
            for name in ("planner", "const-velocity")}
    key = _non_finite_key(rows["planner"]["l2"])
    if key is not None:
        raise CheckpointError(f"{args.checkpoint}: the mean l2[{key}] over {len(scenarios)} "
                              f"scenarios overflows to {rows['planner']['l2'][key]}")
    return _publish(args, "eval_plan", rows)


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
    scenarios = _eval_scenarios(args)
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
    warmup = args.warmup
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


# --- flags -----------------------------------------------------------------------

#: Every flag once: dest -> (argparse ``type``, None for a string; help).
#: The flag is ``--`` + dest with dashes for underscores. Range checks
#: stay with the code that consumes the value.
FLAGS = {
    "config": (None, "JSON file supplying defaults for any flag"),
    "scenarios": (None, "scenario JSONL input"),
    "out": (None, "output directory (for qagen, the QA JSONL file)"),
    "n": (int, "number of scenarios"),
    "seed": (int, "random seed in [0, 2^64)"),
    "suite": (None, "CRUISE|TURNS|HAZARD_VRU|SYMMETRIC_FORK|MIXED"),
    "density": (float, "agent density in [0,1]"),
    "speed_min": (float, "min ego speed m/s"),
    "speed_max": (float, "max ego speed m/s"),
    "train_frac": (float, "also write a train/eval split with this train fraction"),
    "epochs": (int, "training epochs"),
    "lr": (float, "SGD learning rate"),
    "d_model": (int, "model width"),
    "n_heads": (int, "attention heads"),
    "hidden": (int, "MLP hidden width"),
    "checkpoint": (None, "planner checkpoint, needed for --predict model"),
    "predict": (None, "model | gt"),
    "format": (None, "short | long"),
    "qa": (None, "QA JSONL holding planning labels"),
    "oracle": (None, "oracle endpoint: rule | exec:CMD | tcp:HOST:PORT"),
    "timeout": (float, f"external oracle timeout seconds, above 0 and at most {MAX_TIMEOUT:g}"),
    "warmup": (int, "warm-up calls excluded"),
    "dir": (None, "directory holding eval_*.json / bench.json"),
}

#: The default of a flag the command cannot run without.
REQUIRED = object()

_ORACLE = {"oracle": "rule", "timeout": DEFAULT_TIMEOUT}

#: Subcommand -> (help, dest -> default or REQUIRED of each of its flags but
#: --config, in --help order); ``main`` runs ``cmd_<name>``. The planner sizes
#: are literals, so importing this module does not import numpy.
COMMANDS = {
    "simgen": ("generate scenario datasets", {
        "out": REQUIRED, "n": 100, "seed": 0, "suite": "MIXED", "density": 0.5,
        "speed_min": 2.0, "speed_max": 6.0, "train_frac": None}),
    "qagen": ("generate the ground-truth QA dataset", {"scenarios": REQUIRED, "out": REQUIRED}),
    "train": ("train the planner with a frozen oracle", {
        "scenarios": REQUIRED, "out": REQUIRED, "epochs": 50, "lr": 1e-2, "seed": 7,
        "d_model": 32, "n_heads": 2, "hidden": 64, **_ORACLE}),
    "eval-plan": ("displacement and collision table", {
        "scenarios": REQUIRED, "checkpoint": None, "predict": "model", **_ORACLE, "out": REQUIRED}),
    "eval-text": ("explanation-quality table", {
        "scenarios": REQUIRED, **_ORACLE, "format": "long", "out": REQUIRED}),
    "eval-actions": ("planning accuracy vs stored labels", {
        "scenarios": REQUIRED, "qa": REQUIRED, **_ORACLE, "out": REQUIRED}),
    "bench-oracle": ("oracle latency per rationale format", {
        "scenarios": REQUIRED, **_ORACLE, "warmup": 3, "out": REQUIRED}),
    "report": ("render stored evaluation JSON as tables", {"dir": REQUIRED}),
}


def command_flags(command: str) -> dict:
    """dest -> default (or REQUIRED) of each flag of ``command``, ``--config`` first."""
    return {"config": None, **COMMANDS[command][1]}


#: Flag ``type`` (None for a string) -> the JSON values a config file may
#: give that flag, and their description; a bool is never a number.
_CONFIG_TYPES = {int: (int, "an integer"), float: ((int, float), "a number"),
                 None: (str, "a string")}


def _apply_config_file(args: argparse.Namespace, flags: dict) -> None:
    """Fill None-valued ``flags`` of the command from the --config JSON object.

    The command's section is applied before the top-level keys; explicit
    flags win. A value must have its flag's JSON type (``null`` leaves the
    flag unset; float flags take ints). A key that names no flag (in the
    section, no flag of the command) and two keys of one object that name
    one flag (``n`` twice, ``speed-min`` and ``speed_min``) are refused.
    """
    path = args.config
    if not path:
        return

    def unique_flags(pairs: list) -> dict:
        seen = {}
        for key, _ in pairs:
            attr = key.replace("-", "_")
            if attr in seen:
                raise ConfigError(f"config {path}: {seen[attr]!r} and {key!r} name the same flag")
            seen[attr] = key
        return dict(pairs)

    try:
        with open(path, "r", encoding="utf-8") as fh:
            obj = jsonio.loads(fh.read(), object_pairs_hook=unique_flags)
    except OSError as e:
        raise ConfigError(f"cannot read config {path}: {e}") from None
    except ValueError as e:
        raise ConfigError(f"config {path}: invalid JSON: {e}") from None
    if not isinstance(obj, dict):
        raise ConfigError(f"config {path}: expected a JSON object")
    section = obj.get(args.command, {})
    if not isinstance(section, dict):
        raise ConfigError(f"config {path}: section {args.command!r} must be an object")
    top = {key: value for key, value in obj.items() if key not in COMMANDS}
    for source, known, scope in ((section, flags, f"a flag of {args.command}"),
                                 (top, FLAGS, "a flag or a command")):
        for key, value in source.items():
            attr = key.replace("-", "_")
            if attr not in known:
                raise ConfigError(f"config {path}: {key!r} is not {scope}")
            if attr not in flags or getattr(args, attr) is not None or value is None:
                continue
            flag_type = FLAGS[attr][0]
            accepted, kind = _CONFIG_TYPES[flag_type]
            if isinstance(value, bool) or not isinstance(value, accepted):
                raise ConfigError(f"config {path}: {key!r} must be {kind}, "
                                  f"got {type(value).__name__}")
            if flag_type is float:
                try:
                    value = float(value)
                except OverflowError:
                    raise ConfigError(f"config {path}: {key!r} is outside the float "
                                      "range") from None
            setattr(args, attr, value)


def build_parser() -> argparse.ArgumentParser:
    """The parser of every subcommand; each flag parses to None when it is not given."""
    parser = argparse.ArgumentParser(
        prog="vecdrive",
        description="Synthetic-scene trajectory planning pipeline: generation, "
                    "QA data, training, and the open-loop evaluation battery.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, _) in COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        for dest, default in command_flags(name).items():
            flag_type, flag_help = FLAGS[dest]
            shown = ("required" if default is REQUIRED
                     else f"default {'none' if default is None else default}")
            p.add_argument("--" + dest.replace("_", "-"), type=flag_type,
                           help=f"{flag_help} ({shown})")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    flags = command_flags(args.command)
    try:
        _setup_logging()
        _apply_config_file(args, flags)
        for dest, default in flags.items():
            if getattr(args, dest) is None:
                if default is REQUIRED:
                    raise ConfigError(f"missing required option --{dest.replace('_', '-')}")
                setattr(args, dest, default)
        # Looked up on each call, so a patched or traced command is the one that runs.
        return globals()["cmd_" + args.command.replace("-", "_")](args)
    except Exception as e:
        for types, code in _EXIT_CODES:
            if isinstance(e, types):
                print(f"error: {e}", file=sys.stderr)
                return code
        raise


if __name__ == "__main__":
    sys.exit(main())
