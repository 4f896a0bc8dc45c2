"""vecdrive benchmark: one workload, one seed, one process.

    python3 perfbench/run.py --workload pipeline --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; the package is imported from
``src/``. The last line of stdout is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.
The full record (per-stage medians, provenance, result-file digests,
failures) is written to ``<out>/<workload>-s<seed>-t<trace>.json``;
a traced run also writes its spans next to it.

BLAS, OpenMP and MKL are pinned to one thread before numpy is imported.
"""

from __future__ import annotations

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

#: Set-ups per run; setup_s is their median.
SETUPS = 7


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", default=os.path.join(ROOT, ".perfbench_out"),
                    help="directory for the run record and spans")
    ap.add_argument("--size", choices=("full", "tiny"), default="full",
                    help="tiny: smoke-test sizes (not comparable to full)")
    ap.add_argument("--fault-every", type=int, default=0,
                    help="smoke test only: the decide-phase exec server corrupts "
                         "every k-th reply")
    return ap.parse_args(argv)


def provenance(spec, seed: int) -> dict:
    import numpy as np
    blas = {}
    try:
        blas = dict(np.__config__.CONFIG["Build Dependencies"]["blas"])
    except (AttributeError, KeyError, TypeError):
        pass
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")},
        "blas_threads": {v: os.environ.get(v) for v in
                         ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "machine": platform.machine(),
        "git_revision": git_revision(),
        "seed": seed,
        "sizes": {"n": spec.n, "n_decide": spec.n_decide, "n_train": spec.n_train,
                  "n_eval": spec.n_eval,
                  "epochs": spec.epochs, "density": spec.density, "text": spec.text,
                  "external": spec.external},
    }


def git_revision() -> str:
    """HEAD of the checkout read from .git, or "unknown" outside a git tree."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), "r", encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git, ref)
        if os.path.exists(ref_path):
            with open(ref_path, "r", encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), "r", encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "vecdrive", "cli.py")):
        print(f"error: no vecdrive sources under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    # The exec oracle server is a child interpreter: it finds the package the same way.
    os.environ["PYTHONPATH"] = os.pathsep.join(
        [SRC] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p])

    import calibrate
    import tracer as tracing
    import workloads as wl

    if args.workload not in wl.SPECS:
        print(f"error: unknown workload {args.workload!r}; one of {sorted(wl.SPECS)}",
              file=sys.stderr)
        return 2
    spec = wl.SPECS[args.workload]
    if args.size == "tiny":
        spec = wl.tiny(spec)

    pin_to_one_cpu()
    tracer = tracing.Tracer()
    if args.trace:
        tracer.install()
    os.makedirs(args.out, exist_ok=True)
    workdir = os.path.join(args.out, f"work-{os.getpid()}")
    oracle = None
    try:
        # --- set-up, several times; the last one's oracle serves the run -----
        setup_times, setup_raw = [], []
        for k in range(SETUPS):
            close(oracle)
            oracle, raw, scaled = setup(spec, args, wl, tracer, calibrate,
                                        os.path.join(workdir, f"setup{k}"))
            setup_raw.append(raw)
            setup_times.append(scaled)

        # --- timed passes --------------------------------------------------------
        passes = []
        kept = wl.DecideSamples()
        start = time.perf_counter()
        i = 0
        while time.perf_counter() - start < args.seconds or not passes:
            prep = wl.prepare(spec, args.seed * wl.PASS_STRIDE + i)
            tracer.run = i
            tracer.active = bool(args.trace)
            try:
                res = wl.run_pass(spec, prep, oracle, os.path.join(workdir, f"pass{i}"),
                                  tracer, kept, digests=(i == 0))
            finally:
                tracer.active = False
            shutil.rmtree(os.path.join(workdir, f"pass{i}"), ignore_errors=True)
            passes.append(res)
            i += 1
        # Before the statistics below, whose temporary lists grow with the run.
        rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    finally:
        close(oracle)
        if args.trace:
            tracer.uninstall()
        shutil.rmtree(workdir, ignore_errors=True)

    attempted = sum(r.attempted for r in passes)
    failed = sum(r.failed for r in passes)
    e2e = end_to_end_metrics(spec, passes, kept, setup_times, rss_kb)
    record = {
        "workload": spec.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "size": args.size,
        "passes": len(passes),
        "attempted": attempted,
        "failed": failed,
        "failed_frac": failed / attempted,
        "failures": [f for r in passes for f in r.failures][:20],
        "end_to_end": e2e,
        "reference_s": calibrate.REFERENCE_S,
        "stage_median_s": {stage: statistics.median(r.times[stage] for r in passes)
                           for stage in passes[0].times},
        "raw_stage_median_s": {stage: statistics.median(r.raw_times[stage] for r in passes)
                               for stage in passes[0].times},
        "setup_s_all": setup_times,
        "setup_raw_s_all": setup_raw,
        "passes_detail": [{"raw_s": r.raw_times, "scale": r.scale, "refs": r.refs}
                          for r in passes],
        "checks": {kind: [sum(r.checks[kind][j] for r in passes) for j in (0, 1)]
                   for kind in ("stage", "decide")},
        "decide_samples": {"kept": kept.kept, "seen": kept.seen},
        "raw_decide_p50_ms": 1000.0 * kept.quantile(0.50, raw=True),
        "digests": passes[0].digests,
        "provenance": provenance(spec, args.seed),
    }
    if args.trace:
        metrics = per_layer_metrics(tracer, passes)
        record["per_layer"] = metrics
        spans_path = os.path.join(args.out, f"{spec.name}-s{args.seed}-spans.jsonl.gz")
        tracer.write(spans_path)
        record["spans_file"] = os.path.relpath(spans_path, ROOT)
    else:
        metrics = e2e
    record_path = os.path.join(args.out, f"{spec.name}-s{args.seed}-t{args.trace}.json")
    with open(record_path, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
    print(f"{spec.name} seed={args.seed} passes={len(passes)} attempted={attempted} "
          f"failed={failed} record={os.path.relpath(record_path, ROOT)}", file=sys.stderr)
    for f in record["failures"][:5]:
        print(f"  failed: {f}", file=sys.stderr)
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


def pin_to_one_cpu() -> None:
    """Run this process, and every oracle server it starts, on one CPU.

    The reference timing (calibrate.py) then measures the CPU that does
    the work, also when a request's work is split between the client and
    an exec server. Requests are sequential, so no parallelism is lost.
    """
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})


def close(oracle) -> None:
    """Close an exec oracle, stopping and waiting for its server; a rule oracle has no close."""
    if oracle is not None and hasattr(oracle, "close"):
        oracle.close()


def setup(spec, args, wl, tracer, calibrate, workdir: str):
    """Cold import, decide-oracle start, and one warm-up pass.

    Returns the warmed-up decide-phase oracle and the set-up time, raw and
    reference-normalised. The cold import and the oracle start are scaled
    by the reference timings around them, the warm-up pass stage by stage
    like a timed pass: two reference timings around the whole set-up made
    setup_s spread 10-30% between runs. The harness's own work (the warm-up
    inputs' check references, the output checks) is not counted.
    """
    before = calibrate.time_reference()
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", "import vecdrive.cli"], check=True)
    oracle = wl.open_decide_oracle(spec, args.fault_every)
    raw = time.perf_counter() - t0
    scaled = raw * calibrate.scale(before, calibrate.time_reference())
    warm = wl.warmup(spec)
    prep = wl.prepare(warm, args.seed * wl.PASS_STRIDE + wl.PASS_STRIDE - 1)
    res = wl.run_pass(warm, prep, oracle, workdir, tracer)
    shutil.rmtree(workdir, ignore_errors=True)
    return oracle, raw + sum(res.raw_times.values()), scaled + res.wall_s


def end_to_end_metrics(spec, passes, kept, setup_times, rss_kb: int) -> dict:
    def per_s(stage: str, items: int) -> float:
        return statistics.median(items / r.times[stage] for r in passes)

    def ok(kind: str) -> float:
        attempted = sum(r.checks[kind][0] for r in passes)
        failed = sum(r.checks[kind][1] for r in passes)
        return (attempted - failed) / attempted if attempted else 1.0

    values = {
        "setup_s": (statistics.median(setup_times), "s"),
        "wall_s": (statistics.median(r.wall_s for r in passes), "s"),
        "peak_rss_mb": (rss_kb / 1024.0, "MB"),
        # The lower of the two kinds' pass rates: a stage (8 checks a pass)
        # that fails on every pass takes it to 7/8 at most, however many
        # decide checks pass.
        "ok_frac": (min(ok("stage"), ok("decide")), "1"),
        "simgen_scen_per_s": (per_s("simgen", spec.n), "1/s"),
        "qagen_scen_per_s": (per_s("qagen", spec.n), "1/s"),
        "train_samples_per_s": (per_s("train", spec.n_train * spec.epochs), "1/s"),
        "eval_plan_scen_per_s": (per_s("eval_plan", spec.n_eval), "1/s"),
        "eval_text_pairs_per_s": (per_s("eval_text", spec.n_eval), "1/s"),
        "eval_actions_scen_per_s": (per_s("eval_actions", spec.n_eval), "1/s"),
        "decisions_per_s": (per_s("decide", 2 * spec.n_decide), "1/s"),
        "decide_p50_ms": (1000.0 * kept.quantile(0.50), "ms"),
        # The tail is made of stalls whose length does not follow the
        # machine's speed; scaled, its spread between runs was 15-25%
        # against ~10% raw, so the p99 is taken raw.
        "decide_p99_ms": (1000.0 * kept.quantile(0.99, raw=True), "ms"),
    }
    return {name: {"value": v, "unit": unit} for name, (v, unit) in values.items()}


def per_layer_metrics(tracer, passes) -> dict:
    """Per-layer totals per pass, reference-normalised with the pass's mean scale."""
    import tracer as tracing
    n = len(passes)
    scales = [statistics.fmean(r.scale.values()) for r in passes]
    totals: dict[str, dict[str, float]] = {}
    for run, per_run in tracer.layer_totals().items():
        for name, t in per_run.items():
            acc = totals.setdefault(name, {"calls": 0, "busy_s": 0.0, "self_s": 0.0})
            acc["calls"] += t["calls"]
            acc["busy_s"] += t["busy_s"] * scales[run]
            acc["self_s"] += t["self_s"] * scales[run]
    out = {}
    for name in tracing.traced_names():
        t = totals.get(name, {"calls": 0, "busy_s": 0.0, "self_s": 0.0})
        out[f"{name}.calls"] = {"value": t["calls"] / n, "unit": "count"}
        out[f"{name}.busy_s"] = {"value": t["busy_s"] / n, "unit": "s"}
        out[f"{name}.self_s"] = {"value": t["self_s"] / n, "unit": "s"}
    out[f"{tracing.DECIDE}.failed"] = {"value": tracer.failed.get(tracing.DECIDE, 0) / n,
                                      "unit": "count"}
    wait = sum(w * scales[run] for run, w in tracer.decide_wait_s().items())
    out["external.decide.wait_s"] = {"value": wait / n, "unit": "s"}
    out["trace.wall_s"] = {"value": statistics.median(r.wall_s for r in passes), "unit": "s"}
    return out


if __name__ == "__main__":
    sys.exit(main())
