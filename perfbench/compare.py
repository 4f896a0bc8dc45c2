"""Summarise one result set, or compare two.

A result set is a directory of run records (``<workload>-s<seed>-t<trace>.json``)
as written by ``run.py --out DIR``.

    python3 perfbench/compare.py RESULTS_A             # medians, quartiles, spread vs bound;
                                                       # exit 1: a spread above a third of its bound
    python3 perfbench/compare.py RESULTS_A RESULTS_B   # A = base, B = change

For each workload and end-to-end metric, the comparison prints each side's
median and quartiles (``statistics.quantiles(n=4)``), the change of the
medians, and the pairs B won, runs matched by seed, ties counting for
neither. It flags a change worse than the metric's bound in
``BENCHMARK.json`` as REGRESSION, prints "unresolved" when a side's
quartile spread exceeds the bound unless every B run beats every A run,
and "better" when B wins at least nine tenths of the pairs and the
medians differ by more than A's quartile spread. A workload on which B
has more failed operations than A is flagged as REGRESSION whatever the
metrics say.
Traced records add per-layer medians and the tracing overhead. Result-file
digests that differ between the sets, seed by seed, are listed at the end.
"""

from __future__ import annotations

import argparse
import glob
import json
import os
import statistics
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def load_benchmark() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), "r", encoding="utf-8") as fh:
        return json.load(fh)


def load_set(path: str) -> dict:
    """{(workload, trace): {seed: record}}"""
    out: dict = {}
    for f in sorted(glob.glob(os.path.join(path, "*-t[01].json"))):
        with open(f, "r", encoding="utf-8") as fh:
            rec = json.load(fh)
        out.setdefault((rec["workload"], rec["trace"]), {})[rec["seed"]] = rec
    if not out:
        sys.exit(f"error: no run records in {path}")
    return out


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values: list[float]) -> float:
    q1, q2, q3 = quartiles(values)
    return (q3 - q1) / q2 if q2 else float("inf")


def metric_values(records: dict, name: str) -> dict[int, float]:
    return {seed: r["end_to_end"][name]["value"] for seed, r in records.items()}


def worse_by(base: float, new: float, better: str) -> float:
    """Share of the base by which new is worse (negative: better)."""
    return (base - new) / base if better == "higher" else (new - base) / base


def summarize(results: dict, bench: dict) -> bool:
    """Print the spread table; True when every spread is within a third of its bound."""
    steady = True
    for (workload, trace), records in sorted(results.items()):
        if trace:
            continue
        print(f"== {workload}: {len(records)} runs, seeds {sorted(records)}")
        print(f"  {'metric':26s} {'median':>12s} {'q1':>12s} {'q3':>12s} "
              f"{'spread':>7s} {'bound':>6s}")
        for m in bench["end_to_end"]:
            vals = list(metric_values(records, m["name"]).values())
            q1, q2, q3 = quartiles(vals)
            s = spread(vals)
            flag = ""
            if s > m["bound"] / 3:
                flag = "  > bound" if s > m["bound"] else "  > bound/3"
                steady = False
            print(f"  {m['name']:26s} {q2:12.6g} {q1:12.6g} {q3:12.6g} "
                  f"{s:7.2%} {m['bound']:6.0%}{flag}")
        failed = sum(r["failed"] for r in records.values())
        print(f"  failed operations: {failed} of {sum(r['attempted'] for r in records.values())}")
        traced = results.get((workload, 1))
        if traced:
            summarize_layers(workload, traced, records)
    return steady


def summarize_layers(workload: str, traced: dict, untraced: dict) -> None:
    per_layer = {}
    for r in traced.values():
        for name, v in r["per_layer"].items():
            per_layer.setdefault(name, []).append(v["value"])
    med = {name: statistics.median(v) for name, v in per_layer.items()}
    self_s = {name[:-len(".self_s")]: v for name, v in med.items() if name.endswith(".self_s")}
    total = sum(self_s.values()) or 1.0
    modules: dict[str, float] = {}
    for name, v in self_s.items():
        module = name.split(".")[0]
        modules[module] = modules.get(module, 0.0) + v
    wall_traced = med["trace.wall_s"]
    print(f"  traced ({len(traced)} runs): self time per pass by layer, "
          f"share of all traced self time, share of the traced pass")
    for module, v in sorted(modules.items(), key=lambda kv: -kv[1]):
        print(f"    {module:12s} {v * 1e3:9.2f} ms  {v / total:6.1%}  {v / wall_traced:6.1%}")
    top = sorted(self_s.items(), key=lambda kv: -kv[1])[:6]
    print("    top functions: " + ", ".join(f"{n} {v / total:.1%}" for n, v in top))
    wall = statistics.median(metric_values(untraced, "wall_s").values())
    print(f"    tracing overhead: traced wall_s {wall_traced:.4f} s - untraced {wall:.4f} s "
          f"= {wall_traced - wall:+.4f} s ({(wall_traced - wall) / wall:+.1%})")
    busy = med["external.ExecOracle.decide.busy_s"]
    if busy:
        print(f"    external.ExecOracle.decide busy {busy / wall_traced:.1%} of the pass, "
              f"of which waiting on pipe and server {med['external.decide.wait_s'] / busy:.1%}")


def compare(a: dict, b: dict, bench: dict) -> None:
    for key in sorted(set(a) & set(b)):
        workload, trace = key
        if trace:
            continue
        ra, rb = a[key], b[key]
        seeds = sorted(set(ra) & set(rb))
        print(f"== {workload}: {len(ra)} base runs, {len(rb)} change runs, {len(seeds)} pairs")
        print(f"  {'metric':26s} {'base median [q1, q3]':>34s} {'change median [q1, q3]':>34s} "
              f"{'change':>8s} {'wins':>6s}  verdict")
        for m in bench["end_to_end"]:
            name, better, bound = m["name"], m["better"], m["bound"]
            va, vb = metric_values(ra, name), metric_values(rb, name)
            qa, qb = quartiles(list(va.values())), quartiles(list(vb.values()))
            wins = sum(1 for s in seeds if worse_by(va[s], vb[s], better) < 0)
            worse = worse_by(qa[1], qb[1], better)
            base_spread = spread(list(va.values()))
            noisy = max(base_spread, spread(list(vb.values()))) > bound
            # Every change run better than every base run.
            all_better = all(worse_by(x, y, better) < 0 for x in va.values() for y in vb.values())
            if noisy and not all_better:
                verdict = "unresolved"
            elif worse > bound:
                verdict = "REGRESSION"
            elif -worse > base_spread and wins >= 0.9 * len(seeds):
                verdict = "better"
            else:
                verdict = "no change beyond bound"
            print(f"  {name:26s} {qa[1]:12.6g} [{qa[0]:9.4g}, {qa[2]:9.4g}] "
                  f"{qb[1]:12.6g} [{qb[0]:9.4g}, {qb[2]:9.4g}] {-worse:+8.1%} "
                  f"{wins:>2d}/{len(seeds):<3d}  {verdict}")
        fa = sum(r["failed"] for r in ra.values())
        fb = sum(r["failed"] for r in rb.values())
        verdict = "REGRESSION" if fb > fa else ("fewer" if fb < fa else "")
        print(f"  failed operations: base {fa}, change {fb}  {verdict}".rstrip())
    changed = []
    for key in sorted(set(a) & set(b)):
        for seed in sorted(set(a[key]) & set(b[key])):
            da, db = a[key][seed]["digests"], b[key][seed]["digests"]
            for name in sorted(set(da) | set(db)):
                if da.get(name) != db.get(name):
                    changed.append(f"{key[0]} seed {seed}: {name}")
    print("== result-file digests: " + ("identical" if not changed else f"{len(changed)} changed"))
    for line in sorted(set(changed)):
        print("  " + line)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("base")
    ap.add_argument("change", nargs="?")
    args = ap.parse_args(argv)
    bench = load_benchmark()
    a = load_set(args.base)
    if args.change is None:
        return 0 if summarize(a, bench) else 1
    compare(a, load_set(args.change), bench)
    return 0


if __name__ == "__main__":
    sys.exit(main())
