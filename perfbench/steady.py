"""Steadiness report: do repeated sets of benchmark runs agree?

    python3 perfbench/steady.py

Run from the repository root. Each of SETS sets runs every workload of
BENCHMARK.json RUNS times, with seeds 0..RUNS-1 and the file's
run_seconds, each run in its own process. For every end-to-end metric
the report gives each set's median and quartiles, the spread (third
minus first quartile, over the median), and whether the sets agree:
every spread within the metric's bound, and every later median within
the bound of the first, in either direction. The spread of setup_s is
shown but not held to its bound: on the workloads whose set-up is only
the import of plselect, a tenth of a second, the spread of setup_s
reaches 0.3 on a shared machine, and the benchmark's contract bounds
only how far its median may move. Then each workload runs
traced twice on one seed, and the count metrics must repeat exactly.
Raw results go to .bench_work/steady.json. Exits 1 if anything
disagrees.
"""

from __future__ import annotations

import json
import statistics
import subprocess
import sys
from pathlib import Path

RUNS = 10
SETS = 2
RUNNER = Path(__file__).with_name("run.py")
RAW = Path(".bench_work") / "steady.json"
COUNT_UNITS = ("count", "bytes", "ratio")


def run_once(workload, seed, seconds, trace=0) -> dict:
    proc = subprocess.run(
        [sys.executable, str(RUNNER), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds),
         "--trace", str(trace)],
        capture_output=True, text=True, timeout=900,
    )
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} exited "
                         f"{proc.returncode}:\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        raise SystemExit(f"{workload} seed {seed}: incorrect output\n"
                         f"{proc.stderr}")
    return result


def spread(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3, (q3 - q1) / q2 if q2 else float("inf")


def change(first, later):
    if first == 0:
        return 0.0 if later == first else float("inf")
    return abs(later - first) / first


def report(bench, results) -> bool:
    agree = True
    for wl in bench["workloads"]:
        name = wl["name"]
        print(f"\n{name}: {wl['why']}")
        print(f"  {'metric':<14}{'set':>4}{'q1':>12}{'median':>12}"
              f"{'q3':>12}{'spread':>9}{'bound':>7}  verdict")
        for metric in bench["end_to_end"]:
            m, bound = metric["name"], metric["bound"]
            first = None
            for k, sets in enumerate(results):
                values = [r["metrics"][m]["value"] for r in sets[name]]
                q1, med, q3, sp = spread(values)
                if first is None:
                    first = med
                ok = change(first, med) <= bound
                if m != "setup_s":
                    ok = ok and sp <= bound
                agree = agree and ok
                print(f"  {m:<14}{k + 1:>4}{q1:>12.6g}{med:>12.6g}"
                      f"{q3:>12.6g}{sp:>9.3f}{bound:>7.2f}  "
                      f"{'ok' if ok else 'DISAGREE'}")
    return agree


def check_counts(names, seconds) -> bool:
    same = True
    for name in names:
        a, b = (run_once(name, 0, seconds, trace=1) for _ in range(2))
        counts = {m: v["value"] for m, v in a["metrics"].items()
                  if v["unit"] in COUNT_UNITS}
        other = {m: b["metrics"][m]["value"] for m in counts}
        ok = counts == other
        same = same and ok
        print(f"\n{name} traced counts {'repeat' if ok else 'DIFFER'}: "
              + ", ".join(f"{m}={v:g}" for m, v in counts.items()))
    return same


def main() -> int:
    bench = json.loads(Path("BENCHMARK.json").read_text())
    seconds = bench["run_seconds"]
    names = [w["name"] for w in bench["workloads"]]
    results = []
    for k in range(SETS):
        sets = {}
        for name in names:
            sets[name] = []
            for seed in range(RUNS):
                sets[name].append(run_once(name, seed, seconds))
                print(f"set {k + 1} {name} seed {seed} done",
                      file=sys.stderr, flush=True)
        results.append(sets)
        RAW.parent.mkdir(parents=True, exist_ok=True)
        RAW.write_text(json.dumps(results))
    agree = report(bench, results)
    agree = check_counts(names, seconds) and agree
    print("\nall sets agree" if agree else "\nsets DISAGREE")
    return 0 if agree else 1


if __name__ == "__main__":
    sys.exit(main())
