"""plselect benchmark driver.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a plselect checkout; the package is imported from
./src. One client runs one operation at a time (a closed loop) for about
S seconds, at least once, and every output is checked against
perfbench/references.json. The last line of standard output is the
result: {"correct", "attempted", "failed", "metrics"}. The line before it
holds provenance and extra facts of the run.

--trace 0 reports the end-to-end metrics of BENCHMARK.json, with times
scaled to the reference machine's speed by SpeedProbe. --trace 1
reports the per-layer metrics: it traces one set-up, then runs each
operation twice, untraced and traced, and takes trace.overhead_s from
the pairs. Spans are written to .bench_work/trace/ when the run ends.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

IMPORT_REPEATS = 7  # each in a fresh interpreter
SETUP_REPEATS = 3

# Seconds the three SpeedProbe kernels take on the reference machine
# (Intel Xeon, 2 vCPUs, Python 3.11, numpy 2.4).
PROBE_NOMINAL_S = (0.045, 0.02, 0.05)
IDLE_SLICE_S = 0.02
IDLE_MAX_WAIT_S = 1.0

WORKLOAD_NAMES = ("pipeline_seed", "search_pooled", "search_wide")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


class SpeedProbe:
    """How much slower the machine runs now than the reference machine.

    The speed of a shared machine drifts by tens of percent over minutes
    as its neighbours' load changes. Three fixed kernels are timed around
    each measured interval: an interpreter loop, many numpy calls on tiny
    arrays, and numpy element-wise code on a large array. None of them
    calls BLAS. Before timing them the probe waits until the process is
    idle: OpenBLAS's worker threads spin for about 0.1 s after a BLAS call
    and would otherwise share the CPUs with the kernels, so the divisor
    would move with the program's BLAS work. A time divided by the
    kernels' mean slowdown against PROBE_NOMINAL_S is that time at the
    reference machine's speed: wall times by the slowdown in wall time,
    CPU times by the slowdown in the kernels' own CPU time. The mix
    follows the work: the pipeline tracks the first two kernels, the
    searches the third.
    """

    def __init__(self):
        import numpy as np

        self._np = np
        self._x = np.random.default_rng(0).random(200_000)
        self.last = self.measure()

    @staticmethod
    def wait_idle():
        """Sleep until a slice passes in which the process used almost no
        CPU time, so no thread the program left running is still busy."""
        give_up = time.perf_counter() + IDLE_MAX_WAIT_S
        while time.perf_counter() < give_up:
            cpu0 = time.process_time()
            time.sleep(IDLE_SLICE_S)
            if time.process_time() - cpu0 < IDLE_SLICE_S / 10:
                return

    def measure(self):
        """(slowdown in wall time, slowdown in CPU time)."""
        np = self._np
        self.wait_idle()
        clocks = [(time.perf_counter(), time.process_time())]
        acc, table = 0, {}
        for i in range(300_000):
            acc += i * i
            table[i & 1023] = acc & 0xFFFF
        clocks.append((time.perf_counter(), time.process_time()))
        origin = np.array([1.0, 2.0, 3.0])
        for i in range(6000):
            d = np.asarray((1.0, 2.0, float(i))) - origin
            max(0.0, float(np.sqrt((d * d).sum())))
        clocks.append((time.perf_counter(), time.process_time()))
        for _ in range(25):
            (np.sqrt(self._x) * self._x + np.exp(-self._x)).sum()
        clocks.append((time.perf_counter(), time.process_time()))
        return tuple(
            statistics.fmean(
                (b[clock] - a[clock]) / nominal
                for a, b, nominal in zip(clocks, clocks[1:], PROBE_NOMINAL_S)
            )
            for clock in (0, 1)
        )

    def slowdown(self):
        """Mean (wall, CPU) slowdown at the two ends of the interval since
        the last call."""
        now = self.measure()
        factor = tuple((a + b) / 2 for a, b in zip(self.last, now))
        self.last = now
        return factor


class Run:
    """Operation bookkeeping shared by the plain and traced modes."""

    def __init__(self, workload):
        self.workload = workload
        self.probe = None  # a SpeedProbe scales the times when set
        self.attempted = 0
        self.failed = 0
        self.walls = []  # at reference speed when there is a probe
        self.cpus = []
        self.raw_walls = []
        self.raw_cpus = []
        self.slowdowns = []  # (wall, CPU) per phase of each operation
        self.ratios = []
        self.extras = {}

    def timed(self, job):
        """Run one operation and check it; returns its raw wall time.

        With a probe, each phase of the operation is scaled by the probe
        taken at its two ends, and the probes between phases are not
        timed."""
        self.attempted += 1
        error = output = None
        wall = cpu = scaled_wall = scaled_cpu = 0.0
        slowdowns = []
        for phase in self.workload.phases(job):
            wall0, cpu0 = time.perf_counter(), time.process_time()
            try:
                output = phase()
            except Exception:
                error = traceback.format_exc()
            phase_wall = time.perf_counter() - wall0
            phase_cpu = time.process_time() - cpu0
            wall_slow, cpu_slow = (self.probe.slowdown() if self.probe
                                   else (1.0, 1.0))
            slowdowns.append((wall_slow, cpu_slow))
            wall += phase_wall
            cpu += phase_cpu
            scaled_wall += phase_wall / wall_slow
            scaled_cpu += phase_cpu / cpu_slow
            if error is not None:
                break
        if error is None:
            try:
                ratio, extras = self.workload.check(job, output)
            except Exception:
                error = traceback.format_exc()
            else:
                self.ratios.append(ratio)
                for key, value in extras.items():
                    self.extras.setdefault(key, []).append(value)
        if error is not None:
            if self.failed == 0:  # report the first failure in full
                print(f"operation {self.attempted} failed:\n{error}",
                      file=sys.stderr)
            self.failed += 1
        self.raw_walls.append(wall)
        self.raw_cpus.append(cpu)
        self.slowdowns.append(slowdowns)
        self.walls.append(scaled_wall)
        self.cpus.append(scaled_cpu)
        return wall


def closed_loop(seconds, step):
    """Call step(k) for k = 0, 1, ... while the next call, expected to
    take as long as the last, ends within the time budget; at least once."""
    end = time.perf_counter() + seconds
    k = 0
    last = 0.0
    while k == 0 or time.perf_counter() + last <= end:
        start = time.perf_counter()
        step(k)
        last = time.perf_counter() - start
        k += 1


def import_seconds(src: Path) -> float:
    """Seconds a fresh interpreter takes to import plselect from src."""
    code = ("import sys, time; sys.path.insert(0, sys.argv[1]); "
            "start = time.perf_counter(); import plselect.cli; "
            "print(time.perf_counter() - start)")
    proc = subprocess.run([sys.executable, "-c", code, str(src)],
                          capture_output=True, text=True, check=True,
                          timeout=120)
    return float(proc.stdout)


def run_plain(run, args, import_s, src):
    workload = run.workload
    run.probe = SpeedProbe()
    import_s /= run.probe.last[0]
    imports = [import_seconds(src) / run.probe.slowdown()[0]
               for _ in range(IMPORT_REPEATS)]
    setups = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        workload.setup(args.seed)
        built = time.perf_counter() - start
        setups.append(built / run.probe.slowdown()[0])
    closed_loop(args.seconds, lambda k: run.timed(workload.prepare(k)))
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    metrics = {
        "setup_s": (statistics.median(imports) + statistics.median(setups),
                    "s"),
        "wall_s": (statistics.median(run.walls), "s"),
        "cpu_s": (statistics.median(run.cpus), "s"),
        "peak_rss_mb": (peak_kb / 1024.0, "MB"),
        "score_ratio": (statistics.median(run.ratios) if run.ratios else 0.0,
                        "ratio"),
    }
    info = {"import_s": import_s, "import_repeats_s": imports,
            "setup_repeats_s": setups,
            "wall_s_each": run.walls, "cpu_s_each": run.cpus,
            "raw_wall_s_each": run.raw_walls, "raw_cpu_s_each": run.raw_cpus,
            "slowdown_each": run.slowdowns}
    return metrics, info


def run_traced(run, args):
    import tracing

    workload = run.workload
    tracer = tracing.Tracer()
    mark = tracer.mark()
    with tracer.installed():
        workload.setup(args.seed)
    setup_spans, setup_counts = tracer.since(mark)
    per_op = []
    overheads = []

    def step(k):
        plain = run.timed(workload.prepare(k))
        job = workload.prepare(k)
        mark = tracer.mark()
        with tracer.installed():
            traced = run.timed(job)
        spans, counts = tracer.since(mark)
        per_op.append(tracing.layer_metrics(
            setup_spans + spans, setup_counts + counts, tracer.keys))
        overheads.append(traced - plain)

    closed_loop(args.seconds, step)
    metrics = {}
    for name, unit in tracing.LAYER_UNITS.items():
        if name == "trace.overhead_s":
            value = statistics.median(overheads)
        elif unit in tracing.EXACT_UNITS:
            value = per_op[0][name]
        else:
            value = statistics.median(m[name] for m in per_op)
        metrics[name] = (value, unit)
    path = write_spans(tracer, args)
    info = {"spans_file": str(path), "spans": len(tracer.spans),
            "traced_operations": len(per_op),
            "not_wrapped": tracer.missing}
    return metrics, info


def write_spans(tracer, args) -> Path:
    from workloads import WORK_DIR

    path = WORK_DIR / "trace" / f"{args.workload}-seed{args.seed}.json"
    path.parent.mkdir(parents=True, exist_ok=True)
    doc = {
        "workload": args.workload,
        "seed": args.seed,
        "columns": list(tracer.spans[0]._fields) if tracer.spans else [],
        "spans": [list(s) for s in tracer.spans],
        "counts": dict(tracer.counts),
    }
    path.write_text(json.dumps(doc))
    return path


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def blas_info():
    import numpy as np

    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]
    except (TypeError, KeyError):
        return None
    blas = deps.get("blas", {})
    return {key: blas.get(key)
            for key in ("name", "version", "openblas configuration")}


def git_commit(root: Path):
    if not (root / ".git").exists():
        return None
    try:
        return subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
            text=True, check=True, timeout=30,
        ).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        return None


def src_digest(src: Path) -> str:
    """sha256 over the package sources, for checkouts without git."""
    h = hashlib.sha256()
    for path in sorted((src / "plselect").rglob("*.py")):
        h.update(path.relative_to(src).as_posix().encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def provenance(root, src, args, run):
    import numpy as np
    from workloads import nproc

    return {
        "nproc": nproc(),
        "cpu_model": cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_info(),
        "blas_threads_env": {
            name: os.environ.get(name)
            for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                         "MKL_NUM_THREADS")
        },
        "commit": git_commit(root),
        "src_sha256": src_digest(src),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "operations": run.attempted,
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    root = Path.cwd()
    src = root / "src"
    if not (src / "plselect" / "__init__.py").is_file():
        print("error: run from the root of a plselect checkout "
              "(src/plselect not found)", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    start = time.perf_counter()
    import plselect.cli  # the whole package, numpy included
    import_s = time.perf_counter() - start
    if Path(plselect.cli.__file__).resolve().parent != (src / "plselect").resolve():
        print(f"error: plselect imported from {plselect.cli.__file__}, "
              f"not from {src}", file=sys.stderr)
        return 2

    import workloads

    run = Run(workloads.WORKLOADS[args.workload](workloads.load_references()))
    if args.trace:
        metrics, info = run_traced(run, args)
    else:
        metrics, info = run_plain(run, args, import_s, src)
    info["failed_frac"] = run.failed / run.attempted
    for key, values in run.extras.items():
        info[key] = statistics.median(values)
    print(json.dumps({"provenance": provenance(root, src, args, run),
                      "info": info}))
    print(json.dumps({
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
