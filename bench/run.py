"""Benchmark of the eoc-lab CLI: end-to-end metrics and traced per-layer metrics.

    python3 bench/run.py --workload WORKLOAD --seed N --seconds S --trace 0|1
    python3 bench/run.py --workload all --seed N --seconds S [--record PATH]

Run from the root of a checkout; the program is imported from ``src``.
Workloads are defined in ``workloads.py``; ``README.md`` says what each one
is for and which metric an optimisation should move.

One repetition of an in-process workload (sweep-grid, mc-sim, train-demo)
is a fresh Python process (``worker.py``) that imports eoc_lab, builds the
CLI parser (its set-up) and runs the workload's commands through
``eoc_lab.cli.main``.  One repetition of cli-cold runs each of its commands
as its own ``python -m eoc_lab`` process, plus two set-up probes.
Repetitions are closed-loop, one process at a time, and repeat while the
next one is expected to end within S seconds (at least MIN_REPS); each
metric is the median over them.  Every operation's outputs are checked after its repetition, outside
the timed region.

With ``--trace 0`` the last line of stdout carries the end-to-end metrics,
with ``--trace 1`` the per-layer metrics of a separate traced run, whose
repetitions alternate untraced and traced to give the tracing overhead.
The metric names and units are read from ``BENCHMARK.json``.  The exit
code is 0 when the benchmark ran, whatever the checks found (they are
reported in ``correct``/``failed``), and 1 when it could not run.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import re
import shutil
import statistics
import subprocess
import sys
import threading
import time

import tracer
import workloads as wl

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
WORKER = os.path.join(ROOT, "bench", "worker.py")
WORK_ROOT = os.path.join(ROOT, ".bench_work")

MIN_REPS = 3            # repetitions per run, however long they take
TRACED_MIN_PAIRS = 2    # untraced/traced pairs per traced run
IMPORT_PROBES = 3       # ``-X importtime`` processes per traced run
HARD_LIMIT_S = 170.0    # children still running this long after start are killed
PROBE_EVERY = 4         # cli-cold: one set-up probe per this many commands
# the BLAS thread count children get: every CPU this process may use
THREADS = len(os.sched_getaffinity(0))
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


class BenchError(RuntimeError):
    """The benchmark could not run; no result is printed."""


def now() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    # the sweep thread pool is measured slower; never let a caller's setting in
    env.pop("EOC_LAB_THREADS", None)
    env["PYTHONPATH"] = SRC
    for var in THREAD_VARS:
        env[var] = str(THREADS)
    return env


def machine_record(seed: int) -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "nproc": THREADS,
        "cpu_model": cpu,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": THREADS,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "seed": seed,
    }


class Run:
    """One benchmark run of one workload at one seed."""

    def __init__(self, workload: str, seed: int, seconds: int):
        self.workload, self.seed, self.seconds = workload, seed, seconds
        self.start = now()
        self.hard_deadline = self.start + HARD_LIMIT_S
        self.workdir = os.path.join(WORK_ROOT, f"{workload}-{os.getpid()}")
        self.env = child_env()
        self.ops = wl.ops(workload, seed, self.workdir)
        self.attempted = 0
        self.failures: list[str] = []
        self.nan_cells: list[int] = []
        self.report: dict = {}
        self._spawned = 0

    # ------------------------------------------------------------ processes

    def spawn(self, argv: list[str]) -> dict:
        """Run one child to completion; wall time from spawn to exit, and
        its peak resident set from ``wait4``."""
        self._spawned += 1
        out_path = os.path.join(self.workdir, f"child{self._spawned}.out")
        err_path = os.path.join(self.workdir, f"child{self._spawned}.err")
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            t0 = now()
            proc = subprocess.Popen(argv, stdin=subprocess.DEVNULL, stdout=out, stderr=err,
                                    env=self.env, cwd=ROOT)
            timer = threading.Timer(max(0.0, self.hard_deadline - now()), proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            finally:
                timer.cancel()
            t1 = now()
        proc.returncode = os.waitstatus_to_exitcode(status)
        if t1 >= self.hard_deadline:
            raise BenchError(f"{argv[1:3]} was still running {HARD_LIMIT_S:.0f} s after the start")
        with open(out_path) as fh:
            stdout = fh.read()
        with open(err_path) as fh:
            stderr = fh.read()
        os.remove(out_path)
        os.remove(err_path)
        return {"start": t0, "wall_s": t1 - t0, "rc": proc.returncode,
                "rss_mb": usage.ru_maxrss / 1024.0, "stdout": stdout, "stderr": stderr}

    def worker(self, name: str, trace: bool, op_index: int | None = None) -> tuple[dict, dict]:
        result_path = os.path.join(self.workdir, f"result{self._spawned}.json")
        argv = [sys.executable, WORKER, result_path, name, str(self.seed), self.workdir,
                "1" if trace else "0"]
        if op_index is not None:
            argv.append(str(op_index))
        child = self.spawn(argv)
        if child["rc"] != 0:
            raise BenchError(f"worker exited with {child['rc']}:\n{child['stderr'][-2000:]}")
        with open(result_path) as fh:
            result = json.load(fh)
        os.remove(result_path)
        result["setup_s"] = result["ready"] - child["start"]
        return child, result

    # ------------------------------------------------------------ repetitions

    def check(self, op: dict, rc: int, stdout: str) -> int:
        """Check one operation; returns its nan cell count."""
        self.attempted += 1
        verdict = wl.check(self.workload, self.seed, op, rc, stdout)
        if not verdict["ok"]:
            self.failures.append(f"{op['argv'][0]}: {verdict['why']}")
        return verdict["nan_cells"]

    def rep(self, trace: bool) -> dict:
        """One repetition: set-up samples, wall time, peak RSS, layers."""
        if self.workload != wl.CLI_COLD:
            child, result = self.worker(self.workload, trace)
            self.nan_cells.append(sum(self.check(op, run["rc"], run["stdout"])
                                      for op, run in zip(self.ops, result["ops"])))
            return {"setup": [result["setup_s"]], "wall_s": sum(r["wall_s"] for r in result["ops"]),
                    "cmd_s": [r["wall_s"] for r in result["ops"]], "rss_mb": child["rss_mb"],
                    "trace": [result["trace"]] if trace else []}
        setup, cmd_s, rss, dumps = [], [], 0.0, []
        for i, op in enumerate(self.ops):
            if trace:
                # each command traced in its own fresh process, like the cold command
                child, result = self.worker(self.workload, True, i)
                (run,) = result["ops"]
                self.check(op, run["rc"], run["stdout"])
                dumps.append(result["trace"])
            else:
                if i % PROBE_EVERY == 0:
                    setup.append(self.worker("probe", False)[1]["setup_s"])
                child = self.spawn([sys.executable, "-m", "eoc_lab", *op["argv"]])
                self.check(op, child["rc"], child["stdout"])
            cmd_s.append(child["wall_s"])
            rss = max(rss, child["rss_mb"])
        return {"setup": setup, "wall_s": sum(cmd_s), "cmd_s": cmd_s, "rss_mb": rss,
                "trace": dumps}

    def warm_up(self) -> None:
        """Compile the package's bytecode and prove it imports; untimed."""
        if not os.path.isfile(os.path.join(SRC, "eoc_lab", "__init__.py")):
            raise BenchError(f"no eoc_lab package under {SRC}")
        os.makedirs(self.workdir, exist_ok=True)
        self.worker("probe", False)

    # ------------------------------------------------------------ metrics

    def repeat(self, minimum: int, step) -> None:
        """Call ``step`` at least ``minimum`` times, then as long as one more
        call, at the median duration so far, ends within ``seconds``; a run
        then lasts about ``seconds``, not up to a repetition more."""
        deadline = now() + self.seconds
        took: list[float] = []
        while len(took) < minimum or now() + statistics.median(took) <= deadline:
            t0 = now()
            step()
            took.append(now() - t0)

    def end_to_end(self) -> dict[str, float]:
        reps = []
        self.repeat(MIN_REPS, lambda: reps.append(self.rep(trace=False)))
        wall = statistics.median(r["wall_s"] for r in reps)
        work = sum(op["work"] for op in self.ops)
        cmd_s = [t for r in reps for t in r["cmd_s"]]
        self.report = {
            "rep_wall_s": [round(r["wall_s"], 3) for r in reps],
            f"{wl.WORK_UNITS[self.workload]}_per_s": work / wall,
            "cmd_p50_s": statistics.median(cmd_s),
            "cmd_samples": len(cmd_s),
        }
        return {
            "setup_s": statistics.median(s for r in reps for s in r["setup"]),
            "wall_s": wall,
            "work_per_s": work / wall,
            "peak_rss_mb": statistics.median(r["rss_mb"] for r in reps),
        }

    def per_layer(self) -> dict[str, float]:
        plain, traced = [], []

        def pair() -> None:
            plain.append(self.rep(trace=False))
            traced.append(self.rep(trace=True))

        self.repeat(TRACED_MIN_PAIRS, pair)
        per_rep = [tracer.layer_metrics(*tracer.merge(r["trace"])) for r in traced]
        layers = {key: statistics.median(m[key] for m in per_rep) for key in per_rep[0]}
        layers["trace.overhead_frac"] = (statistics.median(r["wall_s"] for r in traced)
                                         / statistics.median(r["wall_s"] for r in plain) - 1.0)
        layers["sweep.nan_cells"] = statistics.median(self.nan_cells) if self.nan_cells else 0
        layers.update(self.import_breakdown())
        self.report = {"reps": len(plain) + len(traced)}
        return layers

    def import_breakdown(self) -> dict[str, float]:
        """``python -X importtime -c "import eoc_lab"`` in fresh processes."""
        samples = []
        for _ in range(IMPORT_PROBES):
            child = self.spawn([sys.executable, "-X", "importtime", "-c", "import eoc_lab"])
            if child["rc"] != 0:
                raise BenchError(f"importing eoc_lab failed:\n{child['stderr'][-2000:]}")
            total = scipy_self = own_self = 0
            for line in child["stderr"].splitlines():
                match = re.match(r"import time:\s+(\d+) \|\s+(\d+) \|(\s*)(\S+)", line)
                if not match:
                    continue
                own, cumulative, name = int(match[1]), int(match[2]), match[4]
                if name == "eoc_lab":
                    total = cumulative
                if name == "scipy" or name.startswith("scipy."):
                    scipy_self += own
                if name == "eoc_lab" or name.startswith("eoc_lab."):
                    own_self += own
            samples.append((total / 1e6, scipy_self / 1e6, own_self / 1e6))
        total, scipy_s, own_s = (statistics.median(col) for col in zip(*samples))
        return {"import.total_s": total, "import.scipy_s": scipy_s, "import.eoc_lab_self_s": own_s}

    def close(self) -> None:
        shutil.rmtree(self.workdir, ignore_errors=True)
        if os.path.isdir(WORK_ROOT) and not os.listdir(WORK_ROOT):
            os.rmdir(WORK_ROOT)


def run_one(workload: str, seed: int, seconds: int, trace: bool, spec: dict) -> dict:
    """Run one workload and return its result object."""
    bench = Run(workload, seed, seconds)
    try:
        bench.warm_up()
        values = bench.per_layer() if trace else bench.end_to_end()
    finally:
        bench.close()
    declared = spec["per_layer" if trace else "end_to_end"]
    missing = [m["name"] for m in declared if m["name"] not in values]
    if missing:
        raise BenchError(f"metrics not measured: {missing}")
    sys.stderr.write(f"# {workload} seed {seed} trace {int(trace)}: {bench.report}\n")
    for m in declared:
        sys.stderr.write(f"{workload:>10}  {m['name']:<32} {values[m['name']]:>16.6g} {m['unit']}\n")
    frac = len(bench.failures) / bench.attempted
    sys.stderr.write(f"{workload:>10}  {'ops_failed_frac':<32} {frac:>16.6g} "
                     f"({len(bench.failures)} of {bench.attempted})\n")
    for why in bench.failures[:10]:
        sys.stderr.write(f"  failed: {why}\n")
    return {
        "correct": not bench.failures,
        "attempted": bench.attempted,
        "failed": len(bench.failures),
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=(*wl.WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", help="with --workload all: write the results and "
                                         "the machine record to this JSON file")
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    try:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
            spec = json.load(fh)
        sys.path.insert(0, SRC)  # the output checks call the library directly
        machine = machine_record(args.seed)
        sys.stderr.write(f"# machine {json.dumps(machine)}\n")
        if args.workload != "all":
            result = run_one(args.workload, args.seed, args.seconds, bool(args.trace), spec)
        else:
            record = {"machine": machine, "run_seconds": args.seconds, "workloads": {}}
            for name in wl.WORKLOADS:
                record["workloads"][name] = {
                    "end_to_end": run_one(name, args.seed, args.seconds, False, spec),
                    "per_layer": run_one(name, args.seed, args.seconds, True, spec),
                }
            runs = [r for w in record["workloads"].values() for r in w.values()]
            result = {"correct": all(r["correct"] for r in runs),
                      "attempted": sum(r["attempted"] for r in runs),
                      "failed": sum(r["failed"] for r in runs)}
            if args.record:
                with open(args.record, "w") as fh:
                    json.dump(record, fh, indent=2)
                    fh.write("\n")
    except (BenchError, OSError, ImportError) as exc:
        sys.stderr.write(f"benchmark could not run: {exc}\n")
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
