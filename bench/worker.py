"""One timed repetition of a workload, in a fresh Python process.

    python3 bench/worker.py RESULT_JSON WORKLOAD SEED WORKDIR TRACE [OP_INDEX]

The process imports eoc_lab from the checkout's ``src`` and builds the CLI
parser, then stamps the monotonic clock (the orchestrator subtracts its
spawn time to get the set-up time).  With WORKLOAD ``probe`` it stops
there.  Otherwise it runs the workload's operations (only OP_INDEX when
given) through ``eoc_lab.cli.main`` in-process, with stdout captured, and
writes the wall time, exit codes, captured documents and, with TRACE 1,
the aggregated spans to RESULT_JSON.  Output checks run in the
orchestrator, outside any timed region.
"""

import os
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
sys.path.insert(0, SRC)

from eoc_lab import cli  # noqa: E402

cli.build_parser()
READY = time.clock_gettime(time.CLOCK_MONOTONIC)

import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import traceback  # noqa: E402

import tracer  # noqa: E402
import workloads  # noqa: E402


def main(argv: list[str]) -> int:
    result_path, workload, seed, workdir, trace = argv[:5]
    if not cli.__file__.startswith(SRC + os.sep):
        sys.stderr.write(f"eoc_lab was imported from {cli.__file__}, not from {SRC}\n")
        return 2
    result = {"ready": READY}
    if workload != "probe":
        ops = workloads.ops(workload, int(seed), workdir)
        if len(argv) > 5:
            ops = [ops[int(argv[5])]]
        spans = tracer.Tracer() if trace == "1" else None
        if spans is not None:
            spans.install()
        runs = []
        for op in ops:
            captured = io.StringIO()
            t0 = time.perf_counter()
            try:
                with contextlib.redirect_stdout(captured):
                    rc = cli.main(op["argv"])
            except SystemExit as exc:
                rc = exc.code if isinstance(exc.code, int) else 1
            except Exception:  # an operation that crashes counts as failed; keep going
                traceback.print_exc()
                rc = -1
            runs.append({"rc": rc, "wall_s": time.perf_counter() - t0, "stdout": captured.getvalue()})
        result["ops"] = runs
        if spans is not None:
            result["trace"] = spans.dump()
    with open(result_path, "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
