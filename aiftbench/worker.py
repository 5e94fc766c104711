"""One benchmark process, started fresh by run.py.

    worker.py fixtures WORKLOAD SEED WORK
    worker.py probe    WORKLOAD SEED WORK
    worker.py run      WORKLOAD SEED WORK SECONDS TRACE

``probe`` and ``run`` do the timed set-up (import aift, read the inputs,
build what the workload needs) and print ``ready``; run.py times the
interval from starting the process to that line.  ``probe`` exits there.
``run`` goes on with an untimed warm-up round and timed rounds for SECONDS,
reads the peak resident memory of the working process, checks the outputs
and prints one JSON line.
"""

import json
import resource
import sys
import time
from pathlib import Path

import checkers
import tracing
import workloads


def main(argv) -> int:
    mode, workload, seed, work = argv[0], argv[1], int(argv[2]), Path(argv[3])
    if mode == "fixtures":
        workloads.make_fixtures(workload, seed, work)
        return 0
    traced = mode == "run" and argv[5] == "1"
    # cli is traced inside its stage processes
    tracer = tracing.Tracer().install() if traced and workload != "cli" else None
    wl = workloads.WORKLOADS[workload](work, seed, traced)
    print("ready", flush=True)
    if mode == "probe":
        return 0
    return run(wl, workload, seed, float(argv[4]), traced, tracer)


def run(wl, workload: str, seed: int, seconds: float, traced: bool, tracer) -> int:
    def one_round(index):
        if tracer is not None:
            tracer.round = index
        return wl.round(index)

    one_round(0)
    reference = wl.digest
    times = []
    started = time.perf_counter()
    while not times or time.perf_counter() - started < seconds:
        times.append(one_round(len(times) + 1))
        try:
            checkers.check_same(f"round {len(times)}", wl.digest, reference)
        except checkers.CheckFailed as exc:
            wl.problems.append(str(exc))
    # the stage processes are the working processes of cli
    who = resource.RUSAGE_CHILDREN if workload == "cli" else resource.RUSAGE_SELF
    peak_mb = resource.getrusage(who).ru_maxrss / 1024.0

    if tracer is not None:
        tracer.round = tracing.CHECKS
    problems = list(wl.problems)
    if not problems:
        try:
            wl.check(checkers.load_oracles())
        except checkers.CheckFailed as exc:
            problems.append(str(exc))
    result = {"round_s": times, "attempted": wl.OPS * (len(times) + 1), "failed": wl.failed,
              "peak_rss_mb": peak_mb, "problems": problems}
    if traced:
        spans = wl.spans if workload == "cli" else tracer.spans
        walls = {k: v / len(times) for k, v in getattr(wl, "stage_walls", {}).items()}
        result["per_layer"] = tracing.layer_metrics(spans, len(times), walls)
        out = Path(__file__).resolve().parent.parent / ".aiftbench_out" / f"trace-{workload}-{seed}"
        tracing.write_trace(out, spans, {"workload": workload, "seed": seed, "round_s": times})
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
