"""Run one workload of the aift benchmark and print its result.

    python3 aiftbench/run.py --workload train|score|cli --seed N --seconds S --trace 0|1

Run from the root of a checkout of the repository.  The last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``: the end-to-end metrics (setup_s, round_s,
peak_rss_mb) untraced, the per-layer metrics with ``--trace 1``.  Every
process the benchmark starts has its BLAS and OpenMP threads pinned to one.
Working files go under ``.aiftbench_out/`` and are removed at the end;
traced runs leave their spans there.
"""

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".aiftbench_out"
WORKLOADS = ("train", "score", "cli")
SETUP_SAMPLES = 5        # fresh-interpreter set-ups per run; setup_s is their median
DEADLINE_S = 170.0       # a run must end within 180 s
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


class BenchError(Exception):
    pass


def child_env() -> dict:
    env = dict(os.environ)
    env.update({var: "1" for var in THREAD_VARS})
    env["PYTHONPATH"] = os.pathsep.join([str(ROOT / "src")] + (
        [env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return env


def _kill_group(pid: int) -> None:
    try:
        os.killpg(pid, signal.SIGKILL)
    except ProcessLookupError:
        pass


class Runner:
    def __init__(self, workload: str, seed: int, deadline: float):
        self.workload = workload
        self.seed = seed
        self.deadline = deadline
        self.env = child_env()
        self.work = OUT / f"work-{workload}-{seed}-{os.getpid()}"
        self.procs: list[subprocess.Popen] = []

    def _cmd(self, mode, *extra):
        return [sys.executable, str(HERE / "worker.py"), mode, self.workload, str(self.seed),
                str(self.work), *extra]

    def _left(self) -> float:
        left = self.deadline - time.monotonic()
        if left <= 0:
            raise BenchError("out of time")
        return left

    def fixtures(self) -> None:
        proc = subprocess.run(self._cmd("fixtures"), cwd=ROOT, env=self.env, timeout=self._left())
        if proc.returncode != 0:
            raise BenchError(f"fixtures exited {proc.returncode}")

    def start(self, mode, *extra):
        """Start a worker; return it with the seconds until it printed ``ready``.

        The worker leads a process group of its own, which a watchdog kills
        at the deadline, cli stage processes included.
        """
        left = self._left()
        started = time.perf_counter()
        proc = subprocess.Popen(self._cmd(mode, *extra), cwd=ROOT, env=self.env,
                                stdout=subprocess.PIPE, text=True, start_new_session=True)
        proc.watchdog = threading.Timer(left, _kill_group, (proc.pid,))
        self.procs.append(proc)
        proc.watchdog.start()
        line = proc.stdout.readline()
        ready = time.perf_counter() - started
        if line.strip() != "ready":
            self.finish(proc)
            raise BenchError(f"{mode} worker did not get ready: {line!r}")
        return proc, ready

    def finish(self, proc) -> str:
        out, _ = proc.communicate()
        proc.watchdog.cancel()
        if proc.returncode != 0:
            raise BenchError(f"worker exited {proc.returncode}")
        return out

    def close(self) -> None:
        """Stop and reap every worker still running."""
        for proc in self.procs:
            if proc.poll() is None:
                _kill_group(proc.pid)
                proc.communicate()
            proc.watchdog.cancel()

    def probe(self) -> float:
        proc, ready = self.start("probe")
        self.finish(proc)
        return ready

    def run(self, seconds: int, trace: int) -> dict:
        self.fixtures()
        # half the probes before the measured worker and half after it, so
        # that the set-up samples span the whole run
        probes = 0 if trace else SETUP_SAMPLES - 1
        setups = []
        if probes:
            self.probe()  # untimed: warms the bytecode and file caches
            setups = [self.probe() for _ in range(probes // 2)]
        proc, ready = self.start("run", str(seconds), str(trace))
        setups.append(ready)
        lines = self.finish(proc).strip().splitlines()
        setups += [self.probe() for _ in range(probes - probes // 2)]
        if not lines:
            raise BenchError("worker printed no result")
        result = json.loads(lines[-1])
        result["setup_s"] = setups
        return result


def report(result: dict, trace: int) -> dict:
    for problem in result["problems"]:
        print(f"check failed: {problem}", file=sys.stderr)
    if trace:
        metrics = result["per_layer"]
    else:
        metrics = {
            "setup_s": {"value": statistics.median(result["setup_s"]), "unit": "s"},
            "round_s": {"value": statistics.median(result["round_s"]), "unit": "s"},
            "peak_rss_mb": {"value": result["peak_rss_mb"], "unit": "MB"},
        }
    return {"correct": not result["problems"], "attempted": result["attempted"],
            "failed": result["failed"], "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "aift" / "__init__.py").is_file() or \
            not (ROOT / "tests" / "oracles.py").is_file():
        print(f"aiftbench: no aift sources under {ROOT} (needs src/aift and tests/oracles.py)",
              file=sys.stderr)
        return 2
    if args.seconds < 1:
        parser.error("--seconds must be >= 1")
    runner = Runner(args.workload, args.seed % 2**31, time.monotonic() + DEADLINE_S)
    try:
        result = runner.run(args.seconds, args.trace)
    except (BenchError, subprocess.SubprocessError, json.JSONDecodeError) as exc:
        print(f"aiftbench: {exc}", file=sys.stderr)
        return 1
    finally:
        runner.close()
        shutil.rmtree(runner.work, ignore_errors=True)
    print(json.dumps(report(result, args.trace)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
