"""Benchmark of the `epinet` command line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs the workload's commands in as many passes as fit in S seconds (at
least one). Every pass is a fresh worker process (perfbench/worker.py),
so no pass sees caches warmed by another, and runs the commands in a fixed
order, one client, closed loop. With --trace 0 no tracer is installed and
the passes give the end-to-end metrics; with --trace 1 each untraced pass
is followed by a traced one, which gives the per-layer metrics and the
tracing overhead. The last line of stdout is the result JSON; the line
before it is the environment. The full result, and the spans of traced
passes, are written under perfbench/out/.
"""
from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "out")
WORKER = os.path.join(HERE, "worker.py")

sys.path.insert(0, HERE)
from recorder import METRICS as LAYER_METRICS  # noqa: E402
from workloads import DEFAULT_SEED, WORKLOADS  # noqa: E402

END_TO_END = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}

# Set-up is timed in every pass and, if fewer passes fit, in set-up-only
# workers until there are this many samples; its median is reported.
SETUP_SAMPLES = 7
# A pass starts only if it would likely end within --seconds and within
# this many seconds, so that a run ends within 180 s.
BUDGET_S = 150.0


class WorkerFailed(RuntimeError):
    pass


def spawn(workload: str, seed: int, workdir: str, *extra: str,
          timeout: float) -> dict:
    """Run one worker; add `setup_s`, from spawn to the end of set-up."""
    env = dict(os.environ, EPINET_THREADS="1")
    start = time.monotonic()
    try:
        proc = subprocess.run(
            [sys.executable, WORKER, "--workload", workload, "--seed",
             str(seed), "--workdir", workdir, *extra],
            stdout=subprocess.PIPE, text=True, env=env, cwd=ROOT,
            timeout=timeout)
    except subprocess.TimeoutExpired:
        raise WorkerFailed(f"worker timed out after {timeout:.0f} s")
    if proc.returncode != 0:
        raise WorkerFailed(f"worker exited with code {proc.returncode}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    result["setup_s"] = result["ready"] - start
    return result


def git_commit() -> str | None:
    """HEAD of the checkout, read from .git without running git."""
    try:
        with open(os.path.join(ROOT, ".git", "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(ROOT, ".git", ref)
        if os.path.exists(ref_path):
            with open(ref_path, encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(ROOT, ".git", "packed-refs"),
                  encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


def op_medians(passes: list[dict]) -> dict[str, float]:
    """Median time of each op over the passes."""
    return {op["name"]: statistics.median(p["ops"][k]["seconds"]
                                          for p in passes)
            for k, op in enumerate(passes[0]["ops"])}


def run(workload: str, seed: int, seconds: float, trace: bool,
        workdir: str) -> tuple[dict, list[dict], list[dict]]:
    start = time.monotonic()
    untraced: list[dict] = []
    traced: list[dict] = []

    def remaining() -> float:
        return 175.0 - (time.monotonic() - start)

    while True:
        k = len(untraced)
        untraced.append(spawn(workload, seed, os.path.join(workdir, f"u{k}"),
                              timeout=remaining()))
        if trace:
            spans = os.path.join(OUT, f"{workload}-seed{seed}-pass{k}"
                                      ".spans.jsonl")
            traced.append(spawn(workload, seed,
                                os.path.join(workdir, f"t{k}"),
                                "--trace", spans, timeout=remaining()))
        elapsed = time.monotonic() - start
        if elapsed * (k + 2) / (k + 1) > min(seconds, BUDGET_S):
            break
    median = statistics.median
    op_times = op_medians(untraced)
    if trace:
        values = {name: median(p["layers"][name] for p in traced)
                  for name in LAYER_METRICS}
        values.update({f"{name}_s": t for name, t in op_times.items()})
        values["trace.overhead_s"] = (sum(op_medians(traced).values())
                                      - sum(op_times.values()))
        units = {name: unit for name, (unit, _) in LAYER_METRICS.items()}
    else:
        setups = [p["setup_s"] for p in untraced]
        while len(setups) < SETUP_SAMPLES:
            setups.append(spawn(workload, seed,
                                os.path.join(workdir, f"s{len(setups)}"),
                                "--setup-only",
                                timeout=remaining())["setup_s"])
        values = {
            "wall_s": sum(op_times.values()),
            "setup_s": median(setups),
            "peak_rss_mb": median(p["peak_rss_mb"] for p in untraced),
        }
        units = END_TO_END
    ops = [op for p in untraced + traced for op in p["ops"]]
    failed = sum(1 for op in ops if not op["ok"])
    summary = {
        "correct": failed == 0,
        "attempted": len(ops),
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in units.items()},
    }
    return summary, untraced, traced


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=list(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not os.path.isfile(os.path.join(ROOT, "src", "epinet", "__init__.py")):
        print("perfbench: no epinet sources under src/ next to perfbench/",
              file=sys.stderr)
        return 2
    os.makedirs(OUT, exist_ok=True)
    workdir = os.path.join(OUT, f"work-{os.getpid()}")
    try:
        summary, untraced, traced = run(args.workload, args.seed,
                                        args.seconds, bool(args.trace),
                                        workdir)
    except WorkerFailed as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    environment = dict(untraced[0]["environment"], git_commit=git_commit())
    record = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace,
              "environment": environment, "summary": summary,
              "passes": [{"ops": p["ops"], "setup_s": p["setup_s"],
                          "peak_rss_mb": p["peak_rss_mb"], "traced": is_traced}
                         for group, is_traced in ((untraced, False),
                                                  (traced, True))
                         for p in group]}
    path = os.path.join(OUT, f"{args.workload}-seed{args.seed}"
                             f"-trace{args.trace}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
    print(json.dumps({"environment": environment}))
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
