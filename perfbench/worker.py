"""One pass of a benchmark workload, in a fresh process.

    python3 perfbench/worker.py --workload NAME --seed N --workdir DIR
        [--trace SPANS_FILE] [--setup-only]

Imports epinet from the checkout's `src/`, writes the workload's seeded
inputs into DIR, then runs each op through the click entry point in one
closed loop (the next command starts when the previous one returns), times
it, and checks its output. Prints one JSON line: the monotonic time at which
set-up ended, per-op results, the peak resident set, the environment and,
with --trace, the per-layer metrics (the spans go to SPANS_FILE).
"""
from __future__ import annotations

import argparse
import contextlib
import ctypes
import glob
import io
import json
import os
import resource
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import click  # noqa: E402
import numpy as np  # noqa: E402
import scipy  # noqa: E402

import epinet  # noqa: E402
from epinet.cli import main as cli_main  # noqa: E402

import workloads  # noqa: E402
from recorder import Recorder, layer_metrics  # noqa: E402


def run_cli(argv: list[str]) -> tuple[int, str]:
    """Run `epinet ARGV` in-process; return (exit code, echoed text)."""
    echo = io.StringIO()
    with contextlib.redirect_stdout(echo):
        try:
            cli_main.main(args=argv, prog_name="epinet",
                          standalone_mode=False)
            code = 0
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 1
        except click.ClickException as exc:
            exc.show()
            code = exc.exit_code
        except Exception:
            traceback.print_exc()
            code = 1
    return code, echo.getvalue()


def run_ops(ops: list[workloads.Op], recorder: Recorder | None = None
            ) -> list[dict]:
    results = []
    for op in ops:
        if recorder is None:
            start = time.perf_counter()
            code, echo = run_cli(op.argv)
            seconds = time.perf_counter() - start
        else:
            with recorder.op(op.name) as span:
                code, echo = run_cli(op.argv)
            span.error = code != 0
            seconds = span.end - span.start
        why = op.check(code, echo, op.out)
        if why is not None:
            print(f"{op.name}: {why}", file=sys.stderr)
        results.append({"name": op.name, "seconds": seconds, "exit": code,
                        "ok": why is None})
    return results


def _blas_threads() -> int | None:
    lib_dir = os.path.join(os.path.dirname(np.__file__), os.pardir,
                           "numpy.libs")
    for path in glob.glob(os.path.join(lib_dir, "libscipy_openblas*.so")):
        getter = getattr(ctypes.CDLL(path),
                         "scipy_openblas_get_num_threads64_", None)
        if getter is not None:
            getter.restype = ctypes.c_int
            return getter()
    return None


def environment(seed: int) -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "epinet": epinet.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
        "nproc": os.cpu_count(),
        "EPINET_THREADS": os.environ.get("EPINET_THREADS"),
        "workload_seed": seed,
    }


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--trace", default=None)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    os.makedirs(args.workdir, exist_ok=True)
    ops = workloads.make_ops(args.workload, args.seed, args.workdir)
    ready = time.monotonic()
    result: dict = {"ready": ready}
    if not args.setup_only:
        if args.trace is None:
            result["ops"] = run_ops(ops)
        else:
            recorder = Recorder()
            with recorder:
                result["ops"] = run_ops(ops, recorder)
            recorder.write(args.trace)
            result["layers"] = layer_metrics(recorder.spans)
        result["peak_rss_mb"] = (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0)
        result["environment"] = environment(args.seed)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
