"""Self-tests of the benchmark harness.

    python3 -m pytest -q perfbench
"""
from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import recorder  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from worker import run_ops  # noqa: E402


def _accept(code, echo, out):
    return None if code == 0 else f"exit code {code}"


def small_ops(workdir: str) -> list[workloads.Op]:
    """Tiny commands that reach every traced layer."""
    graph = "er:n=60,p=0.1,seed=1"
    specs = [
        ("meanfield", ["meanfield", "--generate", graph, "--variant",
                       "sis-nia", "--beta", "0.2", "--delta", "0.5"]),
        ("simulate", ["simulate", "--generate", graph, "--variant", "sirs",
                      "--beta", "0.2", "--delta", "0.5", "--gamma", "0.5",
                      "--t", "50", "--reps", "3", "--seed", "1"]),
        ("exact", ["exact", "--generate", "path:n=4", "--variant", "sirs",
                   "--beta", "0.05", "--delta", "0.6", "--gamma", "0.9"]),
        ("verify", ["verify", "--suite", "linear", "--trials", "2",
                    "--n-max", "3"]),
    ]
    ops = []
    for name, argv in specs:
        out = os.path.join(workdir, name + ".out")
        if name == "verify":
            out = None
        else:
            argv = [*argv, "-o", out]
        ops.append(workloads.Op(name, argv, out, _accept))
    return ops


def _traced(workdir: str) -> dict:
    rec = recorder.Recorder()
    with rec:
        results = run_ops(small_ops(workdir), rec)
    assert all(r["ok"] for r in results)
    return recorder.layer_metrics(rec.spans)


def test_traced_counts_repeat_exactly(tmp_path):
    first = _traced(str(tmp_path))
    second = _traced(str(tmp_path))
    counts = {name: first[name] for name in recorder.COUNT_METRICS}
    assert counts == {name: second[name] for name in recorder.COUNT_METRICS}
    assert counts["cli.commands"] == 4
    assert counts["exact_chain.build_transition_matrix.calls"] == 2
    assert counts["exact_chain.states"] == 3 ** 4
    assert counts["mean_field.fp_iterations"] > 0
    assert counts["monte_carlo.replicate_steps"] > 0
    assert counts["verify.linear.checks"] > 0
    assert all(first[f"{layer}.errors"] == 0 for layer in recorder.LAYERS)


def _aliases() -> dict:
    return {(ns.__name__, attr): val
            for ns in recorder.epinet_namespaces()
            for attr, val in vars(ns).items()}


def test_recorder_restores_every_alias():
    import epinet
    import epinet.cli
    import epinet.exact_chain

    before = _aliases()
    original = epinet.exact_chain.build_transition_matrix
    rec = recorder.Recorder()
    with rec:
        for ns in (epinet, epinet.cli, epinet.exact_chain):
            assert ns.build_transition_matrix is not original
        patched = {key for key, val in _aliases().items()
                   if val is not before[key]}
    assert ("epinet.verify", "run_suite") in patched
    after = _aliases()
    assert after.keys() == before.keys()
    assert all(after[key] is before[key] for key in before)


def test_corrupted_reference_fails_its_op(tmp_path):
    op = workloads.make_ops("exact", workloads.DEFAULT_SEED,
                            str(tmp_path))[1]
    good = op.check
    op.check = workloads.check_exact("exact.siv-id-path7",
                                     {"t_mix": 5, "censored": False})
    [result] = run_ops([op])
    assert result["exit"] == 0 and not result["ok"]
    assert good(0, "", op.out) is None


def _inputs(workload: str, seed: int, workdir: str):
    os.makedirs(workdir)
    ops = workloads.make_ops(workload, seed, workdir)
    files = {}
    for name in sorted(os.listdir(workdir)):
        with open(os.path.join(workdir, name), "rb") as fh:
            files[name] = fh.read()
    argv = [[a.replace(workdir, "<dir>") for a in op.argv] for op in ops]
    return files, argv


def test_workload_seed_changes_inputs(tmp_path):
    for workload in ("meanfield", "montecarlo", "exact"):
        base = _inputs(workload, 7, str(tmp_path / f"{workload}-a"))
        again = _inputs(workload, 7, str(tmp_path / f"{workload}-b"))
        other = _inputs(workload, 8, str(tmp_path / f"{workload}-c"))
        assert base == again
        assert base != other


def test_benchmark_json_lists_the_emitted_metrics():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} \
        == run.END_TO_END
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]} \
        == recorder.METRICS
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "exact",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
