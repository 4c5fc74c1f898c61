"""Command-line interface: outputs, determinism, and exit codes."""
from __future__ import annotations

import json
import os
import pkgutil
import shutil
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner

import epinet
from epinet import parse_edge_list
from epinet.cli import main
import epinet.cli as cli_module


@pytest.fixture
def runner():
    return CliRunner()


def source_env() -> dict:
    """The environment of a child Python that imports epinet from this
    source tree."""
    src = str(Path(epinet.__file__).resolve().parents[1])
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))


@pytest.fixture
def star3_file(tmp_path):
    path = tmp_path / "star3.txt"
    path.write_text("n=3\n0 1\n0 2\n")
    return str(path)


@pytest.fixture
def path3_file(tmp_path):
    path = tmp_path / "path3.txt"
    path.write_text("n=3\n0 1\n1 2\n")
    return str(path)


class TestGen:
    def test_star_output(self, runner, tmp_path):
        out = str(tmp_path / "g.txt")
        res = runner.invoke(main, ["gen", "--kind", "star", "--n", "3",
                                   "-o", out])
        assert res.exit_code == 0
        assert "n=3 edges=2" in res.output
        assert "lambda_max=1.41421" in res.output
        g = parse_edge_list(open(out).read())
        assert g.n == 3 and g.m == 2

    def test_er_requires_p(self, runner, tmp_path):
        res = runner.invoke(main, ["gen", "--kind", "er", "--n", "10",
                                   "-o", str(tmp_path / "g.txt")])
        assert res.exit_code == 2
        assert "--p" in res.output

    def test_geometric_requires_radius(self, runner, tmp_path):
        res = runner.invoke(main, ["gen", "--kind", "geometric", "--n", "10",
                                   "-o", str(tmp_path / "g.txt")])
        assert res.exit_code == 2

    def test_deterministic_bytes(self, runner, tmp_path):
        a, b = str(tmp_path / "a.txt"), str(tmp_path / "b.txt")
        for out in (a, b):
            res = runner.invoke(main, ["gen", "--kind", "er", "--n", "40",
                                       "--p", "0.1", "--seed", "7",
                                       "-o", out])
            assert res.exit_code == 0
        assert open(a, "rb").read() == open(b, "rb").read()

    def test_negative_seed_exit_2(self, runner, tmp_path):
        res = runner.invoke(main, ["gen", "--kind", "er", "--n", "10",
                                   "--p", "0.2", "--seed", "-1",
                                   "-o", str(tmp_path / "g.txt")])
        assert res.exit_code == 2
        assert "--seed" in res.output

    def test_generate_spec_unknown_param_exit_2(self, runner, tmp_path):
        res = runner.invoke(main, [
            "meanfield", "--generate", "path:n=3,p=0.5,q=2", "--variant",
            "sis-ia", "--beta", "0.5", "--delta", "0.5",
            "-o", str(tmp_path / "mf.json"),
        ])
        assert res.exit_code == 2
        assert ("Error: invalid --generate spec 'path:n=3,p=0.5,q=2': "
                "generator 'path' does not accept p, q") in res.output

    @pytest.mark.parametrize("kind", ["path", "star", "complete"])
    def test_flag_the_kind_does_not_take_exit_2(self, runner, tmp_path,
                                                 kind):
        out = tmp_path / "g.txt"
        res = runner.invoke(main, ["gen", "--kind", kind, "--n", "3",
                                   "--p", "0.5", "--radius", "2",
                                   "-o", str(out)], prog_name="epinet")
        assert res.exit_code == 2
        assert "Usage: epinet gen [OPTIONS]" in res.output
        assert (f"Error: generator {kind!r} does not accept --p, --radius\n"
                in res.output)
        assert not out.exists()

    @pytest.mark.parametrize("args, flag", [
        (["--kind", "er", "--p", "0.5", "--radius", "2"], "--radius"),
        (["--kind", "geometric", "--radius", "0.5", "--p", "0.5"], "--p"),
        (["--kind", "path", "--p", "0.5"], "--p"),
    ])
    def test_error_names_the_flag(self, runner, tmp_path, args, flag):
        res = runner.invoke(main, ["gen", "--n", "3", *args,
                                   "-o", str(tmp_path / "g.txt")])
        assert res.exit_code == 2
        kind = args[1]
        assert (f"Error: generator {kind!r} does not accept {flag}\n"
                in res.output)

    def test_generate_spec_names_the_parameter(self, runner, tmp_path):
        res = runner.invoke(main, [
            "meanfield", "--generate", "er:n=3,p=0.5,r=2", "--variant",
            "sis-ia", "--beta", "0.5", "--delta", "0.5",
            "-o", str(tmp_path / "mf.json"),
        ])
        assert res.exit_code == 2
        assert "generator 'er' does not accept r\n" in res.output


class TestSimulate:
    def test_runs_and_writes_csv(self, runner, path3_file, tmp_path):
        out = str(tmp_path / "sim.csv")
        res = runner.invoke(main, [
            "simulate", "--graph", path3_file, "--variant", "sis-nia",
            "--beta", "0.1", "--delta", "0.9", "--t", "50", "--reps", "10",
            "--seed", "3", "-o", out,
        ])
        assert res.exit_code == 0
        assert "ratio=" in res.output and "extinct=" in res.output
        text = open(out).read()
        assert text.startswith("t,s,i,r\n")
        assert len(text.strip().splitlines()) == 52

    def test_disconnected_graph_warning_on_stderr(self, tmp_path):
        """A library warning reaches stderr as its message alone, with no
        source path or line number. The CLI runs as a process: under pytest
        the log records go to pytest's own handlers."""
        proc = subprocess.run([
            sys.executable, "-m", "epinet.cli", "simulate",
            "--generate", "er:n=50,p=0.1,seed=3", "--variant", "sis-nia",
            "--beta", "0.2", "--delta", "0.3", "--t", "20",
            "-o", str(tmp_path / "sim.csv"),
        ], capture_output=True, text=True, env=source_env())
        assert proc.returncode == 0, proc.stderr
        assert proc.stderr == ("graph is disconnected (2 components); using "
                               "the component with the largest eigenvalue\n")

    def test_memory_budget_exit_2_before_states(self, runner, path3_file,
                                                tmp_path, monkeypatch):
        """simulate and sweep refuse a run whose estimate passes the one
        budget constant, before any state matrix is allocated: per grid
        point reps * (n + 16) + 80 * (t + 1) + 1024 bytes."""
        mc = epinet.monte_carlo
        need = 4 * (3 + 16) + 80 * (10 + 1) + 1024
        real_init = mc._init_states
        inits = []

        def recording(*args):
            inits.append(1)
            return real_init(*args)

        monkeypatch.setattr(mc, "_init_states", recording)
        rates = ["--variant", "sis-nia", "--delta", "0.9", "--t", "10",
                 "--reps", "4"]
        for budget, code in ((need - 1, 2), (need, 0)):
            monkeypatch.setattr(mc, "MEMORY_BUDGET_BYTES", budget)
            out = tmp_path / f"sim{budget}.csv"
            res = runner.invoke(main, ["simulate", "--graph", path3_file,
                                       *rates, "--beta", "0.1",
                                       "-o", str(out)])
            assert res.exit_code == code, res.output
            assert ("memory budget" in res.output) is (code == 2)
            assert len(inits) == out.exists() == (code == 0)
        monkeypatch.setattr(mc, "MEMORY_BUDGET_BYTES", 2 * need - 1)
        res = runner.invoke(main, ["sweep", "--graph", path3_file, *rates,
                                   "--beta-grid", "0.1,0.2",
                                   "-o", str(tmp_path / "sweep.csv")])
        assert res.exit_code == 2 and "memory budget" in res.output
        assert inits == [1]

    def test_t_zero_rejected(self, runner, path3_file, tmp_path):
        res = runner.invoke(main, [
            "simulate", "--graph", path3_file, "--variant", "sis-nia",
            "--beta", "0.1", "--delta", "0.9", "--t", "0",
            "-o", str(tmp_path / "x.csv"),
        ])
        assert res.exit_code == 2

    def test_byte_identical_reruns(self, runner, path3_file, tmp_path):
        args = [
            "simulate", "--graph", path3_file, "--variant", "sirs",
            "--beta", "0.5", "--delta", "0.3", "--gamma", "0.4",
            "--t", "30", "--reps", "8", "--seed", "11",
        ]
        a, b = str(tmp_path / "a.csv"), str(tmp_path / "b.csv")
        assert runner.invoke(main, args + ["-o", a]).exit_code == 0
        assert runner.invoke(main, args + ["-o", b]).exit_code == 0
        assert open(a, "rb").read() == open(b, "rb").read()

    def test_graph_source_exclusivity(self, runner, path3_file, tmp_path):
        base = ["simulate", "--variant", "sis-nia", "--beta", "0.1",
                "--delta", "0.9", "-o", str(tmp_path / "x.csv")]
        res = runner.invoke(main, base)
        assert res.exit_code == 2
        assert "exactly one graph source" in res.output
        res = runner.invoke(main, base + [
            "--graph", path3_file, "--generate", "path:n=3",
        ])
        assert res.exit_code == 2

    def test_generate_spec(self, runner, tmp_path):
        out = str(tmp_path / "sim.csv")
        res = runner.invoke(main, [
            "simulate", "--generate", "er:n=20,p=0.2,seed=5",
            "--variant", "sis-ia", "--beta", "0.2", "--delta", "0.8",
            "--t", "20", "--reps", "4", "-o", out,
        ])
        assert res.exit_code == 0

    def test_bad_init_spec(self, runner, path3_file, tmp_path):
        res = runner.invoke(main, [
            "simulate", "--graph", path3_file, "--variant", "sis-nia",
            "--beta", "0.1", "--delta", "0.9", "--init", "everything",
            "-o", str(tmp_path / "x.csv"),
        ])
        assert res.exit_code == 2

    def test_readme_geometric_spec(self, runner, tmp_path):
        res = runner.invoke(main, [
            "simulate", "--generate", "geometric:n=50,r=0.3,seed=2",
            "--variant", "sis-nia", "--beta", "0.1", "--delta", "0.9",
            "--t", "10", "-o", str(tmp_path / "x.csv"),
        ])
        assert res.exit_code == 0, res.output

    def test_readme_init_fraction(self, runner, tmp_path):
        out = str(tmp_path / "x.csv")
        res = runner.invoke(main, [
            "simulate", "--generate", "path:n=40", "--variant", "sis-ia",
            "--beta", "0.3", "--delta", "0.5", "--t", "15", "--reps", "3",
            "--seed", "4", "--init", "fraction:0.1", "-o", out,
        ])
        assert res.exit_code == 0, res.output
        expected = epinet.mc_ensemble(
            epinet.ModelSpec("sis-ia", beta=0.3, delta=0.5),
            epinet.generate("path", n=40), init=0.1, t_max=15, n_reps=3,
            master_seed=4)
        assert open(out).read() == epinet.ensemble_to_csv(expected)

    def test_readme_init_nodes(self, runner, tmp_path):
        out = str(tmp_path / "x.csv")
        res = runner.invoke(main, [
            "simulate", "--generate", "path:n=20", "--variant", "sirs",
            "--beta", "0.3", "--delta", "0.5", "--gamma", "0.4",
            "--t", "5", "--init", "nodes:0,3,17", "-o", out,
        ])
        assert res.exit_code == 0, res.output
        assert open(out).read().splitlines()[1] == "0,17.0,3.0,0.0"

    def test_readme_contact_with_graph_source(self, runner, path3_file,
                                              tmp_path):
        contact = tmp_path / "contact.csv"
        contact.write_text("0.2,0.3,0\n0.3,0.2,0.3\n0,0.3,0.2\n")
        res = runner.invoke(main, [
            "simulate", "--graph", path3_file, "--variant", "sis-general",
            "--contact", str(contact), "--t", "10",
            "-o", str(tmp_path / "x.csv"),
        ])
        assert res.exit_code == 0, res.output

    @pytest.mark.parametrize("command", ["meanfield", "exact", "simulate"])
    def test_nan_contact_exit_2(self, runner, tmp_path, command):
        contact = tmp_path / "nan.csv"
        contact.write_text("nan,0.1\n0.1,0.2\n")
        out = tmp_path / "out"
        res = runner.invoke(main, [
            command, "--generate", "path:n=2", "--variant", "sis-general",
            "--contact", str(contact), "-o", str(out),
        ])
        assert res.exit_code == 2, res.output
        assert "contact matrix entries must be finite" in res.output
        assert not out.exists()

    def test_missing_graph_file(self, runner, tmp_path):
        res = runner.invoke(main, [
            "simulate", "--graph", str(tmp_path / "nope.txt"),
            "--variant", "sis-nia", "--beta", "0.1", "--delta", "0.9",
            "-o", str(tmp_path / "x.csv"),
        ])
        assert res.exit_code == 1  # ClickException: runtime error, not usage


    def test_negative_seed_exit_2(self, runner, path3_file, tmp_path):
        res = runner.invoke(main, [
            "simulate", "--graph", path3_file, "--variant", "sis-nia",
            "--beta", "0.1", "--delta", "0.9", "--t", "5", "--seed", "-1",
            "-o", str(tmp_path / "x.csv"),
        ])
        assert res.exit_code == 2
        assert "--seed" in res.output

    @pytest.mark.parametrize("variant", ["sis-nia", "sis-general"])
    def test_escape_factor_zero_is_silent(self, tmp_path, variant):
        """An infection probability of 1 (beta w_ij = 1 on a weighted
        graph, or a contact entry m_ij = 1) takes log(0) in the sampler,
        which is floored without a numpy warning: the command writes
        nothing to stderr, even with warnings made errors."""
        graph = tmp_path / "g.txt"
        graph.write_text("n=4\n0 1 1.0\n1 2 0.5\n2 3 0.25\n")
        if variant == "sis-nia":
            model = ["--beta", "1.0", "--delta", "0.5"]
        else:
            M = np.full((4, 4), 0.1)
            M[0, 1] = 1.0
            np.savetxt(tmp_path / "c.csv", M, delimiter=",")
            model = ["--contact", str(tmp_path / "c.csv")]
        proc = subprocess.run([
            sys.executable, "-W", "error", "-m", "epinet.cli", "simulate",
            "--graph", str(graph), "--variant", variant, *model,
            "--t", "20", "--reps", "4", "-o", str(tmp_path / "sim.csv"),
        ], capture_output=True, text=True, env=source_env())
        assert proc.returncode == 0, proc.stderr
        assert proc.stderr == ""


class TestMeanfield:
    def test_endemic_json(self, runner, star3_file, tmp_path):
        out = str(tmp_path / "mf.json")
        res = runner.invoke(main, [
            "meanfield", "--graph", star3_file, "--variant", "sis-ia",
            "--beta", "0.9", "--delta", "0.9", "-o", out,
        ])
        assert res.exit_code == 0
        assert "classification=endemic" in res.output
        payload = json.loads(open(out).read())
        assert payload["classification"] == "endemic"
        assert payload["n"] == 3
        got = np.asarray(payload["point"]["p_i"])
        assert np.allclose(got, [2 / 7, 2 / 9, 2 / 9], atol=1e-8)
        assert payload["jacobian_spectral_radius"] == pytest.approx(
            1.0586566583218526, abs=1e-9
        )
        rho_from_list = max(
            abs(complex(re, im)) for re, im in
            zip(payload["jacobian_spectrum"]["real"],
                payload["jacobian_spectrum"]["imag"])
        )
        assert rho_from_list == pytest.approx(
            payload["jacobian_spectral_radius"], abs=1e-12
        )

    def test_raw_iteration_reports_cycle(self, runner, star3_file, tmp_path):
        out = str(tmp_path / "mf.json")
        res = runner.invoke(main, [
            "meanfield", "--graph", star3_file, "--variant", "sis-ia",
            "--beta", "0.9", "--delta", "0.9", "--raw-iteration", "-o", out,
        ])
        assert res.exit_code == 0
        payload = json.loads(open(out).read())
        assert payload["classification"] == "cycle(2)"

    def test_raw_iteration_with_damping_exit_2(self, runner, star3_file,
                                               tmp_path):
        """--raw-iteration iterates undamped, so a --damping beside it
        would be ignored: the pair is refused."""
        out = tmp_path / "mf.json"
        res = runner.invoke(main, [
            "meanfield", "--graph", star3_file, "--variant", "sis-ia",
            "--beta", "0.9", "--delta", "0.9", "--raw-iteration",
            "--damping", "0.3", "-o", str(out),
        ])
        assert res.exit_code == 2
        assert "--raw-iteration and --damping" in res.output
        assert not out.exists()

    def test_non_converged_exit_3(self, runner, star3_file, tmp_path):
        res = runner.invoke(main, [
            "meanfield", "--graph", star3_file, "--variant", "sis-nia",
            "--beta", "0.9", "--delta", "0.3", "--cap", "2",
            "--tol", "1e-14", "-o", str(tmp_path / "mf.json"),
        ])
        assert res.exit_code == 3

    @pytest.mark.parametrize("flag, value", [
        ("--tol", "inf"), ("--tol", "nan"), ("--tol", "0"), ("--tol", "-1e-9"),
        ("--damping", "nan"), ("--damping", "0"), ("--damping", "1.5"),
    ])
    def test_bad_tol_or_damping_exit_2(self, runner, path3_file, tmp_path,
                                       flag, value):
        out = tmp_path / "mf.json"
        res = runner.invoke(main, [
            "meanfield", "--graph", path3_file, "--variant", "sirs",
            "--beta", "0.9", "--delta", "0.3", "--gamma", "0.2",
            flag, value, "-o", str(out),
        ])
        assert res.exit_code == 2
        assert flag in res.output
        assert not out.exists()

    def test_trajectory_output(self, runner, path3_file, tmp_path):
        out = str(tmp_path / "mf.json")
        traj = str(tmp_path / "traj.csv")
        res = runner.invoke(main, [
            "meanfield", "--graph", path3_file, "--variant", "sirs",
            "--beta", "0.6", "--delta", "0.3", "--gamma", "0.4",
            "--traj-out", traj, "--traj-steps", "12", "-o", out,
        ])
        assert res.exit_code == 0
        lines = open(traj).read().strip().splitlines()
        assert lines[0] == "t,s,i,r"
        assert len(lines) == 14  # t = 0..12
        t0 = lines[1].split(",")
        assert float(t0[2]) == 3.0  # all-infected start

    def test_byte_identical_json(self, runner, path3_file, tmp_path):
        args = ["meanfield", "--graph", path3_file, "--variant", "siv-vd",
                "--beta", "0.8", "--delta", "0.2", "--gamma", "0.6",
                "--theta", "0.05"]
        a, b = str(tmp_path / "a.json"), str(tmp_path / "b.json")
        assert runner.invoke(main, args + ["-o", a]).exit_code == 0
        assert runner.invoke(main, args + ["-o", b]).exit_code == 0
        assert open(a, "rb").read() == open(b, "rb").read()

    def test_edge_order_does_not_matter(self, runner, tmp_path):
        # The same weighted graph written sorted, then shuffled with
        # reversed and repeated edges, gives byte-identical reports.
        rng = np.random.default_rng(3)
        g = epinet.generate("er", n=30, p=0.2, seed=2)
        w = rng.uniform(0.3, 1.0, g.m)
        lines = [f"{i} {j} {x!r}" for (i, j), x in zip(g.edges, w.tolist())]
        shuffled = [lines[k] for k in rng.permutation(len(lines))]
        shuffled = [" ".join(v.split()[1::-1] + v.split()[2:])
                    if k % 3 == 0 else v for k, v in enumerate(shuffled)]
        shuffled += shuffled[::4]
        reports = []
        for name, body in (("sorted", lines), ("shuffled", shuffled)):
            path = tmp_path / f"{name}.txt"
            path.write_text("n=30\n" + "\n".join(body) + "\n")
            out = tmp_path / f"{name}.json"
            res = runner.invoke(main, [
                "meanfield", "--graph", str(path), "--variant", "sirs",
                "--beta", "0.3", "--delta", "0.5", "--gamma", "0.4",
                "-o", str(out),
            ])
            assert res.exit_code == 0, res.output
            reports.append(out.read_bytes())
        assert reports[0] == reports[1]

    def test_missing_rates_usage_error(self, runner, path3_file, tmp_path):
        res = runner.invoke(main, [
            "meanfield", "--graph", path3_file, "--variant", "sirs",
            "--beta", "0.5", "--delta", "0.3",
            "-o", str(tmp_path / "x.json"),
        ])
        assert res.exit_code == 2
        assert "gamma" in res.output


class TestExact:
    def test_path3_report(self, runner, path3_file, tmp_path):
        out = str(tmp_path / "exact.json")
        res = runner.invoke(main, [
            "exact", "--graph", path3_file, "--variant", "sis-nia",
            "--beta", "0.1", "--delta", "0.9", "-o", out,
        ])
        assert res.exit_code == 0
        payload = json.loads(open(out).read())
        assert payload["t_mix"] == 2
        assert payload["t_mix"] <= payload["bound"] + 1
        assert payload["worst_initial"] == "111"
        assert payload["stationary_defect"] <= 1e-10
        assert not payload["censored"]

    def test_state_space_cap_exit_2(self, runner, tmp_path):
        res = runner.invoke(main, [
            "exact", "--generate", "path:n=30", "--variant", "sis-nia",
            "--beta", "0.1", "--delta", "0.9",
            "-o", str(tmp_path / "x.json"),
        ])
        assert res.exit_code == 2
        assert "cap" in res.output and "65536" in res.output

    def test_contact_size_mismatch_exit_2(self, runner, path3_file,
                                          tmp_path):
        contact = tmp_path / "c4.csv"
        contact.write_text("0.2,0.2,0.2,0.2\n" * 4)
        res = runner.invoke(main, [
            "exact", "--graph", path3_file, "--variant", "sis-general",
            "--contact", str(contact), "-o", str(tmp_path / "x.json"),
        ])
        assert res.exit_code == 2
        assert "contact matrix is 4x4 but graph has n=3" in res.output

    def test_memory_budget_exit_2(self, runner, tmp_path, monkeypatch):
        monkeypatch.setattr(epinet.exact_chain, "MEMORY_BUDGET_BYTES", 1024)
        res = runner.invoke(main, [
            "exact", "--generate", "path:n=3", "--variant", "sirs",
            "--beta", "0.1", "--delta", "0.9", "--gamma", "0.5",
            "-o", str(tmp_path / "x.json"),
        ])
        assert res.exit_code == 2
        assert "memory budget" in res.output
        assert not (tmp_path / "x.json").exists()

    def test_dense_scan_budget_checked_before_build(self, runner, tmp_path,
                                                    monkeypatch):
        # siv-id has a non-point stationary law, so its mixing scan is
        # dense: 2 * 27^2 * 8 bytes on path:n=3. Above the budget the
        # command must exit 2 without building S.
        def no_build(*args):
            raise AssertionError("S was built")

        monkeypatch.setattr(epinet.exact_chain, "MEMORY_BUDGET_BYTES",
                            2 * 27 * 27 * 8 - 1)
        monkeypatch.setattr(cli_module, "build_transition_matrix", no_build)
        monkeypatch.setattr(epinet.exact_chain, "build_transition_matrix",
                            no_build)
        res = runner.invoke(main, [
            "exact", "--generate", "path:n=3", "--variant", "siv-id",
            "--beta", "0.1", "--delta", "0.6", "--gamma", "0.5",
            "--theta", "0.5", "-o", str(tmp_path / "x.json"),
        ])
        assert res.exit_code == 2, res.output
        assert "mixing scan" in res.output and "memory budget" in res.output
        assert not (tmp_path / "x.json").exists()

    @pytest.mark.skipif(not sys.platform.startswith("linux"),
                        reason="CPU affinity is set only on Linux")
    @pytest.mark.parametrize("args", [
        ["--generate", "path:n=7", "--variant", "sirs", "--beta", "0.05",
         "--delta", "0.6", "--gamma", "0.9"],
        ["--generate", "path:n=6", "--variant", "siv-id", "--beta", "0.1",
         "--delta", "0.6", "--gamma", "0.5", "--theta", "0.5"],
    ])
    def test_output_independent_of_cpus(self, tmp_path, args):
        """A run kept to one CPU builds S and S^2 serially, and writes what
        a run on every usable CPU writes, byte for byte."""
        def run(name, keep_to_one_cpu=None):
            out = tmp_path / f"{name}.json"
            proc = subprocess.run(
                [sys.executable, "-m", "epinet.cli", "exact", *args,
                 "-o", str(out)], capture_output=True, env=source_env(),
                preexec_fn=keep_to_one_cpu)
            assert proc.returncode == 0, proc.stderr
            return out.read_bytes(), proc.stdout

        one = min(os.sched_getaffinity(0))
        assert run("all") == run(
            "one", lambda: os.sched_setaffinity(0, {one}))

    def test_epsilon_range(self, runner, path3_file, tmp_path):
        res = runner.invoke(main, [
            "exact", "--graph", path3_file, "--variant", "sis-nia",
            "--beta", "0.1", "--delta", "0.9", "--epsilon", "0",
            "-o", str(tmp_path / "x.json"),
        ])
        assert res.exit_code == 2

    def test_builds_chain_once(self, runner, path3_file, tmp_path,
                               monkeypatch):
        calls = []
        build = epinet.exact_chain.build_transition_matrix

        def counting_build(model, graph):
            calls.append(model.variant)
            return build(model, graph)

        monkeypatch.setattr(cli_module, "build_transition_matrix",
                            counting_build)
        monkeypatch.setattr(epinet.exact_chain, "build_transition_matrix",
                            counting_build)
        res = runner.invoke(main, [
            "exact", "--graph", path3_file, "--variant", "sirs",
            "--beta", "0.1", "--delta", "0.9", "--gamma", "0.5",
            "-o", str(tmp_path / "x.json"),
        ])
        assert res.exit_code == 0, res.output
        assert calls == ["sirs"]

    @pytest.mark.parametrize("args, expected", [
        # The two commands of the benchmark's exact workload.
        ("--generate path:n=8 --variant sirs --beta 0.05 --delta 0.6 "
         "--gamma 0.9", (6, False, "11111111")),
        ("--generate path:n=7 --variant siv-id --beta 0.1 --delta 0.6 "
         "--gamma 0.5 --theta 0.5", (4, False, "1111111")),
        # Dense scans censored at the cap, and a long one.
        ("--generate path:n=5 --variant siv-vd --beta 0.5 --delta 0.3 "
         "--gamma 0.2 --theta 0.1 --epsilon 0.001 --cap 5",
         (None, True, "10101")),
        ("--generate star:n=5 --variant siv-id --beta 0.3 --delta 0.4 "
         "--gamma 0.3 --theta 0.2 --epsilon 0.01", (19, False, "01111")),
    ])
    def test_mixing_reports_pinned(self, runner, tmp_path, args, expected):
        out = str(tmp_path / "exact.json")
        res = runner.invoke(main, ["exact", *args.split(), "-o", out])
        assert res.exit_code == 0, res.output
        payload = json.loads(open(out).read())
        assert (payload["t_mix"], payload["censored"],
                payload["worst_initial"]) == expected

    def test_dense_scan_over_budget_exit_2(self, runner, tmp_path,
                                           monkeypatch):
        # siv-id on path:n=9 needs 2 * (3^9)^2 * 8 bytes, above 2 GiB.
        def no_build(*args):
            raise AssertionError("S was built")

        monkeypatch.setattr(cli_module, "build_transition_matrix", no_build)
        res = runner.invoke(main, [
            "exact", "--generate", "path:n=9", "--variant", "siv-id",
            "--beta", "0.1", "--delta", "0.6", "--gamma", "0.5",
            "--theta", "0.5", "-o", str(tmp_path / "x.json"),
        ])
        assert res.exit_code == 2, res.output
        assert "5.77 GiB" in res.output and "memory budget" in res.output

    def test_one_dense_scan_decision(self, runner, tmp_path, monkeypatch):
        """The command and mixing_time_exact both ask
        exact_chain.dense_mixing_scan whether the scan is dense."""
        calls = []
        real = epinet.exact_chain.dense_mixing_scan

        def recording(model, n):
            calls.append((model.variant, n))
            return real(model, n)

        monkeypatch.setattr(cli_module, "dense_mixing_scan", recording)
        monkeypatch.setattr(epinet.exact_chain, "dense_mixing_scan",
                            recording)
        res = runner.invoke(main, [
            "exact", "--generate", "path:n=2", "--variant", "siv-id",
            "--beta", "0.1", "--delta", "0.9", "--gamma", "0.5",
            "--theta", "0.5", "-o", str(tmp_path / "x.json"),
        ])
        assert res.exit_code == 0, res.output
        assert calls == [("siv-id", 2)] * 2

    def test_siv_nonpoint_stationary(self, runner, tmp_path):
        out = str(tmp_path / "exact.json")
        res = runner.invoke(main, [
            "exact", "--generate", "path:n=2", "--variant", "siv-id",
            "--beta", "0.1", "--delta", "0.9", "--gamma", "0.5",
            "--theta", "0.5", "-o", out,
        ])
        assert res.exit_code == 0
        payload = json.loads(open(out).read())
        assert payload["stationary_defect"] <= 1e-10
        assert payload["t_mix"] is not None


class TestVerify:
    def test_fixed_point_models_hit_their_ratio(self, monkeypatch):
        """The fixed-point suite sets beta from the variant table so that
        the threshold ratio lands in [1.3, 3] unless beta is capped at 1;
        at the benchmark's settings it runs 10 checks."""
        import epinet.verify as verify

        seen = []
        real = verify.find_fixed_point

        def recording(model, graph, **kw):
            seen.append((model, epinet.threshold_ratio(model, graph)))
            return real(model, graph, **kw)

        monkeypatch.setattr(verify, "find_fixed_point", recording)
        res = verify.run_suite("fixed-point", trials=12, seed=0)
        assert res.passed and res.checks == len(seen) == 10
        assert {m.variant for m, _ in seen} == {"sirs", "siv-id", "siv-vd"}
        for model, ratio in seen:
            assert 1.3 - 1e-12 <= ratio <= 3.0 + 1e-12 or model.beta == 1.0

    def test_suite_none_exit_2(self, runner):
        res = runner.invoke(main, ["verify", "--suite", "none"])
        assert res.exit_code == 2
        assert "not runnable" in res.output

    def test_unknown_suite_exit_2(self, runner):
        res = runner.invoke(main, ["verify", "--suite", "bogus"])
        assert res.exit_code == 2

    def test_single_suite_pass(self, runner, tmp_path):
        out = str(tmp_path / "verify.json")
        res = runner.invoke(main, [
            "verify", "--suite", "linear", "--trials", "6", "-o", out,
        ])
        assert res.exit_code == 0
        assert "linear: PASS" in res.output
        payload = json.loads(open(out).read())
        assert payload["passed"] is True
        assert payload["suites"][0]["suite"] == "linear"

    def test_failure_exit_4_with_replay(self, runner, monkeypatch):
        from epinet.verify import SuiteResult

        fake = SuiteResult(
            suite="linear", passed=False, checks=3,
            failures=[{"instance": {"seed": 1}, "reason": "forced"}],
            details={},
        )
        monkeypatch.setattr(cli_module, "run_suites", lambda *a, **k: [fake])
        res = runner.invoke(main, ["verify", "--suite", "linear"])
        assert res.exit_code == 4
        assert "linear: FAIL" in res.output
        assert "replay" in res.output and "forced" in res.output

    @pytest.mark.parametrize("suite", ["stationary", "mixing"])
    def test_stationary_failure_is_reported(self, runner, monkeypatch,
                                            suite):
        """A chain whose stationary law fails pi S = pi is a suite failure
        with its replay fields and exit 4, not a traceback."""
        import epinet.verify as verify

        build = verify.build_transition_matrix

        def tampered(model, graph):
            S = build(model, graph)
            S.entries.data[0] *= 0.999
            return S

        monkeypatch.setattr(verify, "build_transition_matrix", tampered)
        res = verify.run_suite(suite, trials=12, seed=0)
        assert not res.passed and res.failures
        for failure in res.failures:
            assert failure["check"] == "stationary"
            assert "pi S = pi fails" in failure["error"]
            assert {"variant", "graph", "model"} <= set(failure)
        res = runner.invoke(main, ["verify", "--suite", suite])
        assert res.exit_code == 4
        assert f"{suite}: FAIL" in res.output and "replay" in res.output

    @staticmethod
    def forced_failures():
        """(suite, trials, check, patches, replay): patches wrap functions
        of epinet.verify so that the check fails; replay(model, graph,
        record) reruns the check on the rebuilt instance and returns the
        (recorded value's key, value)."""
        import dataclasses

        import epinet.verify as v

        cf, lbc, fd = (v.closed_form_marginal_bound, v.linear_bound_check,
                       v.fd_jacobian)
        order, fixed = v.check_order_preservation, v.find_fixed_point

        def point(rec):
            return epinet.MeanFieldPoint(rec["p_i"], rec["p_r"])

        def lp(m, g, rec):
            return epinet.lp_marginal_max(m, g, rec["node"], point(rec)).lp_max

        def chain(m, g):
            return epinet.build_transition_matrix(m, g)

        def shift(fn, name, by):
            """fn with the field name of its report moved by `by`."""
            def shifted(*a, **k):
                rep = fn(*a, **k)
                return dataclasses.replace(
                    rep, **{name: getattr(rep, name) + by})
            return shifted

        return [
            ("lp", 12, "lp-bound",
             {"closed_form_marginal_bound": lambda *a: cf(*a) - 1.0},
             lambda m, g, rec: ("lp", lp(m, g, rec))),
            ("lp", 12, "lp-attainment",
             {"closed_form_marginal_bound": lambda *a: cf(*a) + 1.0},
             lambda m, g, rec: ("gap", lp(m, g, rec) - (cf(
                 m, g, rec["node"], point(rec)) + 1.0))),
            ("linear", 6, "linear-domination",
             {"linear_bound_check": lambda *a: lbc(*a) - 1.0},
             lambda m, g, rec: ("slack", lbc(m, g, point(rec)) - 1.0)),
            ("jacobian", 6, "jacobian-fd",
             {"fd_jacobian": lambda *a: fd(*a) + 1.0},
             lambda m, g, rec: ("error", float(np.abs(
                 epinet.mf_jacobian(m, g, point(rec))
                 - (fd(m, g, point(rec)) + 1.0)).max()))),
            ("ordering", 2, "ordered-pair",
             {"check_order_preservation": shift(order, "pair_min", -1.0)},
             lambda m, g, rec: ("pair_min", order(
                 chain(m, g), n_pairs=4, t_max=20,
                 seed=rec["seed"]).pair_min - 1.0)),
            ("ordering", 2, "transpose-identity",
             {"check_order_preservation": shift(order, "identity_defect",
                                                1.0)},
             lambda m, g, rec: ("defect", order(
                 chain(m, g), n_pairs=0).identity_defect + 1.0)),
            ("stability-er", 1, "endemic-classification",
             {"find_fixed_point": lambda *a, **k: fixed(*a, **k, cap=1)},
             lambda m, g, rec: ("classification", fixed(
                 m, g, tol=1e-10, cap=1).classification)),
        ]

    @pytest.mark.parametrize("case", range(7), ids=[
        "lp-bound", "lp-attainment", "linear-domination", "jacobian-fd",
        "ordered-pair", "transpose-identity", "endemic-classification"])
    def test_failure_record_replays(self, monkeypatch, case):
        """A forced failure records its instance: ModelSpec(**record["model"])
        and parse_edge_list(record["graph"]) rebuild it, and rerunning the
        check on them gives the recorded value bit for bit."""
        import epinet.verify as verify

        suite, trials, check, patches, replay = self.forced_failures()[case]
        for name, fn in patches.items():
            monkeypatch.setattr(verify, name, fn)
        res = verify.run_suite(suite, trials=trials, seed=0)
        records = [json.loads(json.dumps(rec)) for rec in res.failures
                   if rec["check"] == check]
        assert records and not res.passed
        for rec in records[:3]:
            model = epinet.ModelSpec(**rec["model"])
            g = parse_edge_list(rec["graph"])
            assert rec["variant"] == model.variant
            key, value = replay(model, g, rec)
            assert value == rec[key], (check, key)

    def test_negative_seed_exit_2(self, runner):
        res = runner.invoke(main, ["verify", "--suite", "linear",
                                   "--seed", "-1"])
        assert res.exit_code == 2
        assert "--seed" in res.output


class TestSweep:
    def test_two_point_grid(self, runner, path3_file, tmp_path):
        out = str(tmp_path / "sweep.csv")
        res = runner.invoke(main, [
            "sweep", "--graph", path3_file, "--variant", "sis-nia",
            "--delta", "0.9", "--beta-grid", "0.05,0.9", "--t", "300",
            "--reps", "10", "--seed", "4", "-o", out,
        ])
        assert res.exit_code == 0
        lines = open(out).read().strip().splitlines()
        assert lines[0] == ("beta,ratio,outcome,extinct_count,reps,"
                            "median_extinction,fp_norm")
        assert len(lines) == 3
        low = lines[1].split(",")
        high = lines[2].split(",")
        assert low[2] == "extinct"
        assert float(low[6]) < 1e-8  # disease-free fixed point
        assert float(high[1]) > 1.0  # ratio above threshold
        assert float(high[6]) > 0.1  # endemic fixed point

    def test_range_grid(self, runner, path3_file, tmp_path):
        out = str(tmp_path / "sweep.csv")
        res = runner.invoke(main, [
            "sweep", "--graph", path3_file, "--variant", "sis-nia",
            "--delta", "0.9", "--beta-grid", "0.1:0.3:0.1", "--t", "50",
            "--reps", "4", "-o", out,
        ])
        assert res.exit_code == 0
        lines = open(out).read().strip().splitlines()
        assert len(lines) == 4
        assert [ln.split(",")[0] for ln in lines[1:]] == ["0.1", "0.2",
                                                          "0.30000000000000004"]

    def test_general_variant_rejected(self, runner, path3_file, tmp_path):
        res = runner.invoke(main, [
            "sweep", "--graph", path3_file, "--variant", "sis-general",
            "--beta-grid", "0.1,0.2", "-o", str(tmp_path / "x.csv"),
        ])
        assert res.exit_code == 2

    @pytest.mark.parametrize("init, message", [
        ("fraction:1.5", "init fraction must be in [0,1]"),
        ("nodes:0,99", "explicit init set contains out-of-range nodes"),
    ])
    def test_bad_init_usage_error(self, runner, path3_file, tmp_path, init,
                                  message):
        res = runner.invoke(main, [
            "sweep", "--graph", path3_file, "--variant", "sis-nia",
            "--delta", "0.9", "--beta-grid", "0.1,0.2", "--t", "10",
            "--reps", "2", "--init", init, "-o", str(tmp_path / "x.csv"),
        ])
        assert res.exit_code == 2
        assert f"Error: {message}" in res.output

    def test_negative_seed_exit_2(self, runner, path3_file, tmp_path):
        res = runner.invoke(main, [
            "sweep", "--graph", path3_file, "--variant", "sis-nia",
            "--delta", "0.9", "--beta-grid", "0.1,0.2", "--t", "10",
            "--seed", "-1", "-o", str(tmp_path / "x.csv"),
        ])
        assert res.exit_code == 2
        assert "--seed" in res.output

    @pytest.mark.parametrize("value", ["nan", "inf", "0"])
    def test_bad_tol_exit_2(self, runner, path3_file, tmp_path, value):
        out = tmp_path / "x.csv"
        res = runner.invoke(main, [
            "sweep", "--graph", path3_file, "--variant", "sis-nia",
            "--delta", "0.9", "--beta-grid", "0.1,0.2", "--t", "10",
            "--tol", value, "-o", str(out),
        ])
        assert res.exit_code == 2
        assert "--tol" in res.output
        assert not out.exists()

    def test_tol_reaches_fixed_point(self, runner, tmp_path):
        """fp_norm is the fixed point at the given --tol, below 1e-10 too."""
        spec = "er:n=60,p=0.1,seed=3"
        g = epinet.generate("er", n=60, p=0.1, seed=3)
        norms = {}
        for tol in ("1e-10", "1e-13"):
            out = tmp_path / f"{tol}.csv"
            res = runner.invoke(main, [
                "sweep", "--generate", spec, "--variant", "sis-nia",
                "--delta", "0.6", "--beta-grid", "0.1,0.2", "--t", "10",
                "--reps", "2", "--tol", tol, "-o", str(out),
            ])
            assert res.exit_code == 0, res.output
            rows = [ln.split(",") for ln in out.read_text().splitlines()[1:]]
            for beta, row in zip((0.1, 0.2), rows):
                fp = epinet.find_fixed_point(
                    epinet.ModelSpec("sis-nia", beta=beta, delta=0.6), g,
                    tol=float(tol))
                assert row[6] == str(float(np.abs(fp.point.p_i).max()))
            norms[tol] = rows[0][6]
        assert norms == {"1e-10": "0.4658449109204583",
                         "1e-13": "0.4658449102983935"}

    def test_bad_grids(self, runner, path3_file, tmp_path):
        base = ["sweep", "--graph", path3_file, "--variant", "sis-nia",
                "--delta", "0.9", "-o", str(tmp_path / "x.csv"),
                "--beta-grid"]
        for bad in ("", "0.1:0.5", "0.2,1.5", "a,b"):
            res = runner.invoke(main, base + [bad])
            assert res.exit_code == 2, bad

    @pytest.mark.parametrize("flag", ["--beta", "--contact"])
    def test_beta_and_contact_rejected(self, runner, tmp_path, flag):
        """sweep takes beta from --beta-grid, and a rate variant takes no
        contact matrix; neither flag is silently ignored."""
        contact = tmp_path / "contact.csv"
        contact.write_text("0,1\n1,0\n")
        value = {"--beta": "0.9", "--contact": str(contact)}[flag]
        out = tmp_path / "x.csv"
        res = runner.invoke(main, [
            "sweep", "--generate", "path:n=2", "--variant", "sis-nia",
            "--delta", "0.5", "--beta-grid", "0.1,0.2", "--t", "5",
            flag, value, "-o", str(out),
        ])
        assert res.exit_code == 2, res.output
        assert flag.lstrip("-") in res.output
        assert not out.exists()

    @pytest.mark.parametrize("grid, message", [
        ("0:inf:0.1", "infinity"),
        ("nan:1:0.1", "NaN"),
        ("0:1:inf", "finite"),
        # About 1e294 points: refused before the range is built.
        ("0.05:0.0500001:1e-300", "memory budget"),
        ("0:1:1e-5", "memory budget"),
    ])
    def test_unbounded_range_grids(self, runner, tmp_path, grid, message):
        out = tmp_path / "x.csv"
        start = time.perf_counter()
        res = runner.invoke(main, [
            "sweep", "--generate", "path:n=2", "--variant", "sis-nia",
            "--delta", "0.5", "--beta-grid", grid, "-o", str(out),
        ])
        assert time.perf_counter() - start < 5
        assert res.exit_code == 2, res.output
        assert "invalid --beta-grid" in res.output and message in res.output
        assert not out.exists()

    def test_byte_identical(self, runner, path3_file, tmp_path):
        args = ["sweep", "--graph", path3_file, "--variant", "sis-ia",
                "--delta", "0.7", "--beta-grid", "0.2,0.6", "--t", "80",
                "--reps", "6", "--seed", "9"]
        a, b = str(tmp_path / "a.csv"), str(tmp_path / "b.csv")
        assert runner.invoke(main, args + ["-o", a]).exit_code == 0
        assert runner.invoke(main, args + ["-o", b]).exit_code == 0
        assert open(a, "rb").read() == open(b, "rb").read()


# Per subcommand: an engine call it makes (an alias in epinet.cli) and a
# command line that reaches that call.
_MODEL = ["--generate", "path:n=3", "--variant", "sis-nia", "--beta", "0.2",
          "--delta", "0.5"]
ENGINE_CALLS = {
    "gen": ("generate", ["gen", "--kind", "star", "--n", "3"]),
    "simulate": ("mc_ensemble", ["simulate", *_MODEL, "--t", "5"]),
    "meanfield": ("find_fixed_point", ["meanfield", *_MODEL]),
    "exact": ("mixing_time_exact", ["exact", *_MODEL]),
    "verify": ("run_suites", ["verify", "--suite", "linear"]),
    "sweep": ("find_fixed_point", ["sweep", *_MODEL[:4], "--delta", "0.5",
                                   "--beta-grid", "0.1", "--t", "5",
                                   "--reps", "2"]),
}


def _raise(exc: Exception):
    def engine(*args, **kwargs):
        raise exc
    return engine


class TestInputErrorBoundary:
    """Every subcommand reports the library's input errors as usage errors
    with its own usage line; the library's bug signals stay tracebacks."""

    @pytest.mark.parametrize("error", [
        epinet.GraphError, epinet.ModelError, epinet.ExactChainError,
        epinet.StateSpaceCapError, epinet.LPInfeasibleError,
        epinet.MonteCarloError, epinet.VerifyError,
    ], ids=lambda e: e.__name__)
    @pytest.mark.parametrize("command", list(ENGINE_CALLS))
    def test_input_error_exit_2(self, runner, tmp_path, monkeypatch,
                                command, error):
        target, argv = ENGINE_CALLS[command]
        message = f"forced {error.__name__} in {target}"
        monkeypatch.setattr(cli_module, target, _raise(error(message)))
        res = runner.invoke(main, [*argv, "-o", str(tmp_path / "out")],
                            prog_name="epinet")
        assert res.exit_code == 2, res.output
        assert f"Usage: epinet {command} [OPTIONS]" in res.output
        assert f"Error: {message}\n" in res.output
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("error", [
        epinet.MeanFieldError, epinet.StationaryVerificationError,
    ], ids=lambda e: e.__name__)
    @pytest.mark.parametrize("command", list(ENGINE_CALLS))
    def test_bug_signal_exit_1(self, runner, tmp_path, monkeypatch, command,
                               error):
        target, argv = ENGINE_CALLS[command]
        monkeypatch.setattr(cli_module, target, _raise(error("bug")))
        res = runner.invoke(main, [*argv, "-o", str(tmp_path / "out")],
                            prog_name="epinet")
        assert res.exit_code == 1
        assert isinstance(res.exception, error)
        assert "Usage:" not in res.output

    def test_exit_3_and_4_without_standalone_mode(self, star3_file,
                                                  tmp_path, monkeypatch):
        """Embedded callers (main(standalone_mode=False)) see the same exit
        codes: click returns a ctx.exit code, but sys.exit raises."""
        with pytest.raises(SystemExit) as exc:
            main.main([
                "meanfield", "--graph", star3_file, "--variant", "sis-nia",
                "--beta", "0.9", "--delta", "0.3", "--cap", "2",
                "--tol", "1e-14", "-o", str(tmp_path / "mf.json"),
            ], prog_name="epinet", standalone_mode=False)
        assert exc.value.code == 3

        from epinet.verify import SuiteResult
        fake = SuiteResult(suite="linear", passed=False, checks=1,
                           failures=[], details={})
        monkeypatch.setattr(cli_module, "run_suites", lambda *a, **k: [fake])
        with pytest.raises(SystemExit) as exc:
            main.main(["verify", "--suite", "linear"], prog_name="epinet",
                      standalone_mode=False)
        assert exc.value.code == 4


PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"


class TestEntryPoint:
    def test_version(self, runner):
        res = runner.invoke(main, ["--version"])
        assert res.exit_code == 0
        assert f"version {epinet.__version__}" in res.output

    def test_version_matches_pyproject(self):
        tomllib = pytest.importorskip("tomllib")
        project = tomllib.loads(PYPROJECT.read_text())["project"]
        assert epinet.__version__ == project["version"]

    def test_help_lists_commands(self, runner):
        res = runner.invoke(main, ["--help"])
        assert res.exit_code == 0
        for cmd in ("gen", "simulate", "meanfield", "exact", "verify",
                    "sweep"):
            assert cmd in res.output

    def test_console_script_installed(self):
        """The ``epinet`` script declared in pyproject.toml runs as a process.

        Runs the wrapper an install generates for ``[project.scripts]``
        (import the target, exit with its return value) from the source
        tree, so no install is needed.
        """
        tomllib = pytest.importorskip("tomllib")
        project = tomllib.loads(PYPROJECT.read_text())["project"]
        assert "epinet" in project["scripts"]
        target = project["scripts"]["epinet"]
        assert pkgutil.resolve_name(target) is cli_module.main
        module, _, func = target.partition(":")
        wrapper = ("import sys\n"
                   f"from {module} import {func.split('.')[0]}\n"
                   "sys.argv[0] = 'epinet'\n"
                   f"sys.exit({func}())")
        proc = subprocess.run([sys.executable, "-c", wrapper, "--version"],
                              capture_output=True, text=True,
                              env=source_env())
        assert proc.returncode == 0, proc.stderr
        assert project["version"] in proc.stdout

    def test_import_leaves_heavy_scipy_modules_unloaded(self):
        """Importing the CLI loads no scipy solver module; each is imported
        where it is used, so start-up time stays small."""
        heavy = ("scipy.sparse.linalg", "scipy.sparse.csgraph",
                 "scipy.optimize", "scipy.linalg")
        code = ("import sys, epinet.cli\n"
                f"print([m for m in {heavy!r} if m in sys.modules])")
        proc = subprocess.run([sys.executable, "-c", code],
                              capture_output=True, text=True,
                              env=source_env())
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[]"

    @pytest.mark.skipif(shutil.which("epinet") is None,
                        reason="epinet console script not on PATH")
    def test_console_script_on_path(self):
        proc = subprocess.run(["epinet", "--version"], capture_output=True,
                              text=True)
        assert proc.returncode == 0
        assert epinet.__version__ in proc.stdout
