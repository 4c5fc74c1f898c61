"""The README's library quickstart and command lines run as written."""
from __future__ import annotations

import re
import shlex
from pathlib import Path

from click.testing import CliRunner

from epinet.cli import main

README = Path(__file__).resolve().parents[1] / "README.md"


def test_library_quickstart_runs(capsys):
    blocks = re.findall(r"```python\n(.*?)```",
                        README.read_text(encoding="utf-8"), re.S)
    assert len(blocks) == 1
    exec(compile(blocks[0], str(README), "exec"), {})
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 5
    assert lines[-1].endswith("replicates went extinct")


def readme_commands() -> list[tuple[str, list[str] | None]]:
    """Each `epinet ...` line of the README's text and sh blocks, with its
    `\\` continuations joined. A `$ epinet ...` prompt line comes with the
    output lines shown under it; a bare command line shows none (None)."""
    blocks = re.findall(r"```(?:text|sh)\n(.*?)```",
                        README.read_text(encoding="utf-8"), re.S)
    commands: list[tuple[str, list[str] | None]] = []
    for block in blocks:
        shown = None
        for line in re.sub(r"\\\n\s*", "", block).splitlines():
            if line.startswith(("epinet ", "$ epinet ")):
                shown = [] if line.startswith("$ ") else None
                commands.append((line.removeprefix("$ "), shown))
            elif not line.strip():
                shown = None
            elif shown is not None:
                shown.append(line)
    return commands


def test_command_lines_run(tmp_path, monkeypatch):
    """Every README command exits 0 and prints exactly the lines shown."""
    commands = readme_commands()
    assert [shlex.split(c)[1] for c, _ in commands] == [
        "gen", "meanfield", "exact", "simulate", "sweep", "verify"]
    monkeypatch.chdir(tmp_path)
    runner = CliRunner()
    for command, shown in commands:
        res = runner.invoke(main, shlex.split(command)[1:],
                            prog_name="epinet")
        assert res.exit_code == 0, (command, res.output)
        if shown is not None:
            assert res.output.splitlines() == shown, command


# Public names that no command, suite or README example reached, removed
# from the package; README's "These names are gone" list names each one.
REMOVED_NAMES = (
    "mc_run", "TrajectoryRecord", "mc_step", "SimState", "extinction_time",
    "parse_ensemble_csv", "classify_stability", "StabilityReport",
    "perron_certificate", "CertificateError", "tv_distance", "degree_stats",
    "MarginalVector", "node_transition_prob", "LinearModel",
    "mf_linear_model", "siv_base_point",
)
REMOVED_MEMBERS = (
    ("EnsembleReport", "i_q10"), ("EnsembleReport", "i_q50"),
    ("EnsembleReport", "i_q90"), ("ChainState", "complement"),
    ("ChainState", "support"), ("DistVector", "uniform"),
    ("Graph", "neighbors"), ("FixedPointReport", "jacobian_spectrum"),
    ("MixingReport", "bound"), ("LPReport", "closed_form"),
)
MODULES = ("model_core", "exact_chain", "mean_field", "monte_carlo",
           "verify", "cli")


def test_removed_names_stay_removed():
    import dataclasses
    import importlib

    import epinet

    spaces = [epinet] + [importlib.import_module(f"epinet.{name}")
                         for name in MODULES]
    for space in spaces:
        left = [name for name in REMOVED_NAMES if hasattr(space, name)]
        assert not left, (space.__name__, left)
    for cls_name, member in REMOVED_MEMBERS:
        cls = getattr(epinet, cls_name)
        fields = {f.name for f in dataclasses.fields(cls)} \
            if dataclasses.is_dataclass(cls) else set()
        assert not hasattr(cls, member) and member not in fields, \
            (cls_name, member)
    text = README.read_text(encoding="utf-8")
    gone = text[text.index("names are gone"):]
    for name in REMOVED_NAMES + tuple(f"{c}.{m}" for c, m in REMOVED_MEMBERS):
        assert f"`{name}`" in gone, name
