"""Command-line front end for graph generation, simulation, mean-field and
exact-chain analysis, parameter sweeps, and the verification suites.

Exit codes: 0 success, 1 a file that cannot be read or written, 2 usage
error (bad flags, a malformed input file, or a model, graph or request that
the library rejects), 3 mean-field non-convergence, 4 verification-suite
failure. Every subcommand is an InputErrorCommand, the one place where the
library's input errors become usage errors; its other errors
(MeanFieldError, and StationaryVerificationError outside verify, whose
suites record it as a failure) signal bugs and keep their tracebacks. Structured reports are JSON (sorted keys, 2-space indent);
trajectories are CSV with header "t,s,i,r".
Identical command lines and seeds produce byte-identical outputs. Output
files are written atomically (temp file + rename).
"""
from __future__ import annotations

import json
import math
import os
import sys
import tempfile

import click
import numpy as np

from .model_core import (
    _GENERATOR_PARAMS,
    _VARIANTS,
    _rate_ratio,
    Graph,
    GraphError,
    ModelError,
    ModelSpec,
    VARIANTS,
    format_edge_list,
    generate,
    parse_edge_list,
    spectral_radius,
    threshold_ratio,
)
from .exact_chain import (
    ExactChainError,
    build_transition_matrix,
    dense_mixing_scan,
    mixing_time_exact,
)
from . import __version__
from .mean_field import _upper_corner, find_fixed_point, mf_iterate
from .monte_carlo import (
    MonteCarloError,
    _check_memory,
    ensemble_to_csv,
    mc_ensemble,
    mc_grid,
)
from .verify import SUITES, VerifyError, run_suites


# ---------------------------------------------------------------------------
# Shared plumbing
# ---------------------------------------------------------------------------

def _atomic_write(path: str, text: str) -> None:
    directory = os.path.dirname(os.path.abspath(path))
    try:
        fd, tmp = tempfile.mkstemp(dir=directory, prefix=".epinet-tmp-")
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as fh:
                fh.write(text)
            os.replace(tmp, path)
        except BaseException:
            if os.path.exists(tmp):
                os.unlink(tmp)
            raise
    except OSError as exc:
        raise click.ClickException(f"cannot write {path}: {exc}")


def _json_default(o):
    if isinstance(o, np.integer):
        return int(o)
    if isinstance(o, np.floating):
        return float(o)
    if isinstance(o, np.ndarray):
        return o.tolist()
    raise TypeError(f"not JSON-serializable: {type(o).__name__}")


def _dump_json(obj) -> str:
    return json.dumps(obj, sort_keys=True, indent=2,
                      default=_json_default) + "\n"


def _generate_from_spec(spec: str) -> Graph:
    """Parse 'kind:key=val,...', e.g. 'er:n=2000,p=0.0082,seed=7'."""
    try:
        kind, _, rest = spec.partition(":")
        params: dict = {}
        if rest:
            for item in rest.split(","):
                key, sep, val = item.partition("=")
                if not sep:
                    raise ValueError(f"expected key=value, got {item!r}")
                key = key.strip()
                params[key] = int(val) if key in ("n", "seed") else float(val)
        seed = params.pop("seed", 0)
        return generate(kind.strip(), seed=seed, **params)
    except (GraphError, ValueError) as exc:
        raise click.UsageError(f"invalid --generate spec {spec!r}: {exc}")


def _load_graph(graph_path: str | None, generate_spec: str | None) -> Graph:
    if (graph_path is None) == (generate_spec is None):
        raise click.UsageError(
            "provide exactly one graph source: --graph PATH or --generate SPEC"
        )
    if generate_spec is not None:
        return _generate_from_spec(generate_spec)
    try:
        with open(graph_path, encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise click.ClickException(f"cannot read {graph_path}: {exc}")
    try:
        return parse_edge_list(text)
    except GraphError as exc:
        raise click.UsageError(f"{graph_path}: {exc}")


def _build_model(variant: str, beta: float | None = None,
                 delta: float | None = None, gamma: float | None = None,
                 theta: float | None = None,
                 contact_path: str | None = None) -> ModelSpec:
    rates = {"beta": beta, "delta": delta, "gamma": gamma, "theta": theta}
    kwargs: dict = {k: v for k, v in rates.items() if v is not None}
    if contact_path is not None:
        try:
            kwargs["contact"] = np.loadtxt(contact_path, delimiter=",",
                                           ndmin=2)
        except OSError as exc:
            raise click.ClickException(f"cannot read {contact_path}: {exc}")
        except ValueError as exc:
            raise click.UsageError(f"malformed contact matrix CSV: {exc}")
    return ModelSpec(variant, **kwargs)


def _parse_init(text: str):
    if text == "all-infected":
        return "all-infected"
    if text.startswith("fraction:"):
        try:
            return float(text.split(":", 1)[1])
        except ValueError:
            raise click.UsageError(f"bad init fraction in {text!r}")
    if text.startswith("nodes:"):
        body = text.split(":", 1)[1]
        try:
            return tuple(int(v) for v in body.split(",") if v.strip())
        except ValueError:
            raise click.UsageError(f"bad init node list in {text!r}")
    raise click.UsageError(
        "init must be 'all-infected', 'fraction:F', or 'nodes:I,J,...' "
        f"(got {text!r})"
    )

def _parse_grid(text: str | None, reps: int, n: int, t_max: int
                ) -> list[float]:
    """The beta values of --beta-grid. A grid whose Monte Carlo run of reps
    replicates on n nodes to t_max exceeds the memory budget is refused
    (monte_carlo._check_memory), a range before it is built."""
    if text is None or not text.strip():
        raise click.UsageError("--beta-grid is required and must be nonempty")
    text = text.strip()
    try:
        if ":" in text:
            parts = text.split(":")
            if len(parts) != 3:
                raise ValueError("range grids use start:stop:step")
            start, stop, step = (float(v) for v in parts)
            if not 0.0 < step < math.inf:
                raise ValueError("step must be a finite number > 0")
            count = int(math.floor((stop - start) / step + 1e-9)) + 1
            if count < 1:
                raise ValueError("grid is empty")
            _check_memory(count, reps, n, t_max)
            vals = [start + idx * step for idx in range(count)]
        else:
            vals = [float(v) for v in text.split(",") if v.strip()]
            _check_memory(len(vals), reps, n, t_max)
    except (ValueError, OverflowError) as exc:
        raise click.UsageError(f"invalid --beta-grid {text!r}: {exc}")
    if not vals:
        raise click.UsageError(f"--beta-grid {text!r} is empty")
    for v in vals:
        if not (0.0 <= v <= 1.0):
            raise click.UsageError(f"grid beta {v} outside [0,1]")
    return vals


def _graph_options(fn):
    fn = click.option("--graph", "graph_path", type=str, default=None,
                      help="Edge-list file.")(fn)
    fn = click.option("--generate", "generate_spec", type=str, default=None,
                      help="Generator spec, e.g. er:n=100,p=0.05,seed=1.")(fn)
    return fn


def _model_options(fn):
    fn = click.option("--variant", type=click.Choice(VARIANTS),
                      required=True)(fn)
    fn = click.option("--beta", type=float, default=None)(fn)
    fn = click.option("--delta", type=float, default=None)(fn)
    fn = click.option("--gamma", type=float, default=None)(fn)
    fn = click.option("--theta", type=float, default=None)(fn)
    fn = click.option("--contact", "contact_path", type=str, default=None,
                      help="CSV file with the contact matrix "
                           "(sis-general).")(fn)
    return fn


def _check_tol(ctx, param, value: float) -> float:
    if not 0.0 < value < math.inf:
        raise click.BadParameter(f"{value} is not a finite number > 0")
    return value


def _check_damping(ctx, param, value: float | None) -> float | None:
    if value is not None and not 0.0 < value <= 1.0:
        raise click.BadParameter(f"{value} is not in (0, 1]")
    return value


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------

INPUT_ERRORS = (GraphError, ModelError, ExactChainError, MonteCarloError,
                VerifyError)


class InputErrorCommand(click.Command):
    """A subcommand that reports the library's input errors as usage errors
    (exit 2), with its own usage line."""

    def invoke(self, ctx: click.Context):
        try:
            return super().invoke(ctx)
        except INPUT_ERRORS as exc:
            raise click.UsageError(str(exc), ctx) from exc


@click.group()
@click.version_option(version=__version__, prog_name="epinet")
def main() -> None:
    """Exact chains, mean-field maps, and verification for network epidemics."""


main.command_class = InputErrorCommand


@main.command("gen")
@click.option("--kind",
              type=click.Choice(("er", "geometric", "complete", "star",
                                 "path")),
              required=True)
@click.option("--n", type=int, required=True)
@click.option("--p", type=float, default=None)
@click.option("--radius", type=float, default=None)
@click.option("--seed", type=click.IntRange(min=0), default=0)
@click.option("-o", "--out", type=str, required=True)
def gen(kind, n, p, radius, seed, out):
    """Generate a graph and write its edge list."""
    params = {"n": n, "p": p, "r": radius}
    flags = {"n": "--n", "p": "--p", "r": "--radius"}
    taken = _GENERATOR_PARAMS[kind]
    for key in taken:
        if params[key] is None:
            raise click.UsageError(f"generator {kind!r} requires {flags[key]}")
    extra = [flags[key] for key, v in params.items()
             if v is not None and key not in taken]
    if extra:
        raise click.UsageError(
            f"generator {kind!r} does not accept {', '.join(extra)}")
    g = generate(kind, seed=seed, **{key: params[key] for key in taken})
    lam = spectral_radius(g).lambda_max
    _atomic_write(out, format_edge_list(g))
    click.echo(f"n={g.n} edges={g.m} lambda_max={lam:.10g}")


@main.command("simulate")
@_graph_options
@_model_options
@click.option("--t", "t_max", type=click.IntRange(min=1), default=1000)
@click.option("--reps", type=click.IntRange(min=1), default=1)
@click.option("--seed", type=click.IntRange(min=0), default=0)
@click.option("--init", type=str, default="all-infected")
@click.option("-o", "--out", type=str, required=True)
def simulate(graph_path, generate_spec, variant, beta, delta, gamma, theta,
             contact_path, t_max, reps, seed, init, out):
    """Run a Monte Carlo ensemble and write mean trajectory CSV."""
    g = _load_graph(graph_path, generate_spec)
    model = _build_model(variant, beta, delta, gamma, theta, contact_path)
    init = _parse_init(init)
    ratio = threshold_ratio(model, g)
    rep = mc_ensemble(model, g, init=init, t_max=t_max, n_reps=reps,
                      master_seed=seed)
    _atomic_write(out, ensemble_to_csv(rep))
    ext = [a for a in rep.absorbed_steps if a is not None]
    med = float(np.median(ext)) if ext else math.nan
    click.echo(
        f"ratio={ratio:.10g} reps={rep.n_reps} extinct={rep.extinct_count} "
        f"median_extinction={med:.10g} "
        f"final_i_mean={float(rep.i_mean[-1]):.10g}"
    )


@main.command("meanfield")
@_graph_options
@_model_options
@click.option("--tol", type=float, default=1e-10, callback=_check_tol,
              help="Residual tolerance, a finite number > 0.")
@click.option("--cap", type=click.IntRange(min=1), default=100000)
@click.option("--damping", type=float, default=None, callback=_check_damping,
              help="Damping factor in (0, 1].")
@click.option("--raw-iteration", is_flag=True, default=False,
              help="Iterate the undamped map (reproduces cycles).")
@click.option("--traj-out", type=str, default=None)
@click.option("--traj-steps", type=click.IntRange(min=0), default=50)
@click.option("-o", "--out", type=str, required=True)
def meanfield(graph_path, generate_spec, variant, beta, delta, gamma, theta,
              contact_path, tol, cap, damping, raw_iteration, traj_out,
              traj_steps, out):
    """Find the mean-field fixed point and write the report JSON."""
    g = _load_graph(graph_path, generate_spec)
    model = _build_model(variant, beta, delta, gamma, theta, contact_path)
    if raw_iteration and damping is not None:
        raise click.UsageError("--raw-iteration and --damping are mutually "
                               "exclusive")
    ratio = threshold_ratio(model, g)
    damping = 1.0 if raw_iteration else damping
    rep = find_fixed_point(model, g, tol=tol, cap=cap, damping=damping)
    spectrum = rep.jacobian_spectrum
    order = np.lexsort((spectrum.imag, spectrum.real, -np.abs(spectrum)))
    spectrum = spectrum[order]
    payload = {
        "variant": model.variant,
        "n": g.n,
        "threshold_ratio": ratio,
        "classification": rep.classification,
        "iterations": rep.iterations,
        "residual": rep.residual,
        "point": {
            "p_i": [float(v) for v in rep.point.p_i],
            "p_r": None if rep.point.p_r is None
            else [float(v) for v in rep.point.p_r],
        },
        "jacobian_spectral_radius": float(np.abs(spectrum).max())
        if len(spectrum) else 0.0,
        "jacobian_spectrum": {
            "real": [float(v) for v in spectrum.real],
            "imag": [float(v) for v in spectrum.imag],
        },
        "relation_defect": rep.relation_defect,
    }
    _atomic_write(out, _dump_json(payload))
    if traj_out is not None:
        traj = mf_iterate(model, g, _upper_corner(model, g.n),
                          traj_steps)
        lines = ["t,s,i,r"]
        for t, pt in enumerate(traj):
            i_tot = float(pt.p_i.sum())
            r_tot = float(pt.p_r.sum()) if pt.p_r is not None else 0.0
            s_tot = g.n - i_tot - r_tot
            lines.append(f"{t},{s_tot!s},{i_tot!s},{r_tot!s}")
        _atomic_write(traj_out, "\n".join(lines) + "\n")
    click.echo(
        f"classification={rep.classification} residual={rep.residual:.6e} "
        f"ratio={ratio:.10g}"
    )
    if rep.classification == "non-converged":
        # Not ctx.exit: under main(standalone_mode=False) click would return
        # its code instead of raising it.
        sys.exit(3)


@main.command("exact")
@_graph_options
@_model_options
@click.option("--epsilon", type=click.FloatRange(min=0.0, max=1.0,
                                                 min_open=True,
                                                 max_open=True),
              default=0.25)
@click.option("--cap", type=click.IntRange(min=1), default=100000,
              help="Mixing-time step cap.")
@click.option("-o", "--out", type=str, required=True)
def exact(graph_path, generate_spec, variant, beta, delta, gamma, theta,
          contact_path, epsilon, cap, out):
    """Exact-chain mixing report (state space permitting)."""
    g = _load_graph(graph_path, generate_spec)
    model = _build_model(variant, beta, delta, gamma, theta, contact_path)
    # Refuse a dense mixing scan over the memory budget before S is built.
    dense_mixing_scan(model, g.n)
    mrep = mixing_time_exact(build_transition_matrix(model, g), epsilon,
                             cap=cap)
    worst = "".join(str(int(d)) for d in mrep.worst_initial.digits)
    ratio = threshold_ratio(model, g)
    payload = {
        "variant": model.variant,
        "n": g.n,
        "k": model.k,
        "epsilon": epsilon,
        "t_mix": mrep.t_mix,
        "bound": mrep.bound,
        "censored": mrep.censored,
        "worst_initial": worst,
        "stationary_defect": mrep.stationary_defect,
        "threshold_ratio": ratio,
    }
    _atomic_write(out, _dump_json(payload))
    click.echo(
        f"t_mix={mrep.t_mix} bound={mrep.bound:.10g} "
        f"stationary_defect={mrep.stationary_defect:.3e} "
        f"ratio={ratio:.10g}"
    )


@main.command("verify")
@click.option("--suite", "suites", type=str, multiple=True,
              help="Suite name or 'all' (repeatable).")
@click.option("--n-max", type=click.IntRange(min=2), default=5)
@click.option("--trials", type=click.IntRange(min=1), default=50)
@click.option("--seed", type=click.IntRange(min=0), default=0)
@click.option("-o", "--out", type=str, default=None)
def verify(suites, n_max, trials, seed, out):
    """Run analytic-guarantee verification suites; exit 4 on any failure."""
    names = list(suites) or ["all"]
    if "none" in names:
        raise click.UsageError(
            f"suite 'none' is not runnable; choose from: {', '.join(SUITES)}"
        )
    results = run_suites(names, n_max=n_max, trials=trials, seed=seed)
    all_passed = all(r.passed for r in results)
    payload = {
        "passed": all_passed,
        "suites": [r.to_dict() for r in results],
    }
    if out is not None:
        _atomic_write(out, _dump_json(payload))
    for r in results:
        click.echo(f"{r.suite}: {'PASS' if r.passed else 'FAIL'} "
                   f"({r.checks} checks)")
        if not r.passed:
            click.echo(_dump_json({"replay": r.failures[:5]}).rstrip())
    if not all_passed:
        sys.exit(4)


@main.command("sweep")
@_graph_options
@_model_options
@click.option("--beta-grid", type=str, required=True,
              help="Comma list '0.05,0.06' or range 'start:stop:step'.")
@click.option("--t", "t_max", type=click.IntRange(min=1), default=10000)
@click.option("--reps", type=click.IntRange(min=1), default=25)
@click.option("--seed", type=click.IntRange(min=0), default=0)
@click.option("--init", type=str, default="all-infected")
@click.option("--tol", type=float, default=1e-10, callback=_check_tol,
              help="Residual tolerance, a finite number > 0.")
@click.option("--cap", type=click.IntRange(min=1), default=100000)
@click.option("-o", "--out", type=str, required=True)
def sweep(graph_path, generate_spec, variant, beta, delta, gamma, theta,
          contact_path, beta_grid, t_max, reps, seed, init, tol, cap, out):
    """Sweep beta over a grid; one CSV row per grid point."""
    if beta is not None:
        raise click.UsageError("sweep takes beta from --beta-grid, not --beta")
    g = _load_graph(graph_path, generate_spec)
    if "beta" not in _VARIANTS[variant].required:
        raise click.UsageError(
            "sweep varies beta and requires a rate-based variant"
        )
    betas = _parse_grid(beta_grid, reps, g.n, t_max)
    init = _parse_init(init)
    models = [_build_model(variant, b, delta, gamma, theta, contact_path)
              for b in betas]
    lam = spectral_radius(g).lambda_max
    lines = ["beta,ratio,outcome,extinct_count,reps,median_extinction,fp_norm"]
    # Grid point idx runs under master seed seed + idx.
    reports = mc_grid(models, g, init=init, t_max=t_max, n_reps=reps,
                      master_seed=seed)
    for b, model, rep in zip(betas, models, reports):
        ratio = _rate_ratio(model, lam)
        outcome = "extinct" if 2 * rep.extinct_count > rep.n_reps \
            else "persistent"
        ext = [a for a in rep.absorbed_steps if a is not None]
        med = float(np.median(ext)) if ext else math.nan
        fp = find_fixed_point(model, g, tol=tol, cap=cap,
                              compute_spectrum=False)
        fp_norm = float(np.abs(fp.point.p_i).max())
        lines.append(
            f"{float(b)!s},{float(ratio)!s},{outcome},{rep.extinct_count},"
            f"{rep.n_reps},{med!s},{fp_norm!s}"
        )
    _atomic_write(out, "\n".join(lines) + "\n")
    click.echo(f"rows={len(betas)}")


if __name__ == "__main__":
    main()
