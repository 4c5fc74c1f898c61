"""Stochastic agent-based simulation of the six chain variants at large n.

Synchronous updates: every node samples its next compartment from its exact
conditional given the current full state (infection pressure counted against
the pre-update snapshot). Randomness is counter-based (Philox): step t of
replicate r draws from the stream keyed by the master seed with counter
(0, 0, t, r), and initial-condition draws use counter (0, 1, 0, r), so
trajectories are bit-identical regardless of scheduling or which other
replicates run.

Early-exit semantics: SIS and SIRS trajectories end at the first step with
zero infected (the epidemic cannot restart and no susceptible node can enter
the recovered compartment); SIV trajectories run to t_max, with the
post-extinction dynamics reduced to the decoupled per-node
susceptible/vaccinated chain (the escape probability is identically 1, so
the neighbor sweep is skipped; the sampled law is unchanged).
"""
from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

from .model_core import _VARIANTS, Graph, ModelSpec

_LOG_FLOOR = -745.0  # exp() underflows to 0 below this; avoids -inf * 0 = nan


class MonteCarloError(ValueError):
    """Invalid simulation request."""


# ---------------------------------------------------------------------------
# Types
# ---------------------------------------------------------------------------

@dataclass
class SimState:
    """Full agent state: per-node digits plus the substream coordinates."""

    states: np.ndarray
    t: int
    rng_seed: int
    replicate: int = 0

    def __post_init__(self) -> None:
        self.states = np.asarray(self.states, dtype=np.int8)
        if self.states.ndim != 1:
            raise MonteCarloError("states must be a 1-D digit vector")
        if self.states.min(initial=0) < 0 or self.states.max(initial=0) > 2:
            raise MonteCarloError("state digits must be 0, 1, or 2")

    @property
    def i_count(self) -> int:
        return int(np.count_nonzero(self.states == 1))


@dataclass
class TrajectoryRecord:
    """Per-step compartment counts for one replicate.

    rows: (t, s_count, i_count, r_count), starting at t=0. absorbed_at is
    the first step with zero infected (None if never observed). marginals
    optionally carries ensemble per-node estimates attached by mc_ensemble.
    """

    rows: list[tuple[int, int, int, int]]
    absorbed_at: int | None = None
    marginals: dict[int, tuple[np.ndarray, np.ndarray | None]] | None = None

    def to_csv(self) -> str:
        lines = ["t,s,i,r"]
        lines += [f"{t},{s},{i},{r}" for t, s, i, r in self.rows]
        return "\n".join(lines) + "\n"

    @classmethod
    def from_csv(cls, text: str) -> "TrajectoryRecord":
        lines = [ln for ln in text.strip().splitlines() if ln.strip()]
        if not lines or lines[0].strip() != "t,s,i,r":
            raise MonteCarloError("trajectory CSV must start with 't,s,i,r'")
        rows = []
        for ln in lines[1:]:
            parts = ln.split(",")
            if len(parts) != 4:
                raise MonteCarloError(f"malformed trajectory row: {ln!r}")
            rows.append(tuple(int(p) for p in parts))
        absorbed = next((t for t, _, i, _ in rows if i == 0), None)
        return cls(rows, absorbed)


@dataclass
class EnsembleReport:
    """Order-independent aggregate over replicates.

    Count statistics are indexed by t = 0..t_max. Infected counts of
    absorbed SIS/SIRS replicates are extended as zero beyond absorption;
    their susceptible/recovered counts are only aggregated where simulated
    (SIS: frozen all-susceptible, so extended exactly; SIRS: NaN once a
    replicate's record ends). marginals maps requested times to per-node
    (infected, recovered-or-None) ensemble frequencies; these are exact
    ensemble means at every requested time (replicates keep evolving
    internally past absorption where their state is not frozen).
    """

    t: np.ndarray
    i_mean: np.ndarray
    i_q10: np.ndarray
    i_q50: np.ndarray
    i_q90: np.ndarray
    s_mean: np.ndarray
    r_mean: np.ndarray
    n_reps: int
    extinct_count: int
    absorbed_steps: list[int | None] = field(default_factory=list)
    marginals: dict[int, tuple[np.ndarray, np.ndarray | None]] | None = None


# ---------------------------------------------------------------------------
# Stepping
# ---------------------------------------------------------------------------

def _escape_function(model: ModelSpec, graph: Graph):
    """z -> per-node probability of receiving no infection from the state.

    z is the float indicator of infected nodes. For sis-general the product
    runs over the full contact row (including the diagonal), which folds
    recovery into the same escape form. Built once per run: the log-factor
    matrix depends only on the model and the graph.
    """
    n = graph.n
    if model.contact is not None:
        logs, scale = sp.csr_matrix(np.asarray(model.contact, dtype=float)), 1.0
    elif graph.is_weighted:
        logs, scale = graph.adjacency_sparse.copy(), model.beta
    else:
        A, base = graph.adjacency_sparse, 1.0 - model.beta
        return lambda z: base ** (A @ z) if z.any() else np.ones(n)
    # log(1 - scale * w), floored so that exp() gives 0 instead of -inf * 0.
    logs.data = np.maximum(np.log1p(-scale * logs.data), _LOG_FLOOR)
    return lambda z: np.exp(logs @ z) if z.any() else np.ones(n)


def _step_uniforms(seed: int, replicate: int, t: int, n: int) -> np.ndarray:
    gen = np.random.Generator(
        np.random.Philox(counter=[0, 0, t, replicate], key=seed)
    )
    return gen.random(n)


def _sampler(model: ModelSpec, graph: Graph):
    """One synchronous update as (states, t, seed, replicate) -> next digits.

    Inverse-CDF sampling: a node in compartment c with draw u moves to the
    number of y < k-1 with u >= row[c][0] + ... + row[c][y], where
    row[c][y] = C[c,y] + A[c,y] esc + B[c,y] (1 - esc) from the variant
    table. Each coefficient column is gathered on the digits with a 1-D
    take; all-zero columns are skipped.
    """
    escape = _escape_function(model, graph)
    columns = [[(coef[:, y], j) for j, coef in
                enumerate(_VARIANTS[model.variant].tables(model))
                if coef[:, y].any()]
               for y in range(model.k - 1)]
    n = graph.n

    def advance(states: np.ndarray, t: int, seed: int,
                replicate: int) -> np.ndarray:
        u = _step_uniforms(seed, replicate, t, n)
        esc = escape((states == 1).astype(float))
        factors = (1.0, esc, 1.0 - esc)
        cum = 0.0
        nxt = np.zeros(n, dtype=np.int8)
        for terms in columns:
            cum = cum + sum(coef.take(states) * factors[j]
                            for coef, j in terms)
            nxt += u >= cum
        return nxt

    return advance


def mc_step(model: ModelSpec, graph: Graph, state: SimState) -> SimState:
    """Sample the next full state; each node uses its own substream draw."""
    if len(state.states) != graph.n:
        raise MonteCarloError("state length does not match graph")
    if model.k == 2 and state.states.max(initial=0) > 1:
        raise MonteCarloError(f"digit 2 invalid for variant {model.variant}")
    nxt = _sampler(model, graph)(state.states, state.t, state.rng_seed,
                                 state.replicate)
    return SimState(nxt, state.t + 1, state.rng_seed, state.replicate)


def _init_states(graph: Graph, init, seed: int, replicate: int) -> np.ndarray:
    n = graph.n
    if isinstance(init, str):
        if init != "all-infected":
            raise MonteCarloError(f"unknown init {init!r}")
        return np.ones(n, dtype=np.int8)
    if isinstance(init, float):
        if not 0.0 <= init <= 1.0:
            raise MonteCarloError("init fraction must be in [0,1]")
        gen = np.random.Generator(
            np.random.Philox(counter=[0, 1, 0, replicate], key=seed)
        )
        return (gen.random(n) < init).astype(np.int8)
    nodes = np.asarray(list(init), dtype=np.int64)
    if len(nodes) and (nodes.min() < 0 or nodes.max() >= n):
        raise MonteCarloError("explicit init set contains out-of-range nodes")
    out = np.zeros(n, dtype=np.int8)
    out[nodes] = 1
    return out


def _counts(states: np.ndarray) -> tuple[int, int, int]:
    i = int(np.count_nonzero(states == 1))
    r = int(np.count_nonzero(states == 2))
    return len(states) - i - r, i, r


def _simulate(model: ModelSpec, graph: Graph, advance, init, t_max: int,
              seed: int, replicate: int, snapshot_times: tuple[int, ...] = ()
              ) -> tuple[list[tuple[int, int, int, int]], int | None,
                         dict[int, np.ndarray]]:
    """Core loop: rows to absorption/t_max plus exact state snapshots.

    advance is the run's _sampler(model, graph).

    Snapshot times past a SIS/SIRS absorption are still exact: a frozen
    all-susceptible state is copied, and a SIRS state with zero infected
    keeps evolving through the same update (its escape vector is 1).
    """
    if t_max < 1:
        raise MonteCarloError("t_max must be >= 1")
    states = _init_states(graph, init, seed, replicate)
    rows: list[tuple[int, int, int, int]] = []
    snaps: dict[int, np.ndarray] = {}
    need = sorted(set(snapshot_times))
    if need and (need[0] < 0 or need[-1] > t_max):
        raise MonteCarloError("snapshot times must lie in [0, t_max]")
    absorbed: int | None = None
    sim_until = t_max
    record_until = t_max
    t = 0
    while True:
        s, i, r = _counts(states)
        if t <= record_until:
            rows.append((t, s, i, r))
        if t in need:
            snaps[t] = states.copy()
        if absorbed is None and i == 0:
            absorbed = t
            if _VARIANTS[model.variant].ends_at_extinction:
                record_until = t
                if model.k == 2 or r == 0:
                    # Frozen all-susceptible state: copy it into any
                    # remaining snapshots and stop.
                    for ts in need:
                        if ts > t:
                            snaps[ts] = states.copy()
                    break
                sim_until = max([ts for ts in need if ts > t], default=t)
        if t >= sim_until:
            break
        states = advance(states, t, seed, replicate)
        t += 1
    return rows, absorbed, snaps


def mc_run(model: ModelSpec, graph: Graph, init="all-infected",
           t_max: int = 1000, seed: int = 0, replicate: int = 0
           ) -> TrajectoryRecord:
    """One replicate's trajectory of compartment counts.

    init is "all-infected", a float infection fraction (sampled i.i.d. from
    the replicate's init substream), or an explicit iterable of node ids.
    """
    rows, absorbed, _ = _simulate(model, graph, _sampler(model, graph), init,
                                  t_max, seed, replicate)
    return TrajectoryRecord(rows, absorbed)


def extinction_time(model: ModelSpec, graph: Graph, init="all-infected",
                    seed: int = 0, cap: int = 10000,
                    replicate: int = 0) -> int | None:
    """First step with zero infected, or None when censored at cap."""
    rows, absorbed, _ = _simulate(model, graph, _sampler(model, graph), init,
                                  cap, seed, replicate)
    return absorbed


def mc_ensemble(model: ModelSpec, graph: Graph, init="all-infected",
                t_max: int = 1000, n_reps: int = 1, master_seed: int = 0,
                marginals_at: tuple[int, ...] = ()) -> EnsembleReport:
    """Aggregate n_reps independent replicates (substreams r = 0..n_reps-1).

    Thread count is capped by the EPINET_THREADS environment variable
    (default 1); results are bit-identical for any worker count because
    each replicate owns slot r of the preallocated aggregation buffers.
    """
    if n_reps < 1:
        raise MonteCarloError("n_reps must be >= 1")
    T = t_max + 1
    n = graph.n
    snap_times = tuple(sorted(set(marginals_at)))
    i_mat = np.zeros((n_reps, T), dtype=np.int32)
    s_mat = np.full((n_reps, T), np.nan)
    r_mat = np.full((n_reps, T), np.nan)
    absorbed: list[int | None] = [None] * n_reps
    snap_acc_i = {ts: np.zeros(n) for ts in snap_times}
    snap_acc_r = {ts: np.zeros(n) for ts in snap_times} if model.k == 3 else {}
    advance = _sampler(model, graph)

    def run_one(rep: int) -> None:
        rows, ab, snaps = _simulate(model, graph, advance, init, t_max,
                                    master_seed, rep, snap_times)
        absorbed[rep] = ab
        for t, s, i, r in rows:
            i_mat[rep, t] = i
            s_mat[rep, t] = s
            r_mat[rep, t] = r
        last_t = rows[-1][0]
        if last_t < t_max:
            # Absorbed SIS/SIRS replicate: infected counts extend as zero;
            # SIS susceptible counts extend exactly (frozen state).
            if model.k == 2:
                s_mat[rep, last_t + 1:] = n
                r_mat[rep, last_t + 1:] = 0
            elif rows[-1][3] == 0:
                s_mat[rep, last_t + 1:] = n
                r_mat[rep, last_t + 1:] = 0
        for ts, st in snaps.items():
            snap_acc_i[ts] += (st == 1)
            if model.k == 3:
                snap_acc_r[ts] += (st == 2)

    try:
        workers = int(os.environ.get("EPINET_THREADS", "1") or "1")
    except ValueError:
        workers = 1
    if workers > 1 and n_reps > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            list(pool.map(run_one, range(n_reps)))
    else:
        for rep in range(n_reps):
            run_one(rep)

    def nan_mean(mat: np.ndarray) -> np.ndarray:
        cnt = np.count_nonzero(~np.isnan(mat), axis=0)
        total = np.nansum(mat, axis=0)
        with np.errstate(invalid="ignore"):
            return np.where(cnt > 0, total / np.maximum(cnt, 1), np.nan)

    q10, q50, q90 = np.quantile(i_mat, [0.1, 0.5, 0.9], axis=0)
    marg = None
    if snap_times:
        marg = {}
        for ts in snap_times:
            pi = snap_acc_i[ts] / n_reps
            pr = snap_acc_r[ts] / n_reps if model.k == 3 else None
            marg[ts] = (pi, pr)
    return EnsembleReport(
        t=np.arange(T),
        i_mean=i_mat.mean(axis=0),
        i_q10=q10, i_q50=q50, i_q90=q90,
        s_mean=nan_mean(s_mat),
        r_mean=nan_mean(r_mat),
        n_reps=n_reps,
        extinct_count=sum(1 for a in absorbed if a is not None),
        absorbed_steps=absorbed,
        marginals=marg,
    )


def ensemble_to_csv(report: EnsembleReport) -> str:
    """Mean compartment counts per step, same 't,s,i,r' column layout."""
    lines = ["t,s,i,r"]
    for idx in range(len(report.t)):
        lines.append(
            f"{int(report.t[idx])},{float(report.s_mean[idx])!s},"
            f"{float(report.i_mean[idx])!s},{float(report.r_mean[idx])!s}"
        )
    return "\n".join(lines) + "\n"


def parse_ensemble_csv(text: str) -> dict[str, np.ndarray]:
    """Inverse of ensemble_to_csv: arrays keyed t, s, i, r."""
    lines = [ln for ln in text.strip().splitlines() if ln.strip()]
    if not lines or lines[0].strip() != "t,s,i,r":
        raise MonteCarloError("ensemble CSV must start with 't,s,i,r'")
    cols = {"t": [], "s": [], "i": [], "r": []}
    for ln in lines[1:]:
        parts = ln.split(",")
        if len(parts) != 4:
            raise MonteCarloError(f"malformed ensemble row: {ln!r}")
        cols["t"].append(int(parts[0]))
        cols["s"].append(float(parts[1]))
        cols["i"].append(float(parts[2]))
        cols["r"].append(float(parts[3]))
    return {
        "t": np.asarray(cols["t"], dtype=np.int64),
        "s": np.asarray(cols["s"]),
        "i": np.asarray(cols["i"]),
        "r": np.asarray(cols["r"]),
    }
