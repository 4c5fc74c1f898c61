"""Stochastic agent-based simulation of the six chain variants at large n.

Synchronous updates: every node samples its next compartment from its exact
conditional given the current full state (infection pressure counted against
the pre-update snapshot). Randomness is counter-based (Philox): step t of
replicate r draws from the stream keyed by the master seed with counter
(0, 0, t, r), and initial-condition draws use counter (0, 1, 0, r), so a
replicate's trajectory is bit-identical whichever other replicates run
beside it.

All replicates of a run advance together: the live ones form an (R x n)
int8 state matrix, stepped in row blocks that bound the float temporaries,
and a replicate leaves the matrix at the step where its trajectory ends.
Each row still draws its own substream, so batching changes no bit. For
the same reason a large run can split its replicates into contiguous shares
stepped in forked processes, one per usable CPU on Linux (Salmon et al.,
"Parallel random numbers: as easy as 1, 2, 3", SC11): the parent steps one
share, reassembles the rows in replicate order and adds up the integer
snapshot counts, so every output equals the serial run's bit for bit.

Early-exit semantics: SIS and SIRS trajectories end at the first step with
zero infected (the epidemic cannot restart and no susceptible node can enter
the recovered compartment); SIV trajectories run to t_max, with the
post-extinction dynamics reduced to the decoupled per-node
susceptible/vaccinated chain (the escape probability is identically 1; the
sampled law is unchanged).
"""
from __future__ import annotations

import os
import sys
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

from .model_core import _VARIANTS, Graph, ModelSpec, _check_contact

_LOG_FLOOR = -745.0  # exp() underflows to 0 below this; avoids -inf * 0 = nan
# Upper bound on the doubles in one float temporary of a step: replicates are
# stepped in blocks of max(1, _REP_BLOCK_DOUBLES // n) rows.
_REP_BLOCK_DOUBLES = 1 << 18
# Work bound R * n * t_max (the node updates if no replicate ends early)
# above which a run's replicates are split across forked processes. A split
# costs a fixed 10-25 ms (fork, copy-on-write faults, collecting the rows):
# on 2 CPUs it measured slower than a serial run at 5e5 and faster from 1e6.
_FORK_MIN_WORK = 1 << 20


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
    the first step with zero infected (None if never observed).
    """

    rows: list[tuple[int, int, int, int]]
    absorbed_at: int | None = None

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

def _power_table(base: float, max_count: int) -> np.ndarray:
    """base ** k for k = 0..max_count, the escape of k infected neighbors."""
    return base ** np.arange(max_count + 1, dtype=float)


def _escape_function(model: ModelSpec, graph: Graph):
    """Z -> per-node probability of receiving no infection, row by row.

    Z is the (B x n) 0/1 indicator of infected nodes, one row per replicate.
    For sis-general the product runs over the full contact row (including
    the diagonal), which folds recovery into the same escape form. On an
    unweighted graph the escape is a power of 1 - beta, read from a table
    indexed by the infected-neighbor count. Built once per run: the table and
    the log-factor matrix depend only on the model and the graph.
    """
    if model.contact is not None:
        logs, scale = sp.csr_matrix(np.asarray(model.contact, dtype=float)), 1.0
    elif graph.is_weighted:
        logs, scale = graph.adjacency_sparse.copy(), model.beta
    else:
        A = graph.adjacency_sparse
        table = _power_table(1.0 - model.beta,
                             int(graph.degrees.max(initial=0)))
        return lambda Z: table.take((A @ Z.T).T.astype(np.intp))
    # log(1 - scale * w), floored so that exp() gives 0 instead of -inf * 0.
    logs.data = np.maximum(np.log1p(-scale * logs.data), _LOG_FLOOR)
    return lambda Z: np.exp((logs @ Z.T).T)


def _philox(seed: int):
    """(out, t, replicate, stream=0) -> fill out with substream uniforms.

    Writes the bits of Generator(Philox(counter=[0, stream, t, replicate],
    key=seed)).random(len(out)) into the contiguous float64 vector out. One
    Philox serves the whole run: each draw resets its counter and empties
    its buffer instead of constructing a new generator.
    """
    bitgen = np.random.Philox(key=seed)
    gen = np.random.Generator(bitgen)
    state = bitgen.state  # fresh: zero counter, empty buffer
    counter = state["state"]["counter"]

    def fill(out: np.ndarray, t: int, replicate: int, stream: int = 0
             ) -> None:
        counter[1:] = stream, t, replicate
        bitgen.state = state
        gen.random(out=out)

    return fill


def _sampler(model: ModelSpec, graph: Graph):
    """One synchronous update as (states, u) -> next digits.

    states is a (B x n) digit matrix, one replicate per row, and u the
    matching uniforms. Inverse-CDF sampling: a node in compartment c with
    draw u moves to the number of y < k-1 with u >= row[c][0] + ... +
    row[c][y], where row[c][y] = C[c,y] + A[c,y] esc + B[c,y] (1 - esc) from
    the variant table. Each coefficient column is gathered on the digits
    with a take; all-zero columns are skipped.
    """
    escape = _escape_function(model, graph)
    columns = [[(coef[:, y], j) for j, coef in
                enumerate(_VARIANTS[model.variant].tables(model))
                if coef[:, y].any()]
               for y in range(model.k - 1)]

    def advance(states: np.ndarray, u: np.ndarray) -> np.ndarray:
        infected = states == 1
        hit = infected.any(axis=1)
        if hit.all():
            esc = escape(infected.astype(float))
        else:
            # A row with no infected escapes with probability exactly 1.
            esc = np.ones(states.shape)
            if hit.any():
                esc[hit] = escape(infected[hit].astype(float))
        factors = (1.0, esc, 1.0 - esc)
        digits = states.astype(np.intp)
        cum = 0.0
        nxt = np.zeros(states.shape, dtype=np.int8)
        for terms in columns:
            cum = cum + sum(coef.take(digits) * factors[j]
                            for coef, j in terms)
            nxt += u >= cum
        return nxt

    return advance


def mc_step(model: ModelSpec, graph: Graph, state: SimState) -> SimState:
    """Sample the next full state; each node uses its own substream draw."""
    _check_contact(model, graph)
    if len(state.states) != graph.n:
        raise MonteCarloError("state length does not match graph")
    if model.k == 2 and state.states.max(initial=0) > 1:
        raise MonteCarloError(f"digit 2 invalid for variant {model.variant}")
    u = np.empty((1, graph.n))
    _philox(state.rng_seed)(u[0], state.t, state.replicate)
    nxt = _sampler(model, graph)(state.states[None, :], u)[0]
    return SimState(nxt, state.t + 1, state.rng_seed, state.replicate)


def _init_states(graph: Graph, init, fill, replicates: list[int]
                 ) -> np.ndarray:
    """Initial digit matrix, one row per replicate."""
    shape = (len(replicates), graph.n)
    if isinstance(init, str):
        if init != "all-infected":
            raise MonteCarloError(f"unknown init {init!r}")
        return np.ones(shape, dtype=np.int8)
    if isinstance(init, float):
        if not 0.0 <= init <= 1.0:
            raise MonteCarloError("init fraction must be in [0,1]")
        out = np.empty(shape, dtype=np.int8)
        u = np.empty(graph.n)
        for row, rep in enumerate(replicates):
            fill(u, 0, rep, stream=1)
            out[row] = u < init
        return out
    nodes = np.asarray(list(init), dtype=np.int64)
    if len(nodes) and (nodes.min() < 0 or nodes.max() >= graph.n):
        raise MonteCarloError("explicit init set contains out-of-range nodes")
    out = np.zeros(shape, dtype=np.int8)
    out[:, nodes] = 1
    return out


def _run(model: ModelSpec, graph: Graph, init, t_max: int, seed: int,
         replicates: list[int], snapshot_times: tuple[int, ...] = (),
         until_extinct: bool = False):
    """Core loop: all replicates stepped to absorption/t_max.

    Returns (i_mat, s_mat, r_mat, absorbed, snap_i, snap_r). Row j of the
    (R x t_max+1) count matrices belongs to replicates[j]: i_mat is zero and
    s_mat/r_mat NaN past the end of a record, except that a frozen
    all-susceptible state extends its record exactly. absorbed[j] is the
    first step with zero infected, -1 if none. snap_i[ts] (and snap_r[ts]
    for three compartments) counts, per node, the replicates infected
    (recovered) at time ts.

    Snapshot times past a SIS/SIRS absorption are still exact: a frozen
    all-susceptible state contributes nothing, and a SIRS state with zero
    infected keeps evolving through the same update (its escape vector is
    1) until the last requested snapshot. until_extinct ends SIV replicates
    there too, for callers that need only absorbed.

    The request is validated here, before any process is forked. A run whose
    work bound R * n * t_max exceeds _FORK_MIN_WORK is then split into
    contiguous shares of its replicates, one per usable CPU (_split).
    """
    _check_contact(model, graph)
    if t_max < 1:
        raise MonteCarloError("t_max must be >= 1")
    fill = _philox(seed)
    states = _init_states(graph, init, fill, replicates)
    need = sorted(set(snapshot_times))
    if need and (need[0] < 0 or need[-1] > t_max):
        raise MonteCarloError("snapshot times must lie in [0, t_max]")
    reps = np.asarray(replicates, dtype=np.int64)
    ends = until_extinct or _VARIANTS[model.variant].ends_at_extinction

    def core(rows: slice):
        return _simulate(model, graph, states[rows], reps[rows], t_max, fill,
                         need, ends)

    R = len(reps)
    cpus = _usable_cpus()[:R]
    if len(cpus) < 2 or R * graph.n * t_max <= _FORK_MIN_WORK:
        return core(slice(None))
    return _split(core, R, cpus)


def _simulate(model: ModelSpec, graph: Graph, states: np.ndarray,
              reps: np.ndarray, t_max: int, fill, need: list[int],
              ends: bool):
    """The serial core of _run: step the rows of states (replicates reps)
    as one batch; same returns as _run."""
    n = graph.n
    R, T = len(reps), t_max + 1
    i_mat = np.zeros((R, T), dtype=np.int32)
    s_mat = np.full((R, T), np.nan)
    r_mat = np.full((R, T), np.nan)
    absorbed = np.full(R, -1, dtype=np.int64)
    snap_i = {ts: np.zeros(n, dtype=np.int64) for ts in need}
    snap_r = {ts: np.zeros(n, dtype=np.int64) for ts in need} \
        if model.k == 3 else {}
    advance = _sampler(model, graph)
    block = max(1, _REP_BLOCK_DOUBLES // n)
    u = np.empty((min(R, block), n))
    # Per live row: its slot in the outputs, whether its record is still
    # open, and the last step it is simulated to.
    slot = np.arange(R)
    recording = np.ones(R, dtype=bool)
    sim_until = np.full(R, t_max)
    for t in range(T):
        infected = states == 1
        recovered = states == 2
        i = infected.sum(axis=1)
        r = recovered.sum(axis=1)
        rec = slot[recording]
        i_mat[rec, t] = i[recording]
        s_mat[rec, t] = (n - i - r)[recording]
        r_mat[rec, t] = r[recording]
        if t in snap_i:
            snap_i[t] += infected.sum(axis=0)
            if t in snap_r:
                snap_r[t] += recovered.sum(axis=0)
        zero = i == 0
        if zero.any():
            new = zero & (absorbed[slot] < 0)
            absorbed[slot[new]] = t
            if ends:
                # SIS/SIRS: the record ends here. A frozen all-susceptible
                # state extends it exactly and stops; any other state is
                # simulated on to the last snapshot time.
                recording &= ~new
                frozen = new & (r == 0)
                s_mat[slot[frozen], t + 1:] = n
                r_mat[slot[frozen], t + 1:] = 0
                sim_until[new & ~frozen] = max(
                    [ts for ts in need if ts > t], default=t)
                sim_until[frozen] = t
                live = sim_until > t
                if not live.all():
                    states, slot = states[live], slot[live]
                    recording, sim_until = recording[live], sim_until[live]
                    if not len(slot):
                        break
        if t == t_max:
            break
        for b0 in range(0, len(slot), block):
            rows = slice(b0, b0 + block)
            ub = u[:len(slot[rows])]
            for row, rep in enumerate(reps[slot[rows]].tolist()):
                fill(ub[row], t, rep)
            states[rows] = advance(states[rows], ub)
    return i_mat, s_mat, r_mat, absorbed, snap_i, snap_r


def _usable_cpus() -> list[int]:
    """The CPUs this process may run on. Off Linux runs stay serial."""
    if not sys.platform.startswith("linux"):
        return []
    return sorted(os.sched_getaffinity(0))


def _split(core, R: int, cpus: list[int]):
    """core over len(cpus) contiguous shares of the R rows, all but the
    first in forked processes; the results are reassembled in row order.

    Every replicate draws only from its own substreams, so the rows and the
    integer snapshot counts equal the serial run's bit for bit. Each process
    keeps to its own CPU while it steps: where the kernel does not balance
    load between CPUs, a forked child would otherwise share its parent's. A
    worker's exception re-raises here, and every worker is joined before
    this returns.

    Workers are forked, not spawned: a spawned worker would import numpy,
    scipy and epinet again (about 0.5 s) and be sent the graph, while a
    forked one shares the parent's pages. They run numpy and scipy.sparse
    code only, no BLAS, so idle BLAS threads in the parent are no hazard.
    """
    import multiprocessing

    if multiprocessing.current_process().daemon:
        # A daemonic process, such as a multiprocessing.Pool worker, may not
        # have children.
        return core(slice(None))
    ctx = multiprocessing.get_context("fork")
    W = len(cpus)
    shares = [slice(R * w // W, R * (w + 1) // W) for w in range(W)]
    home = os.sched_getaffinity(0)
    procs, conns = [], []
    done = False
    try:
        os.sched_setaffinity(0, {cpus[0]})
        for cpu, share in zip(cpus[1:], shares[1:]):
            recv, send = ctx.Pipe(duplex=False)
            conns.append(recv)
            proc = ctx.Process(target=_worker, args=(core, share, cpu, send),
                               daemon=True)
            try:
                proc.start()
            finally:
                send.close()
            procs.append(proc)
        parts = [core(shares[0])]
        for proc, conn in zip(procs, conns):
            try:
                ok, result = conn.recv()
            except EOFError:
                proc.join()
                raise RuntimeError(f"Monte Carlo worker exited with code "
                                   f"{proc.exitcode}") from None
            if not ok:
                raise result
            parts.append(result)
        done = True
    finally:
        for proc in procs:
            if not done:
                proc.terminate()
            proc.join()
        for conn in conns:
            conn.close()
        os.sched_setaffinity(0, home)
    out = [np.concatenate([part[k] for part in parts]) for k in range(4)]
    for k in (4, 5):
        out.append({ts: sum(part[k][ts] for part in parts)
                    for ts in parts[0][k]})
    return tuple(out)


def _worker(core, share: slice, cpu: int, conn) -> None:
    """Forked process body: keep to cpu, then send (True, core(share)) or
    (False, the exception it raised)."""
    try:
        os.sched_setaffinity(0, {cpu})
        result = (True, core(share))
    except Exception as exc:
        result = (False, exc)
    conn.send(result)
    conn.close()


def mc_run(model: ModelSpec, graph: Graph, init="all-infected",
           t_max: int = 1000, seed: int = 0, replicate: int = 0
           ) -> TrajectoryRecord:
    """One replicate's trajectory of compartment counts.

    init is "all-infected", a float infection fraction (sampled i.i.d. from
    the replicate's init substream), or an explicit iterable of node ids.
    """
    i_mat, s_mat, r_mat, absorbed, _, _ = _run(model, graph, init, t_max,
                                               seed, [replicate])
    ab = int(absorbed[0])
    end = ab if ab >= 0 and _VARIANTS[model.variant].ends_at_extinction \
        else t_max
    rows = list(zip(range(end + 1),
                    s_mat[0, :end + 1].astype(int).tolist(),
                    i_mat[0, :end + 1].tolist(),
                    r_mat[0, :end + 1].astype(int).tolist()))
    return TrajectoryRecord(rows, ab if ab >= 0 else None)


def extinction_time(model: ModelSpec, graph: Graph, init="all-infected",
                    seed: int = 0, cap: int = 10000,
                    replicate: int = 0) -> int | None:
    """First step with zero infected, or None when censored at cap; the
    replicate is simulated only up to that step, whatever the variant."""
    absorbed = _run(model, graph, init, cap, seed, [replicate],
                    until_extinct=True)[3]
    return int(absorbed[0]) if absorbed[0] >= 0 else None


def mc_ensemble(model: ModelSpec, graph: Graph, init="all-infected",
                t_max: int = 1000, n_reps: int = 1, master_seed: int = 0,
                marginals_at: tuple[int, ...] = ()) -> EnsembleReport:
    """Aggregate n_reps independent replicates (substreams r = 0..n_reps-1).

    The replicates are stepped as one batch; each keeps its own substream,
    so every statistic equals what the replicates give one at a time.
    """
    if n_reps < 1:
        raise MonteCarloError("n_reps must be >= 1")
    snap_times = tuple(sorted(set(marginals_at)))
    i_mat, s_mat, r_mat, absorbed, snap_i, snap_r = _run(
        model, graph, init, t_max, master_seed, list(range(n_reps)),
        snap_times)

    def nan_mean(mat: np.ndarray) -> np.ndarray:
        cnt = np.count_nonzero(~np.isnan(mat), axis=0)
        total = np.nansum(mat, axis=0)
        with np.errstate(invalid="ignore"):
            return np.where(cnt > 0, total / np.maximum(cnt, 1), np.nan)

    q10, q50, q90 = np.quantile(i_mat, [0.1, 0.5, 0.9], axis=0)
    marg = None
    if snap_times:
        marg = {ts: (snap_i[ts] / n_reps,
                     snap_r[ts] / n_reps if model.k == 3 else None)
                for ts in snap_times}
    steps = [int(a) if a >= 0 else None for a in absorbed]
    return EnsembleReport(
        t=np.arange(t_max + 1),
        i_mean=i_mat.mean(axis=0),
        i_q10=q10, i_q50=q50, i_q90=q90,
        s_mean=nan_mean(s_mat),
        r_mean=nan_mean(r_mat),
        n_reps=n_reps,
        extinct_count=sum(1 for a in steps if a is not None),
        absorbed_steps=steps,
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
