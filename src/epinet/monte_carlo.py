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
The compartment counts are summed per grid point as the rows step. Each
row draws its own substream, so batching changes no bit, and a large run
can split its replicates into contiguous shares stepped in forked
processes, one per usable CPU on Linux (Salmon et al., "Parallel random
numbers: as easy as 1, 2, 3", SC11): the parent steps one share and adds up
the shares' integer sums, so every output equals the serial run's.

A grid of models that differ only in their infection rates (mc_grid, the
beta grid of `epinet sweep`) runs as one such batch, so it forks at most
once. Its rows are replicate-major: row j steps replicate j // G of grid
point j % G under that point's key master_seed + j % G, so a contiguous
share holds an equal slice of every grid point, and every grid point's
report equals mc_ensemble of its model alone; mc_ensemble is the grid of
one point. The variant tables do not depend on beta, so the grid shares
them and only the escape vector is computed per grid point. On an
unweighted graph that escape is read from a power table at the row's
infected-neighbor count, which an integer copy of the adjacency (int16
while the maximum degree fits, else int32) counts exactly.

Early-exit semantics: SIS and SIRS trajectories end at the first step with
zero infected (the epidemic cannot restart and no susceptible node can enter
the recovered compartment); SIV trajectories run to t_max, with the
post-extinction dynamics reduced to the decoupled per-node
susceptible/vaccinated chain (the escape probability is identically 1; the
sampled law is unchanged).
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .model_core import (
    _VARIANTS,
    MEMORY_BUDGET_BYTES,
    Graph,
    ModelSpec,
    _check_contact,
    _infection_factors,
    _infection_matrix,
    _pinned,
    _usable_cpus,
)

_LOG_FLOOR = -745.0  # exp() underflows to 0 below this; avoids -inf * 0 = nan
# Upper bound on the doubles in one float temporary of a step: replicates are
# stepped in blocks of max(1, _REP_BLOCK_DOUBLES // n) rows.
_REP_BLOCK_DOUBLES = 1 << 18
# Work bound R * n * t_max (the node updates if no replicate ends early)
# above which a run's R rows (the replicates of every grid point) are split
# across forked processes. A split costs a fixed 10-25 ms (fork,
# copy-on-write faults, collecting the rows): on 2 CPUs it measured slower
# than a serial run at 5e5 and faster from 1e6.
_FORK_MIN_WORK = 1 << 20


class MonteCarloError(ValueError):
    """Invalid simulation request."""


# ---------------------------------------------------------------------------
# Types
# ---------------------------------------------------------------------------

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


def _count_dtype(max_degree: int) -> type:
    """The integer type of the infected-neighbor counts: int16 while the
    maximum degree fits, else int32. Every partial sum of a count is at
    most the node's degree, so the product never overflows."""
    return np.int16 if max_degree <= np.iinfo(np.int16).max else np.int32


def _escape_function(models: list[ModelSpec], graph: Graph):
    """(infected, point) -> per-node probability of receiving no infection.

    infected is the (B x n) boolean matrix of infected nodes, one row per
    replicate, and point[b] the grid point whose model steps row b. When
    W = beta A on a 0/1 adjacency A the escape is a power of 1 - beta, read
    from the grid point's table (the tables are stacked, max degree + 1
    entries each) at the infected-neighbor count. Otherwise the escape is
    the product over the infection matrix W (model_core._infection_matrix),
    and each grid point's log-factor matrix log(1 - W) is applied to its own
    rows; every column of a sparse product is computed on its own, so that
    changes no bit. Built once per run: the tables and the log-factor
    matrices depend only on the models and the graph.
    """
    factors = [_infection_factors(m, graph) for m in models]
    _, X, unit, _ = factors[0]
    if unit:
        top = int(graph.degrees.max(initial=0))
        A = X.astype(_count_dtype(top))
        table = np.concatenate([_power_table(1.0 - beta, top)
                                for beta, *_ in factors])

        def counted(infected, point):
            counts = (A @ np.ascontiguousarray(infected.T, dtype=A.dtype)).T
            if len(models) > 1:
                counts = counts + (top + 1) * point[:, None]
            return table.take(counts)

        return counted
    logs = []
    for model in models:
        L = _infection_matrix(model, graph)
        # log(1 - W), floored so that exp() gives 0 instead of -inf * 0.
        with np.errstate(divide="ignore"):
            L.data = np.maximum(np.log1p(-L.data), _LOG_FLOOR)
        logs.append(L)

    def apply(L, infected):
        return np.exp((L @ np.ascontiguousarray(infected.T, dtype=float)).T)

    def logged(infected, point):
        if len(logs) == 1:
            return apply(logs[0], infected)
        esc = np.empty(infected.shape)
        for g, L in enumerate(logs):
            rows = point == g
            if rows.any():
                esc[rows] = apply(L, infected[rows])
        return esc

    return logged


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


def _sampler(models: list[ModelSpec], graph: Graph):
    """One synchronous update as (states, u, point) -> next digits.

    states is a (B x n) digit matrix, one replicate per row, u the matching
    uniforms and point the rows' grid points (see _escape_function); the
    models share their variant tables. Inverse-CDF sampling: a node in
    compartment c with draw u moves to the number of y < k-1 with u >=
    row[c][0] + ... + row[c][y], where row[c][y] = C[c,y] + A[c,y] esc +
    B[c,y] (1 - esc) from the variant table. Each coefficient column is
    gathered on the digits with a take; all-zero columns are skipped.
    """
    escape = _escape_function(models, graph)
    model = models[0]
    columns = [[(coef[:, y], j) for j, coef in
                enumerate(_VARIANTS[model.variant].tables(model))
                if coef[:, y].any()]
               for y in range(model.k - 1)]

    def advance(states: np.ndarray, u: np.ndarray, point: np.ndarray
                ) -> np.ndarray:
        infected = states == 1
        hit = infected.any(axis=1)
        if hit.all():
            esc = escape(infected, point)
        else:
            # A row with no infected escapes with probability exactly 1.
            esc = np.ones(states.shape)
            if hit.any():
                esc[hit] = escape(infected[hit], point[hit])
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


def _init_states(graph: Graph, init, fills, point: np.ndarray,
                 reps: np.ndarray) -> np.ndarray:
    """Initial digit matrix: row b is replicate reps[b] of grid point
    point[b], whose draws come from fills[point[b]]."""
    shape = (len(reps), graph.n)
    if isinstance(init, str):
        if init != "all-infected":
            raise MonteCarloError(f"unknown init {init!r}")
        return np.ones(shape, dtype=np.int8)
    if isinstance(init, float):
        if not 0.0 <= init <= 1.0:
            raise MonteCarloError("init fraction must be in [0,1]")
        out = np.empty(shape, dtype=np.int8)
        u = np.empty(graph.n)
        for row, (g, rep) in enumerate(zip(point.tolist(), reps.tolist())):
            fills[g](u, 0, rep, stream=1)
            out[row] = u < init
        return out
    nodes = np.asarray(list(init), dtype=np.int64)
    if len(nodes) and (nodes.min() < 0 or nodes.max() >= graph.n):
        raise MonteCarloError("explicit init set contains out-of-range nodes")
    out = np.zeros(shape, dtype=np.int8)
    out[:, nodes] = 1
    return out


def _check_memory(points: int, n_reps: int, n: int, t_max: int) -> None:
    """Refuse a run of points grid points of n_reps replicates on n nodes
    to t_max whose estimate exceeds MEMORY_BUDGET_BYTES. Per grid point:
    n_reps x n int8 states and 16 bytes of absorption steps per replicate;
    the count sums, means and their temporaries, about 80 bytes per step
    (75 measured); 1 KiB for its model and report."""
    if points * (n_reps * (n + 16) + 80 * (t_max + 1) + 1024) \
            > MEMORY_BUDGET_BYTES:
        raise MonteCarloError(
            f"a Monte Carlo run over {points:.3g} grid points needs more "
            f"than the memory budget of {MEMORY_BUDGET_BYTES / 2 ** 30:.2f} "
            f"GiB")


def _run(models: list[ModelSpec], graph: Graph, init, t_max: int, seed: int,
         replicates, snapshot_times: tuple[int, ...] = ()):
    """Core loop: the replicates of every grid point stepped to
    absorption/t_max as one batch.

    Grid point g runs models[g] under the Philox key seed + g. Rows are
    replicate-major: row j is replicate replicates[j // G] of grid point
    j % G, for G = len(models). Returns (absorbed, counts). absorbed[j] is
    row j's first step with zero infected, -1 if none. counts["i"],
    counts["r"] and counts["rows"] are (G x t_max+1) float sums of the
    infected and recovered counts over the rows recorded at each step, and
    the number of those rows. A record ends at absorption, except that a
    frozen all-susceptible state extends it exactly. counts["i", ts] (and
    counts["r", ts] for three compartments) counts, per grid point and node,
    the replicates infected (recovered) at snapshot time ts. All are exact
    integers, so the order of their terms does not matter.

    Snapshot times past a SIS/SIRS absorption are still exact: a frozen
    all-susceptible state contributes nothing, and a SIRS state with zero
    infected keeps evolving through the same update (its escape vector is
    1) until the last requested snapshot.

    The request is validated here, before any process is forked: the models
    must agree in every field but beta and the contact matrix, so that they
    share their variant tables, and a run over the memory budget is refused
    (_check_memory) before its states are allocated. A run whose work bound
    R G n t_max exceeds _FORK_MIN_WORK is then split into contiguous shares
    of its rows, one per usable CPU (_split).
    """
    if not models:
        raise MonteCarloError("a grid needs at least one model")
    # describe() but beta and contact, read without copying a contact matrix
    shared = [(m.variant, m.delta, m.gamma, m.theta) for m in models]
    for model, fields in zip(models, shared):
        if fields != shared[0]:
            raise MonteCarloError("the models of a grid may differ only in "
                                  "beta or the contact matrix")
        _check_contact(model, graph)
    variant = _VARIANTS[models[0].variant]
    if t_max < 1:
        raise MonteCarloError("t_max must be >= 1")
    G = len(models)
    _check_memory(G, len(replicates), graph.n, t_max)
    fills = [_philox(seed + g) for g in range(G)]
    point = np.tile(np.arange(G), len(replicates))
    reps = np.repeat(np.asarray(replicates, dtype=np.int64), G)
    states = _init_states(graph, init, fills, point, reps)
    need = sorted(set(snapshot_times))
    if need and (need[0] < 0 or need[-1] > t_max):
        raise MonteCarloError("snapshot times must lie in [0, t_max]")

    def core(rows: slice):
        return _simulate(models, graph, states[rows], point[rows], reps[rows],
                         t_max, fills, need, variant.ends_at_extinction)

    R = len(reps)
    cpus = _usable_cpus()[:R]
    if len(cpus) < 2 or R * graph.n * t_max <= _FORK_MIN_WORK:
        return core(slice(None))
    return _split(core, R, cpus)


def _simulate(models: list[ModelSpec], graph: Graph, states: np.ndarray,
              point: np.ndarray, reps: np.ndarray, t_max: int, fills,
              need: list[int], ends: bool):
    """The serial core of _run: step the rows of states (replicate reps[b]
    of grid point point[b]) as one batch; same returns as _run."""
    n = graph.n
    G, R, T = len(models), len(reps), t_max + 1
    absorbed = np.full(R, -1, dtype=np.int64)
    counts = {key: np.zeros((G, T)) for key in ("i", "r", "rows")}
    for ts in need:
        counts["i", ts] = np.zeros((G, n), dtype=np.int64)
        if models[0].k == 3:
            counts["r", ts] = np.zeros((G, n), dtype=np.int64)
    advance = _sampler(models, graph)
    block = max(1, _REP_BLOCK_DOUBLES // n)
    u = np.empty((min(R, block), n))
    # Per live row: its slot in absorbed, whether its record is still open,
    # and the last step it is simulated to. frozen[g] counts the rows of
    # grid point g that have stopped in the all-susceptible state.
    slot = np.arange(R)
    recording = np.ones(R, dtype=bool)
    sim_until = np.full(R, t_max)
    frozen = np.zeros(G)
    for t in range(T):
        infected = states == 1
        recovered = states == 2
        i = infected.sum(axis=1)
        r = recovered.sum(axis=1)
        rec = point[slot[recording]]
        counts["i"][:, t] = np.bincount(rec, i[recording], G)
        counts["r"][:, t] = np.bincount(rec, r[recording], G)
        counts["rows"][:, t] = np.bincount(rec, minlength=G) + frozen
        if ("i", t) in counts:
            np.add.at(counts["i", t], point[slot], infected)
            if ("r", t) in counts:
                np.add.at(counts["r", t], point[slot], recovered)
        zero = i == 0
        if zero.any():
            new = zero & (absorbed[slot] < 0)
            absorbed[slot[new]] = t
            if ends:
                # SIS/SIRS: the record ends here. A frozen all-susceptible
                # state extends it exactly and stops; any other state is
                # simulated on to the last snapshot time.
                recording &= ~new
                stop = new & (r == 0)
                frozen += np.bincount(point[slot[stop]], minlength=G)
                sim_until[new & ~stop] = max(
                    [ts for ts in need if ts > t], default=t)
                sim_until[stop] = t
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
            mine = slot[rows]
            for row, (g, rep) in enumerate(zip(point[mine].tolist(),
                                               reps[mine].tolist())):
                fills[g](ub[row], t, rep)
            states[rows] = advance(states[rows], ub, point[mine])
    counts["rows"][:, t + 1:] += frozen[:, None]
    return absorbed, counts


def _split(core, R: int, cpus: list[int]):
    """core over len(cpus) contiguous shares of the R rows, all but the
    first in forked processes; absorbed is joined in row order and every
    count summed, which equals the serial run's bit for bit (each replicate
    draws only from its own substreams). Each process keeps to its own CPU
    while it steps (_pinned). A worker's exception re-raises here, and
    every worker is joined before this returns.

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
    procs, conns = [], []
    done = False
    with _pinned(cpus[0]):
        try:
            for cpu, share in zip(cpus[1:], shares[1:]):
                recv, send = ctx.Pipe(duplex=False)
                conns.append(recv)
                proc = ctx.Process(target=_worker,
                                   args=(core, share, cpu, send), daemon=True)
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
    return (np.concatenate([part[0] for part in parts]),
            {key: sum(part[1][key] for part in parts) for key in parts[0][1]})


def _worker(core, share: slice, cpu: int, conn) -> None:
    """Forked process body: keep to cpu, then send (True, core(share)) or
    (False, the exception it raised)."""
    try:
        with _pinned(cpu):
            result = (True, core(share))
    except Exception as exc:
        result = (False, exc)
    conn.send(result)
    conn.close()


def mc_ensemble(model: ModelSpec, graph: Graph, init="all-infected",
                t_max: int = 1000, n_reps: int = 1, master_seed: int = 0,
                marginals_at: tuple[int, ...] = ()) -> EnsembleReport:
    """Aggregate n_reps independent replicates (substreams r = 0..n_reps-1).

    The replicates are stepped as one batch; each keeps its own substream,
    so every statistic equals what the replicates give one at a time.
    """
    return _ensembles([model], graph, init, t_max, n_reps, master_seed,
                      marginals_at)[0]


def mc_grid(models: list[ModelSpec], graph: Graph, init="all-infected",
            t_max: int = 1000, n_reps: int = 1, master_seed: int = 0,
            marginals_at: tuple[int, ...] = ()) -> list[EnsembleReport]:
    """mc_ensemble(models[idx], ..., master_seed=master_seed + idx) for
    every idx, bit for bit, with all replicates stepped as one batch.

    The models must differ only in beta (or the contact matrix): they share
    the variant and its other rates.
    """
    return _ensembles(list(models), graph, init, t_max, n_reps, master_seed,
                      marginals_at)


def _ensembles(models: list[ModelSpec], graph: Graph, init, t_max: int,
               n_reps: int, seed: int, marginals_at: tuple[int, ...]
               ) -> list[EnsembleReport]:
    """The body of mc_grid, which mc_ensemble runs on a grid of one point.
    It is private so that a tracer wrapping the public functions charges a
    simulation to the one that was called.

    The means divide _run's per-grid-point sums: infected counts by n_reps,
    susceptible and recovered counts by the rows recorded at each step (NaN
    where there are none).
    """
    if n_reps < 1:
        raise MonteCarloError("n_reps must be >= 1")
    snap_times = tuple(sorted(set(marginals_at)))
    absorbed, counts = _run(models, graph, init, t_max, seed,
                            np.arange(n_reps), snap_times)
    rows = counts["rows"]
    held = np.maximum(rows, 1)
    i_mean = counts["i"] / n_reps
    s_mean = np.where(rows > 0, (graph.n * rows - counts["i"] - counts["r"])
                      / held, np.nan)
    r_mean = np.where(rows > 0, counts["r"] / held, np.nan)
    G = len(models)
    reports = []
    for g, model in enumerate(models):
        marg = None
        if snap_times:
            marg = {ts: (counts["i", ts][g] / n_reps,
                         counts["r", ts][g] / n_reps if model.k == 3 else None)
                    for ts in snap_times}
        steps = [int(a) if a >= 0 else None for a in absorbed[g::G]]
        reports.append(EnsembleReport(
            t=np.arange(t_max + 1),
            i_mean=i_mean[g],
            s_mean=s_mean[g],
            r_mean=r_mean[g],
            n_reps=n_reps,
            extinct_count=sum(1 for a in steps if a is not None),
            absorbed_steps=steps,
            marginals=marg,
        ))
    return reports


def ensemble_to_csv(report: EnsembleReport) -> str:
    """Mean compartment counts per step, same 't,s,i,r' column layout."""
    lines = ["t,s,i,r"]
    for idx in range(len(report.t)):
        lines.append(
            f"{int(report.t[idx])},{float(report.s_mean[idx])!s},"
            f"{float(report.i_mean[idx])!s},{float(report.r_mean[idx])!s}"
        )
    return "\n".join(lines) + "\n"
