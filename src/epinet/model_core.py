"""Graphs, random-graph generators, spectral computations, and model parameters.

Implements:
  - Graph: immutable undirected graph with optional edge weights in [0, 1],
    adjacency matrices (dense and sparse), neighbor lists, connectivity.
  - parse_edge_list / format_edge_list: line-oriented edge-list I/O.
  - generate: seeded generators (er, geometric, complete, star, path).
  - spectral_radius: dominant eigenvalue/eigenvector of the (weighted)
    adjacency matrix by power iteration.
  - ModelSpec: validated parameter set for the six epidemic variants
    (sis-nia, sis-ia, sis-general, sirs, siv-id, siv-vd).
  - _VARIANTS: the variant table. It is the one place where a variant's
    rules live: compartment count, parameters, the per-node one-step law
    (whose tables also give the infection factor), the disease-free law and
    two structural flags. The exact chain, the Monte Carlo sampler, the
    mean-field map and Jacobian (all but sis-nia's and sis-general's own
    formulas) and every per-variant scalar read it.
  - threshold_ratio: the variant's local-stability ratio (< 1 predicts
    extinction of the mean-field dynamics).
  - contact_from_rates.
  - _usable_cpus / _pinned / _row_shares: the CPUs a job may use, keeping
    a thread to one of them, and a row-range job run over contiguous
    shares of its rows, one thread per usable CPU.
"""
from __future__ import annotations

import logging
import math
import os
import sys
import threading
from contextlib import contextmanager
from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable

import numpy as np
import scipy.sparse as sp

logger = logging.getLogger(__name__)

# Iteration cap for power iteration.
POWER_ITERATION_CAP = 10 ** 6

# Rows below which _row_shares runs its job in the caller alone. On 2 CPUs a
# 2-way split of the exact chain's build lost at 3^5 and 2^8 states (2.2
# against 1.4 ms, 4.1 against 3.8 ms) and won on every chain measured from
# 2^9 states up (9.9 against 12.0 ms at 2^9).
_SHARE_MIN_ROWS = 2 ** 9


class GraphError(ValueError):
    """Invalid graph construction or edge-list input."""


class ModelError(ValueError):
    """Invalid model parameters."""


# ---------------------------------------------------------------------------
# Graph
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Graph:
    """Immutable undirected graph on nodes 0..n-1 with optional edge weights.

    Edges may be given as any sequence of (i, j) pairs or an (m, 2) integer
    array (a node index that is not integral raises GraphError), and
    weights as any sequence or array (empty: all 1.0). They are stored as
    a tuple of (i, j) pairs with i < j, sorted and without duplicates, and
    a parallel tuple ``weights``. No self-loops. The
    symmetric CSR adjacency ``adjacency_sparse`` (sorted indices) is built
    once here; every neighbor view is a slice of it.
    """

    n: int
    edges: tuple[tuple[int, int], ...] = ()
    weights: tuple[float, ...] = field(default=())
    adjacency_sparse: sp.csr_matrix = field(init=False, repr=False,
                                            compare=False)

    def __post_init__(self) -> None:
        n = self.n
        if n < 1:
            raise GraphError(f"node count must be >= 1, got {n}")
        ij = np.asarray(self.edges).reshape(-1, 2)
        if len(ij) != len(self.edges):
            raise GraphError("edges must be (i, j) pairs")
        if ij.dtype.kind not in "biu":
            x = ij.astype(float)
            whole = (np.isfinite(x) & (x == np.trunc(x))).all(axis=1)
            if not whole.all():
                raise GraphError(f"edge {tuple(x[~whole][0].tolist())} has "
                                 "a non-integer node index")
        a, b = ij.astype(np.int64, copy=False).T
        i, j = np.minimum(a, b), np.maximum(a, b)
        bad = (i == j) | (i < 0) | (j >= n)
        if bad.any():
            e = np.argmax(bad)
            if i[e] == j[e]:
                raise GraphError(f"self-loop ({a[e]},{b[e]}) not allowed")
            raise GraphError(f"edge ({a[e]},{b[e]}) out of range for n={n}")
        if len(self.weights) == 0:
            w = np.ones(len(i))
        else:
            w = np.asarray(self.weights, dtype=float).reshape(-1)
            if len(w) != len(i):
                raise GraphError("weights length must match edge count")
            bad = ~((w >= 0.0) & (w <= 1.0))
            if bad.any():
                raise GraphError(f"edge weight {float(w[np.argmax(bad)])} "
                                 "outside [0,1]")
        # A stable sort keeps repeats in input order, so the first of each
        # run is the first occurrence.
        order = np.argsort(i * n + j, kind="stable")
        i, j, w = i[order], j[order], w[order]
        first = np.ones(len(i), dtype=bool)
        first[1:] = (i[1:] != i[:-1]) | (j[1:] != j[:-1])
        run = np.maximum.accumulate(np.where(first, np.arange(len(i)), 0))
        clash = w != w[run]
        if clash.any():
            e = np.flatnonzero(clash)[np.argmin(order[clash])]
            raise GraphError("conflicting weights for duplicate edge "
                             f"{(int(i[e]), int(j[e]))}")
        i, j, w = i[first], j[first], w[first]
        object.__setattr__(self, "edges", tuple(zip(i.tolist(), j.tolist())))
        object.__setattr__(self, "weights", tuple(w.tolist()))
        # Row r lists the edges (c, r), c < r, then (r, c), c > r, each in
        # edge order: a stable sort by row gives sorted column indices.
        rows = np.concatenate((j, i))
        order = np.argsort(rows, kind="stable")
        indptr = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(np.bincount(rows, minlength=n), out=indptr[1:])
        object.__setattr__(self, "adjacency_sparse", sp.csr_matrix(
            (np.concatenate((w, w))[order], np.concatenate((i, j))[order],
             indptr), shape=(n, n)))

    @property
    def m(self) -> int:
        """Edge count."""
        return len(self.edges)

    @cached_property
    def degrees(self) -> np.ndarray:
        return np.diff(self.adjacency_sparse.indptr).astype(np.int64)

    def adjacency(self) -> np.ndarray:
        """Dense weighted adjacency matrix (symmetric, zero diagonal)."""
        return self.adjacency_sparse.toarray()

    @cached_property
    def is_weighted(self) -> bool:
        return bool(np.any(self.adjacency_sparse.data != 1.0))

    def components(self) -> list[list[int]]:
        """Connected components as sorted node lists, largest first."""
        indptr = self.adjacency_sparse.indptr.tolist()
        indices = self.adjacency_sparse.indices.tolist()
        seen = [False] * self.n
        comps = []
        for s in range(self.n):
            if seen[s]:
                continue
            stack = [s]
            seen[s] = True
            comp = [s]
            while stack:
                v = stack.pop()
                for u in indices[indptr[v]:indptr[v + 1]]:
                    if not seen[u]:
                        seen[u] = True
                        comp.append(u)
                        stack.append(u)
            comps.append(sorted(comp))
        comps.sort(key=len, reverse=True)
        return comps

    def is_connected(self) -> bool:
        return len(self.components()) == 1

    def subgraph(self, nodes: list[int]) -> "Graph":
        """Induced subgraph; nodes are relabeled 0..len(nodes)-1 in list order."""
        pos = np.full(self.n, -1)
        pos[np.asarray(nodes, dtype=np.int64)] = np.arange(len(nodes))
        A = self.adjacency_sparse
        i = pos[np.repeat(np.arange(self.n), np.diff(A.indptr))]
        j = pos[A.indices]
        keep = (i >= 0) & (j >= 0) & (i < j)
        return Graph(len(nodes), np.column_stack((i[keep], j[keep])),
                     tuple(A.data[keep].tolist()))


# ---------------------------------------------------------------------------
# Edge-list I/O
# ---------------------------------------------------------------------------

def parse_edge_list(text: str) -> Graph:
    """Parse a line-oriented edge list into a Graph.

    Each non-comment line is "u v" or "u v w" with integer node indices and
    an optional weight in [0, 1]. '#' starts a comment (full-line or
    trailing). A line "n=<k>" overrides the node count (otherwise
    n = 1 + max index). Duplicate edges are merged; duplicates with
    conflicting weights are an error.
    """
    edges: list[tuple[int, int]] = []
    weights: list[float] = []
    n_header: int | None = None
    max_idx = -1
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("n=") or line.startswith("n ="):
            try:
                n_header = int(line.split("=", 1)[1].strip())
            except ValueError:
                raise GraphError(f"line {lineno}: malformed header {line!r}")
            continue
        parts = line.split()
        if len(parts) not in (2, 3):
            raise GraphError(f"line {lineno}: expected 'u v' or 'u v w', got {raw!r}")
        try:
            u, v = int(parts[0]), int(parts[1])
        except ValueError:
            raise GraphError(f"line {lineno}: non-integer node index in {raw!r}")
        if u == v:
            raise GraphError(f"line {lineno}: self-loop {u} {v}")
        if u < 0 or v < 0:
            raise GraphError(f"line {lineno}: negative node index in {raw!r}")
        w = 1.0
        if len(parts) == 3:
            try:
                w = float(parts[2])
            except ValueError:
                raise GraphError(f"line {lineno}: non-numeric weight in {raw!r}")
            if not (0.0 <= w <= 1.0):
                raise GraphError(f"line {lineno}: weight {w} outside [0,1]")
        edges.append((u, v))
        weights.append(w)
        max_idx = max(max_idx, u, v)
    n = n_header if n_header is not None else max_idx + 1
    if n < 1:
        raise GraphError("edge list defines no nodes")
    if max_idx >= n:
        raise GraphError(f"node index {max_idx} exceeds declared n={n}")
    return Graph(n, tuple(edges), tuple(weights))


def format_edge_list(graph: Graph) -> str:
    """Inverse of parse_edge_list (always emits the n= header)."""
    lines = [f"n={graph.n}"]
    for (i, j), w in zip(graph.edges, graph.weights):
        lines.append(f"{i} {j}" if w == 1.0 else f"{i} {j} {w!r}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Generators
# ---------------------------------------------------------------------------

# Largest number of candidate pairs the er and geometric generators hold at
# once (a row longer than this is one block on its own).
_PAIR_BLOCK = 1 << 18


def _pairs_where(n: int, keep) -> np.ndarray:
    """(m, 2) array of the pairs (i, j), i < j, for which keep holds.

    Pairs come in np.triu_indices(n, 1) order. keep(iu, ju) is called on
    consecutive blocks of whole rows, in that order, and returns a boolean
    mask, so memory stays O(_PAIR_BLOCK + m) instead of O(n^2).
    """
    counts = np.arange(n - 1, -1, -1)
    start = np.concatenate(([0], np.cumsum(counts)))
    parts = [np.empty((0, 2), dtype=np.int64)]
    a = 0
    while a < n - 1:
        b = max(a + 1, int(np.searchsorted(start, start[a] + _PAIR_BLOCK,
                                           side="right")) - 1)
        rows = np.arange(a, b)
        iu = np.repeat(rows, counts[a:b])
        # Pair t of row i, start[i] <= t < start[i + 1], is (i, i+1+t-start[i]).
        ju = np.arange(start[a], start[b]) - np.repeat(start[a:b] - rows - 1,
                                                       counts[a:b])
        mask = keep(iu, ju)
        parts.append(np.column_stack((iu[mask], ju[mask])))
        a = b
    return np.concatenate(parts)


_GENERATOR_PARAMS = {"er": ("n", "p"), "geometric": ("n", "r"),
                     "complete": ("n",), "star": ("n",), "path": ("n",)}


def generate(kind: str, seed: int = 0, **params) -> Graph:
    """Generate a graph deterministically from (kind, params, seed).

    Kinds and parameters:
      - er: n, p — each unordered pair included independently with prob p.
      - geometric: n, r — uniform points in the unit square, edge iff
        Euclidean distance < r.
      - complete / star / path: n. Star hub is node 0.
    Any other parameter is an error.
    """
    extra = sorted(set(params) - set(_GENERATOR_PARAMS.get(kind, params)))
    if extra:
        raise GraphError(f"generator {kind!r} does not accept "
                         f"{', '.join(extra)}")
    if "n" not in params:
        raise GraphError(f"generator {kind!r} requires n")
    n = int(params["n"])
    if n < 1:
        raise GraphError("n must be >= 1")
    rng = np.random.default_rng(seed)
    if kind == "er":
        if "p" not in params:
            raise GraphError("er generator requires p")
        p = float(params["p"])
        if not (0.0 <= p <= 1.0):
            raise GraphError(f"probability p={p} outside [0,1]")
        return Graph(n, _pairs_where(n, lambda iu, ju:
                                     rng.random(len(iu)) < p))
    if kind == "geometric":
        if "r" not in params:
            raise GraphError("geometric generator requires r")
        r = float(params["r"])
        if r <= 0:
            raise GraphError(f"radius r={r} must be > 0")
        pts = rng.random((n, 2))
        return Graph(n, _pairs_where(n, lambda iu, ju:
                                     ((pts[iu] - pts[ju]) ** 2).sum(axis=1)
                                     < r * r))
    if kind == "complete":
        return Graph(n, tuple((i, j) for i in range(n) for j in range(i + 1, n)))
    if kind == "star":
        return Graph(n, tuple((0, j) for j in range(1, n)))
    if kind == "path":
        return Graph(n, tuple((i, i + 1) for i in range(n - 1)))
    raise GraphError(f"unknown generator kind {kind!r}")


# ---------------------------------------------------------------------------
# Spectral computations
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SpectralReport:
    """Dominant eigenpair of a nonnegative matrix.

    residual is the infinity norm of A v - lambda v with v normalized to
    unit maximum entry.
    """

    lambda_max: float
    iterations: int
    residual: float
    eigvec: np.ndarray


def _power_iteration(matvec, n: int, tol: float):
    """Power iteration on a nonnegative matrix given by its matvec.

    Iterates on (A + I) so that bipartite structures (where the raw adjacency
    has a -lambda_max eigenvalue matching +lambda_max in magnitude) still
    converge; the +1 shift is removed from the reported eigenvalue.
    Starts from the all-ones vector. Converges when successive Rayleigh
    quotients differ by < tol and the eigenvector residual is < tol.
    """
    v = np.ones(n)
    v /= np.linalg.norm(v)
    lam_shift = 0.0
    it = 0
    for it in range(1, POWER_ITERATION_CAP + 1):
        w = matvec(v) + v
        w /= np.linalg.norm(w)  # >= 1: (A + I) v >= v for v >= 0
        lam_new = float(w @ (matvec(w) + w))
        res_vec = (matvec(w) + w) - lam_new * w
        res = float(np.abs(res_vec).max())
        converged = abs(lam_new - lam_shift) < tol and res < tol
        lam_shift = lam_new
        v = w
        if converged:
            break
    lam = lam_shift - 1.0
    # Normalize to unit max entry, fix sign (Perron vector is nonnegative).
    mx = np.abs(v).max()
    if mx > 0:
        v = v / v[np.abs(v).argmax()]
    v = np.clip(v, 0.0, None)
    scale = v.max() if v.max() > 0 else 1.0
    v = v / scale
    return lam, it, v


def _connected_radius(graph: Graph, tol: float):
    """(lambda_max, iterations, residual, Perron vector) of a connected graph."""
    if graph.m == 0:
        v = np.zeros(graph.n)
        v[0] = 1.0
        return 0.0, 0, 0.0, v
    A = graph.adjacency_sparse if graph.n > 400 else graph.adjacency()
    matvec = lambda x: A @ x
    lam, it, v = _power_iteration(matvec, graph.n, tol)
    res = float(np.abs(matvec(v) - lam * v).max())
    return lam, it, res, v


def spectral_radius(graph: Graph, tol: float = 1e-10) -> SpectralReport:
    """Dominant adjacency eigenvalue and Perron vector by power iteration.

    Weights are applied. On a disconnected graph a warning is logged, the
    eigenvalue is the largest over the components (the first, i.e. largest,
    component wins ties), and the returned eigenvector has zeros outside
    the component that attains it. Non-convergence after the iteration cap
    logs a warning and reports the achieved residual.
    """
    if tol <= 0:
        raise ValueError("tol must be > 0")
    comps = graph.components()
    if len(comps) == 1:
        lam, it, res, v = _connected_radius(graph, tol)
    else:
        logger.warning("graph is disconnected (%d components); using the "
                       "component with the largest eigenvalue", len(comps))
        # A component's largest weighted row sum bounds its eigenvalue, and
        # the power iteration's estimate (a Rayleigh quotient) never exceeds
        # it beyond rounding, so a component whose bound lies below the best
        # estimate by a relative 1e-6 cannot beat it and is not iterated.
        # An isolated node (eigenvalue 0) never beats an earlier component.
        row_sums = graph.adjacency_sparse @ np.ones(graph.n)
        best = None
        for comp in comps:
            if best is None or (len(comp) > 1 and row_sums[comp].max()
                                >= best[1][0] * (1.0 - 1e-6)):
                found = _connected_radius(graph.subgraph(comp), tol)
                if best is None or found[0] > best[1][0]:
                    best = (comp, found)
        comp, (lam, it, res, sub) = best
        v = np.zeros(graph.n)
        v[np.asarray(comp)] = sub
    if res > tol * max(1.0, abs(lam)) and it >= POWER_ITERATION_CAP:
        logger.warning("power iteration did not converge (residual %.3e)",
                       res)
    return SpectralReport(lam, it, res, v)


# ---------------------------------------------------------------------------
# ModelSpec
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class _Variant:
    """The rules of one variant. Compartments are 0 = S, 1 = I, 2 = R (V).

    tables(spec) gives three k x k coefficient tables (C, A, B) of the
    per-node one-step law
        P(next = y | current = c) = C[c, y] + A[c, y] esc + B[c, y] (1 - esc),
    where esc is the probability that the node receives no infection this
    step. free_law(spec) is the single-node law of the disease-free chain,
    and infection(spec) = B[S, I] - A[S, I] scales the infection pressure on
    a susceptible.
    order_preserving: the chain maps stochastically ordered laws to ordered
    laws, so the all-infected start is a worst case and the mean-field map
    decreases from the all-infected corner. ends_at_extinction: with zero
    infected no infection can restart and no susceptible enters R, so a
    trajectory ends there.
    """

    k: int
    required: tuple[str, ...]
    tables: Callable[["ModelSpec"], np.ndarray]
    free_law: Callable[["ModelSpec"], tuple[float, ...]]
    order_preserving: bool = False
    ends_at_extinction: bool = False

    def infection(self, spec: "ModelSpec") -> float:
        _, A, B = self.tables(spec)
        return float(B[0, 1] - A[0, 1])


def _tables(C, A, B) -> np.ndarray:
    return np.array([C, A, B], dtype=float)


def _sir_tables(s: "ModelSpec", C_s, A_s, B_s) -> np.ndarray:
    """Three-compartment tables from the susceptible rows: an infected node
    recovers w.p. delta and a recovered one returns to S w.p. gamma."""
    zero = [0, 0, 0]
    return _tables([C_s, [0, 1 - s.delta, s.delta], [s.gamma, 0, 1 - s.gamma]],
                   [A_s, zero, zero], [B_s, zero, zero])


def _sis_law(s: "ModelSpec") -> tuple[float, ...]:
    return (1.0, 0.0)


def _siv_law(s: "ModelSpec") -> tuple[float, ...]:
    total = s.gamma + s.theta
    if total == 0.0:
        raise ModelError("siv disease-free law requires gamma + theta > 0")
    return (s.gamma / total, 0.0, s.theta / total)


_VARIANTS: dict[str, _Variant] = {
    # Recovery requires also escaping reinfection within the step.
    "sis-nia": _Variant(
        2, ("beta", "delta"),
        lambda s: _tables([[0, 0], [0, 1]], [[1, 0], [s.delta, -s.delta]],
                          [[0, 1], [0, 0]]),
        _sis_law, order_preserving=True, ends_at_extinction=True),
    # Recovery is independent of neighbors.
    "sis-ia": _Variant(
        2, ("beta", "delta"),
        lambda s: _tables([[0, 0], [s.delta, 1 - s.delta]], [[1, 0], [0, 0]],
                          [[0, 1], [0, 0]]),
        _sis_law, ends_at_extinction=True),
    # The contact product already includes the self term (1 - m_ii).
    "sis-general": _Variant(
        2, ("contact",),
        lambda s: _tables([[0, 0], [0, 0]], [[1, 0], [1, 0]],
                          [[0, 1], [0, 1]]),
        _sis_law, order_preserving=True, ends_at_extinction=True),
    "sirs": _Variant(
        3, ("beta", "delta", "gamma"),
        lambda s: _sir_tables(s, [0, 0, 0], [1, 0, 0], [0, 1, 0]),
        lambda s: (1.0, 0.0, 0.0), ends_at_extinction=True),
    # Vaccination applies only if no infection arrives.
    "siv-id": _Variant(
        3, ("beta", "delta", "gamma", "theta"),
        lambda s: _sir_tables(s, [0, 0, 0], [1 - s.theta, 0, s.theta],
                              [0, 1, 0]),
        _siv_law),
    # Vaccination preempts any arriving infection.
    "siv-vd": _Variant(
        3, ("beta", "delta", "gamma", "theta"),
        lambda s: _sir_tables(s, [0, 0, s.theta], [1 - s.theta, 0, 0],
                              [0, 1 - s.theta, 0]),
        _siv_law),
}
VARIANTS = tuple(_VARIANTS)


@dataclass(frozen=True, eq=False)
class ModelSpec:
    """Epidemic model parameters for one of the six variants.

    The variant table _VARIANTS names the required fields of each variant;
    all others must be absent. For sis-general, contact is a square matrix
    with entries in [0,1] whose diagonal entry m_ii is the self-infection
    rate, i.e. one minus the recovery probability of node i.

    For SIV variants gamma = theta = 1 is rejected: the single-node chain
    would alternate S->R->S deterministically and never converge.
    """

    variant: str
    beta: float | None = None
    delta: float | None = None
    gamma: float | None = None
    theta: float | None = None
    contact: np.ndarray | None = None

    def __post_init__(self) -> None:
        if self.variant not in VARIANTS:
            raise ModelError(
                f"unknown variant {self.variant!r}; expected one of {VARIANTS}"
            )
        required = _VARIANTS[self.variant].required
        for name in ("beta", "delta", "gamma", "theta", "contact"):
            val = getattr(self, name)
            if name in required:
                if val is None:
                    raise ModelError(f"{self.variant} requires {name}")
            elif val is not None:
                raise ModelError(f"{self.variant} does not accept {name}")
        for name in ("beta", "delta", "gamma", "theta"):
            val = getattr(self, name)
            if val is not None and not (0.0 <= val <= 1.0):
                raise ModelError(f"{name}={val} outside [0,1]")
        if self.contact is not None:
            M = np.array(self.contact, dtype=float)
            if M.ndim != 2 or M.shape[0] != M.shape[1]:
                raise ModelError("contact matrix must be square")
            if not ((M >= 0) & (M <= 1)).all():  # NaN fails both
                raise ModelError("contact matrix entries must be finite and "
                                 "in [0,1]")
            M.setflags(write=False)
            object.__setattr__(self, "contact", M)
        if "theta" in required and self.gamma == 1.0 and self.theta == 1.0:
            raise ModelError(
                "siv with gamma=1 and theta=1 is a period-2 chain; rejected"
            )

    @property
    def k(self) -> int:
        """Number of per-node compartments (2 for SIS family, 3 otherwise)."""
        return _VARIANTS[self.variant].k

    def describe(self) -> dict:
        d: dict = {"variant": self.variant}
        for name in ("beta", "delta", "gamma", "theta"):
            val = getattr(self, name)
            if val is not None:
                d[name] = val
        if self.contact is not None:
            d["contact"] = [list(map(float, row)) for row in self.contact]
        return d


def contact_from_rates(graph: Graph, beta: float, delta: float) -> np.ndarray:
    """Contact matrix equivalent to per-edge infection beta*w and recovery delta.

    Off-diagonal entries beta * w_ij on edges, diagonal entries 1 - delta.
    The sis-general chain built from this matrix coincides with the sis-nia
    chain for the same (beta, delta) on the same graph.
    """
    if not (0.0 <= beta <= 1.0 and 0.0 <= delta <= 1.0):
        raise ModelError("beta and delta must be in [0,1]")
    M = beta * graph.adjacency()
    np.fill_diagonal(M, 1.0 - delta)
    return M


# ---------------------------------------------------------------------------
# Threshold ratio
# ---------------------------------------------------------------------------

def _check_contact(model: ModelSpec, graph: Graph) -> None:
    if model.contact is not None and len(model.contact) != graph.n:
        m = len(model.contact)
        raise ModelError(f"contact matrix is {m}x{m} but graph has n={graph.n}")


def threshold_ratio(model: ModelSpec, graph: Graph, tol: float = 1e-10) -> float:
    """Local-stability ratio of the disease-free point; < 1 predicts extinction.

    Rate-based variants: beta * lambda_max(A) * p_S * f / delta, where p_S
    is the susceptible weight of the disease-free law (gamma/(gamma+theta)
    for SIV, else 1) and f the infection factor (1-theta for siv-vd, else 1).
    sis-general: lambda_max(contact).
    Returns +inf when delta = 0 with positive infection pressure.
    """
    _check_contact(model, graph)
    if model.contact is not None:
        M = model.contact
        return _power_iteration(lambda x: M @ x, graph.n, tol)[0]
    return _rate_ratio(model, spectral_radius(graph, tol).lambda_max)


def _rate_ratio(model: ModelSpec, lam: float) -> float:
    """threshold_ratio of a rate-based model on a graph with lambda_max lam."""
    rule = _VARIANTS[model.variant]
    pressure = model.beta * lam * rule.free_law(model)[0] * rule.infection(model)
    if model.delta == 0.0:
        return math.inf if pressure > 0 else 0.0
    return pressure / model.delta


# ---------------------------------------------------------------------------
# Work shares on every usable CPU
# ---------------------------------------------------------------------------

def _usable_cpus() -> list[int]:
    """The CPUs this process may run on. Off Linux work stays serial."""
    if not sys.platform.startswith("linux"):
        return []
    return sorted(os.sched_getaffinity(0))


@contextmanager
def _pinned(cpu: int):
    """Keep the calling thread (on Linux, the affinity of pid 0 is the
    calling thread's) to cpu inside the block; its own affinity is restored
    on leaving it, also on error. Each thread or process must pin itself:
    where the kernel does not balance load between CPUs, a new thread or
    forked child stays on its creator's CPU."""
    home = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {cpu})
    try:
        yield
    finally:
        os.sched_setaffinity(0, home)


def _row_shares(job, K: int) -> None:
    """job(rows) over contiguous shares of the row slice 0..K-1, one per
    usable CPU: the caller runs the first share and a thread each of the
    others, each pinned to its CPU. Below _SHARE_MIN_ROWS rows, or with one
    usable CPU, job(slice(0, K)) runs in the caller.

    The jobs spend their time in numpy and scipy.sparse code that releases
    the interpreter lock, and each share writes only its own rows, so the
    result does not depend on the split. An exception raised in any share
    re-raises here, after every thread has been joined.
    """
    cpus = _usable_cpus()[:K] if K >= _SHARE_MIN_ROWS else []
    if len(cpus) < 2:
        job(slice(0, K))
        return
    W = len(cpus)
    shares = [slice(K * w // W, K * (w + 1) // W) for w in range(W)]
    errors = []

    def run(cpu: int, rows: slice) -> None:
        try:
            with _pinned(cpu):
                job(rows)
        except BaseException as exc:  # re-raised in the caller
            errors.append(exc)

    threads = []
    try:
        for cpu, rows in zip(cpus[1:], shares[1:]):
            thread = threading.Thread(target=run, args=(cpu, rows))
            thread.start()
            threads.append(thread)
        with _pinned(cpus[0]):
            job(shares[0])
    finally:
        for thread in threads:
            thread.join()
    if errors:
        raise errors[0]
