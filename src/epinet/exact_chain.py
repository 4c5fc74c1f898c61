"""Exact k^n-state Markov chains for the six epidemic variants.

Implements:
  - ChainState / DistVector / TransitionMatrix / MixingReport; marginals
    are mean_field.MeanFieldPoint.
  - build_transition_matrix: the full product-form transition matrix S, as
    CSR. S carries its model and graph; every analysis of the chain takes S.
  - propagate, marginals, stationary.
  - dense_mixing_scan / mixing_time_exact / mixing_time_bound: exact
    worst-case mixing time, its memory check, and the analytic upper bound
    from one coupling for every variant (a separate call: the exact report
    carries no bound).
  - build_R_pair / check_order_preservation: upper-set indicator matrix of
    the componentwise partial order on {0,1}^n, its integer inverse, and the
    order-preservation certificate min(R^-1 S R) >= 0.
  - u_vector / check_u_bound: the product vector u(r)_X = prod_{i in S(X)}
    (1 - r_i) and the one-step comparison S u(r) >= u(Phi(r)).
  - lp_marginal_max: exact LP maximum of a next-step infection marginal
    over all joint distributions with prescribed marginals, solved by a
    two-phase tableau simplex with Bland's rule; closed_form_marginal_bound
    is the linear bound it is compared against.
  - non_absorption_check: exact survival probability against the
    mean-field product bound.

State encoding: digit i of the base-k code is the compartment of node i
(0 = S, 1 = I, 2 = R), with node 0 the least significant digit.

The build of S and the dense scan's S^2 use every usable CPU: contiguous
shares of S's rows run in one thread per CPU (model_core._row_shares).
Every row is computed as a serial run computes it, so S, every mixing
report and every output are the same bit for bit on any number of CPUs.
"""
from __future__ import annotations

import logging
import math
import operator
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
import scipy.sparse as sp

from .model_core import (
    _VARIANTS,
    MEMORY_BUDGET_BYTES,
    Graph,
    ModelSpec,
    _infection_matrix,
    _row_shares,
)
from .mean_field import (MeanFieldPoint, _linear_bound, _linear_norm,
                         mf_iterate, mf_step)

logger = logging.getLogger(__name__)

# State-space caps. These bound the enumeration size only: the memory a
# request needs is estimated and checked against MEMORY_BUDGET_BYTES before
# any K x K-sized allocation, and exceeding either raises
# StateSpaceCapError.
STATE_CAP_K2 = 2 ** 16
STATE_CAP_K3 = 3 ** 10

# Bytes per stored entry that bound the peak while the CSR is assembled:
# the stored (column, value) arrays and the temporaries of the row blocks
# being expanded, which hold at most _BUILD_BLOCK_ENTRIES entries each.
_BUILD_BYTES_PER_NNZ = 48
_BUILD_BLOCK_ENTRIES = 1 << 16

# Row blocks of the dense mixing scan hold at most this many doubles.
_SCAN_BLOCK_DOUBLES = 1 << 18
# Row blocks of the in-place step S^(t+1) = S^t S: smaller blocks slow the
# GEMM (blocks of 2^18 doubles took 1.3x the whole product at K = 3^7).
_STEP_BLOCK_DOUBLES = 1 << 20

# LP caps: the largest n at which one marginal LP on a complete graph
# solves in about 0.5 s. Measured on 2 shared cores with general marginals,
# worst variant: k=2 n=12 0.31 s (n=13 0.64 s), k=3 n=8 0.39 s (n=9 3.3 s).
LP_N_CAP_K2 = 12
LP_N_CAP_K3 = 8
# Simplex tolerances. A Phase-1 optimum (total constraint violation) above
# _LP_FEAS_TOL raises LPInfeasibleError: MeanFieldPoint admits p_i + p_r up
# to 1 + 1e-9, and requests beyond 1 + 1e-10 have no joint distribution.
# Pivot entries and reduced costs within _LP_TOL of zero count as zero.
_LP_FEAS_TOL = 1e-10
_LP_TOL = 1e-11


class ExactChainError(ValueError):
    """Invalid exact-chain request (caps, dimensions, preconditions)."""


class StateSpaceCapError(ExactChainError):
    """State space k^n, or the memory it needs, exceeds the configured cap."""


class LPInfeasibleError(ExactChainError):
    """No joint distribution has the requested marginals."""


class StationaryVerificationError(RuntimeError):
    """Claimed stationary vector fails pi S = pi; signals a matrix bug."""


# ---------------------------------------------------------------------------
# States and basic containers
# ---------------------------------------------------------------------------

@lru_cache(maxsize=32)
def states_table(n: int, k: int) -> np.ndarray:
    """(k^n, n) int8 table; row c column i = digit i of code c (read-only)."""
    codes = np.arange(k ** n, dtype=np.int64)
    D = np.empty((k ** n, n), dtype=np.int8)
    for i in range(n):
        D[:, i] = (codes // (k ** i)) % k
    D.setflags(write=False)
    return D


@dataclass(frozen=True)
class ChainState:
    """One network state: base-k code over n nodes."""

    code: int
    n: int
    k: int = 2

    def __post_init__(self) -> None:
        try:
            code, n, k = map(operator.index, (self.code, self.n, self.k))
        except TypeError:
            raise ExactChainError(f"code, n and k must be integers, got "
                                  f"{self.code!r}, {self.n!r}, {self.k!r}")
        if not (0 <= code < k ** n):
            raise ExactChainError(
                f"code {self.code} out of range for k={self.k}, n={self.n}"
            )

    @classmethod
    def from_digits(cls, digits, k: int = 2) -> "ChainState":
        digits = list(digits)
        code = 0
        for i, d in enumerate(digits):
            if not (float(d).is_integer() and 0 <= d < k):
                raise ExactChainError(f"digit {d} invalid for k={k}")
            code += int(d) * k ** i
        return cls(code, len(digits), k)

    @property
    def digits(self) -> np.ndarray:
        return states_table(self.n, self.k)[self.code].copy()


@dataclass
class DistVector:
    """Probability row vector over the k^n state codes."""

    entries: np.ndarray

    def __post_init__(self) -> None:
        e = np.asarray(self.entries, dtype=float).copy()
        if e.ndim != 1:
            raise ExactChainError("DistVector entries must be 1-D")
        if e.min(initial=0.0) < -1e-15:
            raise ExactChainError(
                f"negative probability {e.min():.3e} below tolerance"
            )
        np.clip(e, 0.0, None, out=e)
        s = e.sum()
        if abs(s - 1.0) > 1e-12:
            raise ExactChainError(f"probabilities sum to {s!r}, not 1")
        self.entries = e

    @classmethod
    def point_mass(cls, code: int, size: int) -> "DistVector":
        e = np.zeros(size)
        e[code] = 1.0
        return cls(e)

    def __len__(self) -> int:
        return len(self.entries)


class _CSR(sp.csr_array):
    """csr_array whose `nbytes` and `np.count_nonzero` report what it stores.

    A plain csr_array has no `nbytes`, and `np.count_nonzero` fails on it;
    callers that sized the dense matrix this way keep working.
    """

    @property
    def nbytes(self) -> int:
        return self.data.nbytes + self.indices.nbytes + self.indptr.nbytes

    def __array_function__(self, func, types, args, kwargs):
        if func is np.count_nonzero and len(args) == 1 and not kwargs:
            return int(self.count_nonzero())
        return func._implementation(*args, **kwargs)


@dataclass
class TransitionMatrix:
    """The chain S of a model on a graph: a sparse k^n x k^n row-stochastic
    matrix with the model and graph it was built from, whose k and n it reads.

    entries is a csr_array with sorted indices that stores exactly the
    nonzero entries; entries.toarray() is the dense matrix.
    """

    entries: sp.csr_array
    model: ModelSpec
    graph: Graph

    @property
    def k(self) -> int:
        return self.model.k

    @property
    def n(self) -> int:
        return self.graph.n

    @property
    def size(self) -> int:
        return self.entries.shape[0]


# ---------------------------------------------------------------------------
# Per-node conditional probabilities
# ---------------------------------------------------------------------------

def _escape_probs(W: sp.csr_matrix, infected: np.ndarray,
                  i: int) -> np.ndarray:
    """P(node i receives no infection | state), vectorized over states.

    infected: (K, n) boolean table of digit == 1. The product of
    (1 - W_ij) over the infected j in row i of the infection matrix W.
    """
    row = slice(W.indptr[i], W.indptr[i + 1])
    cols = W.indices[row]
    if len(cols) == 0:
        return np.ones(infected.shape[0])
    return np.prod(1.0 - W.data[row][None, :] * infected[:, cols], axis=1)


def _node_digit_probs(W: sp.csr_matrix, D: np.ndarray, i: int,
                      tables: np.ndarray) -> np.ndarray:
    """(K, k) array: P(next digit of node i = y | current state), all states.

    tables holds the variant's (C, A, B) coefficient tables; each state's
    row is C[c] + A[c] esc + B[c] (1 - esc) for node i's current digit c,
    with esc read from the infection matrix W.
    """
    esc = _escape_probs(W, D == 1, i)[:, None]
    C, A, B = (t[D[:, i]] for t in tables)
    return C + A * esc + B * (1.0 - esc)


def _check_cap(k: int, n: int) -> None:
    cap = STATE_CAP_K2 if k == 2 else STATE_CAP_K3
    if k ** n > cap:
        raise StateSpaceCapError(
            f"state space {k}^{n} exceeds cap {cap} "
            f"({'2^16' if k == 2 else '3^10'} states)"
        )


def _check_memory(nbytes: int, what: str) -> None:
    if nbytes > MEMORY_BUDGET_BYTES:
        raise StateSpaceCapError(
            f"{what} needs about {nbytes / 2 ** 30:.2f} GiB, above the "
            f"memory budget of {MEMORY_BUDGET_BYTES / 2 ** 30:.2f} GiB"
        )


def dense_mixing_scan(model: ModelSpec, n: int) -> bool:
    """Whether mixing_time_exact scans dense powers of S for model on n
    nodes: its stationary law, the n-fold product of the single-node
    disease-free law, is no point mass. A dense scan is checked here
    against the caps and MEMORY_BUDGET_BYTES (at most two dense K x K
    arrays: S^t, and S or the square being built), so a caller can refuse
    it before S is built."""
    if max(_VARIANTS[model.variant].free_law(model)) ** n >= 1.0 - 1e-12:
        return False
    _check_cap(model.k, n)
    K = model.k ** n
    _check_memory(2 * K * K * 8, f"the dense {K}x{K} mixing scan")
    return True


def build_transition_matrix(model: ModelSpec, graph: Graph) -> TransitionMatrix:
    """Full transition matrix S with S[X, Y] = prod_i P(Y_i | X), as CSR.

    Assembled node by node from the structural zeros: every row starts as
    the single entry (column 0, value 1), and node i splits each entry into
    one per digit y with P(Y_i = y | X) != 0, adding y k^i to its column and
    multiplying its value by that probability. The factors multiply in node
    order, so every stored value equals the dense product bit for bit. The
    exact nnz is counted first, and the assembly's peak memory is checked
    against MEMORY_BUDGET_BYTES before anything nnz-sized is allocated.
    The rows are split into contiguous shares, one per usable CPU
    (model_core._row_shares), and each share is expanded in row blocks of
    at most _BUILD_BLOCK_ENTRIES entries, the last node straight into the
    block's slices of the stored arrays, where its rows are then sorted. No
    row depends on the split.
    """
    n = graph.n
    W = _infection_matrix(model, graph)
    _check_cap(model.k, n)
    k = model.k
    D = states_table(n, k)
    K = k ** n
    tables = _VARIANTS[model.variant].tables(model)
    probs = [_node_digit_probs(W, D, i, tables) for i in range(n)]
    allows = [P != 0 for P in probs]
    splits = [np.count_nonzero(a, axis=1) for a in allows]
    row_nnz = np.prod(splits, axis=0)
    nnz = int(row_nnz.sum())
    _check_memory(_BUILD_BYTES_PER_NNZ * nnz,
                  f"the {k}^{n}-state transition matrix ({nnz} nonzeros)")
    indptr = np.concatenate(([0], np.cumsum(row_nnz)))
    widest = int(row_nnz.max())
    del row_nnz
    if nnz < 2 ** 31:
        indptr = indptr.astype(np.int32)  # so that cols is used uncopied
    cols = np.empty(nnz, dtype=np.int32)
    vals = np.empty(nnz)
    digits = np.arange(k, dtype=np.int32)

    def expand(share: slice) -> None:
        for block in _row_blocks(share, widest, _BUILD_BLOCK_ENTRIES):
            rows = np.arange(block.start, block.stop, dtype=np.int32)
            c = np.zeros(len(rows), dtype=np.int32)
            v = np.ones(len(rows))
            for i, P in enumerate(probs):
                y = np.broadcast_to(digits, (len(rows), k))[allows[i][rows]]
                split = splits[i][rows]
                if i == n - 1:
                    break
                rows = np.repeat(rows, split)
                c = np.repeat(c, split)
                c += y * k ** i
                v = np.repeat(v, split)
                v *= P[rows, y]
            # The last node (n >= 1) writes straight into the block's slices.
            out = slice(indptr[block.start], indptr[block.stop])
            p = P[np.repeat(rows, split), y]
            np.add(np.repeat(c, split), y * k ** i, out=cols[out])
            np.multiply(np.repeat(v, split), p, out=vals[out])
            local = indptr[block.start:block.stop + 1] - indptr[block.start]
            part = _CSR((vals[out], cols[out], local),
                        shape=(len(local) - 1, K))
            part.sort_indices()
            # scipy may have copied the slices (it copies views of less
            # than half their base), so the sorted rows are written back.
            cols[out], vals[out] = part.indices, part.data

    _row_shares(expand, K)
    return TransitionMatrix(_CSR((vals, cols, indptr), shape=(K, K)), model,
                            graph)


# ---------------------------------------------------------------------------
# Propagation, marginals, stationary, TV
# ---------------------------------------------------------------------------

def propagate(mu: DistVector, S: TransitionMatrix, t: int) -> DistVector:
    """mu S^t by repeated vector-matrix products; renormalizes fp drift."""
    if len(mu) != S.size:
        raise ExactChainError("distribution and matrix sizes differ")
    if t < 0:
        raise ExactChainError("t must be >= 0")
    v = mu.entries.copy()
    for _ in range(t):
        v = v @ S.entries
    drift = abs(v.sum() - 1.0)
    if drift > 1e-10:
        logger.warning("propagate drift %.3e after %d steps; renormalized",
                       drift, t)
    elif drift > 0:
        logger.debug("propagate drift %.3e after %d steps", drift, t)
    np.clip(v, 0.0, None, out=v)
    v /= v.sum()
    return DistVector(v)


def marginals(mu: DistVector, model: ModelSpec) -> MeanFieldPoint:
    """Per-node occupation probabilities of a joint distribution."""
    k = model.k
    K = len(mu)
    n = round(math.log(K, k))
    if k ** n != K:
        raise ExactChainError(f"length {K} is not a power of k={k}")
    D = states_table(n, k)
    # MeanFieldPoint clips the sums' rounding into [0,1].
    return MeanFieldPoint(mu.entries @ (D == 1),
                          None if k == 2 else mu.entries @ (D == 2))


def stationary(S: TransitionMatrix) -> tuple[DistVector, float]:
    """Stationary distribution pi of the chain S and its defect
    max |pi S - pi|, verified against S.

    pi is the per-node product of the variant's single-node disease-free
    law: a point mass on the all-susceptible state for the SIS family and
    SIRS, and weights (gamma/(gamma+theta), 0, theta/(gamma+theta)) for
    (S, I, R) under SIV, which requires gamma + theta > 0. Raises
    StationaryVerificationError if the defect exceeds 1e-10 (which would
    signal a transition-matrix bug).
    """
    weights = np.array(_VARIANTS[S.model.variant].free_law(S.model))
    pi = np.prod(weights[states_table(S.n, S.k)], axis=1)
    defect = float(np.abs(pi @ S.entries - pi).max())
    if defect > 1e-10:
        raise StationaryVerificationError(
            f"pi S = pi fails with defect {defect:.3e}"
        )
    return DistVector(pi), defect


# ---------------------------------------------------------------------------
# Mixing time
# ---------------------------------------------------------------------------

@dataclass
class MixingReport:
    """Exact mixing time of the chain S. Its analytic counterpart is
    mixing_time_bound(model, graph, epsilon), which needs no chain.

    t_mix is None when the step cap was reached before the total-variation
    target (reported, not raised; expected above threshold).
    stationary_defect is max |pi S - pi| of the law the scan measured
    against (stationary).
    """

    t_mix: int | None
    epsilon: float
    worst_initial: ChainState
    stationary_defect: float
    censored: bool = False


def mixing_time_bound(model: ModelSpec, graph: Graph, epsilon: float) -> float:
    """Analytic mixing-time upper bound, a whole number of steps.

    Couple the chain with a stationary copy. Infection-free states are
    closed and the infection marginals obey p(t+1) <= L p(t)
    (mean_field._linear_bound), so the infection outlives s steps w.p. at
    most n ||L||_2^s. Then each compartment the marginals do not see
    forgets its start at its variant's rate r (model_core._Variant.
    relaxation): an R node stays R w.p. r = 1 - gamma (sirs), and one
    uniform u per node (S -> V iff u < theta, V -> S iff u >= 1 - gamma)
    leaves an S/V pair apart w.p. r = |1 - gamma - theta| (SIV). With the
    c = len(rates) rates (||L||_2, *relaxation), d(sum of steps) <= sum of
    n r^steps <= eps when each rate takes ceil(log(c*n/eps) / (-log r))
    steps, 1 at r = 0; the bound is their sum, +inf if any rate is >= 1.
    """
    if not (0.0 < epsilon < 1.0):
        raise ExactChainError("epsilon must be in (0,1)")
    rates = (_linear_norm(model, graph),
             *_VARIANTS[model.variant].relaxation(model))
    if max(rates) >= 1.0:
        return math.inf
    log_target = math.log(len(rates) * graph.n / epsilon)
    return float(sum(math.ceil(log_target / -math.log(r)) if r else 1
                     for r in rates))


def _worst_state(values: np.ndarray, extremum: float,
                 S: TransitionMatrix) -> ChainState:
    """The smallest state code whose value is within 1e-12 of the extremum.

    States that tie in exact arithmetic (symmetric states) differ only by
    rounding, which must not pick the reported one.
    """
    code = int(np.flatnonzero(np.abs(values - extremum) <= 1e-12)[0])
    return ChainState(code, S.n, S.k)


def _product(A, rows, B):
    """Rows `rows` of A @ B: the dense mixing scan's only K^3-class work.
    Either factor may be the CSR S; S[rows] @ S is a sparse product."""
    return A[rows] @ B


def _row_blocks(rows: slice, width: int, budget: int):
    """Slices covering the slice rows, of at most budget // width rows (at
    least 1): blocks of at most budget entries, if no row holds more than
    width."""
    block = max(1, budget // width)
    return (slice(a, min(a + block, rows.stop))
            for a in range(rows.start, rows.stop, block))


def _tv_rows(P, pi: np.ndarray) -> np.ndarray:
    """Total-variation distance of each row of P (dense or CSR) from pi,
    by row blocks."""
    tv = np.empty(P.shape[0])
    for rows in _row_blocks(slice(0, P.shape[0]), P.shape[1],
                            _SCAN_BLOCK_DOUBLES):
        dev = (P[rows].toarray() if sp.issparse(P) else P[rows]) - pi
        tv[rows] = 0.5 * np.abs(dev, out=dev).sum(axis=1)
    return tv


def _check_rows(A: np.ndarray, B, tv: np.ndarray, pi: np.ndarray,
                epsilon: float, rest=None):
    """TV of every row of A @ B if all are <= epsilon, else None at the
    first row above it; A @ B is never stored. Rows go worst-first by tv in
    blocks of 1, 2, 4, ... rows (at most _SCAN_BLOCK_DOUBLES doubles). Once
    the worst row passes, rest() (when given) is B in the form to use for
    the other rows."""
    most = max(1, _SCAN_BLOCK_DOUBLES // len(tv))
    order = np.argsort(-tv, kind="stable")
    out = np.empty_like(tv)
    a, size = 0, 1
    while a < len(tv):
        rows = order[a:a + size]
        out[rows] = _tv_rows(_product(A, rows, B), pi)
        if out[rows].max() > epsilon:
            return None
        if a == 0 and rest is not None:
            B = rest()
        a += len(rows)
        size = min(2 * size, most)
    return out


def mixing_time_exact(S: TransitionMatrix, epsilon: float,
                      cap: int = 100000) -> MixingReport:
    """Smallest t with sup over initial states of TV(mu S^t, pi) <= epsilon.

    pi is stationary(S), so a chain that fails pi S = pi raises
    StationaryVerificationError before any step. The sup over all initial
    distributions is attained at point masses because total variation is
    convex in mu (the sup of a convex function over the simplex sits at a
    vertex), so only the k^n point-mass initials are scanned. The reported
    worst initial is the smallest state code within 1e-12 of the worst
    value, at t_mix or, censored, at t = cap (the step limit, >= 1).

    When pi is a point mass (dense_mixing_scan is False for S's model),
    TV(e_X S^t, pi) = 1 - (S^t)_{X,s0} and a single absorption-probability
    column is iterated through the sparse S. For the
    order-preserving SIS variants (sis-nia, sis-general) the all-infected
    state is checked to be a worst-case initial at every step; a violation
    raises, since it would contradict the monotone-coupling structure of
    those chains. sis-ia is exempt: it is not order-preserving and its worst
    initial can be an interior state.

    Otherwise the powers of S are dense, and since d(t) = max_X TV(e_X S^t,
    pi) never increases with t (Levin, Peres & Wilmer, Markov Chains and
    Mixing Times, ch. 4) the scan searches by doubling. Holding S^t with
    d(t) > epsilon, it probes S^(t+1) = S^t S, then checks S^(2t) = S^t S^t
    and builds S^(2t) only if it fails; once S^(2t) passes, it steps S^t S,
    S^(t+1) S, ... toward it, probing each next power. Probes and checks
    take rows worst-first, stop at the first row above epsilon, and store
    nothing, and no square goes past cap. S stays sparse until a product
    with it is needed whole: S^2 is built from CSR row blocks, and a probe's
    worst row is taken against the CSR. Only when that row passes, or a step
    to S^(t+1) is due, is S made dense, and S^(t+1) is written over S^t by
    row blocks; a square is built with S sparse again. So the scan holds at
    most two dense K x K arrays, S^t and either dense S or the square being
    built, and dense_mixing_scan raises StateSpaceCapError when two would
    exceed MEMORY_BUDGET_BYTES.
    """
    if not (0.0 < epsilon < 1.0):
        raise ExactChainError("epsilon must be in (0,1)")
    if cap < 1:
        raise ExactChainError(f"cap must be >= 1, got {cap}")
    pi, defect = stationary(S)
    K = S.size
    check_top = _VARIANTS[S.model.variant].order_preserving
    if not dense_mixing_scan(S.model, S.n):
        c = DistVector.point_mass(int(pi.entries.argmax()), K).entries
        for t in range(1, cap + 1):
            c = S.entries @ c
            low = c.min()
            if check_top and c[K - 1] > low + 1e-12:
                raise ExactChainError(
                    "all-infected start is not the worst initial at "
                    f"t={t} (violates order preservation)"
                )
            if 1.0 - low <= epsilon:
                return MixingReport(t, epsilon, _worst_state(c, low, S),
                                    defect)
        return MixingReport(None, epsilon, _worst_state(c, c.min(), S),
                            defect, censored=True)

    def report(t: int, tv: np.ndarray) -> MixingReport:
        top = float(tv.max())
        return MixingReport(None if top > epsilon else t, epsilon,
                            _worst_state(tv, top, S), defect, top > epsilon)

    A = S.entries
    p = pi.entries
    tv = _tv_rows(A, p)
    if tv.max() <= epsilon or cap == 1:
        return report(1, tv)
    # D = S^t, from S^2 = S S by sparse row blocks on every usable CPU.
    D = np.zeros((K, K))

    def fill_square(share: slice) -> None:
        for rows in _row_blocks(share, K, _SCAN_BLOCK_DOUBLES):
            _product(A, rows, A).toarray(out=D[rows])

    _row_shares(fill_square, K)
    t, tv = 2, _tv_rows(D, p)
    M = None  # dense S: BLAS beats dense @ CSR once whole products are due

    def dense_S() -> np.ndarray:
        nonlocal M
        if M is None:
            M = A.toarray()
        return M

    ahead = None  # (2t', TV at 2t') once a checked square passes
    while True:
        if tv.max() <= epsilon or t == cap:
            return report(t, tv)
        nxt = _check_rows(D, A if M is None else M, tv, p, epsilon, dense_S)
        if nxt is not None:
            return report(t + 1, nxt)
        square = False
        if ahead is None and 2 * t <= cap:
            sq = _check_rows(D, D, tv, p, epsilon)
            if sq is None:
                square = True
            else:
                ahead = (2 * t, sq)
        if ahead and ahead[0] == t + 2:
            return report(*ahead)
        if square:
            M = None  # so that D and its square are the only K x K arrays
            t, D = 2 * t, _product(D, slice(None), D)
        else:
            t += 1
            for rows in _row_blocks(slice(0, K), K, _STEP_BLOCK_DOUBLES):
                D[rows] = _product(D, rows, dense_S())
        tv = _tv_rows(D, p)


# ---------------------------------------------------------------------------
# Stochastic-order machinery
# ---------------------------------------------------------------------------

def build_R_pair(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Upper-set indicator matrix R and its integer inverse over {0,1}^n.

    R[X, Y] = 1 iff X <= Y componentwise (support containment of the codes
    as bitmasks). The inverse has entries (-1)^{|S(Y) \\ S(X)|} on the same
    support; R @ R_inv is the identity in exact integer arithmetic.
    """
    if n < 1:
        raise ExactChainError("n must be >= 1")
    if 2 ** n > STATE_CAP_K2:
        raise StateSpaceCapError(f"2^{n} exceeds cap {STATE_CAP_K2}")
    codes = np.arange(2 ** n, dtype=np.uint64)
    leq = (codes[:, None] | codes[None, :]) == codes[None, :]
    R = leq.astype(np.int64)
    diff = codes[None, :] & ~codes[:, None]
    signs = np.where(np.bitwise_count(diff) % 2 == 0, 1, -1).astype(np.int64)
    R_inv = np.where(leq, signs, 0)
    return R, R_inv


@dataclass
class OrderReport:
    """Certificate data for order preservation of a k=2 chain.

    min_entry: smallest entry of R^-1 S R (>= -1e-12 for order-preserving
    chains). worst_pair: (X, Z) codes attaining it. identity_defect: max
    deviation of R^-1 S R from the complement-chain conditional
    probabilities (NaN for sis-ia, where that identity's derivation does
    not apply). pair_min: smallest coordinate of (mu - mu') S^t R over the
    sampled ordered pairs and horizons.
    """

    min_entry: float
    worst_pair: tuple[int, int]
    identity_defect: float
    pair_min: float


def _mirror_matrix(S: TransitionMatrix) -> np.ndarray | None:
    """Transition matrix of the transposed-contact chain, or None; the
    contact matrix is L itself (mean_field._linear_bound at p = I)."""
    model, graph = S.model, S.graph
    if not _VARIANTS[model.variant].order_preserving:
        return None
    M = _linear_bound(model, graph, np.eye(graph.n))
    mirrored = ModelSpec("sis-general", contact=M.T.copy())
    return build_transition_matrix(mirrored, graph).entries.toarray()


def check_order_preservation(S: TransitionMatrix, n_pairs: int = 100,
                             t_max: int = 20, seed: int = 0) -> OrderReport:
    """Order-preservation certificate for a 2-compartment chain.

    Computes R^-1 S R and its minimum entry; nonnegative (up to fp noise)
    means the chain maps stochastically ordered distributions to ordered
    distributions. Cross-checks the conjugation identity
    (R^-1 S R)[X, Z] = S'[~Z, ~X], where S' is the sis-general chain with
    contact matrix L transposed (_mirror_matrix; for sis-nia L is symmetric,
    so S' is the chain itself). Additionally samples n_pairs ordered pairs
    mu <= mu' (mass moved from a state X up to some Y >= X) and records the
    smallest coordinate of (mu - mu') S^t R for t = 1..t_max.
    """
    if S.k != 2:
        raise ExactChainError("order machinery applies to k=2 chains only")
    n = S.n
    K = S.size
    R, R_inv = build_R_pair(n)
    # Dense like R: the products then round as they always have, so the
    # reported minima keep their last bits.
    dense = S.entries.toarray()
    C = R_inv @ dense @ R
    flat = int(C.argmin())
    worst_pair = (flat // K, flat % K)
    min_entry = float(C.min())

    mirror = _mirror_matrix(S)
    if mirror is None:
        identity_defect = math.nan
    else:
        comp = np.arange(K - 1, -1, -1)
        expected = mirror[np.ix_(comp, comp)].T
        identity_defect = float(np.abs(C - expected).max())

    pair_min = math.nan
    if n_pairs > 0:
        rng = np.random.default_rng(seed)
        pair_min = math.inf
        for _ in range(n_pairs):
            mu = rng.random(K)
            mu /= mu.sum()
            X = int(rng.integers(K))
            up = int(rng.integers(K))
            Y = X | up
            if Y == X:
                Y = K - 1  # move to the top state instead
            eps = float(rng.uniform(0.0, mu[X]))
            v = np.zeros(K)
            v[X] += eps
            v[Y] -= eps
            # v = mu - mu'; every coordinate of v S^t R must stay >= 0.
            for _t in range(1, t_max + 1):
                v = v @ dense
                pair_min = min(pair_min, float((v @ R).min()))
    return OrderReport(min_entry, worst_pair, identity_defect, pair_min)


# ---------------------------------------------------------------------------
# u(r) bound
# ---------------------------------------------------------------------------

def u_vector(r: np.ndarray) -> np.ndarray:
    """u(r)_X = prod over infected nodes i of (1 - r_i), as a column.

    u(all ones) is the indicator of the all-susceptible state; u(0) is the
    all-ones vector. Not normalized.
    """
    r = np.asarray(r, dtype=float)
    if not ((r >= 0) & (r <= 1)).all():  # NaN fails both
        raise ExactChainError("r must be componentwise in [0,1]")
    n = len(r)
    D = states_table(n, 2)
    return np.prod(np.where(D == 1, 1.0 - r[None, :], 1.0), axis=1)


def check_u_bound(S: TransitionMatrix, r: np.ndarray) -> float:
    """min over states of (S u(r) - u(Phi(r))); >= -1e-12 when the one-step
    mean-field map dominates the chain's healthy-set probabilities.

    Defined for the sis-nia map Phi of S's model on S's graph.
    """
    if S.model.variant != "sis-nia":
        raise ExactChainError("u-bound comparison is defined for sis-nia")
    r = np.asarray(r, dtype=float)
    if r.shape != (S.n,):
        raise ExactChainError(f"r has shape {r.shape}; the chain has n={S.n}")
    lhs = S.entries @ u_vector(r)
    phi_r = mf_step(S.model, S.graph, MeanFieldPoint(r)).p_i
    rhs = u_vector(phi_r)
    return float((lhs - rhs).min())


# ---------------------------------------------------------------------------
# LP marginal bound
# ---------------------------------------------------------------------------

@dataclass
class LPReport:
    """LP maximum of a next-step infection marginal.

    lp_max: exact optimum over all joint distributions with the prescribed
    marginals. pivots: simplex pivots taken, Phase 1 and Phase 2 together.
    The linear bound it is compared against is closed_form_marginal_bound.
    """

    lp_max: float
    pivots: int


def _marginal_constraint_matrix(n: int, k: int) -> np.ndarray:
    """Columns: [1, R-marginal indicators (k=3 only), I-marginal indicators]."""
    D = states_table(n, k)
    cols = [np.ones(k ** n)]
    if k == 3:
        cols.extend((D[:, j] == 2).astype(float) for j in range(n))
    cols.extend((D[:, j] == 1).astype(float) for j in range(n))
    return np.column_stack(cols)


def _check_marginals(model: ModelSpec, graph: Graph, i: int,
                     p: MeanFieldPoint) -> None:
    if not (0 <= i < graph.n):
        raise ExactChainError(f"node {i} out of range")
    if (p.n, p.k) != (graph.n, model.k):
        raise ExactChainError(
            f"marginals have n={p.n} and {p.k} compartments; {model.variant} "
            f"on this graph needs n={graph.n} and {model.k}")


def closed_form_marginal_bound(model: ModelSpec, graph: Graph, i: int,
                               p: MeanFieldPoint) -> float:
    """Linear next-step bound on node i's infection marginal: row i of
    L p (mean_field._linear_bound), that is (1-delta) p_i + beta f
    sum_j w_ij p_j, or the contact-matrix row for sis-general."""
    _check_marginals(model, graph, i, p)
    return float(_linear_bound(model, graph, p.p_i)[i])


def _pivot(T: np.ndarray, basis: np.ndarray, r: int, j: int) -> None:
    """Column j enters the basis in row r: one rank-1 tableau update.

    Every row i, r included with multiplier 0, subtracts T[i, j] times a
    copy of the scaled row r (row r itself changes in the loop), in place
    and row by row. No row is skipped: x - 0 * y can change the sign of a
    zero x.
    """
    T[r] /= T[r, j]
    row = T[r].copy()
    col = T[:, j].tolist()
    col[r] = 0.0
    scaled = np.empty_like(row)
    for i, f in enumerate(col):
        np.multiply(f, row, out=scaled)
        T[i] -= scaled
    basis[r] = j


def _bland_pivots(T: np.ndarray, basis: np.ndarray, n_cols: int) -> int:
    """Pivot until no reduced cost among the first n_cols columns is
    negative; return the number of pivots.

    T's constraint rows end in the basic values, and its last row holds the
    reduced costs of a minimization. Bland's rule picks the lowest-indexed
    improving column to enter and, among the rows tied in the ratio test,
    the one whose basic column has the lowest index to leave, so the
    degenerate vertices of the marginal polytope cannot make it cycle.
    """
    m = len(basis)
    pivots = 0
    while True:
        improving = np.flatnonzero(T[m, :n_cols] < -_LP_TOL)
        if not len(improving):
            return pivots
        j = improving[0]
        rows = np.flatnonzero(T[:m, j] > _LP_TOL)
        if not len(rows):
            raise ExactChainError("LP is unbounded")
        ratios = np.maximum(T[rows, -1], 0.0) / T[rows, j]
        ties = rows[ratios <= ratios.min() + _LP_TOL]
        _pivot(T, basis, int(ties[np.argmin(basis[ties])]), j)
        pivots += 1


def _simplex_max(c: np.ndarray, A_eq: np.ndarray,
                 b_eq: np.ndarray) -> tuple[float, int]:
    """max c.x  s.t.  A_eq x = b_eq, x >= 0, by the two-phase dense tableau
    simplex; returns (optimum, pivots).

    Phase 1 minimizes the sum of one artificial column per row, starting
    from the artificial basis; an optimum above _LP_FEAS_TOL raises
    LPInfeasibleError. Artificials still basic afterwards (at value zero)
    are pivoted out, and a row with no nonzero original entry left is a
    redundant constraint and is dropped. Phase 2 then maximizes c.x from
    that feasible basis.
    """
    m, K = A_eq.shape
    sign = np.where(b_eq < 0, -1.0, 1.0)
    T = np.zeros((m + 1, K + m + 1))
    T[:m, :K] = A_eq * sign[:, None]
    T[:m, K:K + m] = np.eye(m)
    T[:m, -1] = b_eq * sign
    T[m, :K] = -T[:m, :K].sum(axis=0)
    T[m, -1] = -T[:m, -1].sum()
    basis = np.arange(K, K + m)
    pivots = _bland_pivots(T, basis, K)
    if -T[m, -1] > _LP_FEAS_TOL:
        raise LPInfeasibleError(
            "no joint distribution matches the requested marginals"
        )
    keep = []
    for r in range(m):
        if basis[r] >= K:
            j = int(np.argmax(np.abs(T[r, :K])))
            if abs(T[r, j]) <= _LP_TOL:
                continue
            _pivot(T, basis, r, j)
            pivots += 1
        keep.append(r)
    T = T[keep + [m]][:, np.r_[:K, -1]]
    basis = basis[keep]
    T[-1, :K] = c[basis] @ T[:-1, :K] - c
    T[-1, -1] = c[basis] @ T[:-1, -1]
    pivots += _bland_pivots(T, basis, K)
    return float(c[basis] @ T[:-1, -1]), pivots


def lp_marginal_max(model: ModelSpec, graph: Graph, i: int,
                    p: MeanFieldPoint) -> LPReport:
    """Exact maximum of node i's next-step infection marginal over all joint
    distributions mu with the prescribed per-node marginals.

    The equality-constrained LP  max c.mu  s.t.  mu >= 0, B^T mu = (1, p)
    has one column per state (k^n) and 1 + (k-1)n rows; it is solved by
    _simplex_max, which shares nothing with the closed-form bound it is
    compared against. c is node i's one-step infection law (a row sum of
    S), so S itself is never built.

    Raises LPInfeasibleError when the marginals admit no joint distribution
    (beyond a total violation of 1e-10), and ExactChainError when p's size
    or compartment count does not fit the model on the graph.
    """
    n = graph.n
    k = model.k
    cap = LP_N_CAP_K2 if k == 2 else LP_N_CAP_K3
    if n > cap:
        raise ExactChainError(
            f"marginal LP capped at n <= {cap} for k={k} (got n={n})"
        )
    _check_marginals(model, graph, i, p)
    D = states_table(n, k)
    B = _marginal_constraint_matrix(n, k)
    # concat is (p_r, p_i), the order of B's columns.
    beq = np.concatenate(([1.0], p.concat()))
    tables = _VARIANTS[model.variant].tables(model)
    c = _node_digit_probs(_infection_matrix(model, graph), D, i, tables)[:, 1]
    return LPReport(*_simplex_max(c, B.T, beq))


# ---------------------------------------------------------------------------
# Non-absorption bound
# ---------------------------------------------------------------------------

@dataclass
class NonAbsorptionReport:
    """Exact survival probability vs. the mean-field product bound."""

    exact: float
    bound: float
    slack: float


def non_absorption_check(S: TransitionMatrix, X0: ChainState | int,
                         t: int) -> NonAbsorptionReport:
    """P(chain S not absorbed by step t | start X0) against the product bound
    1 - prod over initially infected i of (1 - Phi^t_i(all-ones)).

    Defined for sis-nia; X0 must be a state of S (a code of S, or a
    ChainState with S's n and k). slack = bound - exact must be >= -1e-10.
    """
    model, graph, n = S.model, S.graph, S.n
    if model.variant != "sis-nia":
        raise ExactChainError("non-absorption bound is defined for sis-nia")
    if not isinstance(X0, ChainState):
        X0 = ChainState(X0, n, S.k)
    if (X0.n, X0.k) != (n, S.k):
        raise ExactChainError(f"start state has n={X0.n}, k={X0.k}; the "
                              f"chain has n={n}, k={S.k}")
    mu = propagate(DistVector.point_mass(X0.code, S.size), S, t)
    exact = 1.0 - float(mu.entries[0])
    x = mf_iterate(model, graph, MeanFieldPoint(np.ones(n)), t)[-1].p_i
    support = states_table(n, 2)[X0.code] == 1
    bound = 1.0 - float(np.prod(1.0 - x[support]))
    return NonAbsorptionReport(exact, bound, bound - exact)
