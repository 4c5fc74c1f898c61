"""Mean-field maps, Jacobians, fixed points, and stability.

The mean-field map is the exact chain's one-step law with the joint law
replaced by the product of its per-node marginals. From the variant
table's (C, A, B) (model_core._VARIANTS), with x_S = s = 1 - r - p and
Pi_i = prod over j of (1 - W_ij p_j) on the infection matrix W
(model_core._infection_matrix), it is

  x_y' = sum over c = R, I, S of x_c (C[c,y] + A[c,y] Pi + B[c,y] (1 - Pi)),

and its Jacobian comes from the same tables. sis-nia keeps its factored
1 - Pi (1 - (1-delta) x), which rounds differently from that sum.
Implements mf_step, mf_jacobian, jacobian_eigenvalues,
jacobian_contracts, mf_iterate, find_fixed_point and linear_bound_check,
with the linear marginal bound L p (from the table and W's factors) in
_linear_bound and its 2-norm in _linear_norm. find_fixed_point returns the
point alone: its stability is a separate call there.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from types import SimpleNamespace

import numpy as np

from .model_core import (
    _VARIANTS,
    Graph,
    ModelSpec,
    _infection_factors,
    _infection_matrix,
)


class MeanFieldError(ValueError):
    """Invalid mean-field request."""


# ---------------------------------------------------------------------------
# Types
# ---------------------------------------------------------------------------

@dataclass
class MeanFieldPoint:
    """Per-node probabilities: p_i infection, p_r recovered (3-compartment).

    A mean-field state, or the marginals of a joint law over the exact
    chain's states (exact_chain.marginals, lp_marginal_max). p_r is None
    for 2-compartment variants. Values are validated to [0,1]
    (1e-9 slop for accumulated rounding, then clipped) and p_i + p_r <= 1.
    """

    p_i: np.ndarray
    p_r: np.ndarray | None = None

    def __post_init__(self) -> None:
        p = np.asarray(self.p_i, dtype=float).copy()
        if p.ndim != 1:
            raise MeanFieldError("p_i must be a 1-D vector")
        if p.min(initial=0.0) < -1e-9 or p.max(initial=0.0) > 1 + 1e-9:
            raise MeanFieldError(f"p_i outside [0,1]: range "
                                 f"[{p.min()}, {p.max()}]")
        p.clip(0.0, 1.0, out=p)
        self.p_i = p
        if self.p_r is not None:
            r = np.asarray(self.p_r, dtype=float).copy()
            if r.shape != p.shape:
                raise MeanFieldError("p_r and p_i must have the same length")
            if r.min(initial=0.0) < -1e-9 or r.max(initial=0.0) > 1 + 1e-9:
                raise MeanFieldError("p_r outside [0,1]")
            r.clip(0.0, 1.0, out=r)
            if np.any(p + r > 1 + 1e-9):
                raise MeanFieldError("p_i + p_r exceeds 1")
            self.p_r = r

    @property
    def k(self) -> int:
        return 2 if self.p_r is None else 3

    @property
    def n(self) -> int:
        return len(self.p_i)

    def concat(self) -> np.ndarray:
        """(p_r, p_i) concatenation for k=3; p_i alone for k=2."""
        if self.p_r is None:
            return self.p_i.copy()
        return np.concatenate([self.p_r, self.p_i])

    @classmethod
    def from_concat(cls, v: np.ndarray, k: int) -> "MeanFieldPoint":
        # __post_init__ copies both halves.
        if k == 2:
            return cls(v)
        n = len(v) // 2
        return cls(v[n:], v[:n])


@dataclass
class FixedPointReport:
    """Fixed-point solver output.

    classification: 'disease-free', 'endemic', 'cycle(q)', or
    'non-converged'. residual is the infinity norm of point - map(point).
    relation_defect (3-compartment endemic points only) is the defect of the
    variant's affine recovered-vs-infected marginal relation at the point.
    """

    point: MeanFieldPoint
    residual: float
    iterations: int
    classification: str
    relation_defect: float | None = None


# ---------------------------------------------------------------------------
# Escape products
# ---------------------------------------------------------------------------

def _row_products(indptr: np.ndarray, f: np.ndarray) -> np.ndarray:
    """Product of each CSR row's factors f (empty product = 1). Without an
    empty row no mask is built: the fixed-point loop calls this per step."""
    starts = indptr[:-1]
    full = indptr[1:] > starts
    if full.all():
        return np.multiply.reduceat(f, starts)
    out = np.ones(len(starts))
    out[full] = np.multiply.reduceat(f, starts[full])
    return out


def _neighbor_products(model: ModelSpec, graph: Graph):
    """x -> Pi_i = prod over j of (1 - W_ij x_j), all nodes.

    What depends only on the model and the graph is computed once, for maps
    applied many times: W and its indices as intp (take with intp indices
    is 2-3x faster than indexing with the CSR's int32 indices).
    """
    beta, A, unit, _ = _infection_factors(model, graph)
    if unit and graph.n > 256:
        def log_products(x: np.ndarray) -> np.ndarray:
            # log-product fast path; exp(-inf) = 0 handles beta x_j = 1.
            with np.errstate(divide="ignore"):
                logs = np.log1p(-beta * x)
            return np.exp(A @ logs)
        return log_products
    W = _infection_matrix(model, graph)
    cols = W.indices.astype(np.intp)
    return lambda x: _row_products(W.indptr, 1.0 - W.data * x.take(cols))


def _leave_one_out(f: np.ndarray, indptr: np.ndarray,
                   prods: np.ndarray) -> np.ndarray:
    """L = product of the other factors of f's CSR row, for every factor.

    A row with a factor <= 1e-12 multiplies out each exclusion instead of
    dividing, so that a zero factor gives a finite derivative.
    """
    rows = np.repeat(np.arange(len(prods)), np.diff(indptr))
    tiny = f <= 1e-12
    L = np.divide(prods[rows], f, out=np.zeros_like(f), where=~tiny)
    for i in np.unique(rows[tiny]):
        seg = f[indptr[i]:indptr[i + 1]]
        L[indptr[i]:indptr[i + 1]] = [np.prod(np.delete(seg, j))
                                      for j in range(len(seg))]
    return L


# ---------------------------------------------------------------------------
# The maps
# ---------------------------------------------------------------------------

def _check_point(model: ModelSpec, graph: Graph, x: MeanFieldPoint) -> None:
    if x.n != graph.n:
        raise MeanFieldError(f"point has n={x.n}, graph has n={graph.n}")
    if x.k != model.k:
        raise MeanFieldError(f"point has {x.k} compartments, model "
                             f"{model.variant} has {model.k}")


# The terms: entries nonzero at generic rates, kept where a rate zeroes them.
# A column held alike at every old compartment is one term: the x_c sum to 1.
_GENERIC = {name: rule.tables(SimpleNamespace(
    beta=0.3, delta=0.31, gamma=0.37, theta=0.23))
    for name, rule in _VARIANTS.items()}
_HELD = {name: (T != 0).tolist() for name, T in _GENERIC.items()}
_ALIKE = {name: ((T != 0) & (T == T[:, :1])).all(axis=1).tolist()
          for name, T in _GENERIC.items()}


def _law(model: ModelSpec) -> list:
    """Per new block b (R, I; or I alone), the terms (a, t, coef): entry
    coef of table t (C, A, B) at old compartment a, in the order R, I, S,
    or at a = None (weight 1) for a column held alike."""
    tables = _VARIANTS[model.variant].tables(model).tolist()
    held, alike = _HELD[model.variant], _ALIKE[model.variant]
    comps = (2, 1, 0)[3 - model.k:]
    return [[(None, t, tables[t][0][y]) for t in range(3) if alike[t][y]]
            + [(a, t, tables[t][c][y]) for a, c in enumerate(comps)
               for t in range(3) if held[t][c][y] and not alike[t][y]]
            for y in comps[:-1]]


def _sum(terms: list, factors: tuple, x: list):
    """Sum of coef * factors[t] * x[a] over the terms (a, t, coef), or None.
    A None factor, a or x[a] is 1, and a coefficient 1.0 leaves its factor
    as it is. Starting at the first term keeps -0.0: 0 + -0.0 is +0.0."""
    total = None
    for a, t, coef in terms:
        f = factors[t]
        v = coef if f is None else f if coef == 1.0 else coef * f
        if a is not None and x[a] is not None:
            v = v * x[a]
        total = v if total is None else total + v
    return total


def _coordinates(v: np.ndarray, n: int, k: int) -> list:
    """[r, p, s] or, for k = 2, [p, s] of a concat vector; s = 1 - r - p."""
    if k == 2:
        return [v, 1.0 - v]
    s = 1.0 - v[:n] - v[n:]
    np.clip(s, 0.0, 1.0, out=s)  # r + p may round above 1
    return [v[:n], v[n:], s]


def _mf_map(model: ModelSpec, graph: Graph):
    """The variant's mean-field map on MeanFieldPoint.concat vectors.

    Returns a function from a vector in [0,1] to a new, unchecked and
    unclipped, image vector. Built once per solve: the neighbor-product
    kernel depends only on the model and the graph.
    """
    n = graph.n
    products = _neighbor_products(model, graph)
    if model.variant == "sis-nia":
        # The table's sum of terms rounds differently from this product.
        delta = model.delta
        return lambda p: 1.0 - products(p) * (1.0 - (1.0 - delta) * p)
    k = model.k
    law = _law(model)

    def step(v: np.ndarray) -> np.ndarray:
        x = _coordinates(v, n, k)
        Pi = products(x[-2])
        factors = (None, Pi, 1.0 - Pi)
        new = [_sum(terms, factors, x) for terms in law]
        return new[0] if k == 2 else np.concatenate(new)
    return step


def mf_step(model: ModelSpec, graph: Graph, x: MeanFieldPoint) -> MeanFieldPoint:
    """One synchronous application of the variant's mean-field map."""
    _check_point(model, graph, x)
    return MeanFieldPoint.from_concat(_mf_map(model, graph)(x.concat()),
                                      model.k)


def _derivatives(model: ModelSpec, x: MeanFieldPoint, Pi: np.ndarray):
    """own[b][a] = dx'_b,i/dx_a,i = g[a,b] - g[S,b] for coordinate blocks a,
    b (None: zero, float: constant, else an array), and scale[b] = sum over
    a of x_a (B - A)[a,b], the c_i in dx'_b,i/dp_j = c_i dPi_i/dx_j."""
    if model.variant == "sis-nia":
        # The table's (1 - delta Pi) - (1 - Pi) rounds differently.
        d = 1.0 - model.delta
        return [[d * Pi]], [1.0 - d * x.p_i]
    k = model.k
    x = _coordinates(x.concat(), x.n, k)
    factors = (None, Pi, 1.0 - Pi)
    law = _law(model)
    # S's terms times -1 (g[a,b] = 0 gives -g[S,b]); A's times -1 and x_a.
    own = [[_sum([u for u in terms if u[0] in (a, k - 1)], factors,
                 [None] * (k - 1) + [-1.0]) for a in range(k - 1)]
           for terms in law]
    scale = [_sum([u for u in terms if u[1]], (None, -1.0, None), x)
             for terms in law]
    return own, scale


def mf_jacobian(model: ModelSpec, graph: Graph, x: MeanFieldPoint) -> np.ndarray:
    """Analytic Jacobian of the mean-field map at x.

    2-compartment variants: n x n. 3-compartment variants: 2n x 2n in
    (recovered, infected) coordinate order, matching MeanFieldPoint.concat.
    Neighbor derivative terms use leave-one-out escape products over the
    infection matrix W, which stay valid when some factor 1 - W_ij x_j is
    zero.
    """
    _check_point(model, graph, x)
    n = graph.n
    W = _infection_matrix(model, graph)
    rows = np.repeat(np.arange(n), np.diff(W.indptr))
    f = 1.0 - W.data * x.p_i[W.indices]
    Pi = _row_products(W.indptr, f)
    # -d Pi_i / d x_j for every stored (i, j) of W.
    dPi = W.data * _leave_one_out(f, W.indptr, Pi)
    own, scale = _derivatives(model, x, Pi)
    m = model.k - 1
    J = np.zeros((m * n, m * n))
    for b in range(m):
        if scale[b] is not None:
            J[b * n + rows, (m - 1) * n + W.indices] = \
                np.broadcast_to(scale[b], n)[rows] * dPi
        for a, d in enumerate(own[b]):
            block = J[b * n:(b + 1) * n, a * n:(a + 1) * n]
            if isinstance(d, float) and d < 0.0:
                block[...] = d * 0.0  # d * np.eye(n)'s -0.0, no temporary
            if d is not None:
                np.fill_diagonal(block, d)
    return J


def jacobian_eigenvalues(model: ModelSpec, graph: Graph,
                         x: MeanFieldPoint) -> np.ndarray:
    """Eigenvalues of mf_jacobian(model, graph, x), in no fixed order.

    When W = beta A on a 0/1 adjacency A, the sis-nia and sis-ia Jacobians
    are diag(d) + diag(u) A diag(v) with u = beta Pi c >= 0 (d and c from
    _derivatives) and v = 1/(1 - beta p) > 0. They share their
    spectrum with the symmetric diag(d) + diag(w) A diag(w), w = sqrt(u v):
    a diagonal similarity where u > 0, and a node with u_i = 0 splits off
    the eigenvalue d_i from both. eigvalsh solves that matrix, so the
    result is real. Any other W (weighted, or a contact matrix), the
    3-compartment variants and any factor 1 - beta p_j <= 1e-12 take the
    general np.linalg.eigvals of the dense Jacobian, whose result is
    complex.
    """
    _check_point(model, graph, x)
    beta, A, unit, _ = _infection_factors(model, graph)
    f = 1.0 - beta * x.p_i if model.k == 2 and unit else None
    if f is None or f.min(initial=1.0) <= 1e-12:
        return np.linalg.eigvals(mf_jacobian(model, graph, x))
    n = graph.n
    rows = np.repeat(np.arange(n), np.diff(A.indptr))
    Pi = _row_products(A.indptr, f[A.indices])
    own, scale = _derivatives(model, x, Pi)
    d, c = own[0][0], scale[0]
    w = np.sqrt(beta * Pi * c / f)
    S = np.zeros((n, n))
    S[rows, A.indices] = w[rows] * w[A.indices]
    np.fill_diagonal(S, d)
    return np.linalg.eigvalsh(S)


# Power steps of jacobian_contracts' bound before it takes the spectrum.
_BOUND_STEPS = 20


def jacobian_contracts(model: ModelSpec, graph: Graph,
                       x: MeanFieldPoint) -> bool:
    """Whether mf_jacobian(model, graph, x) has spectral radius < 1.

    Two Perron-Frobenius facts (Horn & Johnson, Matrix Analysis, ch. 8)
    bound the radius from above: rho(J) <= rho(B) for B = |J|, and
    rho(B) <= max_i (B v)_i / v_i for any v > 0 (Collatz-Wielandt). Up to
    20 power steps v <- B v / max(B v) from v = 1 tighten the bound; once
    it is below 1 - 1e-9 the answer is True. Otherwise, or when B v has an
    entry that is not positive and finite, the answer is
    np.abs(jacobian_eigenvalues(...)).max() < 1. The margin is far above
    the rounding error of the bound and of the spectrum (about 1e-13
    each), so both routes give the same answer.
    """
    B = mf_jacobian(model, graph, x)
    np.abs(B, out=B)
    v = np.ones(len(B))
    for _ in range(_BOUND_STEPS):
        y = B @ v
        top = y.max()
        if not (y.min() > 0.0 and top < math.inf):
            break
        if (y / v).max() < 1.0 - 1e-9:
            return True
        v = y / top
    del B
    return bool(np.abs(jacobian_eigenvalues(model, graph, x)).max() < 1.0)


def mf_iterate(model: ModelSpec, graph: Graph, x0: MeanFieldPoint,
               t: int) -> list[MeanFieldPoint]:
    """Deterministic trajectory [x0, F(x0), ..., F^t(x0)]."""
    if t < 0:
        raise MeanFieldError("t must be >= 0")
    _check_point(model, graph, x0)
    image = _mf_map(model, graph)
    traj = [x0]
    for _ in range(t):
        traj.append(MeanFieldPoint.from_concat(image(traj[-1].concat()),
                                               model.k))
    return traj


# ---------------------------------------------------------------------------
# Fixed points
# ---------------------------------------------------------------------------

def _upper_corner(model: ModelSpec, n: int) -> MeanFieldPoint:
    return MeanFieldPoint(np.ones(n), None if model.k == 2 else np.zeros(n))


def _relation_defect(model: ModelSpec, pt: MeanFieldPoint) -> float | None:
    """Defect of the variant's affine recovered-infected relation.

    At a fixed point the recovered marginals are an affine function of the
    infected marginals: sirs p_r = (delta/gamma) p_i (gamma > 0); siv-id
    p_r = [theta + (delta - theta - delta*theta) p_i] / (gamma + theta);
    siv-vd p_r = [theta + (delta - theta) p_i] / (gamma + theta).
    """
    if model.k != 3 or pt.p_r is None:
        return None
    if model.variant == "sirs":
        if model.gamma == 0.0:
            return None
        pred = (model.delta / model.gamma) * pt.p_i
    else:
        gt = model.gamma + model.theta
        if gt == 0.0:
            return None
        if model.variant == "siv-id":
            slope = model.delta - model.theta - model.delta * model.theta
        else:
            slope = model.delta - model.theta
        pred = (model.theta + slope * pt.p_i) / gt
    return float(np.abs(pt.p_r - pred).max())


# Longest period the fixed-point iteration detects as a cycle.
_CYCLE_LAGS = 64


def find_fixed_point(model: ModelSpec, graph: Graph, tol: float = 1e-10,
                     cap: int = 100000, damping: float | None = None,
                     x0: MeanFieldPoint | None = None) -> FixedPointReport:
    """Fixed point of the mean-field map.

    sis-nia and sis-general iterate the raw map from the all-ones corner;
    successive iterates are then provably componentwise decreasing, which is
    asserted each step (when starting from a custom x0 the assertion is
    skipped). The remaining variants use damped iteration
    x <- (1-eta) x + eta F(x) with eta = 0.5 from the upper corner
    (p_i = all ones, p_r = 0), because their raw maps can oscillate; pass
    damping=1.0 to reproduce cycles. tol must be finite and > 0, and
    damping None or in (0, 1]; anything else raises MeanFieldError.

    Cycle detection: if an iterate recurs (within 1e-9) at lag q <= 64
    while the residual is still above tol and the trajectory swings by more
    than 1e-6 within the period (distinguishing a cycle from slow
    convergence), classification is 'cycle(q)'. Cycles of smaller amplitude
    are reported as 'non-converged' at the cap. Each iteration first
    compares one probe coordinate, the largest entry of |F(x) - x|, with
    the stored iterates: a lag whose probe entry differs by 1e-9 or more
    cannot recur, since its full distance contains that same difference.
    Only the remaining lags are compared in full, and the swing within
    the period is measured only once a recurrence is found.
    Classification is 'disease-free' when the converged infection norm is
    below max(tol, 1e-8) (the iteration cannot distinguish exact zero from
    geometric decay truncated at residual tol), else 'endemic'.
    """
    if not 0.0 < tol < math.inf:
        raise MeanFieldError(f"tol must be finite and > 0, got {tol}")
    if damping is not None and not 0.0 < damping <= 1.0:
        raise MeanFieldError(f"damping must be in (0, 1], got {damping}")
    n = graph.n
    if x0 is not None:
        _check_point(model, graph, x0)
    monotone = _VARIANTS[model.variant].order_preserving
    if damping is None:
        damping = 1.0 if monotone else 0.5
    assert_decreasing = monotone and x0 is None and damping == 1.0
    F = _mf_map(model, graph)

    def image(v: np.ndarray) -> np.ndarray:
        # The clip mf_step's MeanFieldPoint applies to the map's output.
        fv = F(v)
        fv.clip(0.0, 1.0, out=fv)
        return fv

    # The iterates are concat vectors, and the damped combination needs no
    # clip: for a, b in [0,1] and 0 < eta <= 1, round-to-nearest keeps
    # fl(a + fl(eta fl(b - a))) in [0,1]. Rounding is monotone. For b > a
    # the sum is at most fl(a + fl(1 - a)), which is 1 exactly when
    # a >= 1/2 (Sterbenz) and otherwise 1 + d with |d| <= 2^-54, which
    # rounds to 1. For b < a, fl(b - a) >= -a and fl(eta a) <= a, so the sum
    # is at least a - a = 0.
    vec = (x0 if x0 is not None else _upper_corner(model, n)).concat()
    # The last _CYCLE_LAGS iterates; the one at lag j >= 1 before the
    # newest iterate sits in slot (head - j) % _CYCLE_LAGS.
    ring = np.empty((_CYCLE_LAGS, len(vec)))
    ring[0] = vec
    head, stored = 1, 1
    classify_eps = max(tol, 1e-8)
    it = 0
    residual = math.inf
    classification = "non-converged"
    for it in range(1, cap + 1):
        fvec = image(vec)
        step = fvec - vec
        gap = np.abs(step)
        probe = int(gap.argmax())
        residual = float(gap[probe])
        nvec = vec + damping * step
        if assert_decreasing and np.any(nvec > vec + 1e-12):
            raise MeanFieldError(
                "monotone iteration increased a coordinate; map bug"
            )
        if residual < tol:
            vec = fvec
            classification = "converged"
            break
        cycle_q = 0
        near = np.flatnonzero(np.abs(ring[:stored, probe] - nvec[probe])
                              < 1e-9).tolist()
        # The lags of the stored iterates whose probe entry recurs.
        for q in sorted((head - 1 - slot) % _CYCLE_LAGS + 1 for slot in near):
            if q < 2 or not (np.abs(ring[(head - q) % _CYCLE_LAGS]
                                    - nvec).max() < 1e-9):
                continue
            # Candidate period q. A slowly converging trajectory also
            # recurs within 1e-9; a genuine cycle must additionally swing
            # by a macroscopic amplitude within the period.
            within = ring[(head - np.arange(1, q)) % _CYCLE_LAGS]
            if float(np.abs(within - nvec).max()) > 1e-6:
                nv_res = float(np.abs(image(nvec) - nvec).max())
                if nv_res > tol:
                    cycle_q = q
            break
        vec = nvec
        if cycle_q:
            classification = f"cycle({cycle_q})"
            residual = nv_res
            break
        ring[head] = vec
        head = (head + 1) % _CYCLE_LAGS
        stored = min(stored + 1, _CYCLE_LAGS)
    x = MeanFieldPoint.from_concat(vec, model.k)
    if classification == "converged":
        inf_norm = float(np.abs(x.p_i).max())
        classification = "disease-free" if inf_norm < classify_eps else "endemic"
    defect = _relation_defect(model, x) if classification == "endemic" else None
    return FixedPointReport(x, residual, it, classification, defect)


def _linear_bound(model: ModelSpec, graph: Graph, p: np.ndarray) -> np.ndarray:
    """L p, for the linear bound p(t+1) <= L p(t) on infection marginals.

    L = d I + e X on W = scale X (model_core._infection_factors): d is the
    variant's stay (1 - delta; 0 for sis-general, whose W holds it) and e =
    scale f (1-theta for siv-vd, else 1). It is the tightest upper bound on
    the next infection marginals that uses only the current marginals.
    """
    rule = _VARIANTS[model.variant]
    scale, X, _, _ = _infection_factors(model, graph)
    return rule.stay(model) * p + scale * rule.infection(model) * (X @ p)


def _linear_norm(model: ModelSpec, graph: Graph) -> float:
    """||L||_2 of _linear_bound's L: d + e ||X||_2, exact for the symmetric
    adjacency X as |d + e lambda_min| <= d + e lambda_max, and for the
    contact matrix (d = 0, e = 1) its largest singular value."""
    rule = _VARIANTS[model.variant]
    scale, _, _, norm = _infection_factors(model, graph)
    return rule.stay(model) + scale * rule.infection(model) * norm()


def linear_bound_check(model: ModelSpec, graph: Graph,
                       x: MeanFieldPoint) -> float:
    """min over nodes of (L p - nonlinear map) on infection coords.

    The linear bound L p (_linear_bound) dominates the nonlinear infection
    update on [0,1]^n; the returned slack must be >= -1e-12.
    """
    _check_point(model, graph, x)
    lin = _linear_bound(model, graph, x.p_i)
    return float((lin - mf_step(model, graph, x).p_i).min())
