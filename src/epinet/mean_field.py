"""Mean-field maps, linearizations, Jacobians, fixed points, and stability.

The mean-field approximation replaces the joint chain distribution by
independent per-node marginals, giving an n-dimensional (2-compartment) or
2n-dimensional (3-compartment) synchronous map:

  sis-nia:  x_i' = 1 - Pi_i(x) (1 - (1-delta) x_i)
  sis-ia:   x_i' = (1-delta) x_i + (1 - x_i)(1 - Pi_i(x))
  sis-general: x_i' = 1 - prod_j (1 - m_ij x_j)
  sirs:     r_i' = (1-gamma) r_i + delta p_i
            p_i' = (1-delta) p_i + (1 - Pi_i(p)) s_i
  siv-id:   r_i' = (1-gamma) r_i + delta p_i + theta Pi_i(p) s_i
            p_i' as sirs
  siv-vd:   r_i' = (1-gamma) r_i + delta p_i + theta s_i
            p_i' = (1-delta) p_i + (1-theta)(1 - Pi_i(p)) s_i

with Pi_i(x) = prod over neighbors j of (1 - beta w_ij x_j) and
s_i = 1 - r_i - p_i. Implements mf_step, mf_linear_model, mf_jacobian,
jacobian_eigenvalues, jacobian_contracts, mf_iterate, find_fixed_point,
classify_stability, perron_certificate, and linear_bound_check.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .model_core import (
    _VARIANTS,
    Graph,
    ModelSpec,
    ModelError,
    _power_iteration,
    spectral_radius,
    threshold_ratio,
)


class MeanFieldError(ValueError):
    """Invalid mean-field request."""


class CertificateError(RuntimeError):
    """A spectral certificate failed its componentwise check."""


# ---------------------------------------------------------------------------
# Types
# ---------------------------------------------------------------------------

@dataclass
class MeanFieldPoint:
    """Per-node probabilities: p_i infection, p_r recovered (3-compartment).

    p_r is None for 2-compartment variants. Values are validated to [0,1]
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
class LinearModel:
    """Linearization matrix at the variant's disease-free base point.

    For 2-compartment variants the n x n matrix (1-delta) I + beta A (or
    the contact matrix itself). For 3-compartment variants the 2n x 2n block
    matrix in (recovered, infected) coordinate order, as conventionally
    printed: upper-triangular with the infected-block diagonal carrying the
    threshold spectrum. Note for siv-vd the printed upper-right block
    (delta-theta) I - theta P_S* beta A differs from the true derivative of
    the map (which has no adjacency term there); both have the same
    spectrum because the matrix is block-triangular. mf_jacobian returns
    the true derivative.
    """

    matrix: np.ndarray
    base_point: MeanFieldPoint


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
    jacobian_spectrum: np.ndarray | None = None
    relation_defect: float | None = None


@dataclass
class StabilityReport:
    spectral_radius: float
    stable: bool
    largest_real_eigenvalue: float


# ---------------------------------------------------------------------------
# Escape products
# ---------------------------------------------------------------------------

def _row_products(indptr: np.ndarray, f: np.ndarray) -> np.ndarray:
    """Product of each CSR row's factors f (empty product = 1)."""
    out = np.ones(len(indptr) - 1)
    full = np.diff(indptr) > 0
    if full.any():
        out[full] = np.multiply.reduceat(f, indptr[:-1][full])
    return out


def _neighbor_products(graph: Graph, beta: float):
    """x -> Pi_i = prod over neighbors j of (1 - beta w_ij x_j), all nodes.

    What depends only on the graph is computed once, for maps applied many
    times: beta w_ij, the neighbor indices as intp (take with intp indices
    is 2-3x faster than indexing with the CSR's int32 indices) and the
    starts of the non-empty rows.
    """
    A = graph.adjacency_sparse
    if not graph.is_weighted and graph.n > 256:
        def log_products(x: np.ndarray) -> np.ndarray:
            # log-product fast path; exp(-inf) = 0 handles beta x_j = 1.
            with np.errstate(divide="ignore"):
                logs = np.log1p(-beta * x)
            return np.exp(A @ logs)
        return log_products
    bw = beta * A.data
    cols = A.indices.astype(np.intp)
    full = np.diff(A.indptr) > 0
    starts = A.indptr[:-1][full]

    def products(x: np.ndarray) -> np.ndarray:
        out = np.ones(graph.n)
        if len(starts):
            out[full] = np.multiply.reduceat(1.0 - bw * x.take(cols), starts)
        return out
    return products


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
        raise MeanFieldError(
            f"point has {x.k} compartments, model {model.variant} has {model.k}"
        )


def _mf_map(model: ModelSpec, graph: Graph):
    """The variant's mean-field map on MeanFieldPoint.concat vectors.

    Returns a function from a vector in [0,1] to a new, unchecked and
    unclipped, image vector. Built once per solve: the neighbor-product
    kernel depends only on the model and the graph.
    """
    n = graph.n
    if model.variant == "sis-general":
        M = model.contact
        if M.shape[0] != n:
            raise ModelError("contact matrix dimension does not match graph")
        return lambda p: 1.0 - np.prod(1.0 - M * p[None, :], axis=1)
    products = _neighbor_products(graph, model.beta)
    delta, gamma, theta = model.delta, model.gamma, model.theta
    if model.variant == "sis-nia":
        return lambda p: 1.0 - products(p) * (1.0 - (1.0 - delta) * p)
    if model.variant == "sis-ia":
        return lambda p: (1.0 - delta) * p + (1.0 - p) * (1.0 - products(p))
    variant = model.variant

    def step(v: np.ndarray) -> np.ndarray:
        r, p = v[:n], v[n:]
        Pi = products(p)
        s = 1.0 - r - p
        np.clip(s, 0.0, 1.0, out=s)
        new_i_core = (1.0 - delta) * p
        xi = 1.0 - Pi
        if variant == "sirs":
            new_r = (1.0 - gamma) * r + delta * p
            new_i = new_i_core + xi * s
        elif variant == "siv-id":
            new_r = (1.0 - gamma) * r + delta * p + theta * Pi * s
            new_i = new_i_core + xi * s
        else:  # siv-vd
            new_r = (1.0 - gamma) * r + delta * p + theta * s
            new_i = new_i_core + (1.0 - theta) * xi * s
        return np.concatenate([new_r, new_i])
    return step


def mf_step(model: ModelSpec, graph: Graph, x: MeanFieldPoint) -> MeanFieldPoint:
    """One synchronous application of the variant's mean-field map."""
    _check_point(model, graph, x)
    return MeanFieldPoint.from_concat(_mf_map(model, graph)(x.concat()),
                                      model.k)


def siv_base_point(model: ModelSpec, n: int) -> MeanFieldPoint:
    """Disease-free point: no infection and, for 3-compartment variants,
    p_r from the single-node disease-free law (theta/(gamma+theta) for SIV,
    0 for sirs)."""
    if model.k == 2:
        return MeanFieldPoint(np.zeros(n))
    law = _VARIANTS[model.variant].free_law(model)
    return MeanFieldPoint(np.zeros(n), np.full(n, law[2]))


def mf_linear_model(model: ModelSpec, graph: Graph) -> LinearModel:
    """The variant's linearization matrix at its disease-free base point.

    The infected block carries beta*A scaled by p_S*f, the susceptible
    weight of the disease-free law times the infection factor. sirs is the
    theta = 0 case of the 3-compartment form.
    """
    n = graph.n
    A = graph.adjacency()
    base = siv_base_point(model, n)
    if model.contact is not None:
        return LinearModel(np.array(model.contact, dtype=float), base)
    rule = _VARIANTS[model.variant]
    ps = rule.free_law(model)[0]
    eff = ps * rule.infection(model)
    infected = (1.0 - model.delta) * np.eye(n) + eff * model.beta * A
    if model.k == 2:
        return LinearModel(infected, base)
    theta = model.theta or 0.0
    tr = (model.delta - theta) * np.eye(n) - theta * ps * model.beta * A
    top = np.hstack([(1.0 - model.gamma - theta) * np.eye(n), tr])
    bot = np.hstack([np.zeros((n, n)), infected])
    return LinearModel(np.vstack([top, bot]), base)


def _sis_coefficients(model: ModelSpec, p: np.ndarray,
                      Pi: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Diagonal d and row scale c of a 2-compartment rate Jacobian.

    J_ii = d_i and J_ij = c_i * dPi_i/dx_j on every edge (i, j).
    """
    if model.variant == "sis-nia":
        return (1.0 - model.delta) * Pi, 1.0 - (1.0 - model.delta) * p
    return (1.0 - model.delta) - (1.0 - Pi), 1.0 - p  # sis-ia


def mf_jacobian(model: ModelSpec, graph: Graph, x: MeanFieldPoint) -> np.ndarray:
    """Analytic Jacobian of the mean-field map at x.

    2-compartment variants: n x n. 3-compartment variants: 2n x 2n in
    (recovered, infected) coordinate order, matching MeanFieldPoint.concat.
    Neighbor derivative terms use leave-one-out escape products, which stay
    valid when some factor 1 - beta w_ij x_j is zero.
    """
    if x.n != graph.n or x.k != model.k:
        raise MeanFieldError("point does not match model/graph dimensions")
    n = graph.n
    p = x.p_i
    if model.variant == "sis-general":
        M = np.asarray(model.contact, dtype=float)
        F = 1.0 - M * p[None, :]
        L = _leave_one_out(F.ravel(), np.arange(0, n * n + 1, n),
                           np.prod(F, axis=1))
        return M * L.reshape(n, n)

    A = graph.adjacency_sparse
    rows = np.repeat(np.arange(n), np.diff(A.indptr))
    cols = A.indices
    bw = model.beta * A.data
    f = 1.0 - bw * p[cols]
    Pi = _row_products(A.indptr, f)
    # d Pi_i / d x_j for every edge (i, j).
    dPi = bw * _leave_one_out(f, A.indptr, Pi)
    diag = np.arange(n)

    if model.k == 2:
        J = np.zeros((n, n))
        d, c = _sis_coefficients(model, p, Pi)
        J[rows, cols] = dPi * c[rows]
        J[diag, diag] = d
        return J

    r = x.p_r
    s = np.clip(1.0 - r - p, 0.0, 1.0)
    xi = 1.0 - Pi
    J = np.zeros((2 * n, 2 * n))
    R, I = slice(0, n), slice(n, 2 * n)
    # Infected rows (same for sirs and siv-id; scaled by 1-theta for siv-vd).
    scale = (1.0 - model.theta) if model.variant == "siv-vd" else 1.0
    J[n + rows, n + cols] = scale * s[rows] * dPi
    J[n + diag, n + diag] += (1.0 - model.delta) - scale * xi
    J[n + diag, diag] = -scale * xi
    # Recovered rows.
    if model.variant == "sirs":
        # Diagonal writes: a scaled np.eye(n) would add two n x n
        # temporaries to the peak memory of a large Jacobian.
        J[diag, diag] = 1.0 - model.gamma
        J[diag, n + diag] = model.delta
    elif model.variant == "siv-id":
        J[diag, diag] = (1.0 - model.gamma) - model.theta * Pi
        J[rows, n + cols] = -model.theta * s[rows] * dPi
        J[diag, n + diag] += model.delta - model.theta * Pi
    else:  # siv-vd
        # These coefficients can be negative, and then the scaled identity
        # writes -0.0 off the diagonal; diagonal writes would change bytes.
        J[R, R] = (1.0 - model.gamma - model.theta) * np.eye(n)
        J[R, I] = (model.delta - model.theta) * np.eye(n)
    return J


def jacobian_eigenvalues(model: ModelSpec, graph: Graph,
                         x: MeanFieldPoint) -> np.ndarray:
    """Eigenvalues of mf_jacobian(model, graph, x), in no fixed order.

    On an unweighted graph the sis-nia and sis-ia Jacobians are
    diag(d) + diag(u) A diag(v) with u = beta Pi c >= 0 (c from
    _sis_coefficients) and v = 1/(1 - beta p) > 0. They share their
    spectrum with the symmetric diag(d) + diag(w) A diag(w), w = sqrt(u v):
    a diagonal similarity where u > 0, and a node with u_i = 0 splits off
    the eigenvalue d_i from both. eigvalsh solves that matrix, so the
    result is real. Weighted graphs, sis-general, the 3-compartment
    variants and any factor 1 - beta p_j <= 1e-12 take the general
    np.linalg.eigvals of the dense Jacobian, whose result is complex.
    """
    if x.n != graph.n or x.k != model.k:
        raise MeanFieldError("point does not match model/graph dimensions")
    f = None
    if model.k == 2 and model.contact is None and not graph.is_weighted:
        f = 1.0 - model.beta * x.p_i
    if f is None or f.min(initial=1.0) <= 1e-12:
        return np.linalg.eigvals(mf_jacobian(model, graph, x))
    n = graph.n
    A = graph.adjacency_sparse
    rows = np.repeat(np.arange(n), np.diff(A.indptr))
    Pi = _row_products(A.indptr, f[A.indices])
    d, c = _sis_coefficients(model, x.p_i, Pi)
    w = np.sqrt(model.beta * Pi * c / f)
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
    traj = [x0]
    x = x0
    for _ in range(t):
        x = mf_step(model, graph, x)
        traj.append(x)
    return traj


# ---------------------------------------------------------------------------
# Fixed points
# ---------------------------------------------------------------------------

def _upper_corner(model: ModelSpec, n: int) -> MeanFieldPoint:
    if model.k == 2:
        return MeanFieldPoint(np.ones(n))
    return MeanFieldPoint(np.ones(n), np.zeros(n))


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
                     x0: MeanFieldPoint | None = None,
                     compute_spectrum: bool = True) -> FixedPointReport:
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
    del ring
    x = MeanFieldPoint.from_concat(vec, model.k)
    if classification == "converged":
        inf_norm = float(np.abs(x.p_i).max())
        classification = "disease-free" if inf_norm < classify_eps else "endemic"
    spectrum = None
    if compute_spectrum:
        spectrum = jacobian_eigenvalues(model, graph, x)
    defect = _relation_defect(model, x) if classification == "endemic" else None
    return FixedPointReport(x, residual, it, classification, spectrum, defect)


def classify_stability(model: ModelSpec, graph: Graph, point: MeanFieldPoint,
                       fixed_tol: float = 1e-6) -> StabilityReport:
    """Spectral stability of the map at a fixed point.

    Asserts the point is fixed within fixed_tol first. stable means the
    Jacobian spectral radius is < 1. largest_real_eigenvalue is the largest
    eigenvalue with negligible imaginary part (-inf when the spectrum has
    no real eigenvalue).
    """
    res = float(np.abs(mf_step(model, graph, point).concat()
                       - point.concat()).max())
    if res > fixed_tol:
        raise MeanFieldError(
            f"point is not fixed (residual {res:.3e} > {fixed_tol:.1e})"
        )
    eigs = jacobian_eigenvalues(model, graph, point)
    rho = float(np.abs(eigs).max()) if len(eigs) else 0.0
    real = eigs[np.abs(eigs.imag) <= 1e-9].real
    largest_real = float(real.max()) if len(real) else -math.inf
    return StabilityReport(rho, rho < 1.0, largest_real)


def perron_certificate(model: ModelSpec, graph: Graph) -> np.ndarray | None:
    """Above-threshold instability certificate, or None below threshold.

    When the threshold ratio exceeds 1, returns the Perron vector v of the
    effective linearized infection matrix and asserts the componentwise
    growth condition (c beta A - delta I) v > 0, where c is the variant's
    susceptible-depletion factor (1 for SIS/SIRS, gamma/(gamma+theta) for
    siv-id, with another (1-theta) for siv-vd). For sis-general the
    condition is (M - I) v > 0.
    """
    ratio = threshold_ratio(model, graph)
    if ratio <= 1.0:
        return None
    if model.contact is not None:
        M = np.asarray(model.contact, dtype=float)
        _, _, v = _power_iteration(lambda y: M @ y, M.shape[0], 1e-13)
        growth = M @ v - v
    else:
        rep = spectral_radius(graph, 1e-13)
        v = rep.eigvec
        rule = _VARIANTS[model.variant]
        c = rule.free_law(model)[0] * rule.infection(model)
        A = graph.adjacency() if graph.n <= 400 else graph.adjacency_sparse
        growth = c * model.beta * (A @ v) - model.delta * v
    if growth.min() <= 1e-12:
        raise CertificateError(
            f"growth certificate failed: min component {growth.min():.3e}"
        )
    return v


def linear_bound_check(model: ModelSpec, graph: Graph,
                       x: MeanFieldPoint) -> float:
    """min over nodes of (linear map - nonlinear map) on infection coords.

    The linearized infection update dominates the nonlinear one on [0,1]^n;
    the returned slack must be >= -1e-12. The linear form uses only the
    infection marginals: (1-delta) p + beta A p, with the contact row for
    sis-general and the extra (1-theta) for siv-vd.
    """
    p = x.p_i
    if model.contact is not None:
        lin = np.asarray(model.contact, dtype=float) @ p
    else:
        A = graph.adjacency()
        eff = model.beta * _VARIANTS[model.variant].infection(model)
        lin = (1.0 - model.delta) * p + eff * (A @ p)
    nonlin = mf_step(model, graph, x).p_i
    return float((lin - nonlin).min())
