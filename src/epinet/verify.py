"""Machine-verification suites for the chain and mean-field guarantees.

Each suite brute-forces one family of claims on small random instances and
returns a SuiteResult with enough serialized detail to replay any failure:

  ordering        R-matrix identities, nonnegativity of the conjugated
                  transition matrix, and order preservation on sampled
                  ordered distribution pairs (sis-nia and sis-general).
  u-bound         S u(r) dominates u(mean-field step of r) componentwise.
  lp              exact LP marginal optimum (simplex) vs closed-form
                  bound, with equality on the small-marginal family.
  non-absorption  exact survival probability vs mean-field product bound.
  linear          linearized infection update dominates the nonlinear map.
  jacobian        analytic Jacobians vs central finite differences.
  stability-er    endemic fixed-point stability rate on ER graphs with
                  p = 2 ln(n)/n at n in {200, 400, 800}; a point is
                  stable when mean_field.jacobian_contracts holds.
  mixing          exact mixing time <= ceil(analytic contraction bound)
                  on below-threshold instances of every variant.
  stationary      SIV product-form stationary vector: pi S = pi.
  fixed-point     affine recovered-vs-infected relations at endemic points.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .model_core import _VARIANTS, VARIANTS, Graph, ModelSpec, _rate_ratio, \
    contact_from_rates, format_edge_list, generate, spectral_radius, \
    threshold_ratio
from .exact_chain import (
    build_R_pair,
    build_transition_matrix,
    check_order_preservation,
    check_u_bound,
    closed_form_marginal_bound,
    lp_marginal_max,
    mixing_time_bound,
    mixing_time_exact,
    non_absorption_check,
    stationary,
    StationaryVerificationError,
)
from .mean_field import (
    MeanFieldPoint,
    _check_point,
    _mf_map,
    find_fixed_point,
    jacobian_contracts,
    linear_bound_check,
    mf_jacobian,
)


@dataclass
class SuiteResult:
    suite: str
    passed: bool
    checks: int
    failures: list[dict] = field(default_factory=list)
    details: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "suite": self.suite,
            "passed": self.passed,
            "checks": self.checks,
            "failures": self.failures,
            "details": self.details,
        }


class VerifyError(ValueError):
    """Unknown suite or bad suite parameters."""


# ---------------------------------------------------------------------------
# Instance generation
# ---------------------------------------------------------------------------

def _random_graph(rng: np.random.Generator, n_max: int, n_min: int = 2,
                  weighted_prob: float = 0.3) -> Graph:
    """Random connected graph, occasionally with random edge weights."""
    n = int(rng.integers(n_min, n_max + 1))
    g = None
    for _ in range(30):
        p = float(rng.uniform(0.4, 0.9))
        cand = generate("er", n=n, p=p, seed=int(rng.integers(2 ** 31)))
        if cand.m > 0 and cand.is_connected():
            g = cand
            break
    if g is None:
        g = generate("complete", n=n)
    if rng.random() < weighted_prob and g.m:
        w = tuple(float(x) for x in rng.uniform(0.2, 1.0, g.m))
        g = Graph(g.n, g.edges, w)
    return g


def _random_contact(rng: np.random.Generator, n: int) -> np.ndarray:
    M = rng.uniform(0.0, 1.0, (n, n))
    M[rng.random((n, n)) < 0.3] = 0.0
    return M


# Ranges of the random rates, in the order they are drawn.
_RATE_RANGES = {"beta": (0.05, 0.95), "delta": (0.05, 0.95),
                "gamma": (0.05, 0.95), "theta": (0.05, 0.9)}


def _random_rates(rng: np.random.Generator) -> dict[str, float]:
    return {name: float(rng.uniform(*span))
            for name, span in _RATE_RANGES.items()}


def _variant_model(rng: np.random.Generator, variant: str, n: int,
                  rates: dict[str, float] | None = None) -> ModelSpec:
    """A model of the variant with the fields its table entry requires: a
    random contact matrix on n nodes, and the rates taken from `rates` or,
    when that is None, drawn now in table order."""
    params: dict = {}
    for name in _VARIANTS[variant].required:
        if name == "contact":
            params[name] = _random_contact(rng, n)
        elif rates is not None:
            params[name] = rates[name]
        else:
            params[name] = float(rng.uniform(*_RATE_RANGES[name]))
    return ModelSpec(variant, **params)


def _fail(failures: list, check: str, model: ModelSpec | None = None,
          graph: Graph | None = None, **info) -> None:
    """Record a failed check. Given the instance's model and graph, the
    record also holds variant, graph (format_edge_list) and model
    (ModelSpec.describe), from which ModelSpec(**record["model"]) and
    parse_edge_list(record["graph"]) rebuild it for replay."""
    record = {"check": check}
    if model is not None and graph is not None:
        record.update(variant=model.variant, graph=format_edge_list(graph),
                      model=model.describe())
    record.update((k, v.tolist() if isinstance(v, np.ndarray) else v)
                  for k, v in info.items())
    failures.append(record)


def _checked(failures: list, analysis, S, *args):
    """analysis(S, *args), or None once its StationaryVerificationError is
    recorded for replay."""
    try:
        return analysis(S, *args)
    except StationaryVerificationError as exc:
        _fail(failures, "stationary", S.model, S.graph, error=str(exc))
        return None


def fd_jacobian(model: ModelSpec, graph: Graph, x: MeanFieldPoint,
                h: float = 1e-6) -> np.ndarray:
    """Central finite-difference Jacobian of the mean-field map at x.

    Each perturbed point and its image go through MeanFieldPoint's checks
    and clip, as mf_step's would; the map is built once."""
    _check_point(model, graph, x)
    image = _mf_map(model, graph)
    k = model.k

    def step(v: np.ndarray) -> np.ndarray:
        point = MeanFieldPoint.from_concat(v, k)
        return MeanFieldPoint.from_concat(image(point.concat()), k).concat()

    v0 = x.concat()
    d = len(v0)
    J = np.empty((d, d))
    for j in range(d):
        vp = v0.copy()
        vm = v0.copy()
        vp[j] += h
        vm[j] -= h
        J[:, j] = (step(vp) - step(vm)) / (2.0 * h)
    return J


# ---------------------------------------------------------------------------
# Suites
# ---------------------------------------------------------------------------

def _suite_ordering(n_max: int, trials: int, seed: int) -> SuiteResult:
    rng = np.random.default_rng(seed)
    failures: list[dict] = []
    min_entry = math.inf
    pair_min = math.inf
    identity_defect = 0.0
    checks = 0
    for trial in range(trials):
        g = _random_graph(rng, min(n_max, 6), weighted_prob=0.25)
        n = g.n
        variant = "sis-nia" if trial % 2 == 0 else "sis-general"
        model = _variant_model(rng, variant, n)
        S = build_transition_matrix(model, g)
        R, R_inv = build_R_pair(n)
        K = 2 ** n
        defect_id = int(np.abs(R @ R_inv - np.eye(K, dtype=np.int64)).max())
        if defect_id != 0:
            _fail(failures, "R-inverse", n=n, defect=defect_id)
        pair_seed = int(rng.integers(2 ** 31))
        rep = check_order_preservation(S, n_pairs=4, t_max=20,
                                       seed=pair_seed)
        checks += 1
        min_entry = min(min_entry, rep.min_entry)
        pair_min = min(pair_min, rep.pair_min)
        if not math.isnan(rep.identity_defect):
            identity_defect = max(identity_defect, rep.identity_defect)
        if rep.min_entry < -1e-12:
            _fail(failures, "conjugation-nonnegative", model, g,
                  min_entry=rep.min_entry)
        if rep.pair_min < -1e-12:
            _fail(failures, "ordered-pair", model, g, seed=pair_seed,
                  pair_min=rep.pair_min)
        if not math.isnan(rep.identity_defect) and rep.identity_defect > 1e-12:
            _fail(failures, "transpose-identity", model, g,
                  defect=rep.identity_defect)
    return SuiteResult("ordering", not failures, checks, failures, {
        "min_conjugated_entry": min_entry,
        "min_ordered_pair_value": pair_min,
        "max_transpose_identity_defect": identity_defect,
    })


def _suite_u_bound(n_max: int, trials: int, seed: int) -> SuiteResult:
    rng = np.random.default_rng(seed)
    failures: list[dict] = []
    worst = math.inf
    checks = 0
    for _ in range(trials):
        g = _random_graph(rng, min(n_max, 6))
        model = _variant_model(rng, "sis-nia", g.n)
        S = build_transition_matrix(model, g)
        for _ in range(2):
            r = rng.uniform(0.0, 1.0, g.n)
            slack = check_u_bound(S, r)
            checks += 1
            worst = min(worst, slack)
            if slack < -1e-12:
                _fail(failures, "u-bound", model, g, r=r, slack=slack)
    return SuiteResult("u-bound", not failures, checks, failures,
                       {"worst_slack": worst})


def _lp_models(rng: np.random.Generator, n: int) -> list[ModelSpec]:
    rates = _random_rates(rng)
    return [_variant_model(rng, variant, n, rates) for variant in VARIANTS]


def _suite_lp(n_max: int, trials: int, seed: int) -> SuiteResult:
    rng = np.random.default_rng(seed)
    failures: list[dict] = []
    checks = 0
    max_gap = -math.inf
    worst_eq = 0.0
    rounds = max(1, trials // 12)
    for _ in range(rounds):
        for variant in VARIANTS:
            rates = _random_rates(rng)
            if "contact" in _VARIANTS[variant].required:
                n = int(rng.integers(2, min(n_max, 4) + 1))
                g = generate("complete", n=n)
            else:
                k = _VARIANTS[variant].k
                g = _random_graph(rng, min(n_max, 4 if k == 2 else 3))
                n = g.n
            model = _variant_model(rng, variant, n, rates)
            i = int(rng.integers(n))
            # Small-marginal family: total mass below 1 so the documented
            # attainment distribution is feasible and the bound is tight.
            small = rng.uniform(0.0, 1.0, n if model.k == 2 else 2 * n)
            small *= rng.uniform(0.2, 0.95) / max(small.sum(), 1e-12)
            if model.k == 2:
                p_small = MeanFieldPoint(small)
                p_gen = MeanFieldPoint(rng.uniform(0.0, 1.0, n))
            else:
                p_small = MeanFieldPoint(small[:n], small[n:])
                pi_g = rng.uniform(0.0, 1.0, n)
                pr_g = rng.uniform(0.0, 1.0, n) * (1.0 - pi_g)
                p_gen = MeanFieldPoint(pi_g, pr_g)
            for p, expect_eq in ((p_small, True), (p_gen, False)):
                lp = lp_marginal_max(model, g, i, p).lp_max
                cf = closed_form_marginal_bound(model, g, i, p)
                checks += 1
                gap = lp - cf
                max_gap = max(max_gap, gap)
                if gap > 1e-9:
                    _fail(failures, "lp-bound", model, g, node=i, lp=lp,
                          closed_form=cf, p_i=p.p_i, p_r=p.p_r)
                if expect_eq:
                    worst_eq = max(worst_eq, abs(gap))
                    if abs(gap) > 1e-6:
                        _fail(failures, "lp-attainment", model, g, node=i,
                              gap=gap, p_i=p.p_i, p_r=p.p_r)
    return SuiteResult("lp", not failures, checks, failures, {
        "max_gap_over_bound": max_gap,
        "worst_attainment_defect": worst_eq,
    })


def _suite_non_absorption(n_max: int, trials: int, seed: int) -> SuiteResult:
    rng = np.random.default_rng(seed)
    failures: list[dict] = []
    worst = math.inf
    checks = 0
    for _ in range(trials):
        g = _random_graph(rng, min(n_max, 6))
        model = _variant_model(rng, "sis-nia", g.n)
        X0 = int(rng.integers(1, 2 ** g.n))
        t = int(rng.integers(0, 51))
        rep = non_absorption_check(build_transition_matrix(model, g), X0, t)
        checks += 1
        worst = min(worst, rep.slack)
        if rep.slack < -1e-10:
            _fail(failures, "non-absorption", model, g, X0=X0, t=t,
                  exact=rep.exact, bound=rep.bound)
    return SuiteResult("non-absorption", not failures, checks, failures,
                       {"worst_slack": worst})


def _interior_point(rng: np.random.Generator, n: int, k: int) -> MeanFieldPoint:
    pi = rng.uniform(0.05, 0.9, n)
    if k == 2:
        return MeanFieldPoint(pi)
    pr = rng.uniform(0.05, 1.0, n) * (0.95 - pi)
    return MeanFieldPoint(pi, pr)


def _suite_linear(n_max: int, trials: int, seed: int) -> SuiteResult:
    rng = np.random.default_rng(seed)
    failures: list[dict] = []
    worst = math.inf
    checks = 0
    rounds = max(1, trials // 6)
    for _ in range(rounds):
        g = _random_graph(rng, n_max)
        for model in _lp_models(rng, g.n):
            x = _interior_point(rng, g.n, model.k)
            slack = linear_bound_check(model, g, x)
            checks += 1
            worst = min(worst, slack)
            if slack < -1e-10:
                _fail(failures, "linear-domination", model, g, slack=slack,
                      p_i=x.p_i, p_r=x.p_r)
    return SuiteResult("linear", not failures, checks, failures,
                       {"worst_slack": worst})


def _suite_jacobian(n_max: int, trials: int, seed: int) -> SuiteResult:
    rng = np.random.default_rng(seed)
    failures: list[dict] = []
    worst = 0.0
    checks = 0
    per_variant = max(1, trials // 6)
    for variant in VARIANTS:
        for _ in range(per_variant):
            g = _random_graph(rng, n_max)
            model = _variant_model(rng, variant, g.n)
            x = _interior_point(rng, g.n, model.k)
            J = mf_jacobian(model, g, x)
            J_fd = fd_jacobian(model, g, x)
            err = float(np.abs(J - J_fd).max())
            checks += 1
            worst = max(worst, err)
            if err > 1e-6:
                _fail(failures, "jacobian-fd", model, g, error=err,
                      p_i=x.p_i, p_r=x.p_r)
    return SuiteResult("jacobian", not failures, checks, failures,
                       {"max_fd_error": worst})


def _suite_stability_er(n_max: int, trials: int, seed: int) -> SuiteResult:
    """Endemic stability rate on G(n, 2 ln n / n), non-decreasing in n."""
    rng = np.random.default_rng(seed)
    failures: list[dict] = []
    sizes = (200, 400, 800)
    per_size = max(10, trials)
    rates = []
    checks = 0
    for n in sizes:
        g = generate("er", n=n, p=2.0 * math.log(n) / n,
                     seed=int(rng.integers(2 ** 31)))
        lam = spectral_radius(g).lambda_max
        stable = 0
        for _ in range(per_size):
            delta = float(rng.uniform(0.2, 0.95))
            ratio = float(rng.uniform(1.05, 3.0))
            beta = min(1.0, ratio * delta / lam)
            model = ModelSpec("sis-ia", beta=beta, delta=delta)
            rep = find_fixed_point(model, g, tol=1e-10)
            checks += 1
            if rep.classification != "endemic":
                _fail(failures, "endemic-classification", model, g,
                      classification=rep.classification)
                continue
            # An unstable endemic point is counted against the rate but is
            # not itself a failure; the suite asserts the rate.
            if jacobian_contracts(model, g, rep.point):
                stable += 1
        rates.append(stable / per_size)
    for i, rate in enumerate(rates):
        if rate < 0.95:
            _fail(failures, "stability-rate", n=sizes[i], rate=rate)
    for i in range(1, len(rates)):
        if rates[i] < rates[i - 1] - 1e-12:
            _fail(failures, "rate-monotone", sizes=list(sizes), rates=rates)
    return SuiteResult("stability-er", not failures, checks, failures,
                       {"sizes": list(sizes), "stability_rates": rates})


def _mixing_roster() -> list[tuple[ModelSpec, Graph]]:
    """Below-threshold instances for every variant, k^n <= 3^8."""
    p3 = generate("path", n=3)
    p7 = generate("path", n=7)
    p10 = generate("path", n=10)
    s4 = generate("star", n=4)
    roster: list[tuple[ModelSpec, Graph]] = [
        (ModelSpec("sis-nia", beta=0.1, delta=0.9), p3),
        (ModelSpec("sis-nia", beta=0.05, delta=0.9), p10),
        (ModelSpec("sis-nia", beta=0.05, delta=0.7), s4),
        (ModelSpec("sis-ia", beta=0.1, delta=0.9), p3),
        (ModelSpec("sis-ia", beta=0.05, delta=0.9), p10),
        (ModelSpec("sis-general",
                   contact=contact_from_rates(p3, 0.1, 0.9)), p3),
        (ModelSpec("sis-general",
                   contact=contact_from_rates(s4, 0.08, 0.8)), s4),
        (ModelSpec("sirs", beta=0.05, delta=0.3, gamma=0.6), p3),
        (ModelSpec("sirs", beta=0.1, delta=0.4, gamma=0.7), p3),
        (ModelSpec("sirs", beta=0.05, delta=0.25, gamma=0.8), p3),
        (ModelSpec("sirs", beta=0.1, delta=0.5, gamma=0.9), p3),
        (ModelSpec("sirs", beta=0.05, delta=0.6, gamma=0.9), p7),
        # state space exactly at the 3^8 cap
        (ModelSpec("sirs", beta=0.05, delta=0.6, gamma=0.9),
         generate("path", n=8)),
        (ModelSpec("siv-id", beta=0.1, delta=0.5, gamma=0.5, theta=0.5), p3),
        (ModelSpec("siv-id", beta=0.05, delta=0.4, gamma=0.3, theta=0.6), p3),
        (ModelSpec("siv-id", beta=0.1, delta=0.6, gamma=0.5, theta=0.5),
         generate("path", n=5)),
        (ModelSpec("siv-vd", beta=0.1, delta=0.5, gamma=0.5, theta=0.5), p3),
        (ModelSpec("siv-vd", beta=0.08, delta=0.5, gamma=0.4, theta=0.4),
         generate("path", n=5)),
    ]
    return roster


def _suite_mixing(n_max: int, trials: int, seed: int) -> SuiteResult:
    failures: list[dict] = []
    checks = 0
    rows = []
    for model, g in _mixing_roster():
        ratio = threshold_ratio(model, g)
        bound = mixing_time_bound(model, g, 0.25)
        if ratio >= 1.0 or not math.isfinite(bound):
            _fail(failures, "roster-instance", model, g, ratio=ratio,
                  bound=bound)
            continue
        rep = _checked(failures, mixing_time_exact,
                       build_transition_matrix(model, g), 0.25)
        if rep is None:
            continue
        checks += 1
        rows.append({"variant": model.variant, "n": g.n,
                     "t_mix": rep.t_mix, "bound": bound})
        if rep.censored or rep.t_mix is None or rep.t_mix > math.ceil(bound):
            _fail(failures, "mixing-bound", model, g, t_mix=rep.t_mix,
                  bound=bound)
    return SuiteResult("mixing", not failures, checks, failures,
                       {"instances": rows})


def _suite_stationary(n_max: int, trials: int, seed: int) -> SuiteResult:
    rng = np.random.default_rng(seed)
    failures: list[dict] = []
    checks = 0
    worst = 0.0
    for variant in ("siv-id", "siv-vd"):
        for n in (2, 3, 4):
            for _ in range(max(1, trials // 12)):
                g = _random_graph(rng, n, n_min=n)
                model = _variant_model(rng, variant, g.n)
                S = build_transition_matrix(model, g)
                checks += 1
                # stationary raises on a defect above 1e-10.
                law = _checked(failures, stationary, S)
                if law is not None:
                    worst = max(worst, law[1])
    return SuiteResult("stationary", not failures, checks, failures,
                       {"max_defect": worst})


def _suite_fixed_point(n_max: int, trials: int, seed: int) -> SuiteResult:
    rng = np.random.default_rng(seed)
    failures: list[dict] = []
    checks = 0
    worst = 0.0
    for _ in range(max(1, trials // 3)):
        g = _random_graph(rng, max(4, n_max), weighted_prob=0.0)
        lam = spectral_radius(g).lambda_max
        for variant in ("sirs", "siv-id", "siv-vd"):
            delta = float(rng.uniform(0.2, 0.8))
            gamma = float(rng.uniform(0.2, 0.9))
            theta = float(rng.uniform(0.05, 0.6))
            ratio_target = float(rng.uniform(1.3, 3.0))
            # The threshold ratio is linear in beta.
            rates = {"beta": 1.0, "delta": delta, "gamma": gamma,
                     "theta": theta}
            at_one = _rate_ratio(_variant_model(rng, variant, g.n, rates), lam)
            rates["beta"] = min(1.0, ratio_target / at_one)
            model = _variant_model(rng, variant, g.n, rates)
            if threshold_ratio(model, g) <= 1.0:
                continue
            rep = find_fixed_point(model, g, tol=1e-12)
            checks += 1
            if rep.classification != "endemic":
                _fail(failures, "endemic-classification", model, g,
                      classification=rep.classification)
                continue
            if rep.relation_defect is None or rep.relation_defect > 1e-8:
                _fail(failures, "fixed-point-relation", model, g,
                      defect=rep.relation_defect)
            else:
                worst = max(worst, rep.relation_defect)
    return SuiteResult("fixed-point", not failures, checks, failures,
                       {"max_relation_defect": worst})


_SUITE_FUNCS = {
    "ordering": _suite_ordering,
    "u-bound": _suite_u_bound,
    "lp": _suite_lp,
    "non-absorption": _suite_non_absorption,
    "linear": _suite_linear,
    "jacobian": _suite_jacobian,
    "stability-er": _suite_stability_er,
    "mixing": _suite_mixing,
    "stationary": _suite_stationary,
    "fixed-point": _suite_fixed_point,
}
SUITES = tuple(_SUITE_FUNCS)


def run_suite(name: str, n_max: int = 5, trials: int = 50,
              seed: int = 0) -> SuiteResult:
    if name not in _SUITE_FUNCS:
        raise VerifyError(
            f"unknown suite {name!r}; valid: {', '.join(SUITES)} or 'all'"
        )
    return _SUITE_FUNCS[name](n_max, trials, seed)


def run_suites(names, n_max: int = 5, trials: int = 50,
               seed: int = 0) -> list[SuiteResult]:
    if isinstance(names, str):
        names = [names]
    expanded: list[str] = []
    for name in names:
        if name == "all":
            expanded.extend(SUITES)
        else:
            expanded.append(name)
    return [run_suite(name, n_max=n_max, trials=trials, seed=seed)
            for name in expanded]
