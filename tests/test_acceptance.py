"""Acceptance suite: each test exercises one headline guarantee end to end
at its required tolerance and runtime budget.

Each test prints a single summary line; the pytest -v report gives the
pass/fail line per criterion.
"""
from __future__ import annotations

import math
import time

import numpy as np
import pytest

from epinet import (
    MeanFieldPoint,
    ModelSpec,
    build_R_pair,
    find_fixed_point,
    generate,
    marginals,
    mc_ensemble,
    mf_jacobian,
    mixing_time_bound,
    propagate,
    build_transition_matrix,
    ChainState,
    DistVector,
    spectral_radius,
    stationary,
    threshold_ratio,
)
from epinet.verify import run_suite

from conftest import random_connected_graph


class Budget:
    """Wall-clock budget; assert via `finish()` after the content checks."""

    def __init__(self, seconds: float):
        self.limit = seconds
        self.t0 = time.monotonic()

    def finish(self) -> float:
        elapsed = time.monotonic() - self.t0
        assert elapsed < self.limit, (
            f"runtime {elapsed:.1f}s exceeds the {self.limit:.0f}s budget"
        )
        return elapsed


def test_criterion_01_fixed_point_regression(star3):
    """sis-ia star-3 regression: endemic point, Jacobian, eigenvalue, cycle."""
    budget = Budget(1.0)
    m = ModelSpec("sis-ia", beta=0.9, delta=0.9)

    rep = find_fixed_point(m, star3)
    assert rep.classification == "endemic"
    target = np.array([0.286, 0.222, 0.222])
    assert np.abs(rep.point.p_i - target).max() < 1e-3

    J = mf_jacobian(m, star3, rep.point)
    printed = np.array([
        [-0.260, 0.514, 0.514],
        [0.700, -0.157, 0.0],
        [0.700, 0.0, -0.157],
    ])
    assert np.abs(J - printed).max() < 1e-3

    eigs = np.linalg.eigvals(J)
    dominant = eigs[np.argmax(np.abs(eigs))]
    assert abs(dominant.imag) < 1e-9
    assert abs(dominant.real - (-1.059)) < 0.01

    raw = find_fixed_point(m, star3, damping=1.0)
    assert raw.classification == "cycle(2)"

    elapsed = budget.finish()
    print(f"criterion 1: PASS (x*={rep.point.p_i.round(6).tolist()}, "
          f"dominant eig {dominant.real:.6f}, raw cycle(2), {elapsed:.2f}s)")


def test_criterion_02_threshold_dichotomy():
    """20 random connected graphs n <= 12: extinction below threshold,
    a unique strictly positive fixed point above (50 multistarts each)."""
    budget = Budget(30.0)
    rng = np.random.default_rng(20240818)
    for graph_idx in range(20):
        g = random_connected_graph(rng, 12, n_min=4)
        lam = spectral_radius(g).lambda_max

        delta = float(rng.uniform(0.5, 0.9))
        ratio_lo = float(rng.uniform(0.4, 0.8))
        m_below = ModelSpec("sis-nia", beta=ratio_lo * delta / lam,
                            delta=delta)
        assert threshold_ratio(m_below, g) < 1.0
        rep = find_fixed_point(m_below, g)
        assert rep.classification == "disease-free"
        assert np.abs(rep.point.p_i).max() < 1e-8

        delta_hi = 0.5
        beta_hi = min(0.95, float(rng.uniform(1.2, 1.8)) * delta_hi / lam)
        m_above = ModelSpec("sis-nia", beta=beta_hi, delta=delta_hi)
        assert threshold_ratio(m_above, g) > 1.0
        ref = find_fixed_point(m_above, g, tol=1e-12)
        assert ref.classification == "endemic"
        assert ref.point.p_i.min() > 1e-4
        for _ in range(50):
            x0 = MeanFieldPoint(rng.uniform(0.02, 1.0, g.n))
            alt = find_fixed_point(m_above, g, tol=1e-12, x0=x0)
            assert np.abs(alt.point.p_i - ref.point.p_i).max() < 1e-7

    elapsed = budget.finish()
    print(f"criterion 2: PASS (20 graphs, 50 multistarts each above "
          f"threshold, {elapsed:.1f}s)")


def test_criterion_03_mixing_bound_and_extinction_scaling():
    """Exact t_mix <= ceil(analytic bound) on the full below-threshold
    roster (all six variants, up to the 3^8 state-space cap), plus
    logarithmic extinction-time scaling on complete graphs."""
    budget = Budget(300.0)

    suite = run_suite("mixing")
    assert suite.passed, suite.failures[:3]
    assert suite.checks == 18
    variants = {inst["variant"] for inst in suite.details["instances"]}
    assert variants == {"sis-nia", "sis-ia", "sis-general", "sirs",
                        "siv-id", "siv-vd"}
    assert max(3 ** inst["n"] if inst["variant"] in ("sirs", "siv-id",
                                                     "siv-vd")
               else 2 ** inst["n"]
               for inst in suite.details["instances"]) == 3 ** 8

    sizes = np.array([8, 16, 32, 64])
    medians = []
    for n in sizes:
        g = generate("complete", n=int(n))
        m = ModelSpec("sis-nia", beta=0.5 * 0.9 / (n - 1), delta=0.9)
        assert threshold_ratio(m, g) == pytest.approx(0.5, abs=1e-9)
        times = mc_ensemble(m, g, t_max=3000, n_reps=200,
                            master_seed=97).absorbed_steps
        assert all(t is not None for t in times)
        medians.append(float(np.median(times)))
    medians = np.array(medians)
    slope = np.polyfit(np.log(sizes), medians, 1)[0]
    assert slope > 0.0
    # growth is far below linear in n
    assert medians[-1] / medians[0] < (sizes[-1] / sizes[0]) / 2.0
    assert medians[-1] - medians[0] < (sizes[-1] - sizes[0]) / 4.0

    elapsed = budget.finish()
    print(f"criterion 3: PASS (18 mixing instances within bound; extinction "
          f"medians {medians.tolist()} vs n {sizes.tolist()}, "
          f"log-slope {slope:.2f}, {elapsed:.1f}s)")


def test_mixing_bound_against_monte_carlo_n2000():
    """sis-nia on criterion 7's n = 2000 graph: the share of replicates
    from all-infected still alive at ceil(mixing_time_bound(eps)) is at
    most eps plus a Hoeffding margin. The stationary law is the point mass
    at the all-susceptible state and all-infected is the worst start, so
    that share estimates d(t)."""
    budget = Budget(120.0)
    g = generate("er", n=2000, p=0.0082, seed=7)
    lam = spectral_radius(g).lambda_max
    eps, alpha, reps, delta = 0.25, 1e-6, 400, 0.6
    margin = math.sqrt(math.log(1.0 / alpha) / (2 * reps))
    summary = []
    for ratio in (0.5, 0.9):
        m = ModelSpec("sis-nia", beta=ratio * delta / lam, delta=delta)
        assert threshold_ratio(m, g) == pytest.approx(ratio, abs=1e-9)
        bound = mixing_time_bound(m, g, eps)
        rep = mc_ensemble(m, g, t_max=math.ceil(bound), n_reps=reps,
                          master_seed=7)
        alive = 1.0 - rep.extinct_count / reps
        assert alive <= eps + margin, (ratio, bound, alive)
        summary.append(f"ratio {ratio}: bound {bound:.1f}, alive {alive:.3f}")

    elapsed = budget.finish()
    print(f"mixing at n=2000: PASS ({'; '.join(summary)}, margin "
          f"{margin:.3f}, {elapsed:.1f}s)")


def test_criterion_04_ordering_machinery():
    """R inverse exact for n <= 6; conjugation nonnegative on 50 instances;
    200 ordered pairs preserved through t = 20; u-bound slack on 100 r."""
    budget = Budget(120.0)

    for n in range(1, 7):
        R, R_inv = build_R_pair(n)
        assert np.array_equal(R @ R_inv, np.eye(2 ** n, dtype=np.int64))

    ordering = run_suite("ordering", n_max=6, trials=50, seed=1)
    assert ordering.passed, ordering.failures[:3]
    assert ordering.checks == 50
    assert ordering.details["min_conjugated_entry"] >= -1e-12
    assert ordering.details["min_ordered_pair_value"] >= -1e-12

    u_bound = run_suite("u-bound", n_max=6, trials=50, seed=2)
    assert u_bound.passed, u_bound.failures[:3]
    assert u_bound.checks == 100
    assert u_bound.details["worst_slack"] >= -1e-12

    elapsed = budget.finish()
    print(f"criterion 4: PASS (min conjugated entry "
          f"{ordering.details['min_conjugated_entry']:.2e}, u-bound slack "
          f"{u_bound.details['worst_slack']:.2e}, {elapsed:.1f}s)")


def test_criterion_05_lp_bound():
    """LP optimum <= closed form + 1e-9 everywhere; equality within 1e-6
    on the small-marginal family."""
    budget = Budget(120.0)
    suite = run_suite("lp", n_max=4, trials=48, seed=3)
    assert suite.passed, suite.failures[:3]
    assert suite.checks == 48
    assert suite.details["max_gap_over_bound"] <= 1e-9
    assert suite.details["worst_attainment_defect"] <= 1e-6
    elapsed = budget.finish()
    print(f"criterion 5: PASS (max gap "
          f"{suite.details['max_gap_over_bound']:.2e}, attainment defect "
          f"{suite.details['worst_attainment_defect']:.2e}, {elapsed:.1f}s)")


def test_criterion_06_non_absorption_bound():
    """Survival-probability bound slack >= -1e-10 on 100 random instances."""
    budget = Budget(120.0)
    suite = run_suite("non-absorption", n_max=6, trials=100, seed=4)
    assert suite.passed, suite.failures[:3]
    assert suite.checks == 100
    assert suite.details["worst_slack"] >= -1e-10
    elapsed = budget.finish()
    print(f"criterion 6: PASS (worst slack "
          f"{suite.details['worst_slack']:.2e}, {elapsed:.1f}s)")


def test_criterion_07_large_graph_threshold_flip():
    """n = 2000 ER graph: majority extinction just below each variant's
    threshold, majority persistence just above, 25 replicates, 1e4 steps."""
    budget = Budget(600.0)
    g = generate("er", n=2000, p=0.0082, seed=7)
    lam = spectral_radius(g).lambda_max
    assert 17.0 < lam < 18.0  # measured, reported instead of assumed
    # the SIV betas below were calibrated against a graph with spectral
    # radius 16.232; rescale so the intended threshold ratios carry over
    scale = 16.232 / lam
    delta = 0.9
    t_max = 10 ** 4
    reps = 25

    cases = {
        "sis-nia below": (
            ModelSpec("sis-nia", beta=0.9875 * delta / lam, delta=delta),
            "extinct",
        ),
        "sis-nia above": (
            ModelSpec("sis-nia", beta=1.10 * delta / lam, delta=delta),
            "persistent",
        ),
        "sirs below": (
            ModelSpec("sirs", beta=0.9875 * delta / lam, delta=delta,
                      gamma=0.5),
            "extinct",
        ),
        "sirs above": (
            ModelSpec("sirs", beta=1.50 * delta / lam, delta=delta,
                      gamma=0.5),
            "persistent",
        ),
        "siv-id below": (
            ModelSpec("siv-id", beta=0.11 * scale, delta=delta, gamma=0.5,
                      theta=0.5),
            "extinct",
        ),
        "siv-id above": (
            ModelSpec("siv-id", beta=2.7 / lam, delta=delta, gamma=0.5,
                      theta=0.5),
            "persistent",
        ),
        "siv-vd below": (
            ModelSpec("siv-vd", beta=0.22 * scale, delta=delta, gamma=0.5,
                      theta=0.5),
            "extinct",
        ),
        "siv-vd above": (
            ModelSpec("siv-vd", beta=0.29 * scale, delta=delta, gamma=0.5,
                      theta=0.5),
            "persistent",
        ),
    }

    summary = [f"lambda_max={lam:.4f}"]
    for label, (model, expect) in cases.items():
        ratio = threshold_ratio(model, g)
        if expect == "extinct":
            assert ratio < 1.0, label
        else:
            assert ratio > 1.0, label
        rep = mc_ensemble(model, g, t_max=t_max, n_reps=reps, master_seed=7)
        if expect == "extinct":
            assert rep.extinct_count >= 20, (
                f"{label}: only {rep.extinct_count}/25 extinct at "
                f"ratio {ratio:.4f}"
            )
        else:
            assert reps - rep.extinct_count >= 20, (
                f"{label}: only {reps - rep.extinct_count}/25 persistent at "
                f"ratio {ratio:.4f}"
            )
        summary.append(f"{label}: ratio={ratio:.4f} "
                       f"extinct={rep.extinct_count}/{reps}")

    elapsed = budget.finish()
    print(f"criterion 7: PASS ({'; '.join(summary)}, {elapsed:.0f}s)")


def test_criterion_08_siv_stationarity():
    """Product-form stationarity within 1e-10 for n <= 4, and the long-run
    Monte Carlo susceptible fraction gamma/(gamma+theta) within 3 sigma."""
    budget = Budget(60.0)
    rng = np.random.default_rng(88)
    for variant in ("siv-id", "siv-vd"):
        for n in (2, 3, 4):
            g = random_connected_graph(rng, n, n_min=n)
            m = ModelSpec(variant,
                          beta=float(rng.uniform(0.05, 0.95)),
                          delta=float(rng.uniform(0.05, 0.95)),
                          gamma=float(rng.uniform(0.1, 0.9)),
                          theta=float(rng.uniform(0.1, 0.9)))
            S = build_transition_matrix(m, g)
            _, defect = stationary(S)  # raises if it exceeds 1e-10
            assert defect <= 1e-10

    g = generate("path", n=50)
    m = ModelSpec("siv-id", beta=0.05, delta=0.9, gamma=0.5, theta=0.5)
    reps = 200
    rep = mc_ensemble(m, g, t_max=60, n_reps=reps, master_seed=31,
                      marginals_at=(60,))
    p_i, p_r = rep.marginals[60]
    s_frac = 1.0 - float(p_i.mean()) - float(p_r.mean())
    target = 0.5
    sigma = math.sqrt(target * (1.0 - target) / (reps * g.n))
    assert abs(s_frac - target) <= 3.0 * sigma

    elapsed = budget.finish()
    print(f"criterion 8: PASS (worst defect <= 1e-10; S fraction "
          f"{s_frac:.4f} vs 0.5 within {3 * sigma:.4f}, {elapsed:.1f}s)")


def test_criterion_09_oracle_equivalence():
    """Monte Carlo one-step marginals vs exact chain, 1e5 replicates,
    4-sigma binomial tolerance, all six variants."""
    budget = Budget(300.0)
    reps = 10 ** 5
    rng = np.random.default_rng(9)
    worst_z = 0.0
    specs = [
        ("sis-nia", dict(beta=0.35, delta=0.55)),
        ("sis-ia", dict(beta=0.45, delta=0.4)),
        ("sis-general", None),
        ("sirs", dict(beta=0.5, delta=0.3, gamma=0.45)),
        ("siv-id", dict(beta=0.4, delta=0.35, gamma=0.5, theta=0.3)),
        ("siv-vd", dict(beta=0.55, delta=0.25, gamma=0.4, theta=0.35)),
    ]
    for variant, params in specs:
        g = random_connected_graph(rng, 6, n_min=5)
        if variant == "sis-general":
            from epinet import contact_from_rates

            m = ModelSpec(variant,
                          contact=contact_from_rates(g, 0.4, 0.5))
        else:
            m = ModelSpec(variant, **params)
        rep = mc_ensemble(m, g, t_max=1, n_reps=reps, master_seed=17,
                          marginals_at=(1,))
        S = build_transition_matrix(m, g)
        start = (2 ** g.n - 1 if m.k == 2
                 else ChainState.from_digits([1] * g.n, k=3).code)
        mu = propagate(DistVector.point_mass(start, S.size), S, 1)
        exact = marginals(mu, m)
        got_i, got_r = rep.marginals[1]
        sig = np.sqrt(exact.p_i * (1.0 - exact.p_i) / reps)
        dev = np.abs(got_i - exact.p_i)
        assert np.all(dev <= 4.0 * sig + 1e-12), variant
        with np.errstate(invalid="ignore"):
            worst_z = max(worst_z,
                          float(np.nanmax(np.where(sig > 0, dev / sig, 0.0))))
        if m.k == 3:
            sig_r = np.sqrt(exact.p_r * (1.0 - exact.p_r) / reps)
            dev_r = np.abs(got_r - exact.p_r)
            assert np.all(dev_r <= 4.0 * sig_r + 1e-12), variant
            with np.errstate(invalid="ignore"):
                worst_z = max(
                    worst_z,
                    float(np.nanmax(np.where(sig_r > 0, dev_r / sig_r, 0.0))))

    elapsed = budget.finish()
    print(f"criterion 9: PASS (worst |z| = {worst_z:.2f} <= 4, "
          f"{elapsed:.0f}s)")


def test_criterion_10_jacobian_integrity():
    """Analytic vs central finite-difference Jacobians, 100 interior points
    per variant, 1e-6 infinity-norm tolerance."""
    budget = Budget(60.0)
    suite = run_suite("jacobian", n_max=5, trials=600, seed=6)
    assert suite.passed, suite.failures[:3]
    assert suite.checks == 600
    assert suite.details["max_fd_error"] <= 1e-6
    elapsed = budget.finish()
    print(f"criterion 10: PASS (max FD error "
          f"{suite.details['max_fd_error']:.2e}, {elapsed:.1f}s)")


def test_criterion_11_fixed_point_relations():
    """Endemic recovered-infected affine relations hold to 1e-8 on all
    converged endemic reports."""
    budget = Budget(60.0)
    suite = run_suite("fixed-point", n_max=6, trials=30, seed=7)
    assert suite.passed, suite.failures[:3]
    assert suite.checks >= 20
    assert suite.details["max_relation_defect"] <= 1e-8
    elapsed = budget.finish()
    print(f"criterion 11: PASS ({suite.checks} endemic reports, max defect "
          f"{suite.details['max_relation_defect']:.2e}, {elapsed:.1f}s)")


def test_er_stability_suite():
    """Empirical endemic-stability rate on G(n, 2 ln n / n): >= 95% per
    size and non-decreasing over n in {200, 400, 800}."""
    budget = Budget(300.0)
    suite = run_suite("stability-er", trials=40, seed=8)
    assert suite.passed, suite.failures[:3]
    rates = suite.details["stability_rates"]
    assert all(r >= 0.95 for r in rates)
    assert all(rates[i] >= rates[i - 1] - 1e-12 for i in range(1, len(rates)))
    elapsed = budget.finish()
    print(f"stability suite: PASS (rates {rates} over sizes "
          f"{suite.details['sizes']}, {elapsed:.0f}s)")
