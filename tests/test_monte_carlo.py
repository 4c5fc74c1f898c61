"""Monte Carlo sampler: determinism, absorption, exact-chain agreement,
and the batched core against the per-replicate loop it replaced."""
from __future__ import annotations

import io
import math
import multiprocessing
import os
import sys
import time
import tracemalloc

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings, strategies as st

from epinet import (
    ChainState,
    DistVector,
    EnsembleReport,
    Graph,
    ModelError,
    ModelSpec,
    MonteCarloError,
    build_transition_matrix,
    ensemble_to_csv,
    generate,
    marginals,
    mc_ensemble,
    mc_grid,
    propagate,
)
from epinet import monte_carlo
from epinet.model_core import _VARIANTS

from conftest import ALL_VARIANTS, random_connected_graph, random_model


def run_replicate(model, graph, init="all-infected", t_max=1000, seed=0,
                  replicate=0):
    """One replicate through monte_carlo._run, as (rows, absorbed) in the
    form reference_simulate gives them: (t, s, i, r) rows up to the end of
    the record (the absorption step for SIS/SIRS, else t_max), and the first
    step with zero infected or None."""
    i_mat, s_mat, r_mat, absorbed, _, _ = monte_carlo._run(
        [model], graph, init, t_max, seed, [replicate])
    ab = int(absorbed[0]) if absorbed[0] >= 0 else None
    end = t_max
    if ab is not None and _VARIANTS[model.variant].ends_at_extinction:
        end = ab
    rows = [(t, int(s_mat[0, t]), int(i_mat[0, t]), int(r_mat[0, t]))
            for t in range(end + 1)]
    return rows, ab


def sampler_step(model, graph, states, t, seed, replicate):
    """Step t of one replicate: monte_carlo._sampler fed that replicate's
    _philox draws."""
    u = np.empty((1, graph.n))
    monte_carlo._philox(seed)(u[0], t, replicate)
    states = np.asarray(states, dtype=np.int8)[None, :]
    point = np.zeros(1, dtype=np.intp)  # the only grid point
    return monte_carlo._sampler([model], graph)(states, u, point)[0]


class TestDeterminism:
    def test_same_seed_bitwise_identical(self, rng):
        for variant in ALL_VARIANTS:
            g = random_connected_graph(rng, 12, weighted_prob=0.3)
            m = random_model(rng, variant, n=g.n)
            a = run_replicate(m, g, t_max=40, seed=11, replicate=3)
            b = run_replicate(m, g, t_max=40, seed=11, replicate=3)
            assert a == b

    def test_different_replicates_decorrelated(self):
        g = generate("er", n=30, p=0.2, seed=4)
        m = ModelSpec("sis-nia", beta=0.3, delta=0.4)
        a, _ = run_replicate(m, g, t_max=30, seed=11, replicate=0)
        b, _ = run_replicate(m, g, t_max=30, seed=11, replicate=1)
        assert a != b

    def test_single_replicate_matches_mc_run(self):
        g = generate("er", n=15, p=0.3, seed=2)
        m = ModelSpec("sis-ia", beta=0.35, delta=0.45)
        rep = mc_ensemble(m, g, t_max=30, n_reps=1, master_seed=7)
        rows, _, _, _ = reference_simulate(m, g, "all-infected", 30, 7, 0)
        t_run = np.array([r[2] for r in rows])
        # ensemble extends absorbed SIS trajectories with zeros
        assert np.array_equal(rep.i_mean[: len(t_run)], t_run)
        assert np.all(rep.i_mean[len(t_run):] == 0)


@pytest.mark.parametrize("size", [3, 5])
@pytest.mark.parametrize("engine", [
    lambda m, g: mc_ensemble(m, g, t_max=5, n_reps=2, master_seed=1),
], ids=["mc_ensemble"])
def test_contact_size_mismatch_is_model_error(engine, size):
    """A contact matrix sized for another graph is a ModelError, as in the
    exact chain and the mean-field map, not a numpy shape error."""
    m = ModelSpec("sis-general", contact=np.full((size, size), 0.2))
    with pytest.raises(ModelError,
                       match=f"contact matrix is {size}x{size} but graph "
                             "has n=4"):
        engine(m, generate("path", n=4))


class TestAbsorptionEdgeCases:
    def test_beta_zero_never_infects(self):
        g = generate("complete", n=6)
        m = ModelSpec("sis-nia", beta=0.0, delta=1.0)
        rows, absorbed = run_replicate(m, g, t_max=10, seed=0)
        assert rows[0][2] == 6
        assert rows[1][2] == 0
        assert absorbed == 1

    def test_all_susceptible_is_absorbing(self):
        g = generate("complete", n=5)
        m = ModelSpec("sis-nia", beta=0.9, delta=0.1)
        rows, absorbed = run_replicate(m, g, init=(), t_max=20, seed=3)
        assert all(r[2] == 0 for r in rows)
        assert all(r[1] == 5 for r in rows)
        assert absorbed == 0

    def test_saturated_edge_never_absorbs(self):
        # both rates 1 on a single edge with recovery annulled by reinfection
        g = generate("complete", n=2)
        m = ModelSpec("sis-nia", beta=1.0, delta=1.0)
        rows, absorbed = run_replicate(m, g, t_max=50, seed=1)
        assert all(r[2] == 2 for r in rows)
        assert absorbed is None

    def test_recovery_independent_two_step_extinction(self):
        # with independent recovery at delta = 1 both nodes recover at once
        g = generate("complete", n=2)
        m = ModelSpec("sis-ia", beta=1.0, delta=1.0)
        rows, absorbed = run_replicate(m, g, t_max=50, seed=1)
        assert rows[0][2] == 2
        assert rows[1][2] == 0
        assert absorbed == 1

    def test_sis_rows_end_at_absorption_ensemble_extends(self):
        g = generate("path", n=4)
        m = ModelSpec("sis-nia", beta=0.1, delta=0.9)
        rows, absorbed = run_replicate(m, g, t_max=500, seed=5)
        assert absorbed is not None
        assert rows[-1][0] == absorbed
        rep = mc_ensemble(m, g, t_max=50, n_reps=4, master_seed=5)
        assert len(rep.i_mean) == 51
        assert rep.i_mean[-1] == 0.0
        # SIS susceptible counts extend exactly (all-susceptible freeze)
        assert rep.s_mean[-1] == 4.0

    def test_sirs_post_absorption_counts_unsimulated(self):
        g = generate("path", n=4)
        m = ModelSpec("sirs", beta=0.05, delta=0.9, gamma=0.2)
        rep = mc_ensemble(m, g, t_max=300, n_reps=6, master_seed=8)
        assert rep.extinct_count == 6
        assert np.all(rep.i_mean[-5:] == 0.0)
        # recovered/susceptible splits are NaN once every record has ended
        assert math.isnan(rep.s_mean[-1])
        assert math.isnan(rep.r_mean[-1])

    def test_siv_runs_to_t_max(self):
        g = generate("path", n=4)
        m = ModelSpec("siv-id", beta=0.05, delta=0.9, gamma=0.3, theta=0.4)
        rows, absorbed = run_replicate(m, g, t_max=60, seed=2)
        assert rows[-1][0] == 60  # no early exit: S<->R keeps moving
        assert absorbed is not None

    def test_no_reinfection_after_siv_absorption(self):
        g = generate("complete", n=5)
        m = ModelSpec("siv-vd", beta=0.9, delta=0.8, gamma=0.5, theta=0.5)
        rows, absorbed = run_replicate(m, g, t_max=400, seed=6)
        if absorbed is not None:
            post = [r for r in rows if r[0] >= absorbed]
            assert all(r[2] == 0 for r in post)


class TestInit:
    def test_fraction_init_deterministic(self):
        g = generate("er", n=40, p=0.2, seed=3)
        m = ModelSpec("sis-nia", beta=0.3, delta=0.4)
        a, _ = run_replicate(m, g, init=0.25, t_max=5, seed=9)
        b, _ = run_replicate(m, g, init=0.25, t_max=5, seed=9)
        assert a == b
        assert 0 < a[0][2] < 40

    def test_explicit_nodes(self):
        g = generate("path", n=6)
        m = ModelSpec("sis-nia", beta=0.5, delta=0.5)
        rows, _ = run_replicate(m, g, init=(0, 3), t_max=3, seed=0)
        assert rows[0][2] == 2

    def test_bad_inits(self):
        g = generate("path", n=4)
        m = ModelSpec("sis-nia", beta=0.5, delta=0.5)
        with pytest.raises(MonteCarloError):
            run_replicate(m, g, init=(0, 9), t_max=3)
        with pytest.raises(MonteCarloError):
            run_replicate(m, g, init=1.7, t_max=3)

    def test_t_max_validation(self):
        g = generate("path", n=4)
        m = ModelSpec("sis-nia", beta=0.5, delta=0.5)
        with pytest.raises(MonteCarloError):
            run_replicate(m, g, t_max=0)


class TestStepInvariants:
    @given(st.integers(0, 10 ** 6), st.sampled_from(ALL_VARIANTS))
    @settings(max_examples=30, deadline=None)
    def test_counts_conserved_and_legal_moves(self, seed, variant):
        rng = np.random.default_rng(seed)
        g = random_connected_graph(rng, 10, weighted_prob=0.4)
        m = random_model(rng, variant, n=g.n)
        rows, _ = run_replicate(m, g, init=0.5, t_max=15, seed=seed)
        for t, s, i, r in rows:
            assert s + i + r == g.n
            assert r == 0 or m.k == 3

    def test_mc_step_advances_one(self):
        g = generate("path", n=5)
        m = ModelSpec("sirs", beta=0.6, delta=0.2, gamma=0.3)
        s1 = sampler_step(m, g, np.ones(5), t=0, seed=4, replicate=0)
        assert s1.shape == (5,)
        # infected nodes can only stay infected or move to recovered
        assert np.all(np.isin(s1, [1, 2]))

    def test_sis_infected_neighbors_only(self):
        # an isolated-by-distance susceptible node cannot become infected
        g = generate("path", n=5)
        m = ModelSpec("sis-nia", beta=1.0, delta=0.0)
        rows, _ = run_replicate(m, g, init=(0,), t_max=1, seed=0)
        # after one step only nodes 0 and 1 can be infected
        assert rows[1][2] <= 2


class TestAgainstExactChain:
    def test_one_step_marginals_within_4_sigma(self, rng):
        reps = 20000
        for variant in ALL_VARIANTS:
            g = random_connected_graph(rng, 4, weighted_prob=0.3)
            m = random_model(rng, variant, n=g.n)
            rep = mc_ensemble(m, g, t_max=1, n_reps=reps, master_seed=13,
                              marginals_at=(1,))
            S = build_transition_matrix(m, g)
            mu = propagate(
                DistVector.point_mass(2 ** g.n - 1 if m.k == 2
                                      else ChainState.from_digits(
                                          [1] * g.n, k=3).code,
                                      S.size),
                S, 1,
            )
            exact = marginals(mu, m)
            got_i = rep.marginals[1][0]
            sig = np.sqrt(exact.p_i * (1.0 - exact.p_i) / reps)
            assert np.all(np.abs(got_i - exact.p_i) <= 4.0 * sig + 1e-12)
            if m.k == 3:
                got_r = rep.marginals[1][1]
                sig_r = np.sqrt(exact.p_r * (1.0 - exact.p_r) / reps)
                assert np.all(np.abs(got_r - exact.p_r)
                              <= 4.0 * sig_r + 1e-12)

    def test_mean_dominated_by_linear_model(self):
        """Ensemble mean infection marginals at t+1 are bounded by the
        linearized map applied to the t marginals, up to sampling noise."""
        g = generate("er", n=12, p=0.3, seed=21)
        m = ModelSpec("sis-nia", beta=0.2, delta=0.6)
        reps = 5000
        rep = mc_ensemble(m, g, init=0.5, t_max=4, n_reps=reps,
                          master_seed=3, marginals_at=(3, 4))
        p3 = rep.marginals[3][0]
        p4 = rep.marginals[4][0]
        A = g.adjacency()
        lin = (1.0 - m.delta) * p3 + m.beta * (A @ p3)
        # 4-sigma slack per node on both estimates
        slack = 4.0 * np.sqrt(0.25 / reps) * (1.0 + A.sum(axis=1))
        assert np.all(p4 <= lin + slack)


class TestExtinction:
    def test_census_and_cap(self):
        g = generate("complete", n=2)
        m = ModelSpec("sis-nia", beta=1.0, delta=1.0)
        assert run_replicate(m, g, t_max=40, seed=0)[1] is None

    def test_below_threshold_distribution(self):
        g = generate("complete", n=8)
        m = ModelSpec("sis-nia", beta=0.5 * 0.9 / 7, delta=0.9)
        times = mc_ensemble(m, g, t_max=2000, n_reps=50,
                            master_seed=17).absorbed_steps
        assert all(t is not None for t in times)
        assert np.median(times) <= 12

    def test_siv_censored_runs_to_cap(self, monkeypatch):
        """A SIV replicate that has not died out is stepped exactly to
        t_max."""
        steps = [0]
        sampler = monte_carlo._sampler

        def counting_sampler(models, graph):
            advance = sampler(models, graph)

            def counted(states, u, point):
                steps[0] += len(states)
                return advance(states, u, point)
            return counted

        monkeypatch.setattr(monte_carlo, "_sampler", counting_sampler)
        g = generate("path", n=8)
        m = ModelSpec("siv-vd", beta=0.3, delta=0.3, gamma=0.5, theta=0.2)
        assert run_replicate(m, g, t_max=5, seed=1)[1] is None
        assert steps[0] == 5


class TestCsv:
    def test_ensemble_roundtrip(self):
        g = generate("er", n=10, p=0.3, seed=1)
        m = ModelSpec("siv-id", beta=0.4, delta=0.3, gamma=0.4, theta=0.2)
        rep = mc_ensemble(m, g, t_max=15, n_reps=8, master_seed=2)
        text = ensemble_to_csv(rep)
        assert text.startswith("t,s,i,r\n")
        cols = np.loadtxt(io.StringIO(text), delimiter=",", skiprows=1)
        assert np.array_equal(cols[:, 0], rep.t)
        for j, mean in ((1, rep.s_mean), (2, rep.i_mean), (3, rep.r_mean)):
            assert np.array_equal(cols[:, j], mean, equal_nan=True)


class TestSivLongRun:
    def test_stationary_susceptible_fraction(self):
        g = generate("path", n=50)
        m = ModelSpec("siv-id", beta=0.05, delta=0.9, gamma=0.5, theta=0.5)
        reps = 200
        rep = mc_ensemble(m, g, t_max=60, n_reps=reps, master_seed=31,
                          marginals_at=(60,))
        assert rep.extinct_count == reps
        p_i, p_r = rep.marginals[60]
        s_frac = 1.0 - p_i.mean() - p_r.mean()
        target = 0.5  # gamma / (gamma + theta)
        sigma = math.sqrt(target * (1 - target) / (reps * g.n))
        assert abs(s_frac - target) <= 3.0 * sigma


# ---------------------------------------------------------------------------
# Batched core against the per-replicate loop
# ---------------------------------------------------------------------------

def _reference_escape(model, graph):
    """z -> per-node escape probability for one replicate's 0/1 vector."""
    n = graph.n
    if model.contact is not None:
        logs, scale = sp.csr_matrix(np.asarray(model.contact, dtype=float)), 1.0
    elif graph.is_weighted:
        logs, scale = graph.adjacency_sparse.copy(), model.beta
    else:
        A, base = graph.adjacency_sparse, 1.0 - model.beta
        return lambda z: base ** (A @ z) if z.any() else np.ones(n)
    logs.data = np.maximum(np.log1p(-scale * logs.data), -745.0)
    return lambda z: np.exp(logs @ z) if z.any() else np.ones(n)


def _reference_sampler(model, graph):
    escape = _reference_escape(model, graph)
    columns = [[(coef[:, y], j) for j, coef in
                enumerate(_VARIANTS[model.variant].tables(model))
                if coef[:, y].any()]
               for y in range(model.k - 1)]
    n = graph.n

    def advance(states, t, seed, replicate):
        u = np.random.Generator(
            np.random.Philox(counter=[0, 0, t, replicate], key=seed)
        ).random(n)
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


def _reference_init(graph, init, seed, replicate):
    n = graph.n
    if isinstance(init, str):
        return np.ones(n, dtype=np.int8)
    if isinstance(init, float):
        gen = np.random.Generator(
            np.random.Philox(counter=[0, 1, 0, replicate], key=seed)
        )
        return (gen.random(n) < init).astype(np.int8)
    out = np.zeros(n, dtype=np.int8)
    out[np.asarray(list(init), dtype=np.int64)] = 1
    return out


def reference_simulate(model, graph, init, t_max, seed, replicate,
                       snapshot_times=()):
    """One replicate at a time, as mc_ensemble ran it before the
    replicates were batched: (rows, absorbed, snapshots, steps simulated)."""
    advance = _reference_sampler(model, graph)
    states = _reference_init(graph, init, seed, replicate)
    rows, snaps = [], {}
    need = sorted(set(snapshot_times))
    absorbed = None
    sim_until = record_until = t_max
    t = 0
    while True:
        i = int(np.count_nonzero(states == 1))
        r = int(np.count_nonzero(states == 2))
        if t <= record_until:
            rows.append((t, graph.n - i - r, i, r))
        if t in need:
            snaps[t] = states.copy()
        if absorbed is None and i == 0:
            absorbed = t
            if _VARIANTS[model.variant].ends_at_extinction:
                record_until = t
                if model.k == 2 or r == 0:
                    for ts in need:
                        if ts > t:
                            snaps[ts] = states.copy()
                    break
                sim_until = max([ts for ts in need if ts > t], default=t)
        if t >= sim_until:
            break
        states = advance(states, t, seed, replicate)
        t += 1
    return rows, absorbed, snaps, t


def reference_ensemble(model, graph, init="all-infected", t_max=1000,
                       n_reps=1, master_seed=0, marginals_at=()):
    """mc_ensemble's aggregation over reference_simulate, replicate by
    replicate."""
    T, n = t_max + 1, graph.n
    snap_times = tuple(sorted(set(marginals_at)))
    i_mat = np.zeros((n_reps, T), dtype=np.int32)
    s_mat = np.full((n_reps, T), np.nan)
    r_mat = np.full((n_reps, T), np.nan)
    absorbed = [None] * n_reps
    acc_i = {ts: np.zeros(n) for ts in snap_times}
    acc_r = {ts: np.zeros(n) for ts in snap_times}
    for rep in range(n_reps):
        rows, ab, snaps, _ = reference_simulate(model, graph, init, t_max,
                                                master_seed, rep, snap_times)
        absorbed[rep] = ab
        for t, s, i, r in rows:
            i_mat[rep, t], s_mat[rep, t], r_mat[rep, t] = i, s, r
        last_t = rows[-1][0]
        if last_t < t_max and rows[-1][3] == 0:
            s_mat[rep, last_t + 1:] = n
            r_mat[rep, last_t + 1:] = 0
        for ts, st_ in snaps.items():
            acc_i[ts] += (st_ == 1)
            acc_r[ts] += (st_ == 2)

    def nan_mean(mat):
        cnt = np.count_nonzero(~np.isnan(mat), axis=0)
        total = np.nansum(mat, axis=0)
        with np.errstate(invalid="ignore"):
            return np.where(cnt > 0, total / np.maximum(cnt, 1), np.nan)

    q10, q50, q90 = np.quantile(i_mat, [0.1, 0.5, 0.9], axis=0)
    marg = {ts: (acc_i[ts] / n_reps,
                 acc_r[ts] / n_reps if model.k == 3 else None)
            for ts in snap_times} or None
    return EnsembleReport(
        t=np.arange(T), i_mean=i_mat.mean(axis=0), i_q10=q10, i_q50=q50,
        i_q90=q90, s_mean=nan_mean(s_mat), r_mean=nan_mean(r_mat),
        n_reps=n_reps, extinct_count=sum(a is not None for a in absorbed),
        absorbed_steps=absorbed, marginals=marg,
    )


def _bits(a):
    return np.asarray(a, dtype=float).view(np.uint64)


def assert_same_report(got, ref):
    for name in ("t", "i_mean", "i_q10", "i_q50", "i_q90", "s_mean",
                 "r_mean"):
        assert np.array_equal(_bits(getattr(got, name)),
                              _bits(getattr(ref, name))), name
    assert got.n_reps == ref.n_reps
    assert got.extinct_count == ref.extinct_count
    assert got.absorbed_steps == ref.absorbed_steps
    if ref.marginals is None:
        assert got.marginals is None
        return
    assert sorted(got.marginals) == sorted(ref.marginals)
    for ts, (pi, pr) in ref.marginals.items():
        assert np.array_equal(_bits(got.marginals[ts][0]), _bits(pi)), ts
        if pr is None:
            assert got.marginals[ts][1] is None
        else:
            assert np.array_equal(_bits(got.marginals[ts][1]), _bits(pr))


def _oracle_graph(weighted):
    g = generate("er", n=24, p=0.2, seed=5)
    if weighted:
        w = np.random.default_rng(1).uniform(0.2, 1.0, g.m)
        g = Graph(g.n, g.edges, tuple(float(x) for x in w))
    return g


def _oracle_model(variant, n, beta=0.3):
    if variant == "sis-general":
        rng = np.random.default_rng(2)
        M = rng.uniform(0.0, 0.25, (n, n))
        M[rng.random((n, n)) < 0.6] = 0.0
        np.fill_diagonal(M, 0.6)
        return ModelSpec(variant, contact=M)
    rates = {"beta": beta, "delta": 0.5, "gamma": 0.4, "theta": 0.2}
    return ModelSpec(variant, **{k: rates[k]
                                 for k in _VARIANTS[variant].required})


class TestBatchedOracle:
    @pytest.mark.parametrize("init", ["all-infected", 0.3, (0, 4, 9)])
    @pytest.mark.parametrize("weighted", [False, True])
    @pytest.mark.parametrize("variant", ALL_VARIANTS)
    def test_ensemble_matches_reference(self, variant, weighted, init):
        g = _oracle_graph(weighted)
        m = _oracle_model(variant, g.n)
        kw = dict(init=init, t_max=30, n_reps=9, master_seed=11,
                  marginals_at=(0, 3, 30))
        assert_same_report(mc_ensemble(m, g, **kw),
                           reference_ensemble(m, g, **kw))

    @pytest.mark.parametrize("variant", ["sis-nia", "sis-ia", "sirs"])
    def test_extinctions_around_snapshot_times(self, variant):
        g = _oracle_graph(False)
        m = _oracle_model(variant, g.n, beta=0.08)
        snaps = (0, 2, 4, 6, 8, 12, 40)
        kw = dict(init=0.5, t_max=40, n_reps=60, master_seed=3,
                  marginals_at=snaps)
        ref = reference_ensemble(m, g, **kw)
        assert_same_report(mc_ensemble(m, g, **kw), ref)
        # The replicates die out before, at and after a snapshot time.
        steps = [a for a in ref.absorbed_steps if a is not None]
        assert any(min(steps) < ts < max(steps) and ts in steps
                   for ts in snaps)
        if variant == "sirs":
            # Some die out with recovered nodes left and a snapshot still to
            # come, so they are simulated past the end of their record.
            open_ends = [rows for rows, ab, _, _ in
                         (reference_simulate(m, g, 0.5, 40, 3, rep, snaps)
                          for rep in range(60))
                         if ab is not None and ab < 40 and rows[-1][3] > 0]
            assert open_ends

    def test_siv_runs_to_t_max(self):
        g = _oracle_graph(False)
        m = _oracle_model("siv-id", g.n, beta=0.05)
        kw = dict(init="all-infected", t_max=50, n_reps=8, master_seed=6,
                  marginals_at=(10, 50))
        ref = reference_ensemble(m, g, **kw)
        assert all(a is not None and a < 25 for a in ref.absorbed_steps)
        assert_same_report(mc_ensemble(m, g, **kw), ref)

    @pytest.mark.parametrize("block_rows", [1, 3])
    def test_row_blocks(self, monkeypatch, block_rows):
        g = _oracle_graph(True)
        monkeypatch.setattr(monte_carlo, "_REP_BLOCK_DOUBLES",
                            block_rows * g.n)
        for variant in ("sis-nia", "sirs", "siv-vd"):
            m = _oracle_model(variant, g.n, beta=0.12)
            kw = dict(init=0.6, t_max=25, n_reps=8, master_seed=9,
                      marginals_at=(1, 5, 25))
            assert_same_report(mc_ensemble(m, g, **kw),
                               reference_ensemble(m, g, **kw))

    @pytest.mark.parametrize("variant", ["sis-nia", "sirs", "siv-id"])
    def test_single_replicate_entry_points(self, variant):
        g = _oracle_graph(False)
        m = _oracle_model(variant, g.n, beta=0.1)
        for rep in (0, 3, 17):
            rows, ab, _, _ = reference_simulate(m, g, 0.4, 30, 21, rep)
            assert run_replicate(m, g, init=0.4, t_max=30, seed=21,
                                 replicate=rep) == (rows, ab)

    @staticmethod
    def assert_draws_stop(monkeypatch, log):
        """Each replicate draws the steps the per-replicate loop simulated
        and none after its trajectory ends. Draws are logged to a file, so
        that those made in forked workers count too."""
        make = monte_carlo._philox

        def counting(seed):
            fill = make(seed)

            def counted(out, t, rep, stream=0):
                if stream == 0:
                    with open(log, "a", encoding="utf-8") as fh:
                        fh.write(f"{rep} {t}\n")
                fill(out, t, rep, stream)
            return counted

        monkeypatch.setattr(monte_carlo, "_philox", counting)
        g = _oracle_graph(False)
        snaps = (2, 6, 12)
        for variant in ("sis-nia", "sirs", "siv-id"):
            m = _oracle_model(variant, g.n, beta=0.08)
            log.write_text("")
            mc_ensemble(m, g, init=0.5, t_max=30, n_reps=20, master_seed=3,
                        marginals_at=snaps)
            draws = [tuple(map(int, line.split()))
                     for line in log.read_text().splitlines()]
            want = [(rep, t) for rep in range(20) for t in range(
                reference_simulate(m, g, 0.5, 30, 3, rep, snaps)[3])]
            assert sorted(draws) == want

    def test_replicates_stop_at_their_last_step(self, monkeypatch, tmp_path):
        monkeypatch.setattr(monte_carlo, "_usable_cpus", lambda: [0])
        self.assert_draws_stop(monkeypatch, tmp_path / "draws.txt")

    @pytest.mark.skipif(not sys.platform.startswith("linux"),
                        reason="runs split only on Linux")
    def test_replicates_stop_at_their_last_step_split(self, monkeypatch,
                                                      tmp_path):
        force_split(monkeypatch, 2)
        self.assert_draws_stop(monkeypatch, tmp_path / "draws.txt")

    def test_mc_step_matches_reference(self):
        g = _oracle_graph(True)
        for variant in ALL_VARIANTS:
            m = _oracle_model(variant, g.n)
            states = np.random.default_rng(4).integers(0, m.k, g.n)
            got = sampler_step(m, g, states, t=7, seed=12, replicate=5)
            ref = _reference_sampler(m, g)(states.astype(np.int8), 7, 12, 5)
            assert np.array_equal(got, ref)


class TestStepShortcuts:
    @pytest.mark.parametrize("beta", [0.0, 0.08, 0.3, 0.77, 1.0])
    def test_power_table_matches_pow(self, beta):
        base = 1.0 - beta
        # Star centre: k infected leaves give it every count 0..n-1.
        g = generate("star", n=65)
        A = g.adjacency_sparse
        table = monte_carlo._power_table(base, int(g.degrees.max()))
        for k in range(g.n):
            z = np.zeros(g.n)
            z[1:k + 1] = 1.0
            counts = A @ z
            assert np.array_equal(_bits(table.take(counts.astype(np.intp))),
                                  _bits(base ** (A @ z)))
        g = generate("er", n=300, p=0.08, seed=3)
        A = g.adjacency_sparse
        table = monte_carlo._power_table(base, int(g.degrees.max()))
        rng = np.random.default_rng(5)
        for frac in (0.05, 0.5, 1.0):
            z = (rng.random(g.n) < frac).astype(float)
            assert np.array_equal(
                _bits(table.take((A @ z).astype(np.intp))),
                _bits(base ** (A @ z)))

    def test_count_dtype_follows_the_maximum_degree(self):
        assert monte_carlo._count_dtype(0) == np.int16
        assert monte_carlo._count_dtype(2 ** 15 - 1) == np.int16
        assert monte_carlo._count_dtype(2 ** 15) == np.int32
        assert monte_carlo._count_dtype(39999) == np.int32

    def test_hub_counts_do_not_overflow(self):
        """A hub of degree 39999 >= 2^15: its escape is (1 - beta)^k for
        every count k of infected leaves, also above the int16 range."""
        g = generate("star", n=40000)
        m = ModelSpec("sis-ia", beta=1e-5, delta=0.5)
        counts = [39999, 2 ** 15, 2 ** 15 - 1, 7]
        infected = np.zeros((len(counts), g.n), dtype=bool)
        for row, k in enumerate(counts):
            infected[row, 1:k + 1] = True
        esc = monte_carlo._escape_function([m], g)(
            infected, np.zeros(len(counts), dtype=np.intp))
        hub = np.power(1.0 - m.beta, np.asarray(counts, dtype=float))
        assert np.array_equal(_bits(esc[:, 0]), _bits(hub))
        # One replicate stepped twice, against the float-count loop.
        kw = dict(init="all-infected", t_max=2, n_reps=1, master_seed=5,
                  marginals_at=(1, 2))
        assert_same_report(mc_ensemble(m, g, **kw),
                           reference_ensemble(m, g, **kw))

    def test_reused_philox_matches_fresh_generator(self):
        rng = np.random.default_rng(2026)
        seeds = [int(s) for s in rng.integers(0, 2 ** 64, 40,
                                              dtype=np.uint64)]
        fills = {}
        sizes = [1, 2, 3, 5, 6, 7, 13, 1001]
        for case in range(240):
            seed = seeds[int(rng.integers(len(seeds)))]
            t = int(rng.integers(0, 10 ** 6))
            rep = int(rng.integers(0, 10 ** 6))
            n = sizes[case] if case < len(sizes) else int(rng.integers(1, 300))
            stream = case % 2
            fill = fills.setdefault(seed, monte_carlo._philox(seed))
            out = np.empty(n)
            fill(out, t, rep, stream=stream)
            want = np.random.Generator(np.random.Philox(
                counter=[0, stream, t, rep], key=seed)).random(n)
            assert np.array_equal(_bits(out), _bits(want)), (seed, t, rep, n)

    def test_memory_bounded_by_row_blocks(self):
        n = 20000
        ring = np.arange(n)
        edges = np.concatenate([np.column_stack((ring, (ring + k) % n))
                                for k in (1, 7, 211)])
        g = Graph(n, edges)
        m = ModelSpec("sirs", beta=0.3, delta=0.2, gamma=0.3)
        assert g.is_weighted is False and g.degrees.max() == 6
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            rep = mc_ensemble(m, g, init=0.5, t_max=3, n_reps=200,
                              master_seed=1, marginals_at=(3,))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert rep.n_reps == 200
        assert peak < 64 * 2 ** 20, peak


# ---------------------------------------------------------------------------
# Replicates split across forked workers
# ---------------------------------------------------------------------------

def force_split(monkeypatch, workers):
    """Make every run with at least `workers` replicates split into that
    many shares, whatever the host's CPU count: the workers are pinned to
    the usable CPUs in turn."""
    cpus = sorted(os.sched_getaffinity(0))
    monkeypatch.setattr(monte_carlo, "_FORK_MIN_WORK", 0)
    monkeypatch.setattr(monte_carlo, "_usable_cpus",
                        lambda: [cpus[w % len(cpus)] for w in range(workers)])


def serial_and_split(monkeypatch, workers, **kw):
    """(serial report, split report) of one mc_ensemble request."""
    monkeypatch.setattr(monte_carlo, "_usable_cpus", lambda: [0])
    serial = mc_ensemble(**kw)
    force_split(monkeypatch, workers)
    return serial, mc_ensemble(**kw)


def _pool_ensemble():
    g = _oracle_graph(True)
    return mc_ensemble(_oracle_model("sirs", g.n), g, init=0.4, t_max=20,
                       n_reps=6, master_seed=2, marginals_at=(4,))


def failing_sampler(monkeypatch, fail):
    """Patch _sampler so that advance calls fail(in_parent) first."""
    parent = os.getpid()
    make = monte_carlo._sampler

    def sampler(models, graph):
        advance = make(models, graph)

        def checked(states, u, point):
            fail(os.getpid() == parent)
            return advance(states, u, point)
        return checked

    monkeypatch.setattr(monte_carlo, "_sampler", sampler)


@pytest.mark.skipif(not sys.platform.startswith("linux"),
                    reason="runs split only on Linux")
class TestSplit:
    @pytest.fixture(autouse=True)
    def affinity_restored(self):
        """The parent keeps to one CPU only while it steps its share."""
        home = os.sched_getaffinity(0)
        yield
        assert os.sched_getaffinity(0) == home

    @pytest.mark.parametrize("init", ["all-infected", 0.3, (0, 4, 9)])
    @pytest.mark.parametrize("weighted", [False, True])
    @pytest.mark.parametrize("variant", ALL_VARIANTS)
    def test_matches_serial(self, monkeypatch, variant, weighted, init):
        g = _oracle_graph(weighted)
        m = _oracle_model(variant, g.n)
        assert_same_report(*serial_and_split(
            monkeypatch, 2, model=m, graph=g, init=init, t_max=30, n_reps=9,
            master_seed=11, marginals_at=(0, 3, 30)))

    @pytest.mark.parametrize("workers", [2, 3])
    @pytest.mark.parametrize("variant", ["sis-nia", "sis-ia", "sirs"])
    def test_extinctions_around_snapshot_times(self, monkeypatch, variant,
                                               workers):
        """Shares whose replicates die out before, at and after snapshot
        times, and SIRS replicates simulated past the end of their record
        (see TestBatchedOracle)."""
        g = _oracle_graph(False)
        m = _oracle_model(variant, g.n, beta=0.08)
        serial, split = serial_and_split(
            monkeypatch, workers, model=m, graph=g, init=0.5, t_max=40,
            n_reps=60, master_seed=3, marginals_at=(0, 2, 4, 6, 8, 12, 40))
        assert len(set(serial.absorbed_steps)) > 5
        assert_same_report(split, serial)

    @pytest.mark.parametrize("workers", [2, 3])
    def test_siv_runs_to_t_max(self, monkeypatch, workers):
        g = _oracle_graph(False)
        m = _oracle_model("siv-id", g.n, beta=0.05)
        serial, split = serial_and_split(
            monkeypatch, workers, model=m, graph=g, init="all-infected",
            t_max=50, n_reps=8, master_seed=6, marginals_at=(10, 50))
        assert serial.extinct_count == 8
        assert_same_report(split, serial)

    @pytest.mark.parametrize("workers", [2, 3])
    @pytest.mark.parametrize("block_rows", [1, 3])
    def test_row_blocks(self, monkeypatch, block_rows, workers):
        g = _oracle_graph(True)
        monkeypatch.setattr(monte_carlo, "_REP_BLOCK_DOUBLES",
                            block_rows * g.n)
        for variant in ("sis-nia", "sirs", "siv-vd"):
            m = _oracle_model(variant, g.n, beta=0.12)
            assert_same_report(*serial_and_split(
                monkeypatch, workers, model=m, graph=g, init=0.6, t_max=25,
                n_reps=8, master_seed=9, marginals_at=(1, 5, 25)))

    def test_more_workers_than_replicates(self, monkeypatch):
        g = _oracle_graph(False)
        m = _oracle_model("sirs", g.n)
        assert_same_report(*serial_and_split(
            monkeypatch, 3, model=m, graph=g, t_max=20, n_reps=2,
            master_seed=4, marginals_at=(5,)))

    def test_worker_error_propagates(self, monkeypatch):
        def fail(in_parent):
            if not in_parent:
                raise MonteCarloError("bad step in a worker")

        failing_sampler(monkeypatch, fail)
        force_split(monkeypatch, 3)
        g = _oracle_graph(False)
        with pytest.raises(MonteCarloError, match="^bad step in a worker$"):
            mc_ensemble(_oracle_model("sis-nia", g.n), g, t_max=10,
                        n_reps=6)

    def test_worker_that_dies_is_reported(self, monkeypatch):
        def fail(in_parent):
            if not in_parent:
                os._exit(3)

        failing_sampler(monkeypatch, fail)
        force_split(monkeypatch, 2)
        g = _oracle_graph(False)
        with pytest.raises(RuntimeError, match="exited with code 3"):
            mc_ensemble(_oracle_model("sis-nia", g.n), g, t_max=10,
                        n_reps=4)

    def test_parent_error_stops_the_workers(self, monkeypatch):
        """A failing parent share terminates the workers at once, instead
        of waiting for them to finish."""
        def fail(in_parent):
            if in_parent:
                raise MonteCarloError("bad step in the parent")
            if not slept:
                slept.append(True)
                time.sleep(20)

        slept = []

        failing_sampler(monkeypatch, fail)
        force_split(monkeypatch, 3)
        g = _oracle_graph(False)
        start = time.monotonic()
        with pytest.raises(MonteCarloError, match="in the parent"):
            mc_ensemble(_oracle_model("sis-nia", g.n), g, t_max=10,
                        n_reps=6)
        assert time.monotonic() - start < 15

    def test_failed_fork_raises_its_error(self, monkeypatch):
        def fork_fails():
            raise OSError(11, "Resource temporarily unavailable")

        force_split(monkeypatch, 3)
        monkeypatch.setattr(os, "fork", fork_fails)
        g = _oracle_graph(False)
        with pytest.raises(OSError, match="temporarily unavailable"):
            mc_ensemble(_oracle_model("sis-nia", g.n), g, t_max=10,
                        n_reps=6)

    def test_daemonic_caller_stays_serial(self, monkeypatch):
        """A multiprocessing.Pool worker may not have children, so its runs
        stay serial."""
        monkeypatch.setattr(monte_carlo, "_usable_cpus", lambda: [0])
        want = _pool_ensemble()
        force_split(monkeypatch, 2)
        pool = multiprocessing.get_context("fork").Pool(1)
        try:
            got = pool.apply(_pool_ensemble)
        finally:
            pool.close()
            pool.join()
        assert_same_report(got, want)

    @pytest.mark.parametrize("case", ["one-cpu", "below-threshold",
                                      "one-replicate", "not-linux"])
    def test_never_forks(self, monkeypatch, case):
        def no_fork():
            raise AssertionError("forked")

        g = generate("er", n=400, p=0.02, seed=1)
        m = ModelSpec("sis-ia", beta=0.3, delta=0.2)
        kw = dict(t_max=400, n_reps=8)
        monkeypatch.setattr(monte_carlo, "_FORK_MIN_WORK", 0)
        if case == "one-cpu":
            monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
        elif case == "below-threshold":
            monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
            monkeypatch.setattr(monte_carlo, "_FORK_MIN_WORK",
                                8 * g.n * 400)
        elif case == "one-replicate":
            kw["n_reps"] = 1
        else:
            monkeypatch.setattr(sys, "platform", "darwin")
        monkeypatch.setattr(os, "fork", no_fork)
        rep = mc_ensemble(m, g, **kw)
        assert rep.n_reps == kw["n_reps"]


# ---------------------------------------------------------------------------
# A beta grid stepped as one batch
# ---------------------------------------------------------------------------

GRID_VARIANTS = ("sis-nia", "sis-ia", "sis-general", "sirs", "siv-id",
                 "siv-vd")
# On the oracle graph (lambda_max about 4.8, delta 0.5) the first point
# dies out within a few steps and the last persists.
GRID_BETAS = (0.02, 0.1, 0.6)


def _grid_models(variant, n, betas=GRID_BETAS):
    """One model per grid point, differing only in beta; sis-general scales
    its contact matrix instead."""
    if variant == "sis-general":
        M = _oracle_model(variant, n).contact
        return [ModelSpec(variant, contact=M * (b / 0.4)) for b in betas]
    return [_oracle_model(variant, n, beta=b) for b in betas]


def assert_grid_matches(monkeypatch, workers, models, graph, master_seed,
                        **kw):
    """Every grid point's report equals mc_ensemble of its model alone under
    master_seed + idx, run serially; the grid runs serially (workers=1) or
    forced into that many shares. Returns the reports."""
    monkeypatch.setattr(monte_carlo, "_usable_cpus", lambda: [0])
    want = [mc_ensemble(m, graph, master_seed=master_seed + idx, **kw)
            for idx, m in enumerate(models)]
    if workers > 1:
        force_split(monkeypatch, workers)
    got = mc_grid(models, graph, master_seed=master_seed, **kw)
    assert len(got) == len(models)
    for rep, ref in zip(got, want):
        assert_same_report(rep, ref)
    return got


class TestGrid:
    @pytest.mark.parametrize("init", ["all-infected", 0.3, (0, 4, 9)])
    @pytest.mark.parametrize("weighted", [False, True])
    @pytest.mark.parametrize("variant", GRID_VARIANTS)
    def test_points_match_mc_ensemble(self, monkeypatch, variant, weighted,
                                      init):
        g = _oracle_graph(weighted)
        got = assert_grid_matches(
            monkeypatch, 1, _grid_models(variant, g.n), g, 11, init=init,
            t_max=30, n_reps=7, marginals_at=(0, 3, 12, 30))
        # Early extinction beside persistence: the first point has died
        # out before step 12, where the last one still has infected nodes.
        assert got[0].extinct_count == 7 and max(
            a for a in got[0].absorbed_steps) < 12
        assert got[-1].i_mean[12] > 0

    def test_one_point_is_mc_ensemble(self):
        g = _oracle_graph(False)
        m = _oracle_model("sirs", g.n, beta=0.1)
        kw = dict(init=0.5, t_max=20, n_reps=5, marginals_at=(3, 20))
        [got] = mc_grid([m], g, master_seed=4, **kw)
        assert_same_report(got, mc_ensemble(m, g, master_seed=4, **kw))

    @pytest.mark.parametrize("models", [
        [],
        [ModelSpec("sis-nia", beta=0.1, delta=0.5),
         ModelSpec("sis-nia", beta=0.2, delta=0.6)],
        [ModelSpec("sis-nia", beta=0.1, delta=0.5),
         ModelSpec("sis-ia", beta=0.1, delta=0.5)],
        [ModelSpec("siv-id", beta=0.1, delta=0.5, gamma=0.3, theta=0.2),
         ModelSpec("siv-id", beta=0.1, delta=0.5, gamma=0.3, theta=0.3)],
    ], ids=["empty", "delta", "variant", "theta"])
    def test_models_must_differ_only_in_beta(self, models):
        with pytest.raises(MonteCarloError):
            mc_grid(models, _oracle_graph(False), t_max=5, n_reps=2)

    def test_each_row_draws_its_own_steps(self, monkeypatch, tmp_path):
        """The grid draws exactly what its points draw alone: per key,
        replicate and step, once, also in forked workers."""
        log = tmp_path / "draws.txt"
        make = monte_carlo._philox

        def logging_philox(seed):
            fill = make(seed)

            def logged(out, t, rep, stream=0):
                with open(log, "a", encoding="utf-8") as fh:
                    fh.write(f"{seed} {stream} {rep} {t}\n")
                fill(out, t, rep, stream)
            return logged

        monkeypatch.setattr(monte_carlo, "_philox", logging_philox)
        g = _oracle_graph(False)
        kw = dict(init=0.5, t_max=30, n_reps=6, marginals_at=(2, 12))

        def draws():
            lines = sorted(log.read_text().splitlines())
            log.write_text("")
            return lines

        for variant in ("sis-nia", "sirs", "siv-id"):
            models = _grid_models(variant, g.n)
            monkeypatch.setattr(monte_carlo, "_usable_cpus", lambda: [0])
            log.write_text("")
            for idx, m in enumerate(models):
                mc_ensemble(m, g, master_seed=3 + idx, **kw)
            want = draws()
            mc_grid(models, g, master_seed=3, **kw)
            assert draws() == want
            if sys.platform.startswith("linux"):
                force_split(monkeypatch, 3)
                mc_grid(models, g, master_seed=3, **kw)
                assert draws() == want

    def test_escape_reads_each_rows_grid_point(self):
        """Rows of different grid points in one call get their own beta."""
        for weighted in (False, True):
            g = _oracle_graph(weighted)
            models = _grid_models("sis-nia", g.n)
            infected = np.random.default_rng(3).random((7, g.n)) < 0.4
            point = np.array([2, 0, 1, 1, 0, 2, 2])
            esc = monte_carlo._escape_function(models, g)(infected, point)
            for row, idx in enumerate(point):
                alone = monte_carlo._escape_function([models[idx]], g)(
                    infected[row:row + 1], point[:1] * 0)
                assert np.array_equal(_bits(esc[row]), _bits(alone[0]))


@pytest.mark.skipif(not sys.platform.startswith("linux"),
                    reason="runs split only on Linux")
class TestGridSplit:
    @pytest.mark.parametrize("workers", [2, 3])
    @pytest.mark.parametrize("init", ["all-infected", 0.3, (0, 4, 9)])
    @pytest.mark.parametrize("weighted", [False, True])
    @pytest.mark.parametrize("variant", GRID_VARIANTS)
    def test_points_match_mc_ensemble(self, monkeypatch, variant, weighted,
                                      init, workers):
        g = _oracle_graph(weighted)
        assert_grid_matches(
            monkeypatch, workers, _grid_models(variant, g.n), g, 11,
            init=init, t_max=30, n_reps=7, marginals_at=(0, 3, 12, 30))

    def test_more_workers_than_rows(self, monkeypatch):
        g = _oracle_graph(True)
        assert_grid_matches(monkeypatch, 5, _grid_models("sirs", g.n), g, 4,
                            init=0.6, t_max=20, n_reps=1, marginals_at=(5,))

    @pytest.mark.parametrize("block_rows", [1, 4])
    def test_row_blocks(self, monkeypatch, block_rows):
        g = _oracle_graph(False)
        monkeypatch.setattr(monte_carlo, "_REP_BLOCK_DOUBLES",
                            block_rows * g.n)
        for variant in ("sis-nia", "siv-vd"):
            assert_grid_matches(
                monkeypatch, 2, _grid_models(variant, g.n), g, 9, init=0.6,
                t_max=25, n_reps=5, marginals_at=(1, 5, 25))

    def test_sweep_splits_at_most_once(self, monkeypatch, tmp_path):
        """A sweep's grid is one run, so it forks at most once: once when
        the run splits, never when it does not."""
        from click.testing import CliRunner
        from epinet.cli import main

        splits = []
        split = monte_carlo._split

        def counted(core, R, cpus):
            splits.append(R)
            return split(core, R, cpus)

        monkeypatch.setattr(monte_carlo, "_split", counted)
        args = ["sweep", "--generate", "er:n=60,p=0.08,seed=2", "--variant",
                "sis-nia", "--delta", "0.6", "--beta-grid",
                "0.01:0.21:0.05", "--t", "60", "--reps", "4", "--seed", "3"]
        outputs = []
        for workers in (1, 2, 3):
            monkeypatch.setattr(monte_carlo, "_usable_cpus", lambda: [0])
            if workers > 1:
                force_split(monkeypatch, workers)
            out = tmp_path / f"sweep{workers}.csv"
            res = CliRunner().invoke(main, [*args, "-o", str(out)])
            assert res.exit_code == 0, res.output
            outputs.append(out.read_bytes())
        assert splits == [5 * 4, 5 * 4]
        assert outputs[0] == outputs[1] == outputs[2]
