"""Monte Carlo sampler: determinism, absorption, exact-chain agreement,
and the batched core against the per-replicate loop it replaced."""
from __future__ import annotations

import math
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
    ModelSpec,
    MonteCarloError,
    SimState,
    TrajectoryRecord,
    build_transition_matrix,
    ensemble_to_csv,
    extinction_time,
    generate,
    marginals,
    mc_ensemble,
    mc_run,
    mc_step,
    parse_ensemble_csv,
    propagate,
)
from epinet import monte_carlo
from epinet.model_core import _VARIANTS

from conftest import ALL_VARIANTS, random_connected_graph, random_model


class TestSimState:
    def test_digit_validation(self):
        st_bad = np.array([0, 3], dtype=np.int8)
        with pytest.raises(MonteCarloError):
            SimState(st_bad, t=0, rng_seed=0, replicate=0)

    def test_i_count(self):
        s = SimState(np.array([0, 1, 1, 2], dtype=np.int8), t=0, rng_seed=0,
                     replicate=0)
        assert s.i_count == 2


class TestDeterminism:
    def test_same_seed_bitwise_identical(self, rng):
        for variant in ALL_VARIANTS:
            g = random_connected_graph(rng, 12, weighted_prob=0.3)
            m = random_model(rng, variant, n=g.n)
            a = mc_run(m, g, t_max=40, seed=11, replicate=3)
            b = mc_run(m, g, t_max=40, seed=11, replicate=3)
            assert a.rows == b.rows
            assert a.absorbed_at == b.absorbed_at

    def test_different_replicates_decorrelated(self):
        g = generate("er", n=30, p=0.2, seed=4)
        m = ModelSpec("sis-nia", beta=0.3, delta=0.4)
        a = mc_run(m, g, t_max=30, seed=11, replicate=0)
        b = mc_run(m, g, t_max=30, seed=11, replicate=1)
        assert a.rows != b.rows

    def test_single_replicate_matches_mc_run(self):
        g = generate("er", n=15, p=0.3, seed=2)
        m = ModelSpec("sis-ia", beta=0.35, delta=0.45)
        rep = mc_ensemble(m, g, t_max=30, n_reps=1, master_seed=7)
        run = mc_run(m, g, t_max=30, seed=7, replicate=0)
        t_run = np.array([r[2] for r in run.rows])
        # ensemble extends absorbed SIS trajectories with zeros
        assert np.array_equal(rep.i_mean[: len(t_run)], t_run)
        assert np.all(rep.i_mean[len(t_run):] == 0)


class TestAbsorptionEdgeCases:
    def test_beta_zero_never_infects(self):
        g = generate("complete", n=6)
        m = ModelSpec("sis-nia", beta=0.0, delta=1.0)
        rec = mc_run(m, g, t_max=10, seed=0)
        assert rec.rows[0][2] == 6
        assert rec.rows[1][2] == 0
        assert rec.absorbed_at == 1
        assert extinction_time(m, g, seed=0) == 1

    def test_all_susceptible_is_absorbing(self):
        g = generate("complete", n=5)
        m = ModelSpec("sis-nia", beta=0.9, delta=0.1)
        rec = mc_run(m, g, init=(), t_max=20, seed=3)
        assert all(r[2] == 0 for r in rec.rows)
        assert all(r[1] == 5 for r in rec.rows)
        assert rec.absorbed_at == 0

    def test_saturated_edge_never_absorbs(self):
        # both rates 1 on a single edge with recovery annulled by reinfection
        g = generate("complete", n=2)
        m = ModelSpec("sis-nia", beta=1.0, delta=1.0)
        rec = mc_run(m, g, t_max=50, seed=1)
        assert all(r[2] == 2 for r in rec.rows)
        assert rec.absorbed_at is None

    def test_recovery_independent_two_step_extinction(self):
        # with independent recovery at delta = 1 both nodes recover at once
        g = generate("complete", n=2)
        m = ModelSpec("sis-ia", beta=1.0, delta=1.0)
        rec = mc_run(m, g, t_max=50, seed=1)
        assert rec.rows[0][2] == 2
        assert rec.rows[1][2] == 0
        assert rec.absorbed_at == 1

    def test_sis_rows_end_at_absorption_ensemble_extends(self):
        g = generate("path", n=4)
        m = ModelSpec("sis-nia", beta=0.1, delta=0.9)
        rec = mc_run(m, g, t_max=500, seed=5)
        assert rec.absorbed_at is not None
        assert rec.rows[-1][0] == rec.absorbed_at
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
        rec = mc_run(m, g, t_max=60, seed=2)
        assert rec.rows[-1][0] == 60  # no early exit: S<->R keeps moving
        assert rec.absorbed_at is not None

    def test_no_reinfection_after_siv_absorption(self):
        g = generate("complete", n=5)
        m = ModelSpec("siv-vd", beta=0.9, delta=0.8, gamma=0.5, theta=0.5)
        rec = mc_run(m, g, t_max=400, seed=6)
        if rec.absorbed_at is not None:
            post = [r for r in rec.rows if r[0] >= rec.absorbed_at]
            assert all(r[2] == 0 for r in post)


class TestInit:
    def test_fraction_init_deterministic(self):
        g = generate("er", n=40, p=0.2, seed=3)
        m = ModelSpec("sis-nia", beta=0.3, delta=0.4)
        a = mc_run(m, g, init=0.25, t_max=5, seed=9)
        b = mc_run(m, g, init=0.25, t_max=5, seed=9)
        assert a.rows == b.rows
        assert 0 < a.rows[0][2] < 40

    def test_explicit_nodes(self):
        g = generate("path", n=6)
        m = ModelSpec("sis-nia", beta=0.5, delta=0.5)
        rec = mc_run(m, g, init=(0, 3), t_max=3, seed=0)
        assert rec.rows[0][2] == 2

    def test_bad_inits(self):
        g = generate("path", n=4)
        m = ModelSpec("sis-nia", beta=0.5, delta=0.5)
        with pytest.raises(MonteCarloError):
            mc_run(m, g, init=(0, 9), t_max=3)
        with pytest.raises(MonteCarloError):
            mc_run(m, g, init=1.7, t_max=3)

    def test_t_max_validation(self):
        g = generate("path", n=4)
        m = ModelSpec("sis-nia", beta=0.5, delta=0.5)
        with pytest.raises(MonteCarloError):
            mc_run(m, g, t_max=0)


class TestStepInvariants:
    @given(st.integers(0, 10 ** 6), st.sampled_from(ALL_VARIANTS))
    @settings(max_examples=30, deadline=None)
    def test_counts_conserved_and_legal_moves(self, seed, variant):
        rng = np.random.default_rng(seed)
        g = random_connected_graph(rng, 10, weighted_prob=0.4)
        m = random_model(rng, variant, n=g.n)
        rec = mc_run(m, g, init=0.5, t_max=15, seed=seed)
        for t, s, i, r in rec.rows:
            assert s + i + r == g.n
            assert r == 0 or m.k == 3

    def test_mc_step_advances_one(self):
        g = generate("path", n=5)
        m = ModelSpec("sirs", beta=0.6, delta=0.2, gamma=0.3)
        s0 = SimState(np.ones(5, dtype=np.int8), t=0, rng_seed=4, replicate=0)
        s1 = mc_step(m, g, s0)
        assert s1.t == 1
        assert s1.states.shape == (5,)
        # infected nodes can only stay infected or move to recovered
        assert np.all(np.isin(s1.states, [1, 2]))

    def test_sis_infected_neighbors_only(self):
        # an isolated-by-distance susceptible node cannot become infected
        g = generate("path", n=5)
        m = ModelSpec("sis-nia", beta=1.0, delta=0.0)
        rec = mc_run(m, g, init=(0,), t_max=1, seed=0)
        # after one step only nodes 0 and 1 can be infected
        assert rec.rows[1][2] <= 2


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
        assert extinction_time(m, g, seed=0, cap=40) is None

    def test_below_threshold_distribution(self):
        g = generate("complete", n=8)
        m = ModelSpec("sis-nia", beta=0.5 * 0.9 / 7, delta=0.9)
        times = [extinction_time(m, g, seed=17, cap=2000, replicate=r)
                 for r in range(50)]
        assert all(t is not None for t in times)
        assert np.median(times) <= 12

    @staticmethod
    def _count_steps(monkeypatch) -> list[int]:
        """Count the replicate-steps every later run simulates."""
        steps = [0]
        sampler = monte_carlo._sampler

        def counting_sampler(model, graph):
            advance = sampler(model, graph)

            def counted(states, u):
                steps[0] += len(states)
                return advance(states, u)
            return counted

        monkeypatch.setattr(monte_carlo, "_sampler", counting_sampler)
        return steps

    @pytest.mark.parametrize("variant", ["siv-id", "siv-vd"])
    @pytest.mark.parametrize("rates, expected", [
        (dict(beta=0.05, delta=0.9, gamma=0.5, theta=0.5), 2),
        (dict(beta=0.3, delta=0.3, gamma=0.5, theta=0.2), 8),
    ])
    def test_siv_stops_at_extinction(self, monkeypatch, variant, rates,
                                     expected):
        # SIV trajectories run on past extinction, but extinction_time
        # simulates only up to the step it returns.
        g = generate("path", n=8)
        m = ModelSpec(variant, **rates)
        full = mc_run(m, g, t_max=expected + 20, seed=1)
        assert full.absorbed_at == expected
        steps = self._count_steps(monkeypatch)
        assert extinction_time(m, g, seed=1) == expected
        assert steps[0] == expected

    def test_siv_censored_runs_to_cap(self, monkeypatch):
        g = generate("path", n=8)
        m = ModelSpec("siv-vd", beta=0.3, delta=0.3, gamma=0.5, theta=0.2)
        steps = self._count_steps(monkeypatch)
        assert extinction_time(m, g, seed=1, cap=5) is None
        assert steps[0] == 5


class TestCsv:
    def test_trajectory_roundtrip(self):
        g = generate("er", n=10, p=0.3, seed=1)
        m = ModelSpec("sirs", beta=0.5, delta=0.3, gamma=0.4)
        rec = mc_run(m, g, t_max=20, seed=5)
        back = TrajectoryRecord.from_csv(rec.to_csv())
        assert back.rows == rec.rows
        assert back.absorbed_at == rec.absorbed_at

    def test_trajectory_rejects_bad_header(self):
        with pytest.raises(MonteCarloError):
            TrajectoryRecord.from_csv("time,s,i,r\n0,1,2,3\n")

    def test_ensemble_roundtrip(self):
        g = generate("er", n=10, p=0.3, seed=1)
        m = ModelSpec("siv-id", beta=0.4, delta=0.3, gamma=0.4, theta=0.2)
        rep = mc_ensemble(m, g, t_max=15, n_reps=8, master_seed=2)
        cols = parse_ensemble_csv(ensemble_to_csv(rep))
        assert np.array_equal(cols["t"], rep.t)
        assert np.allclose(cols["i"], rep.i_mean, equal_nan=True)
        assert np.allclose(cols["s"], rep.s_mean, equal_nan=True)
        assert np.allclose(cols["r"], rep.r_mean, equal_nan=True)


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
    """One replicate at a time, as mc_run/mc_ensemble ran it before the
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
            got = mc_run(m, g, init=0.4, t_max=30, seed=21, replicate=rep)
            assert got.rows == rows
            assert got.absorbed_at == ab
            assert extinction_time(m, g, init=0.4, seed=21, cap=30,
                                   replicate=rep) == ab

    def test_replicates_stop_at_their_last_step(self, monkeypatch):
        """Each replicate draws the steps the per-replicate loop simulated
        and none after its trajectory ends."""
        draws = []
        make = monte_carlo._philox

        def counting(seed):
            fill = make(seed)

            def counted(out, t, rep, stream=0):
                if stream == 0:
                    draws.append((rep, t))
                fill(out, t, rep, stream)
            return counted

        monkeypatch.setattr(monte_carlo, "_philox", counting)
        g = _oracle_graph(False)
        snaps = (2, 6, 12)
        for variant in ("sis-nia", "sirs", "siv-id"):
            m = _oracle_model(variant, g.n, beta=0.08)
            draws.clear()
            mc_ensemble(m, g, init=0.5, t_max=30, n_reps=20, master_seed=3,
                        marginals_at=snaps)
            want = [(rep, t) for rep in range(20) for t in range(
                reference_simulate(m, g, 0.5, 30, 3, rep, snaps)[3])]
            assert sorted(draws) == want

    def test_mc_step_matches_reference(self):
        g = _oracle_graph(True)
        for variant in ALL_VARIANTS:
            m = _oracle_model(variant, g.n)
            states = np.random.default_rng(4).integers(0, m.k, g.n)
            got = mc_step(m, g, SimState(states, t=7, rng_seed=12,
                                         replicate=5))
            ref = _reference_sampler(m, g)(states.astype(np.int8), 7, 12, 5)
            assert np.array_equal(got.states, ref)


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
