"""Exact Markov chain: transition law, stationarity, mixing, order, bounds."""
from __future__ import annotations

import itertools
import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings, strategies as st

import epinet
import epinet.exact_chain as exact_chain
from epinet import (
    ChainState,
    DistVector,
    ExactChainError,
    LPInfeasibleError,
    MarginalVector,
    ModelError,
    ModelSpec,
    StateSpaceCapError,
    build_R_pair,
    build_transition_matrix,
    check_order_preservation,
    check_u_bound,
    closed_form_marginal_bound,
    contact_from_rates,
    generate,
    lp_marginal_max,
    marginals,
    mixing_time_bound,
    mixing_time_exact,
    node_transition_prob,
    non_absorption_check,
    propagate,
    states_table,
    stationary,
    tv_distance,
    u_vector,
)

from conftest import ALL_VARIANTS, random_connected_graph, random_model


# ---------------------------------------------------------------------------
# State encoding
# ---------------------------------------------------------------------------

class TestStates:
    def test_states_table_base2(self):
        D = states_table(3, 2)
        assert D.shape == (8, 3)
        assert D[5].tolist() == [1, 0, 1]  # node 0 is the least-significant digit

    def test_states_table_base3(self):
        D = states_table(2, 3)
        assert D.shape == (9, 2)
        assert D[7].tolist() == [1, 2]

    def test_chain_state_roundtrip(self):
        s = ChainState.from_digits([1, 0, 2], k=3)
        assert s.code == 1 + 2 * 9
        assert s.digits.tolist() == [1, 0, 2]
        assert s.support == (0,)

    def test_complement(self):
        s = ChainState.from_digits([1, 0, 1])
        assert s.complement.digits.tolist() == [0, 1, 0]
        with pytest.raises(ExactChainError):
            _ = ChainState(0, 2, k=3).complement

    def test_code_range(self):
        with pytest.raises(ExactChainError):
            ChainState(8, 3, 2)
        with pytest.raises(ExactChainError):
            ChainState.from_digits([2, 0], k=2)


class TestDistVector:
    def test_validation(self):
        with pytest.raises(ExactChainError):
            DistVector(np.array([0.5, 0.6]))
        with pytest.raises(ExactChainError):
            DistVector(np.array([1.5, -0.5]))

    def test_point_mass_uniform(self):
        p = DistVector.point_mass(2, 4)
        assert p.entries.tolist() == [0, 0, 1, 0]
        u = DistVector.uniform(5)
        assert np.allclose(u.entries, 0.2)


# ---------------------------------------------------------------------------
# Per-node transition law (hand-computed table values)
# ---------------------------------------------------------------------------

class TestNodeTransition:
    def test_sis_nia_both_infected_k2(self):
        g = generate("complete", n=2)
        m = ModelSpec("sis-nia", beta=0.9, delta=0.9)
        X = ChainState.from_digits([1, 1])
        # infected with an infected neighbor: stays with 1 - delta*(1-beta)
        assert node_transition_prob(m, g, X, 0, 1) == pytest.approx(
            1.0 - 0.9 * 0.1
        )

    def test_sis_nia_full_rates(self):
        g = generate("complete", n=2)
        m = ModelSpec("sis-nia", beta=1.0, delta=1.0)
        X = ChainState.from_digits([1, 1])
        # escape probability 0, so recovery is always annulled
        assert node_transition_prob(m, g, X, 0, 1) == 1.0

    def test_sis_ia_recovery_independent(self):
        g = generate("complete", n=2)
        m = ModelSpec("sis-ia", beta=0.9, delta=0.9)
        X = ChainState.from_digits([1, 1])
        assert node_transition_prob(m, g, X, 0, 0) == pytest.approx(0.9)

    def test_susceptible_row_shared_sis(self):
        g = generate("star", n=4)
        X = ChainState.from_digits([0, 1, 1, 0])
        for variant in ("sis-nia", "sis-ia"):
            m = ModelSpec(variant, beta=0.4, delta=0.7)
            # hub has 2 infected neighbors: escape (1-0.4)^2
            assert node_transition_prob(m, g, X, 0, 1) == pytest.approx(
                1.0 - 0.36
            )
            # leaf 3 has only the susceptible hub as neighbor
            assert node_transition_prob(m, g, X, 3, 1) == 0.0

    def test_weighted_escape(self):
        from epinet import Graph

        g = Graph(2, ((0, 1),), (0.5,))
        m = ModelSpec("sis-nia", beta=0.8, delta=0.3)
        X = ChainState.from_digits([0, 1])
        assert node_transition_prob(m, g, X, 0, 1) == pytest.approx(0.4)

    def test_sirs_rows(self):
        g = generate("path", n=3)
        m = ModelSpec("sirs", beta=0.5, delta=0.3, gamma=0.6)
        X = ChainState.from_digits([0, 1, 2], k=3)
        esc = 0.5  # node 0 sees one infected neighbor
        assert node_transition_prob(m, g, X, 0, 0) == pytest.approx(esc)
        assert node_transition_prob(m, g, X, 0, 1) == pytest.approx(1 - esc)
        assert node_transition_prob(m, g, X, 0, 2) == 0.0
        assert node_transition_prob(m, g, X, 1, 1) == pytest.approx(0.7)
        assert node_transition_prob(m, g, X, 1, 2) == pytest.approx(0.3)
        assert node_transition_prob(m, g, X, 2, 0) == pytest.approx(0.6)
        assert node_transition_prob(m, g, X, 2, 1) == 0.0

    def test_siv_id_susceptible_row(self):
        g = generate("path", n=2)
        m = ModelSpec("siv-id", beta=0.5, delta=0.3, gamma=0.6, theta=0.2)
        X = ChainState.from_digits([0, 1], k=3)
        esc = 0.5
        assert node_transition_prob(m, g, X, 0, 0) == pytest.approx(esc * 0.8)
        assert node_transition_prob(m, g, X, 0, 1) == pytest.approx(1 - esc)
        assert node_transition_prob(m, g, X, 0, 2) == pytest.approx(esc * 0.2)

    def test_siv_vd_susceptible_row(self):
        g = generate("path", n=2)
        m = ModelSpec("siv-vd", beta=0.5, delta=0.3, gamma=0.6, theta=0.2)
        X = ChainState.from_digits([0, 1], k=3)
        esc = 0.5
        assert node_transition_prob(m, g, X, 0, 0) == pytest.approx(esc * 0.8)
        assert node_transition_prob(m, g, X, 0, 1) == pytest.approx(
            (1 - esc) * 0.8
        )
        assert node_transition_prob(m, g, X, 0, 2) == pytest.approx(0.2)

    def test_sis_general_self_entry(self):
        g = generate("path", n=2)
        M = np.array([[0.6, 0.3], [0.3, 0.6]])
        m = ModelSpec("sis-general", contact=M)
        X = ChainState.from_digits([1, 0])
        # infected node 0: product over infected set {0} includes m_00
        assert node_transition_prob(m, g, X, 0, 1) == pytest.approx(0.6)
        assert node_transition_prob(m, g, X, 1, 1) == pytest.approx(0.3)

    def test_rows_normalized_all_variants(self, rng):
        for variant in ALL_VARIANTS:
            g = random_connected_graph(rng, 5)
            m = random_model(rng, variant, n=g.n)
            k = m.k
            for code in rng.integers(0, k ** g.n, size=4):
                X = ChainState(int(code), g.n, k)
                for i in range(g.n):
                    total = sum(
                        node_transition_prob(m, g, X, i, y) for y in range(k)
                    )
                    assert total == pytest.approx(1.0, abs=1e-12)


# ---------------------------------------------------------------------------
# Full transition matrix
# ---------------------------------------------------------------------------

class TestTransitionMatrix:
    def test_carries_model_and_graph(self, path3):
        m = ModelSpec("sirs", beta=0.2, delta=0.5, gamma=0.5)
        S = build_transition_matrix(m, path3)
        assert S.model is m and S.graph is path3
        assert (S.k, S.n, S.size) == (3, 3, 27)

    def test_rows_sum_to_one(self, rng):
        for variant in ALL_VARIANTS:
            g = random_connected_graph(rng, 4)
            m = random_model(rng, variant, n=g.n)
            S = build_transition_matrix(m, g)
            assert np.abs(S.entries.sum(axis=1) - 1.0).max() < 1e-12
            assert S.entries.min() >= 0.0

    def test_matches_scalar_reference(self, rng):
        """Vectorized builder vs. products of per-node scalar probabilities."""
        for variant in ALL_VARIANTS:
            g = random_connected_graph(rng, 3, weighted_prob=0.5)
            m = random_model(rng, variant, n=g.n)
            S = build_transition_matrix(m, g)
            k = m.k
            K = k ** g.n
            D = states_table(g.n, k)
            for X in range(K):
                for Y in rng.integers(0, K, size=6):
                    ref = 1.0
                    for i in range(g.n):
                        ref *= node_transition_prob(m, g, X, i, int(D[Y, i]))
                    assert S.entries[X, Y] == pytest.approx(ref, abs=1e-13)

    def test_general_reproduces_nia(self, rng):
        """Contact matrix beta*A + (1-delta)I gives the identical chain."""
        for _ in range(5):
            g = random_connected_graph(rng, 5, weighted_prob=0.5)
            beta = float(rng.uniform(0.05, 0.95))
            delta = float(rng.uniform(0.05, 0.95))
            S_nia = build_transition_matrix(
                ModelSpec("sis-nia", beta=beta, delta=delta), g
            )
            S_gen = build_transition_matrix(
                ModelSpec("sis-general",
                          contact=contact_from_rates(g, beta, delta)), g
            )
            assert np.abs(S_nia.entries - S_gen.entries).max() < 1e-12

    def test_state_space_cap(self):
        g = generate("path", n=17)
        m = ModelSpec("sirs", beta=0.1, delta=0.2, gamma=0.3)
        with pytest.raises(StateSpaceCapError):
            build_transition_matrix(m, g)

    def test_sparse_structure_sirs_path8(self):
        g = generate("path", n=8)
        m = ModelSpec("sirs", beta=0.05, delta=0.6, gamma=0.9)
        S = build_transition_matrix(m, g).entries
        assert isinstance(S, sp.csr_array)
        assert S.nnz == 904849
        assert S.has_sorted_indices
        assert np.count_nonzero(S.data) == S.nnz  # no explicit zeros
        assert np.abs(S.sum(axis=1) - 1.0).max() < 1e-12
        # Sized as the dense array was: stored entries and bytes held.
        assert np.count_nonzero(S) == S.nnz
        assert S.nbytes == S.data.nbytes + S.indices.nbytes + S.indptr.nbytes

    def test_build_peak_memory_sirs_path8(self):
        # A dense 3^8 x 3^8 matrix alone is 344 MB.
        g = generate("path", n=8)
        m = ModelSpec("sirs", beta=0.05, delta=0.6, gamma=0.9)
        tracemalloc.start()
        try:
            build_transition_matrix(m, g)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 64 * 2 ** 20

    def test_memory_budget(self, monkeypatch, path3):
        m = ModelSpec("sirs", beta=0.3, delta=0.5, gamma=0.2)
        need = exact_chain._BUILD_BYTES_PER_NNZ \
            * build_transition_matrix(m, path3).entries.nnz
        monkeypatch.setattr(exact_chain, "MEMORY_BUDGET_BYTES", need - 1)
        with pytest.raises(StateSpaceCapError, match="memory budget"):
            build_transition_matrix(m, path3)
        monkeypatch.setattr(exact_chain, "MEMORY_BUDGET_BYTES", need)
        build_transition_matrix(m, path3)

    def test_state_cap_checked_before_memory(self, monkeypatch):
        monkeypatch.setattr(exact_chain, "MEMORY_BUDGET_BYTES", 0)
        g = generate("path", n=17)
        m = ModelSpec("sirs", beta=0.1, delta=0.2, gamma=0.3)
        with pytest.raises(StateSpaceCapError, match="exceeds cap"):
            build_transition_matrix(m, g)


# ---------------------------------------------------------------------------
# Propagation and marginals
# ---------------------------------------------------------------------------

class TestPropagate:
    def test_zero_steps_identity(self, path3):
        m = ModelSpec("sis-nia", beta=0.4, delta=0.6)
        S = build_transition_matrix(m, path3)
        mu = DistVector.uniform(8)
        assert np.array_equal(propagate(mu, S, 0).entries, mu.entries)

    def test_absorbing_state_fixed(self, path3):
        m = ModelSpec("sis-ia", beta=0.7, delta=0.2)
        S = build_transition_matrix(m, path3)
        mu = propagate(DistVector.point_mass(0, 8), S, 25)
        assert mu.entries[0] == pytest.approx(1.0)

    def test_marginals_brute_force(self, rng):
        g = random_connected_graph(rng, 3)
        m = random_model(rng, "siv-vd", n=g.n)
        S = build_transition_matrix(m, g)
        mu = propagate(DistVector.uniform(3 ** g.n), S, 3)
        mv = marginals(mu, m)
        D = states_table(g.n, 3)
        for i in range(g.n):
            pi_ref = mu.entries[D[:, i] == 1].sum()
            pr_ref = mu.entries[D[:, i] == 2].sum()
            assert mv.p_i[i] == pytest.approx(pi_ref, abs=1e-12)
            assert mv.p_r[i] == pytest.approx(pr_ref, abs=1e-12)

    @given(st.integers(0, 10 ** 6), st.integers(0, 6))
    @settings(max_examples=20, deadline=None)
    def test_propagate_keeps_normalization(self, seed, t):
        rng = np.random.default_rng(seed)
        g = random_connected_graph(rng, 4)
        m = random_model(rng, "sis-nia", n=g.n)
        S = build_transition_matrix(m, g)
        raw = rng.random(2 ** g.n)
        mu = DistVector(raw / raw.sum())
        out = propagate(mu, S, t)
        assert out.entries.sum() == pytest.approx(1.0, abs=1e-12)
        assert out.entries.min() >= 0.0


class TestTV:
    def test_values(self):
        a = DistVector(np.array([1.0, 0.0]))
        b = DistVector(np.array([0.0, 1.0]))
        assert tv_distance(a, b) == 1.0
        assert tv_distance(a, a) == 0.0

    @given(st.integers(0, 10 ** 6))
    @settings(max_examples=25, deadline=None)
    def test_metric_properties(self, seed):
        rng = np.random.default_rng(seed)
        dists = []
        for _ in range(3):
            raw = rng.random(16)
            dists.append(DistVector(raw / raw.sum()))
        a, b, c = dists
        assert tv_distance(a, b) == pytest.approx(tv_distance(b, a))
        assert tv_distance(a, c) <= tv_distance(a, b) + tv_distance(b, c) + 1e-12
        assert 0.0 <= tv_distance(a, b) <= 1.0


# ---------------------------------------------------------------------------
# Stationary distributions
# ---------------------------------------------------------------------------

class TestStationary:
    def test_sis_point_mass(self, path3):
        m = ModelSpec("sis-nia", beta=0.5, delta=0.5)
        pi = stationary(build_transition_matrix(m, path3))
        assert pi.entries[0] == 1.0

    def test_sirs_point_mass(self, path3):
        m = ModelSpec("sirs", beta=0.5, delta=0.5, gamma=0.5)
        pi = stationary(build_transition_matrix(m, path3))
        assert pi.entries[0] == 1.0

    @pytest.mark.parametrize("variant", ["siv-id", "siv-vd"])
    def test_siv_product_form(self, variant, rng):
        for n in (2, 3, 4):
            g = random_connected_graph(rng, n, n_min=n)
            m = random_model(rng, variant, n=n)
            S = build_transition_matrix(m, g)
            pi = stationary(S)
            defect = np.abs(pi.entries @ S.entries - pi.entries).max()
            assert defect <= 1e-10
            # product-form marginals
            ps = m.gamma / (m.gamma + m.theta)
            mv = marginals(pi, m)
            assert np.allclose(mv.p_i, 0.0, atol=1e-14)
            assert np.allclose(mv.p_r, 1.0 - ps, atol=1e-12)


# ---------------------------------------------------------------------------
# Mixing times
# ---------------------------------------------------------------------------

class TestMixing:
    def test_bound_formula_k2(self):
        g = generate("path", n=3)  # lambda_max = sqrt(2)
        m = ModelSpec("sis-nia", beta=0.1, delta=0.9)
        norm = 0.1 + 0.1 * math.sqrt(2.0)
        expected = math.log(3 / 0.25) / (-math.log(norm))
        assert mixing_time_bound(m, g, 0.25) == pytest.approx(expected)

    def test_bound_above_threshold_infinite(self):
        g = generate("complete", n=4)
        m = ModelSpec("sis-nia", beta=0.9, delta=0.3)
        assert mixing_time_bound(m, g, 0.25) == math.inf

    def test_bound_numerator_doubles_for_k3(self):
        g = generate("path", n=3)
        m2 = ModelSpec("sis-nia", beta=0.05, delta=0.9)
        m3 = ModelSpec("siv-id", beta=0.05, delta=0.9, gamma=0.5, theta=0.5)
        b2 = mixing_time_bound(m2, g, 0.25)
        b3 = mixing_time_bound(m3, g, 0.25)
        # identical contraction norm, doubled numerator
        norm = 0.1 + 0.05 * math.sqrt(2.0)
        assert b2 == pytest.approx(math.log(3 / 0.25) / (-math.log(norm)))
        assert b3 == pytest.approx(math.log(6 / 0.25) / (-math.log(norm)))

    def test_epsilon_validation(self, path3):
        m = ModelSpec("sis-nia", beta=0.1, delta=0.9)
        with pytest.raises(ExactChainError):
            mixing_time_bound(m, path3, 0.0)
        with pytest.raises(ExactChainError):
            mixing_time_bound(m, path3, 1.0)

    def test_exact_within_bound_path3(self, path3):
        m = ModelSpec("sis-nia", beta=0.1, delta=0.9)
        S = build_transition_matrix(m, path3)
        rep = mixing_time_exact(S, stationary(S), 0.25)
        assert rep.t_mix == 2
        assert rep.t_mix <= math.ceil(rep.bound)
        assert not rep.censored
        # worst initial is the all-infected state for the order-preserving
        # variant
        assert rep.worst_initial.code == 7

    def test_censored_above_threshold(self):
        g = generate("complete", n=3)
        m = ModelSpec("sis-nia", beta=0.9, delta=0.2)
        S = build_transition_matrix(m, g)
        rep = mixing_time_exact(S, stationary(S), 0.25, cap=30)
        assert rep.censored and rep.t_mix is None

    def test_exact_sirs_nonpoint_path(self, rng):
        # SIV stationary distribution is not a point mass, exercising the
        # full-matrix branch.
        g = generate("path", n=2)
        m = ModelSpec("siv-id", beta=0.1, delta=0.9, gamma=0.5, theta=0.5)
        S = build_transition_matrix(m, g)
        pi = stationary(S)
        rep = mixing_time_exact(S, pi, 0.25)
        assert rep.t_mix is not None
        assert rep.t_mix <= math.ceil(rep.bound)
        # cross-check the reported t by direct propagation from every state
        for code in range(9):
            mu = propagate(DistVector.point_mass(code, 9), S, rep.t_mix)
            assert tv_distance(mu, pi) <= 0.25 + 1e-12

    @pytest.mark.parametrize("variant, rates", [
        ("sirs", dict(beta=0.56, delta=0.24, gamma=0.62)),  # point-mass pi
        ("siv-vd", dict(beta=0.54, delta=0.79, gamma=0.48, theta=0.25)),
    ])
    def test_worst_initial_tie_rule(self, variant, rates):
        # On the triangle the states with one node in a given compartment
        # tie exactly; the smallest code among the tied states is reported.
        g = generate("complete", n=3)
        m = ModelSpec(variant, **rates)
        S = build_transition_matrix(m, g)
        pi = stationary(S)
        rep = mixing_time_exact(S, pi, 0.25)
        M = S.entries.toarray()
        power = np.eye(len(M))
        tvs = []
        for _ in range(rep.t_mix):
            power = power @ M
            tvs.append(0.5 * np.abs(power - pi.entries).sum(axis=1))
        assert tvs[-1].max() <= 0.25 < tvs[-2].max()
        tied = np.flatnonzero(tvs[-1] >= tvs[-1].max() - 1e-12)
        assert len(tied) == 3
        assert rep.worst_initial.code == tied[0]

    @staticmethod
    def reference_dense_scan(S, pi, epsilon, cap):
        """The dense mixing scan as it ran when its powers of S started
        from the identity."""
        M = S.entries.toarray()
        bound = mixing_time_bound(S.model, S.graph, epsilon)
        Dmat = np.eye(len(M))
        for t in range(1, cap + 1):
            Dmat = Dmat @ M
            dev = Dmat - pi.entries[None, :]
            tv = 0.5 * np.abs(dev, out=dev).sum(axis=1)
            top = tv.max()
            if top <= epsilon:
                return exact_chain.MixingReport(
                    t, epsilon, bound, exact_chain._worst_state(tv, top, S))
        return exact_chain.MixingReport(
            None, epsilon, bound, exact_chain._worst_state(tv, tv.max(), S),
            censored=True)

    @pytest.mark.parametrize("variant, rates", [
        ("siv-id", dict(beta=0.3, delta=0.6, gamma=0.4, theta=0.3)),
        ("siv-vd", dict(beta=0.54, delta=0.79, gamma=0.48, theta=0.25)),
    ])
    def test_dense_scan_matches_identity_start(self, variant, rates):
        """Starting the dense scan from S itself gives the report of the
        scan that started from the identity: at t = 1 (a loose epsilon),
        later, and censored at the cap."""
        g = generate("path", n=4)
        S = build_transition_matrix(ModelSpec(variant, **rates), g)
        pi = stationary(S)
        assert pi.entries.max() < 1.0  # the dense branch
        runs = [(0.99, 100), (0.25, 100), (1e-6, 3)]
        reports = [mixing_time_exact(S, pi, eps, cap=cap)
                   for eps, cap in runs]
        assert reports[0].t_mix == 1
        assert reports[1].t_mix > 1
        assert reports[2].censored
        for (eps, cap), rep in zip(runs, reports):
            assert rep == self.reference_dense_scan(S, pi, eps, cap)

    def test_cap_below_one_point_mass(self):
        g = generate("path", n=2)
        m = ModelSpec("sis-nia", beta=0.3, delta=0.5)
        S = build_transition_matrix(m, g)
        pi = stationary(S)
        with pytest.raises(ExactChainError, match="cap must be >= 1"):
            mixing_time_exact(S, pi, 0.25, cap=0)

    def test_cap_below_one_dense(self):
        g = generate("path", n=2)
        m = ModelSpec("siv-id", beta=0.3, delta=0.5, gamma=0.4, theta=0.3)
        S = build_transition_matrix(m, g)
        pi = stationary(S)
        assert pi.entries.max() < 1.0  # the non-point-mass branch
        with pytest.raises(ExactChainError, match="cap must be >= 1"):
            mixing_time_exact(S, pi, 0.25, cap=0)

    def test_nonpoint_mixing_memory_budget(self, monkeypatch, path3):
        siv = ModelSpec("siv-id", beta=0.1, delta=0.9, gamma=0.5, theta=0.5)
        sirs = ModelSpec("sirs", beta=0.1, delta=0.9, gamma=0.5)
        S_siv = build_transition_matrix(siv, path3)
        S_sirs = build_transition_matrix(sirs, path3)
        monkeypatch.setattr(exact_chain, "MEMORY_BUDGET_BYTES",
                            3 * 27 * 27 * 8 - 1)
        with pytest.raises(StateSpaceCapError, match="memory budget"):
            mixing_time_exact(S_siv, stationary(S_siv), 0.25)
        # The point-mass scan holds no dense K x K array.
        rep = mixing_time_exact(S_sirs, DistVector.point_mass(0, 27), 0.25)
        assert rep.t_mix is not None


# ---------------------------------------------------------------------------
# Stochastic order machinery
# ---------------------------------------------------------------------------

class TestOrder:
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
    def test_R_inverse_exact(self, n):
        R, R_inv = build_R_pair(n)
        K = 2 ** n
        prod = R @ R_inv
        assert np.array_equal(prod, np.eye(K))
        prod2 = R_inv @ R
        assert np.array_equal(prod2, np.eye(K))

    def test_R_definition(self):
        R, _ = build_R_pair(2)
        # R[X, Y] = 1 iff support(X) subset of support(Y)
        expected = np.array([
            [1, 1, 1, 1],
            [0, 1, 0, 1],
            [0, 0, 1, 1],
            [0, 0, 0, 1],
        ])
        assert np.array_equal(R, expected)

    def test_order_preserving_variants(self, rng):
        for variant in ("sis-nia", "sis-general"):
            for _ in range(3):
                g = random_connected_graph(rng, 4, weighted_prob=0.3)
                m = random_model(rng, variant, n=g.n)
                S = build_transition_matrix(m, g)
                rep = check_order_preservation(S, n_pairs=10, t_max=10,
                                               seed=3)
                assert rep.min_entry >= -1e-12
                assert rep.pair_min >= -1e-12
                assert rep.identity_defect <= 1e-12

    def test_sis_ia_not_order_preserving(self):
        # Frozen counterexample: recovery-independent SIS on an edge with
        # beta = delta = 0.9 has a conjugated entry near -0.8.
        g = generate("complete", n=2)
        m = ModelSpec("sis-ia", beta=0.9, delta=0.9)
        S = build_transition_matrix(m, g)
        rep = check_order_preservation(S, n_pairs=0)
        assert rep.min_entry == pytest.approx(-0.8, abs=1e-12)
        assert math.isnan(rep.identity_defect)

    def test_rejects_k3(self, path3):
        m = ModelSpec("sirs", beta=0.3, delta=0.4, gamma=0.5)
        S = build_transition_matrix(m, path3)
        with pytest.raises(ExactChainError):
            check_order_preservation(S)


class TestUBound:
    def test_endpoints(self):
        n = 3
        assert np.array_equal(u_vector(np.zeros(n)), np.ones(2 ** n))
        e0 = np.zeros(2 ** n)
        e0[0] = 1.0
        assert np.array_equal(u_vector(np.ones(n)), e0)

    def test_range_validation(self):
        with pytest.raises(ExactChainError):
            u_vector(np.array([0.5, 1.2]))

    @given(st.integers(0, 10 ** 6))
    @settings(max_examples=25, deadline=None)
    def test_monotone_in_r(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 6))
        r = rng.random(n)
        bump = rng.random(n) * (1.0 - r)
        assert np.all(u_vector(r) >= u_vector(r + bump) - 1e-12)

    def test_domination_random(self, rng):
        for _ in range(10):
            g = random_connected_graph(rng, 5, weighted_prob=0.3)
            m = random_model(rng, "sis-nia", n=g.n)
            S = build_transition_matrix(m, g)
            r = rng.random(g.n)
            assert check_u_bound(S, r) >= -1e-12

    def test_requires_sis_nia(self, path3):
        m = ModelSpec("sis-ia", beta=0.5, delta=0.5)
        S = build_transition_matrix(m, path3)
        with pytest.raises(ExactChainError):
            check_u_bound(S, np.full(3, 0.5))


# ---------------------------------------------------------------------------
# LP marginal bound
# ---------------------------------------------------------------------------

def _enumerate_bases_max(c, A_eq, b_eq):
    """Reference LP solver: max c.x s.t. A_eq x = b_eq, x >= 0, by trying
    every basis.

    Every subset of m columns (m = rows of A_eq) with a nonsingular square
    matrix is solved, and solutions above -1e-10 everywhere are basic
    feasible. The feasible region is a polytope, so the optimum is attained
    at one of them. Returns None when none is feasible, which for a
    full-row-rank A_eq means the LP is infeasible. C(K, m) solves: only
    k=2 with n <= 4 and k=3 with n <= 3 are in reach.
    """
    m, K = A_eq.shape
    best = -math.inf
    combos = itertools.combinations(range(K), m)
    while True:
        block = list(itertools.islice(combos, 20000))
        if not block:
            return None if best == -math.inf else best
        idx = np.asarray(block, dtype=np.int64)
        mats = A_eq.T[idx, :].transpose(0, 2, 1)
        ok = np.abs(np.linalg.det(mats)) > 0.5  # 0/1 matrices: |det| >= 1
        if not ok.any():
            continue
        rhs = np.broadcast_to(b_eq[:, None], (int(ok.sum()), m, 1))
        sols = np.linalg.solve(mats[ok], rhs)[..., 0]
        nonneg = (sols >= -1e-10).all(axis=1)
        if nonneg.any():
            vals = (c[idx[ok]] * sols).sum(axis=1)[nonneg]
            best = max(best, float(vals.max()))


def _lp_problem(m, g, i, p):
    """(c, A_eq, b_eq) of node i's marginal LP, with c read from the rows
    of the built chain S rather than from the LP's own objective code."""
    k = m.k
    D = states_table(g.n, k)
    c = build_transition_matrix(m, g).entries @ (D[:, i] == 1).astype(float)
    A_eq = exact_chain._marginal_constraint_matrix(g.n, k).T
    b_eq = np.concatenate(([1.0], p.p_i) if k == 2 else ([1.0], p.p_r, p.p_i))
    return c, A_eq, b_eq


def _oracle_max(m, g, i, p):
    return _enumerate_bases_max(*_lp_problem(m, g, i, p))


def _marginal_families(rng, n, k):
    """verify's two lp families: total mass below 1 (the closed form is
    attained) and unrestricted marginals."""
    small = rng.uniform(0.0, 1.0, (k - 1) * n)
    small *= rng.uniform(0.2, 0.95) / small.sum()
    if k == 2:
        return (MarginalVector(small), MarginalVector(rng.uniform(0, 1, n)))
    pi_ = rng.uniform(0.0, 1.0, n)
    pr_ = rng.uniform(0.0, 1.0, n) * (1.0 - pi_)
    return (MarginalVector(small[:n], small[n:]), MarginalVector(pi_, pr_))


class TestLP:
    def test_equality_on_small_marginals(self, rng):
        """For marginals with sum <= 1 the closed form is attained exactly."""
        g = random_connected_graph(rng, 3)
        m = random_model(rng, "sis-nia", n=g.n)
        raw = rng.random(g.n)
        p = MarginalVector(raw / (raw.sum() * 1.5))
        rep = lp_marginal_max(m, g, 0, p)
        assert rep.lp_max == pytest.approx(rep.closed_form, abs=1e-6)

    def test_bound_holds_general_marginals(self, rng):
        for variant in ALL_VARIANTS:
            g = random_connected_graph(rng, 3)
            m = random_model(rng, variant, n=g.n)
            if m.k == 2:
                p = MarginalVector(rng.random(g.n))
            else:
                pi_ = rng.random(g.n) * 0.5
                pr_ = rng.random(g.n) * 0.5
                p = MarginalVector(pi_, pr_)
            i = int(rng.integers(g.n))
            rep = lp_marginal_max(m, g, i, p)
            assert rep.lp_max <= rep.closed_form + 1e-9
            assert abs(rep.lp_max - _oracle_max(m, g, i, p)) <= 1e-12

    @pytest.mark.parametrize("variant", ALL_VARIANTS)
    def test_enumerator_agreement(self, rng, variant):
        """The simplex optimum equals the basis enumerator's on every size
        the enumerator reaches, weighted and not, on both verify families."""
        k = exact_chain._VARIANTS[variant].k
        for n in range(2, (4 if k == 2 else 3) + 1):
            for weighted in (0.0, 1.0):
                g = random_connected_graph(rng, n, n_min=n,
                                           weighted_prob=weighted)
                m = random_model(rng, variant, n=n)
                i = int(rng.integers(n))
                for p in _marginal_families(rng, n, k):
                    rep = lp_marginal_max(m, g, i, p)
                    assert abs(rep.lp_max - _oracle_max(m, g, i, p)) <= 1e-12
                    assert rep.pivots >= 1

    @pytest.mark.parametrize("variant", ALL_VARIANTS)
    def test_scipy_linprog_agreement(self, rng, variant):
        """Independent LP solver must find the same optimum."""
        from scipy.optimize import linprog

        k = exact_chain._VARIANTS[variant].k
        g = random_connected_graph(rng, 4 if k == 2 else 3, n_min=3,
                                   weighted_prob=0.5)
        m = random_model(rng, variant, n=g.n)
        p = _marginal_families(rng, g.n, k)[1]
        rep = lp_marginal_max(m, g, 1, p)

        c, A_eq, b_eq = _lp_problem(m, g, 1, p)
        res = linprog(-c, A_eq=A_eq, b_eq=b_eq, bounds=(0, None),
                      method="highs")
        assert res.status == 0
        assert rep.lp_max == pytest.approx(-res.fun, abs=1e-9)

    @staticmethod
    def outer_pivot(T, basis, r, j):
        """The rank-1 update as one outer-product temporary."""
        T[r] /= T[r, j]
        col = T[:, j].copy()
        col[r] = 0.0
        T -= np.outer(col, T[r])
        basis[r] = j

    def test_pivot_matches_outer_product(self, rng):
        """The in-place pivot writes the bits of the outer-product update,
        signed zeros included."""
        for _ in range(50):
            m, w = int(rng.integers(2, 8)), int(rng.integers(3, 30))
            T = rng.normal(size=(m + 1, w))
            T[rng.random(T.shape) < 0.3] = 0.0
            T[rng.random(T.shape) < 0.3] = -0.0
            r, j = int(rng.integers(m)), int(rng.integers(w - 1))
            T[r, j] = rng.uniform(0.5, 2.0)
            want, got = T.copy(), T.copy()
            b_want, b_got = np.arange(m), np.arange(m)
            self.outer_pivot(want, b_want, r, j)
            exact_chain._pivot(got, b_got, r, j)
            assert np.array_equal(got.view(np.uint64), want.view(np.uint64))
            assert np.array_equal(b_got, b_want)

    @pytest.mark.parametrize("variant", ALL_VARIANTS)
    def test_pivot_layout_changes_nothing(self, rng, monkeypatch, variant):
        """lp_max and the pivot count equal the outer-product simplex's."""
        k = exact_chain._VARIANTS[variant].k
        n = 5 if k == 2 else 4
        g = random_connected_graph(rng, n, n_min=n, weighted_prob=0.5)
        m = random_model(rng, variant, n=n)
        for p in _marginal_families(rng, n, k):
            got = lp_marginal_max(m, g, 1, p)
            with monkeypatch.context() as mp:
                mp.setattr(exact_chain, "_pivot", self.outer_pivot)
                want = lp_marginal_max(m, g, 1, p)
            assert (got.lp_max.hex(), got.pivots) \
                == (want.lp_max.hex(), want.pivots)

    def test_infeasible_beyond_tolerance(self, path3):
        # p_i + p_r = 1 + 5e-10 at node 0: MarginalVector admits it, but no
        # joint law has these marginals, and the violation exceeds 1e-10.
        m = ModelSpec("sirs", beta=0.4, delta=0.3, gamma=0.2)
        p = MarginalVector([0.6, 0.2, 0.3], [0.4 + 5e-10, 0.1, 0.5])
        with pytest.raises(LPInfeasibleError):
            lp_marginal_max(m, path3, 1, p)
        assert _oracle_max(m, path3, 1, p) is None

    def test_feasible_within_tolerance(self, path3):
        # A violation of 1e-11 is accepted. Both solvers then return a
        # vertex that misses the polytope by that much, each its own, so
        # they agree to within the 1e-10 feasibility tolerance, not 1e-12.
        m = ModelSpec("sirs", beta=0.4, delta=0.3, gamma=0.2)
        p = MarginalVector([0.6, 0.2, 0.3], [0.4 + 1e-11, 0.1, 0.5])
        rep = lp_marginal_max(m, path3, 1, p)
        assert abs(rep.lp_max - _oracle_max(m, path3, 1, p)) <= 1e-10

    def test_cap_enforced(self):
        for variant, cap in (("sis-nia", exact_chain.LP_N_CAP_K2),
                             ("sirs", exact_chain.LP_N_CAP_K3)):
            k = exact_chain._VARIANTS[variant].k
            g = generate("path", n=cap + 1)
            m = ModelSpec(variant, beta=0.5, delta=0.5,
                          **({"gamma": 0.5} if k == 3 else {}))
            p = MarginalVector(np.full(g.n, 0.1),
                               np.full(g.n, 0.1) if k == 3 else None)
            with pytest.raises(ExactChainError, match="cap"):
                lp_marginal_max(m, g, 0, p)

    @pytest.mark.parametrize("kind, i", [("path", 3), ("star", 0)])
    def test_bound_at_k3_cap(self, kind, i):
        """The paper's claim beyond the enumerator's reach: the LP optimum
        never exceeds the closed form, and attains it on the small family."""
        rng = np.random.default_rng(11)
        n = exact_chain.LP_N_CAP_K3
        g = generate(kind, n=n)
        for variant in ("sirs", "siv-id", "siv-vd"):
            m = random_model(rng, variant, n=n)
            small, general = _marginal_families(rng, n, 3)
            for p, tight in ((small, True), (general, False)):
                rep = lp_marginal_max(m, g, i, p)
                assert rep.lp_max <= rep.closed_form + 1e-9
                if tight:
                    assert abs(rep.lp_max - rep.closed_form) <= 1e-6

    def test_contact_dimension_checked(self, path3):
        m = ModelSpec("sis-general", contact=np.full((4, 4), 0.2))
        with pytest.raises(ModelError, match="dimension"):
            lp_marginal_max(m, path3, 0, MarginalVector(np.full(3, 0.1)))

    def test_never_builds_chain(self, rng, monkeypatch):
        def no_build(*args):
            raise AssertionError("S was built")

        monkeypatch.setattr(exact_chain, "build_transition_matrix", no_build)
        for variant in ALL_VARIANTS:
            g = random_connected_graph(rng, 3)
            m = random_model(rng, variant, n=g.n)
            p = MarginalVector(np.full(g.n, 0.2),
                               np.full(g.n, 0.2) if m.k == 3 else None)
            rep = lp_marginal_max(m, g, 0, p)
            assert rep.lp_max <= rep.closed_form + 1e-9

    @pytest.mark.parametrize("variant", ALL_VARIANTS)
    def test_objective_is_row_sum_of_chain(self, rng, variant):
        # The LP objective, node i's one-step infection probability, equals
        # the mass S puts on the states where node i is infected. (At the
        # LP caps S itself would need up to 2 GB, so smaller n are used.)
        k = exact_chain._VARIANTS[variant].k
        n = 4 if k == 2 else 3
        for _ in range(3):
            g = random_connected_graph(rng, n, n_min=n, weighted_prob=0.5)
            m = random_model(rng, variant, n=n)
            S = build_transition_matrix(m, g)
            D = states_table(n, k)
            tables = exact_chain._VARIANTS[variant].tables(m)
            for i in range(n):
                row_sum = S.entries @ (D[:, i] == 1).astype(float)
                c = exact_chain._node_digit_probs(m, g, D, i, tables)[:, 1]
                assert np.abs(c - row_sum).max() <= 1e-15

    def test_verify_lp_respects_n_max(self, monkeypatch):
        import epinet.verify as verify

        sizes = []
        lp = verify.lp_marginal_max

        def recording_lp(model, graph, i, p):
            sizes.append(graph.n)
            return lp(model, graph, i, p)

        monkeypatch.setattr(verify, "lp_marginal_max", recording_lp)
        for seed in range(4):
            assert verify.run_suite("lp", n_max=2, trials=12, seed=seed).passed
        assert len(sizes) == 48
        assert max(sizes) == 2

    def test_does_not_import_scipy_optimize(self):
        """scipy.optimize costs about 25 MB of resident memory; the LP
        must not load it."""
        code = (
            "import sys, numpy as np, epinet\n"
            "m = epinet.ModelSpec('sirs', beta=0.4, delta=0.3, gamma=0.2)\n"
            "p = epinet.MarginalVector(np.full(3, 0.3), np.full(3, 0.2))\n"
            "epinet.lp_marginal_max(m, epinet.generate('path', n=3), 1, p)\n"
            "print('scipy.optimize' in sys.modules)\n"
        )
        src = str(Path(epinet.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            q for q in (src, os.environ.get("PYTHONPATH")) if q))
        proc = subprocess.run([sys.executable, "-c", code],
                              capture_output=True, text=True, env=env)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "False"


# ---------------------------------------------------------------------------
# One build per chain
# ---------------------------------------------------------------------------

class TestOneBuildPerChain:
    @pytest.mark.parametrize("suite, trials", [("mixing", 12),
                                               ("stationary", 12)])
    def test_verify_suite_builds_once_per_instance(self, monkeypatch, suite,
                                                   trials):
        import epinet.verify as verify

        calls = []
        build = exact_chain.build_transition_matrix

        def counting_build(model, graph):
            calls.append((model.variant, graph.n))
            return build(model, graph)

        monkeypatch.setattr(exact_chain, "build_transition_matrix",
                            counting_build)
        monkeypatch.setattr(verify, "build_transition_matrix", counting_build)
        res = verify.run_suite(suite, trials=trials, seed=0)
        assert res.passed
        assert len(calls) == res.checks > 0


# ---------------------------------------------------------------------------
# Non-absorption bound
# ---------------------------------------------------------------------------

class TestNonAbsorption:
    def test_all_susceptible_start(self, path3):
        m = ModelSpec("sis-nia", beta=0.5, delta=0.5)
        rep = non_absorption_check(build_transition_matrix(m, path3), 0, 5)
        assert rep.exact == 0.0
        assert rep.bound == 0.0

    def test_zero_steps(self, path3):
        m = ModelSpec("sis-nia", beta=0.5, delta=0.5)
        rep = non_absorption_check(build_transition_matrix(m, path3), 5, 0)
        assert rep.exact == 1.0
        assert rep.bound == 1.0

    def test_bound_dominates_random(self, rng):
        for _ in range(10):
            g = random_connected_graph(rng, 5, weighted_prob=0.3)
            m = random_model(rng, "sis-nia", n=g.n)
            X0 = int(rng.integers(1, 2 ** g.n))
            t = int(rng.integers(1, 30))
            rep = non_absorption_check(build_transition_matrix(m, g), X0, t)
            assert rep.slack >= -1e-10
            assert 0.0 <= rep.exact <= 1.0

    def test_requires_sis_nia(self, path3):
        m = ModelSpec("sirs", beta=0.5, delta=0.5, gamma=0.5)
        with pytest.raises(ExactChainError):
            non_absorption_check(build_transition_matrix(m, path3), 1, 3)
