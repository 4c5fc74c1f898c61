"""Exact Markov chain: transition law, stationarity, mixing, order, bounds."""
from __future__ import annotations

import itertools
import math
import os
import subprocess
import sys
import threading
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings, strategies as st

import epinet
import epinet.exact_chain as exact_chain
import epinet.model_core as model_core
from epinet import (
    ChainState,
    Graph,
    DistVector,
    ExactChainError,
    LPInfeasibleError,
    MeanFieldPoint,
    ModelError,
    ModelSpec,
    StateSpaceCapError,
    StationaryVerificationError,
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
    non_absorption_check,
    propagate,
    states_table,
    stationary,
    threshold_ratio,
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
        assert ChainState.from_digits([1.0, np.int8(1)]) == ChainState(3, 2)

    def test_from_digits_reads_an_iterator_once(self):
        assert ChainState.from_digits(iter([0, 0, 0])) == ChainState(0, 3)
        assert ChainState.from_digits(iter([1, 0, 1])) == ChainState(5, 3)
        assert ChainState.from_digits(iter([2, 1]), k=3) \
            == ChainState(5, 2, k=3)

    @pytest.mark.parametrize("digits", ([1.5, 0], [0, 0.5], [float("nan")],
                                        [float("inf"), 0]))
    def test_from_digits_rejects_non_integral(self, digits):
        with pytest.raises(ExactChainError, match="invalid for k=2"):
            ChainState.from_digits(digits)

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


# ---------------------------------------------------------------------------
# Per-node transition law (hand-computed table values)
# ---------------------------------------------------------------------------

def node_transition_prob(model, graph, X, i, y):
    """P(next digit of node i = y | current state X), written out per
    variant with a scalar escape product: the oracle for the vectorized
    law that build_transition_matrix assembles."""
    k = model.k
    if isinstance(X, ChainState):
        assert X.k == k
        digits = X.digits
    else:
        digits = states_table(graph.n, k)[X]
    n = len(digits)
    assert 0 <= i < n and 0 <= y < k
    if model.variant == "sis-general":
        esc = 1.0
        for j in range(n):
            if digits[j] == 1:
                esc *= 1.0 - model.contact[i, j]
        p1 = 1.0 - esc
        return p1 if y == 1 else 1.0 - p1
    A = graph.adjacency_sparse
    row = slice(A.indptr[i], A.indptr[i + 1])
    esc = 1.0
    for j, w in zip(A.indices[row], A.data[row]):
        if digits[j] == 1:
            esc *= 1.0 - model.beta * w
    cur = int(digits[i])
    if k == 2:
        if cur == 1:
            p1 = 1.0 - model.delta * esc if model.variant == "sis-nia" \
                else 1.0 - model.delta
        else:
            p1 = 1.0 - esc
        return p1 if y == 1 else 1.0 - p1
    if cur == 0:
        if model.variant == "sirs":
            row = (esc, 1.0 - esc, 0.0)
        elif model.variant == "siv-id":
            row = (esc * (1.0 - model.theta), 1.0 - esc, esc * model.theta)
        else:  # siv-vd
            row = (esc * (1.0 - model.theta),
                   (1.0 - esc) * (1.0 - model.theta),
                   model.theta)
    elif cur == 1:
        row = (0.0, 1.0 - model.delta, model.delta)
    else:
        row = (model.gamma, 0.0, 1.0 - model.gamma)
    return row[y]


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
        mu = DistVector(np.full(8, 1 / 8))
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
        mu = propagate(DistVector(np.full(S.size, 1 / S.size)), S, 3)
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


def tv_distance(a: DistVector, b: DistVector) -> float:
    """Total variation distance: half the L1 distance."""
    return 0.5 * float(np.abs(a.entries - b.entries).sum())


def tv(a: DistVector, b: DistVector) -> float:
    """Total variation distance by the mixing scan's _tv_rows."""
    return float(exact_chain._tv_rows(a.entries[None, :], b.entries)[0])


class TestTV:
    def test_values(self):
        a = DistVector(np.array([1.0, 0.0]))
        b = DistVector(np.array([0.0, 1.0]))
        assert tv(a, b) == 1.0
        assert tv(a, a) == 0.0

    @given(st.integers(0, 10 ** 6))
    @settings(max_examples=25, deadline=None)
    def test_metric_properties(self, seed):
        rng = np.random.default_rng(seed)
        dists = []
        for _ in range(3):
            raw = rng.random(16)
            dists.append(DistVector(raw / raw.sum()))
        a, b, c = dists
        assert tv(a, b) == pytest.approx(tv(b, a))
        assert tv(a, c) <= tv(a, b) + tv(b, c) + 1e-12
        assert 0.0 <= tv(a, b) <= 1.0
        assert tv(a, b) == pytest.approx(tv_distance(a, b), abs=1e-15)

    @pytest.mark.parametrize("block_rows", [1, 3, 7])
    def test_rows_in_blocks(self, monkeypatch, block_rows):
        rng = np.random.default_rng(3)
        P = rng.random((7, 16))
        P /= P.sum(axis=1, keepdims=True)
        pi = DistVector(P[0][::-1].copy())
        want = [tv_distance(DistVector(row), pi) for row in P]
        monkeypatch.setattr(exact_chain, "_SCAN_BLOCK_DOUBLES",
                            block_rows * 16)
        assert exact_chain._tv_rows(P, pi.entries) == pytest.approx(
            want, rel=0, abs=1e-15)
        P[P < 0.02] = 0.0
        sparse = exact_chain._tv_rows(sp.csr_array(P), pi.entries)
        assert np.array_equal(sparse, exact_chain._tv_rows(P, pi.entries))


# ---------------------------------------------------------------------------
# Stationary distributions
# ---------------------------------------------------------------------------

class TestStationary:
    def test_sis_point_mass(self, path3):
        m = ModelSpec("sis-nia", beta=0.5, delta=0.5)
        pi, _ = stationary(build_transition_matrix(m, path3))
        assert pi.entries[0] == 1.0

    def test_sirs_point_mass(self, path3):
        m = ModelSpec("sirs", beta=0.5, delta=0.5, gamma=0.5)
        pi, _ = stationary(build_transition_matrix(m, path3))
        assert pi.entries[0] == 1.0

    @pytest.mark.parametrize("variant", ["siv-id", "siv-vd"])
    def test_siv_product_form(self, variant, rng):
        for n in (2, 3, 4):
            g = random_connected_graph(rng, n, n_min=n)
            m = random_model(rng, variant, n=n)
            S = build_transition_matrix(m, g)
            pi, defect = stationary(S)
            assert defect <= 1e-10
            # product-form marginals
            ps = m.gamma / (m.gamma + m.theta)
            mv = marginals(pi, m)
            assert np.allclose(mv.p_i, 0.0, atol=1e-14)
            assert np.allclose(mv.p_r, 1.0 - ps, atol=1e-12)

    @pytest.mark.parametrize("variant", ALL_VARIANTS)
    def test_defect_computed_once(self, variant, path3):
        """stationary returns the defect max |pi S - pi| it checked, and the
        mixing report carries that same number, bit for bit."""
        m = random_model(np.random.default_rng(ALL_VARIANTS.index(variant)),
                         variant, n=3)
        S = build_transition_matrix(m, path3)
        pi, defect = stationary(S)
        oracle = float(np.abs(pi.entries @ S.entries - pi.entries).max())
        assert defect == oracle
        assert mixing_time_exact(S, 0.25, cap=50).stationary_defect == oracle

    @pytest.mark.parametrize("variant", ["sis-nia", "sirs", "siv-id"])
    def test_tampered_chain_refused_by_mixing_scan(self, variant, path3):
        """The mixing scan measures against stationary(S), so a chain that
        fails pi S = pi raises before any step."""
        m = random_model(np.random.default_rng(5), variant, n=3)
        S = build_transition_matrix(m, path3)
        S.entries.data[0] *= 0.999
        with pytest.raises(StationaryVerificationError, match="pi S = pi"):
            mixing_time_exact(S, 0.25)


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
        # identical contraction norm, doubled numerator; SIV rounds the
        # infection term up and adds the S/V pairs' steps, one at rho = 0
        norm = 0.1 + 0.05 * math.sqrt(2.0)
        assert b2 == pytest.approx(math.log(3 / 0.25) / (-math.log(norm)))
        assert b3 == math.ceil(math.log(6 / 0.25) / (-math.log(norm))) + 1

    def test_siv_bound_infinite_when_pairs_never_relax(self, path3):
        """gamma = theta = 0 freezes every S/V pair: rho = 1, so +inf."""
        for variant in ("siv-id", "siv-vd"):
            m = ModelSpec(variant, beta=0.1, delta=0.9, gamma=0.0, theta=0.0)
            assert mixing_time_bound(m, path3, 0.25) == math.inf

    # Chains whose t_mix exceeds log(2n/eps) / (-log norm), the infection
    # marginals' term alone: (variant, path length, rates, epsilon, t_mix,
    # bound).
    SIV_COUNTEREXAMPLES = [
        ("siv-id", 3, dict(beta=0.1, delta=0.9, gamma=0.05, theta=0.0),
         0.25, 48, 65),
        ("siv-id", 3, dict(beta=0.1, delta=0.9, gamma=0.05, theta=0.05),
         0.25, 12, 34),
        ("siv-id", 1, dict(beta=0.1, delta=0.5, gamma=0.3, theta=0.2),
         0.25, 4, 6),
    ]

    @staticmethod
    def siv_grid():
        """Seeded below-threshold SIV chains with a finite bound: path,
        star and complete graphs with n <= 4, gamma and theta from
        U(0.01, 0.99), and beta below delta / (f lambda_max)."""
        rng = np.random.default_rng(25)
        for variant in ("siv-id", "siv-vd"):
            for kind in ("path", "star", "complete"):
                for n in (1, 2, 3, 4):
                    g = generate(kind, n=n)
                    lam = epinet.spectral_radius(g).lambda_max
                    for _ in range(4):
                        delta = float(rng.uniform(0.05, 0.95))
                        gamma, theta = rng.uniform(0.01, 0.99, 2).tolist()
                        f = 1.0 - theta if variant == "siv-vd" else 1.0
                        u = float(rng.uniform(0.05, 0.95))
                        beta = min(1.0, u * delta / (f * lam)) if lam else u
                        yield g, ModelSpec(variant, beta=beta, delta=delta,
                                           gamma=gamma, theta=theta)

    def test_siv_bound_holds_on_grid(self):
        """Exact t_mix <= bound on every chain of the grid and on the
        counterexamples of the infection-only bound."""
        for variant, n, rates, eps, t_mix, bound in self.SIV_COUNTEREXAMPLES:
            g = generate("path", n=n)
            m = ModelSpec(variant, **rates)
            rep = mixing_time_exact(build_transition_matrix(m, g), eps)
            assert (rep.t_mix, mixing_time_bound(m, g, eps)) \
                == (t_mix, bound)
        chains = 0
        for g, m in self.siv_grid():
            assert threshold_ratio(m, g) < 1.0
            S = build_transition_matrix(m, g)
            for eps in (0.1, 0.25, 0.4):
                bound = mixing_time_bound(m, g, eps)
                assert math.isfinite(bound)
                rep = mixing_time_exact(S, eps)
                assert not rep.censored
                assert rep.t_mix <= bound, (m.describe(), g.n, eps)
                chains += 1
        assert chains == 288

    def test_epsilon_validation(self, path3):
        m = ModelSpec("sis-nia", beta=0.1, delta=0.9)
        with pytest.raises(ExactChainError):
            mixing_time_bound(m, path3, 0.0)
        with pytest.raises(ExactChainError):
            mixing_time_bound(m, path3, 1.0)

    @staticmethod
    def dense_block_bound(m, g, epsilon):
        """The sirs bound from the largest singular value of the 2n x 2n
        block [[(1-gamma)I, delta I], [0, (1-delta)I + beta A]]."""
        n = g.n
        block = np.block([
            [(1.0 - m.gamma) * np.eye(n), m.delta * np.eye(n)],
            [np.zeros((n, n)),
             (1.0 - m.delta) * np.eye(n) + m.beta * g.adjacency()],
        ])
        norm = float(np.linalg.norm(block, 2))
        if norm >= 1.0:
            return math.inf
        return math.log(2 * n / epsilon) / (-math.log(norm))

    @staticmethod
    def bound_grid():
        """Path, star, complete and ER graphs, unweighted and weighted,
        connected and not (two copies side by side, plus edgeless)."""
        rng = np.random.default_rng(5)
        graphs = [Graph(1), Graph(4)]
        for n in (2, 3, 7, 16, 33):
            graphs += [generate(kind, n=n) for kind in
                       ("path", "star", "complete")]
            graphs.append(generate("er", n=n, p=0.25,
                                   seed=int(rng.integers(2 ** 31))))
        twins = []
        for g in graphs:
            if g.m:
                twins.append(Graph(g.n, g.edges,
                                   rng.uniform(0.1, 1.0, g.m)))
                twins.append(Graph(2 * g.n, g.edges + tuple(
                    (i + g.n, j + g.n) for i, j in g.edges)))
        return graphs + twins

    def test_sirs_bound_matches_dense_block(self):
        """The 2 x 2 reduction gives the dense block's bound to a relative
        1e-12."""
        rng = np.random.default_rng(6)
        for g in self.bound_grid():
            lam = float(np.abs(np.linalg.eigvalsh(g.adjacency())).max())
            for _ in range(3):
                delta = float(rng.uniform(0.3, 0.7))
                m = ModelSpec("sirs", delta=delta,
                              gamma=float(rng.uniform(0.5, 1.0)),
                              beta=float(rng.uniform(0.0, 0.4))
                              * delta / max(lam, 1.0))
                want = self.dense_block_bound(m, g, 0.25)
                got = mixing_time_bound(m, g, 0.25)
                assert math.isfinite(want)
                assert abs(got - want) <= 1e-12 * want, (g, m)

    def test_sirs_bound_infinite_with_dense_block(self, path3):
        for m in (ModelSpec("sirs", beta=0.05, delta=0.9, gamma=0.05),
                  ModelSpec("sirs", beta=0.9, delta=0.3, gamma=0.5)):
            assert self.dense_block_bound(m, path3, 0.25) == math.inf
            assert mixing_time_bound(m, path3, 0.25) == math.inf

    def test_sirs_bound_memory_n1000(self):
        """No 2n x 2n array: 32 MB at n = 1000."""
        g = generate("er", n=1000, p=0.01, seed=1)
        m = ModelSpec("sirs", beta=0.01, delta=0.6, gamma=0.9)
        tracemalloc.start()
        try:
            bound = mixing_time_bound(m, g, 0.25)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert math.isfinite(bound)
        assert peak < (2 * g.n) ** 2 * 8 / 16

    def test_exact_scan_takes_no_bound(self, monkeypatch, path3):
        """mixing_time_exact reports the chain's t_mix alone; the analytic
        bound is the caller's mixing_time_bound call."""
        def refuse(*args):
            raise AssertionError("mixing_time_exact took the bound")

        monkeypatch.setattr(exact_chain, "mixing_time_bound", refuse)
        for m in (ModelSpec("sis-nia", beta=0.1, delta=0.9),
                  ModelSpec("siv-id", beta=0.1, delta=0.5, gamma=0.5,
                            theta=0.5)):
            rep = mixing_time_exact(build_transition_matrix(m, path3), 0.25)
            assert rep.t_mix is not None

    def test_dense_mixing_scan_decision(self, path3):
        """Dense exactly when the stationary law is no point mass."""
        siv = dict(beta=0.1, delta=0.5, gamma=0.5)
        assert exact_chain.dense_mixing_scan(
            ModelSpec("siv-id", theta=0.5, **siv), 3)
        for m in (ModelSpec("sirs", **siv),
                  ModelSpec("sis-nia", beta=0.1, delta=0.5),
                  ModelSpec("siv-vd", theta=0.0, **siv)):
            assert not exact_chain.dense_mixing_scan(m, 3)
            S = build_transition_matrix(m, path3)
            assert stationary(S)[0].entries.max() == 1.0

    def test_exact_within_bound_path3(self, path3):
        m = ModelSpec("sis-nia", beta=0.1, delta=0.9)
        S = build_transition_matrix(m, path3)
        rep = mixing_time_exact(S, 0.25)
        assert rep.t_mix == 2
        assert rep.t_mix <= math.ceil(mixing_time_bound(m, path3, 0.25))
        assert not rep.censored
        # worst initial is the all-infected state for the order-preserving
        # variant
        assert rep.worst_initial.code == 7

    def test_censored_above_threshold(self):
        g = generate("complete", n=3)
        m = ModelSpec("sis-nia", beta=0.9, delta=0.2)
        S = build_transition_matrix(m, g)
        rep = mixing_time_exact(S, 0.25, cap=30)
        assert rep.censored and rep.t_mix is None

    def test_exact_sirs_nonpoint_path(self, rng):
        # SIV stationary distribution is not a point mass, exercising the
        # full-matrix branch.
        g = generate("path", n=2)
        m = ModelSpec("siv-id", beta=0.1, delta=0.9, gamma=0.5, theta=0.5)
        S = build_transition_matrix(m, g)
        pi, _ = stationary(S)
        rep = mixing_time_exact(S, 0.25)
        assert rep.t_mix is not None
        assert rep.t_mix <= math.ceil(mixing_time_bound(m, g, 0.25))
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
        pi, _ = stationary(S)
        rep = mixing_time_exact(S, 0.25)
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
    def reference_dense_scan(S, epsilon, cap):
        """The dense mixing scan as it ran when its powers of S started
        from the identity."""
        pi, defect = stationary(S)
        M = S.entries.toarray()
        Dmat = np.eye(len(M))
        for t in range(1, cap + 1):
            Dmat = Dmat @ M
            dev = Dmat - pi.entries[None, :]
            tv = 0.5 * np.abs(dev, out=dev).sum(axis=1)
            top = tv.max()
            if top <= epsilon:
                return exact_chain.MixingReport(
                    t, epsilon, exact_chain._worst_state(tv, top, S), defect)
        return exact_chain.MixingReport(
            None, epsilon, exact_chain._worst_state(tv, tv.max(), S), defect,
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
        pi, _ = stationary(S)
        assert pi.entries.max() < 1.0  # the dense branch
        runs = [(0.99, 100), (0.25, 100), (1e-6, 3)]
        reports = [mixing_time_exact(S, eps, cap=cap)
                   for eps, cap in runs]
        assert reports[0].t_mix == 1
        assert reports[1].t_mix > 1
        assert reports[2].censored
        for (eps, cap), rep in zip(runs, reports):
            assert rep == self.reference_dense_scan(S, eps, cap)

    @staticmethod
    def count_product_rows(monkeypatch):
        """Rows multiplied by each call of the dense scan's product helper;
        K rows are one K^3 product."""
        rows = []
        product = exact_chain._product

        def counting(A, r, B):
            out = product(A, r, B)
            rows.append(out.shape[0])
            return out

        monkeypatch.setattr(exact_chain, "_product", counting)
        return rows

    # Slow-mixing rates: with the grid below they give t_mix up to 85.
    SLOW = {"siv-id": dict(beta=0.3, delta=0.4, gamma=0.3, theta=0.2),
            "siv-vd": dict(beta=0.5, delta=0.3, gamma=0.2, theta=0.1)}

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    @pytest.mark.parametrize("kind", ["path", "star", "complete"])
    @pytest.mark.parametrize("variant", ["siv-id", "siv-vd"])
    def test_doubling_scan_matches_linear(self, monkeypatch, variant, kind,
                                          n):
        """The doubling search reports what the linear scan reports, passing
        or censored, for slow and random rates. It multiplies at most the
        linear scan's t_mix - 1 (cap - 1 when censored) K^3 products, plus
        fewer than K rows spent in probes that stop at a failing row."""
        rng = np.random.default_rng(
            [n, "psc".index(kind[0]), int(variant == "siv-vd")])
        g = generate(kind, n=n)
        rows = self.count_product_rows(monkeypatch)
        for m in (ModelSpec(variant, **self.SLOW[variant]),
                  random_model(rng, variant)):
            S = build_transition_matrix(m, g)
            for eps in (0.9, 0.5, 0.25, 0.1, 1e-2, 1e-3, 1e-5):
                for cap in (1, 2, 3, 4, 5, 7, 8, 9, 16, 17, 100):
                    rows.clear()
                    rep = mixing_time_exact(S, eps, cap=cap)
                    assert rep == self.reference_dense_scan(S, eps, cap)
                    assert rep.censored is (rep.t_mix is None)
                    linear = (cap if rep.censored else rep.t_mix) - 1
                    assert sum(rows) // S.size <= linear, (eps, cap)

    @staticmethod
    def traced_scan(S, epsilon, cap=100000):
        """The scan's report and its tracemalloc peak in bytes."""
        tracemalloc.start()
        try:
            rep = mixing_time_exact(S, epsilon, cap=cap)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        return rep, peak

    def test_dense_scan_products_and_memory_path7(self, monkeypatch):
        """siv-id on path:n=7 (t_mix = 4): the scan builds S^2 from sparse
        row blocks of S, probes S^3 with its worst row against the CSR and
        checks S^4 row block by row block. That is two K^3-class products
        and one row, with S^2 the only dense K x K array: the probe's worst
        row fails, so S is never made dense, and S^4 passes, so it is never
        stored."""
        g = generate("path", n=7)
        m = ModelSpec("siv-id", beta=0.1, delta=0.6, gamma=0.5, theta=0.5)
        S = build_transition_matrix(m, g)
        K = S.size
        rows = self.count_product_rows(monkeypatch)
        rep, peak = self.traced_scan(S, 0.25)
        assert (rep.t_mix, rep.censored) == (4, False)
        assert rep == self.reference_dense_scan(S, 0.25, 100000)
        assert sum(rows) == 2 * K + 1
        assert K * K * 8 < peak < 1.3 * K * K * 8

    @pytest.mark.parametrize("variant", ["siv-id", "siv-vd"])
    def test_slow_dense_scan_memory_path7(self, variant):
        """The slow-mixing scans on path:n=7 (t_mix 9 and 15) build squares,
        make S dense for their steps and probes, and drop it for a square:
        never more than two dense K x K arrays at once."""
        g = generate("path", n=7)
        S = build_transition_matrix(ModelSpec(variant, **self.SLOW[variant]),
                                    g)
        K = S.size
        rep, peak = self.traced_scan(S, 0.25)
        assert rep.t_mix == {"siv-id": 9, "siv-vd": 15}[variant]
        assert peak < 2.3 * K * K * 8
        assert rep == self.reference_dense_scan(S, 0.25, 100000)

    @pytest.mark.parametrize("epsilon, cap, t_mix, extra", [
        # S^3's worst row fails; S^4 passes its check of K rows.
        (0.25, 100000, 4, 0),
        # S^3's worst row fails; S^4 fails its first row and is built.
        (1e-6, 4, None, 1),
    ])
    def test_failing_worst_probe_row_keeps_S_sparse(self, monkeypatch,
                                                    epsilon, cap, t_mix,
                                                    extra):
        g = generate("path", n=5)
        m = ModelSpec("siv-id", beta=0.1, delta=0.6, gamma=0.5, theta=0.5)
        S = build_transition_matrix(m, g)
        expected = self.reference_dense_scan(S, epsilon, cap)

        def no_dense(*args, **kwargs):
            raise AssertionError("S was made dense")

        monkeypatch.setattr(S.entries, "toarray", no_dense)
        rows = self.count_product_rows(monkeypatch)
        rep = mixing_time_exact(S, epsilon, cap=cap)
        assert rep == expected and rep.t_mix == t_mix
        assert rows[:2] == [S.size, 1]
        assert sum(rows) == 2 * S.size + 1 + extra

    @pytest.mark.parametrize("epsilon, t_mix", [(0.5, 5), (0.3, 7)])
    def test_dense_S_dropped_for_a_square(self, monkeypatch, epsilon,
                                          t_mix):
        """On this fast chain the worst row of S^3 passes, so S is made
        dense, but another row fails and so does S^4: dense S is dropped
        while S^4 is built, and made again for the steps after it."""
        g = generate("complete", n=4)
        m = ModelSpec("siv-id", beta=0.87, delta=0.87, gamma=0.74,
                      theta=0.15)
        S = build_transition_matrix(m, g)
        expected = self.reference_dense_scan(S, epsilon, 100000)
        builds = []
        to_dense = S.entries.toarray

        def counting(*args, **kwargs):
            builds.append(1)
            return to_dense(*args, **kwargs)

        monkeypatch.setattr(S.entries, "toarray", counting)
        rep = mixing_time_exact(S, epsilon)
        assert rep == expected and rep.t_mix == t_mix
        assert len(builds) == 2

    def test_cap_below_one_point_mass(self):
        g = generate("path", n=2)
        m = ModelSpec("sis-nia", beta=0.3, delta=0.5)
        S = build_transition_matrix(m, g)
        with pytest.raises(ExactChainError, match="cap must be >= 1"):
            mixing_time_exact(S, 0.25, cap=0)

    def test_cap_below_one_dense(self):
        g = generate("path", n=2)
        m = ModelSpec("siv-id", beta=0.3, delta=0.5, gamma=0.4, theta=0.3)
        S = build_transition_matrix(m, g)
        pi, _ = stationary(S)
        assert pi.entries.max() < 1.0  # the non-point-mass branch
        with pytest.raises(ExactChainError, match="cap must be >= 1"):
            mixing_time_exact(S, 0.25, cap=0)

    def test_nonpoint_mixing_memory_budget(self, monkeypatch, path3):
        siv = ModelSpec("siv-id", beta=0.1, delta=0.9, gamma=0.5, theta=0.5)
        sirs = ModelSpec("sirs", beta=0.1, delta=0.9, gamma=0.5)
        S_siv = build_transition_matrix(siv, path3)
        S_sirs = build_transition_matrix(sirs, path3)
        monkeypatch.setattr(exact_chain, "MEMORY_BUDGET_BYTES",
                            2 * 27 * 27 * 8 - 1)
        with pytest.raises(StateSpaceCapError, match="memory budget"):
            mixing_time_exact(S_siv, 0.25)
        # The point-mass scan holds no dense K x K array.
        rep = mixing_time_exact(S_sirs, 0.25)
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
        return (MeanFieldPoint(small), MeanFieldPoint(rng.uniform(0, 1, n)))
    pi_ = rng.uniform(0.0, 1.0, n)
    pr_ = rng.uniform(0.0, 1.0, n) * (1.0 - pi_)
    return (MeanFieldPoint(small[:n], small[n:]), MeanFieldPoint(pi_, pr_))


class TestLP:
    def test_equality_on_small_marginals(self, rng):
        """For marginals with sum <= 1 the closed form is attained exactly."""
        g = random_connected_graph(rng, 3)
        m = random_model(rng, "sis-nia", n=g.n)
        raw = rng.random(g.n)
        p = MeanFieldPoint(raw / (raw.sum() * 1.5))
        rep = lp_marginal_max(m, g, 0, p)
        assert rep.lp_max == pytest.approx(
            closed_form_marginal_bound(m, g, 0, p), abs=1e-6)

    def test_bound_holds_general_marginals(self, rng):
        for variant in ALL_VARIANTS:
            g = random_connected_graph(rng, 3)
            m = random_model(rng, variant, n=g.n)
            if m.k == 2:
                p = MeanFieldPoint(rng.random(g.n))
            else:
                pi_ = rng.random(g.n) * 0.5
                pr_ = rng.random(g.n) * 0.5
                p = MeanFieldPoint(pi_, pr_)
            i = int(rng.integers(g.n))
            rep = lp_marginal_max(m, g, i, p)
            assert rep.lp_max <= closed_form_marginal_bound(m, g, i, p) + 1e-9
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
        # p_i + p_r = 1 + 5e-10 at node 0: MeanFieldPoint admits it, but no
        # joint law has these marginals, and the violation exceeds 1e-10.
        m = ModelSpec("sirs", beta=0.4, delta=0.3, gamma=0.2)
        p = MeanFieldPoint([0.6, 0.2, 0.3], [0.4 + 5e-10, 0.1, 0.5])
        with pytest.raises(LPInfeasibleError):
            lp_marginal_max(m, path3, 1, p)
        assert _oracle_max(m, path3, 1, p) is None

    def test_feasible_within_tolerance(self, path3):
        # A violation of 1e-11 is accepted. Both solvers then return a
        # vertex that misses the polytope by that much, each its own, so
        # they agree to within the 1e-10 feasibility tolerance, not 1e-12.
        m = ModelSpec("sirs", beta=0.4, delta=0.3, gamma=0.2)
        p = MeanFieldPoint([0.6, 0.2, 0.3], [0.4 + 1e-11, 0.1, 0.5])
        rep = lp_marginal_max(m, path3, 1, p)
        assert abs(rep.lp_max - _oracle_max(m, path3, 1, p)) <= 1e-10

    def test_cap_enforced(self):
        for variant, cap in (("sis-nia", exact_chain.LP_N_CAP_K2),
                             ("sirs", exact_chain.LP_N_CAP_K3)):
            k = exact_chain._VARIANTS[variant].k
            g = generate("path", n=cap + 1)
            m = ModelSpec(variant, beta=0.5, delta=0.5,
                          **({"gamma": 0.5} if k == 3 else {}))
            p = MeanFieldPoint(np.full(g.n, 0.1),
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
                cf = closed_form_marginal_bound(m, g, i, p)
                assert rep.lp_max <= cf + 1e-9
                if tight:
                    assert abs(rep.lp_max - cf) <= 1e-6

    def test_contact_dimension_checked(self, path3):
        m = ModelSpec("sis-general", contact=np.full((4, 4), 0.2))
        with pytest.raises(ModelError,
                           match="contact matrix is 4x4 but graph has n=3"):
            lp_marginal_max(m, path3, 0, MeanFieldPoint(np.full(3, 0.1)))

    def test_marginals_must_fit_model(self, path3):
        nia = ModelSpec("sis-nia", beta=0.3, delta=0.5)
        sirs = ModelSpec("sirs", beta=0.3, delta=0.5, gamma=0.4)
        wrong = [
            (nia, MeanFieldPoint(np.full(3, 0.2), np.full(3, 0.1))),
            (nia, MeanFieldPoint(np.full(4, 0.2))),
            (nia, MeanFieldPoint(np.full(2, 0.2))),
            (sirs, MeanFieldPoint(np.full(3, 0.2))),
        ]
        for m, p in wrong:
            with pytest.raises(ExactChainError, match="marginals have"):
                lp_marginal_max(m, path3, 1, p)
            with pytest.raises(ExactChainError, match="marginals have"):
                closed_form_marginal_bound(m, path3, 2, p)
        with pytest.raises(ExactChainError, match="out of range"):
            closed_form_marginal_bound(nia, path3, 3,
                                       MeanFieldPoint(np.full(3, 0.2)))

    @pytest.mark.parametrize("variant", ALL_VARIANTS)
    def test_closed_form_is_row_of_dense_bound(self, rng, variant):
        """Row i of ((1-delta) I + beta f A) p, or of M p for sis-general."""
        for _ in range(4):
            g = random_connected_graph(rng, 6, weighted_prob=0.5)
            m = random_model(rng, variant, n=g.n)
            p = MeanFieldPoint(rng.random(g.n))
            if m.contact is not None:
                L = m.contact
            else:
                f = exact_chain._VARIANTS[variant].infection(m)
                L = (1.0 - m.delta) * np.eye(g.n) + m.beta * f * g.adjacency()
            want = L @ p.p_i
            if m.k == 3:
                p = MeanFieldPoint(p.p_i, 0.5 * (1.0 - p.p_i))
            for i in range(g.n):
                got = closed_form_marginal_bound(m, g, i, p)
                assert abs(got - want[i]) <= 1e-14

    def test_exact_marginals_feed_the_lp(self, rng):
        """marginals() of a real joint law is a feasible LP input, and the
        LP optimum is at least the law's own next-step marginal."""
        for variant in ALL_VARIANTS:
            g = random_connected_graph(rng, 3)
            m = random_model(rng, variant, n=g.n)
            S = build_transition_matrix(m, g)
            mu = propagate(DistVector(np.full(S.size, 1 / S.size)), S, 2)
            p = marginals(mu, m)
            assert isinstance(p, MeanFieldPoint) and p.k == m.k
            nxt = marginals(propagate(mu, S, 1), m).p_i
            for i in range(g.n):
                rep = lp_marginal_max(m, g, i, p)
                assert nxt[i] <= rep.lp_max + 1e-12
                assert rep.lp_max <= closed_form_marginal_bound(m, g, i, p) \
                    + 1e-9

    def test_takes_no_closed_form(self, monkeypatch, path3):
        """lp_marginal_max solves the LP alone; the linear bound is the
        caller's closed_form_marginal_bound call."""
        def refuse(*args):
            raise AssertionError("lp_marginal_max took the closed form")

        monkeypatch.setattr(exact_chain, "closed_form_marginal_bound", refuse)
        m = ModelSpec("sirs", beta=0.3, delta=0.5, gamma=0.4)
        p = MeanFieldPoint(np.full(3, 0.2), np.full(3, 0.1))
        assert lp_marginal_max(m, path3, 1, p).lp_max > 0.0

    def test_never_builds_chain(self, rng, monkeypatch):
        def no_build(*args):
            raise AssertionError("S was built")

        monkeypatch.setattr(exact_chain, "build_transition_matrix", no_build)
        for variant in ALL_VARIANTS:
            g = random_connected_graph(rng, 3)
            m = random_model(rng, variant, n=g.n)
            p = MeanFieldPoint(np.full(g.n, 0.2),
                               np.full(g.n, 0.2) if m.k == 3 else None)
            rep = lp_marginal_max(m, g, 0, p)
            assert rep.lp_max <= closed_form_marginal_bound(m, g, 0, p) + 1e-9

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
                W = exact_chain._infection_matrix(m, g)
                c = exact_chain._node_digit_probs(W, D, i, tables)[:, 1]
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
            "p = epinet.MeanFieldPoint(np.full(3, 0.3), np.full(3, 0.2))\n"
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

# ---------------------------------------------------------------------------
# Row shares on every usable CPU
# ---------------------------------------------------------------------------

def force_shares(monkeypatch, workers):
    """Make every row-range job of at least `workers` rows split into that
    many shares, whatever the host's CPU count: the threads are pinned to
    the usable CPUs in turn."""
    cpus = sorted(os.sched_getaffinity(0))
    monkeypatch.setattr(model_core, "_SHARE_MIN_ROWS", 1)
    monkeypatch.setattr(model_core, "_usable_cpus",
                        lambda: [cpus[w % len(cpus)] for w in range(workers)])
    return [cpus[w % len(cpus)] for w in range(workers)]


def recorded_shares(monkeypatch):
    """The (start, stop) rows of every share exact_chain runs a job on."""
    shares = []
    run = exact_chain._row_shares

    def recording(job, K):
        def share(rows):
            shares.append((rows.start, rows.stop))
            job(rows)
        run(share, K)

    monkeypatch.setattr(exact_chain, "_row_shares", recording)
    return shares


def assert_same_csr(a, b):
    for name in ("indptr", "indices", "data"):
        x, y = getattr(a, name), getattr(b, name)
        assert x.dtype == y.dtype and x.tobytes() == y.tobytes(), name


@pytest.mark.skipif(not sys.platform.startswith("linux"),
                    reason="jobs split only on Linux")
class TestRowShares:
    @pytest.fixture(autouse=True)
    def threads_joined_affinity_restored(self):
        """Every thread is joined, and the caller keeps to one CPU only
        while it runs its share."""
        home = os.sched_getaffinity(0)
        threads = threading.active_count()
        yield
        assert threading.active_count() == threads
        assert os.sched_getaffinity(0) == home

    @staticmethod
    def chain(variant, weighted):
        g = generate("path", n=5)
        if weighted:
            g = Graph(g.n, g.edges, (0.3, 1.0, 0.55, 0.8))
        return random_model(np.random.default_rng(
            [ALL_VARIANTS.index(variant), weighted]), variant, n=g.n), g

    @staticmethod
    def build_and_scan(model, graph):
        S = build_transition_matrix(model, graph)
        return S, mixing_time_exact(S, 0.1)

    @pytest.mark.parametrize("workers", [2, 3])
    @pytest.mark.parametrize("weighted", [False, True])
    @pytest.mark.parametrize("variant", ALL_VARIANTS)
    def test_split_matches_serial(self, monkeypatch, variant, weighted,
                                  workers):
        """S and the mixing report are the serial ones bit for bit, with
        row blocks that cut every share."""
        model, g = self.chain(variant, weighted)
        monkeypatch.setattr(model_core, "_usable_cpus", lambda: [0])
        S, rep = self.build_and_scan(model, g)
        force_shares(monkeypatch, workers)
        monkeypatch.setattr(exact_chain, "_BUILD_BLOCK_ENTRIES", 50)
        monkeypatch.setattr(exact_chain, "_SCAN_BLOCK_DOUBLES", 5 * S.size)
        shares = recorded_shares(monkeypatch)
        S2, rep2 = self.build_and_scan(model, g)
        K = S.size
        jobs = 2 if exact_chain.dense_mixing_scan(model, g.n) else 1
        assert sorted(shares) == sorted(
            [(K * w // workers, K * (w + 1) // workers)
             for w in range(workers)] * jobs)
        assert_same_csr(S2.entries, S.entries)
        assert S2.entries.has_sorted_indices
        assert rep2 == rep

    def test_many_threads_short_switch_interval(self, monkeypatch):
        """More threads than CPUs, switching every microsecond, each writing
        its own rows of the shared arrays: no row is lost or mixed up."""
        model = ModelSpec("siv-vd", beta=0.3, delta=0.4, gamma=0.3,
                          theta=0.2)
        g = generate("star", n=6)
        monkeypatch.setattr(model_core, "_usable_cpus", lambda: [0])
        S, rep = self.build_and_scan(model, g)
        force_shares(monkeypatch, 2 * len(os.sched_getaffinity(0)) + 3)
        monkeypatch.setattr(exact_chain, "_BUILD_BLOCK_ENTRIES", 200)
        monkeypatch.setattr(exact_chain, "_SCAN_BLOCK_DOUBLES", 7 * S.size)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            S2, rep2 = self.build_and_scan(model, g)
        finally:
            sys.setswitchinterval(interval)
        assert_same_csr(S2.entries, S.entries)
        assert rep2 == rep

    @pytest.mark.parametrize("workers", [2, 3])
    def test_split_build_memory_sirs_path8(self, monkeypatch, workers):
        """The shares write into the stored arrays: the build's peak stays
        within the _BUILD_BYTES_PER_NNZ the budget check assumes."""
        force_shares(monkeypatch, workers)
        g = generate("path", n=8)
        m = ModelSpec("sirs", beta=0.05, delta=0.6, gamma=0.9)
        tracemalloc.start()
        try:
            S = build_transition_matrix(m, g)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < exact_chain._BUILD_BYTES_PER_NNZ * S.entries.nnz

    def test_each_share_runs_pinned(self, monkeypatch):
        cpus = force_shares(monkeypatch, 3)
        seen = {}
        caller = threading.get_ident()

        def job(rows):
            seen[rows.start] = (os.sched_getaffinity(0),
                                threading.get_ident() == caller)

        model_core._row_shares(job, 10)
        assert seen == {0: ({cpus[0]}, True), 3: ({cpus[1]}, False),
                        6: ({cpus[2]}, False)}

    @pytest.mark.parametrize("case", ["below-threshold", "one-cpu",
                                      "not-linux"])
    def test_serial_in_the_caller(self, monkeypatch, case):
        if case == "not-linux":
            monkeypatch.setattr(model_core, "_SHARE_MIN_ROWS", 1)
            monkeypatch.setattr(sys, "platform", "darwin")
        else:
            force_shares(monkeypatch, 2)
        if case == "below-threshold":
            monkeypatch.setattr(model_core, "_SHARE_MIN_ROWS", 11)
        elif case == "one-cpu":
            monkeypatch.setattr(model_core, "_usable_cpus",
                                lambda: sorted(os.sched_getaffinity(0))[:1])
        calls = []
        model_core._row_shares(
            lambda rows: calls.append((rows, threading.get_ident())), 10)
        assert calls == [(slice(0, 10), threading.get_ident())]

    @pytest.mark.parametrize("failing", [0, 1, 2])
    def test_share_error_reraises_after_join(self, monkeypatch, failing):
        """A share's exception re-raises in the caller once every thread
        has finished its share, with the caller's affinity restored."""
        force_shares(monkeypatch, 3)
        done = []

        def job(rows):
            if rows.start // 4 == failing:
                raise ExactChainError(f"share {failing} failed")
            time.sleep(0.2)
            done.append(rows.start)

        with pytest.raises(ExactChainError, match=f"^share {failing} failed$"):
            model_core._row_shares(job, 12)
        assert sorted(done) == [4 * w for w in range(3) if w != failing]


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
