"""Mean-field maps, Jacobians, fixed points, and certificates."""
from __future__ import annotations

import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from epinet import (
    DistVector,
    Graph,
    MeanFieldError,
    MeanFieldPoint,
    ModelSpec,
    build_transition_matrix,
    contact_from_rates,
    fd_jacobian,
    find_fixed_point,
    generate,
    jacobian_contracts,
    jacobian_eigenvalues,
    linear_bound_check,
    marginals,
    mf_iterate,
    mf_jacobian,
    mf_step,
    propagate,
    spectral_radius,
    states_table,
    threshold_ratio,
)

from epinet import mean_field
from epinet.model_core import _VARIANTS, _power_iteration
from conftest import ALL_VARIANTS, random_connected_graph, random_model


def product_dist(point: MeanFieldPoint) -> DistVector:
    """Joint product measure with the given per-node marginals."""
    n = point.n
    k = point.k
    D = states_table(n, k)
    if k == 2:
        node_probs = np.stack([1.0 - point.p_i, point.p_i])
    else:
        p_s = 1.0 - point.p_i - point.p_r
        node_probs = np.stack([p_s, point.p_i, point.p_r])
    probs = np.ones(k ** n)
    for i in range(n):
        probs *= node_probs[D[:, i], i]
    return DistVector(probs)


def random_point(rng, variant: str, n: int) -> MeanFieldPoint:
    if variant in ("sirs", "siv-id", "siv-vd"):
        raw = rng.random((2, n))
        raw /= raw.sum(axis=0) * rng.uniform(1.2, 3.0)
        return MeanFieldPoint(raw[0], raw[1])
    return MeanFieldPoint(rng.random(n))


# ---------------------------------------------------------------------------
# MeanFieldPoint
# ---------------------------------------------------------------------------

class TestPoint:
    def test_validation(self):
        with pytest.raises(MeanFieldError):
            MeanFieldPoint(np.array([0.5, 1.2]))
        with pytest.raises(MeanFieldError):
            MeanFieldPoint(np.array([0.7, 0.1]), np.array([0.5, 0.2]))

    def test_fp_slop_clipped(self):
        pt = MeanFieldPoint(np.array([1.0 + 5e-10, -5e-10]))
        assert pt.p_i[0] == 1.0
        assert pt.p_i[1] == 0.0

    def test_concat_roundtrip(self):
        pt = MeanFieldPoint(np.array([0.2, 0.3]), np.array([0.1, 0.4]))
        v = pt.concat()
        assert v.tolist() == [0.1, 0.4, 0.2, 0.3]  # recovered block first
        back = MeanFieldPoint.from_concat(v, 3)
        assert np.array_equal(back.p_i, pt.p_i)
        assert np.array_equal(back.p_r, pt.p_r)
        assert pt.k == 3 and pt.n == 2

    def test_k2_concat(self):
        pt = MeanFieldPoint(np.array([0.2, 0.3]))
        assert pt.concat().tolist() == [0.2, 0.3]
        assert pt.k == 2


# ---------------------------------------------------------------------------
# One-step map
# ---------------------------------------------------------------------------

class TestStep:
    def test_sis_nia_hand_value(self):
        g = generate("path", n=2)
        m = ModelSpec("sis-nia", beta=0.8, delta=0.4)
        out = mf_step(m, g, MeanFieldPoint(np.array([0.5, 0.5])))
        # 1 - (1 - 0.8*0.5) * (1 - 0.6*0.5) = 1 - 0.6*0.7
        assert out.p_i[0] == pytest.approx(0.58)

    def test_sis_ia_hand_value(self):
        g = generate("path", n=2)
        m = ModelSpec("sis-ia", beta=0.8, delta=0.4)
        out = mf_step(m, g, MeanFieldPoint(np.array([0.5, 0.5])))
        # 0.6*0.5 + 0.5*(1 - 0.6)
        assert out.p_i[0] == pytest.approx(0.5)

    def test_sirs_hand_value(self):
        g = generate("path", n=2)
        m = ModelSpec("sirs", beta=0.5, delta=0.3, gamma=0.6)
        pt = MeanFieldPoint(np.array([0.4, 0.2]), np.array([0.1, 0.3]))
        out = mf_step(m, g, pt)
        s0 = 1.0 - 0.4 - 0.1
        pi0 = 0.7 * 0.4 + (1.0 - (1.0 - 0.5 * 0.2)) * s0
        pr0 = 0.4 * 0.1 + 0.3 * 0.4
        assert out.p_i[0] == pytest.approx(pi0)
        assert out.p_r[0] == pytest.approx(pr0)

    def test_product_measure_one_step_identity(self, rng):
        """Exact chain marginals after one step from a product measure equal
        the mean-field map output, for every variant. Both read the variant
        table's per-node law (sis-nia and sis-general excepted), so this
        checks the product-measure average: the chain sums the law over
        2^n or 3^n joint states, the map applies it to the marginals."""
        for variant in ALL_VARIANTS:
            g = random_connected_graph(rng, 4, weighted_prob=0.4)
            m = random_model(rng, variant, n=g.n)
            pt = random_point(rng, variant, g.n)
            mu = product_dist(pt)
            S = build_transition_matrix(m, g)
            exact = marginals(propagate(mu, S, 1), m)
            mf = mf_step(m, g, pt)
            assert np.abs(exact.p_i - mf.p_i).max() < 1e-12, variant
            if m.k == 3:
                assert np.abs(exact.p_r - mf.p_r).max() < 1e-12, variant

    def test_general_matches_nia(self, rng):
        g = random_connected_graph(rng, 6, weighted_prob=0.5)
        beta, delta = 0.35, 0.65
        m1 = ModelSpec("sis-nia", beta=beta, delta=delta)
        m2 = ModelSpec("sis-general",
                       contact=contact_from_rates(g, beta, delta))
        x = MeanFieldPoint(rng.random(g.n))
        out1 = mf_step(m1, g, x)
        out2 = mf_step(m2, g, x)
        assert np.abs(out1.p_i - out2.p_i).max() < 1e-12

    def test_siv_theta_zero_is_sirs(self, rng):
        g = random_connected_graph(rng, 6)
        pt = random_point(rng, "sirs", g.n)
        m_sirs = ModelSpec("sirs", beta=0.4, delta=0.3, gamma=0.5)
        for variant in ("siv-id", "siv-vd"):
            m_siv = ModelSpec(variant, beta=0.4, delta=0.3, gamma=0.5,
                              theta=0.0)
            a = mf_step(m_sirs, g, pt)
            b = mf_step(m_siv, g, pt)
            assert np.array_equal(a.p_i, b.p_i)
            assert np.array_equal(a.p_r, b.p_r)

    def test_siv_base_point_is_fixed(self, rng):
        g = random_connected_graph(rng, 5)
        for variant in ("siv-id", "siv-vd"):
            m = random_model(rng, variant, n=g.n)
            base = siv_base_point(m, g.n)
            out = mf_step(m, g, base)
            assert np.abs(out.p_i - base.p_i).max() == 0.0
            assert np.abs(out.p_r - base.p_r).max() < 1e-15

    def test_requires_matching_k(self, path3):
        m = ModelSpec("sirs", beta=0.4, delta=0.3, gamma=0.5)
        with pytest.raises(MeanFieldError):
            mf_step(m, path3, MeanFieldPoint(np.full(3, 0.5)))

    @given(st.integers(0, 10 ** 6), st.sampled_from(ALL_VARIANTS))
    @settings(max_examples=40, deadline=None)
    def test_stays_in_box(self, seed, variant):
        rng = np.random.default_rng(seed)
        g = random_connected_graph(rng, 6, weighted_prob=0.3)
        m = random_model(rng, variant, n=g.n)
        pt = random_point(rng, variant, g.n)
        out = mf_step(m, g, pt)
        assert np.all(out.p_i >= 0.0) and np.all(out.p_i <= 1.0)
        if m.k == 3:
            assert np.all(out.p_r >= 0.0)
            assert np.all(out.p_i + out.p_r <= 1.0 + 1e-12)

    @given(st.integers(0, 10 ** 6))
    @settings(max_examples=30, deadline=None)
    def test_monotone_sis_nia(self, seed):
        rng = np.random.default_rng(seed)
        g = random_connected_graph(rng, 6)
        m = random_model(rng, "sis-nia", n=g.n)
        x = rng.random(g.n)
        y = x + rng.random(g.n) * (1.0 - x)
        fx = mf_step(m, g, MeanFieldPoint(x)).p_i
        fy = mf_step(m, g, MeanFieldPoint(y)).p_i
        assert np.all(fx <= fy + 1e-12)


# ---------------------------------------------------------------------------
# Linearization
# ---------------------------------------------------------------------------

def siv_base_point(model, n):
    """Disease-free point: no infection and, for 3-compartment variants,
    p_r from the single-node disease-free law (theta/(gamma+theta) for SIV,
    0 for sirs)."""
    if model.k == 2:
        return MeanFieldPoint(np.zeros(n))
    law = _VARIANTS[model.variant].free_law(model)
    return MeanFieldPoint(np.zeros(n), np.full(n, law[2]))


def linear_model(model, graph):
    """The linearization matrix at the disease-free point, as the paper
    prints it, and that point.

    For 2-compartment variants the n x n matrix (1-delta) I + c beta A, or
    the contact matrix itself, with c = p_S f the susceptible weight of the
    disease-free law times the infection factor. For 3-compartment variants
    the 2n x 2n upper block-triangular matrix in (recovered, infected)
    order; sirs is its theta = 0 case. For siv-vd the printed upper-right
    block (delta-theta) I - theta p_S beta A differs from the true
    derivative, which has no adjacency term there.
    """
    n = graph.n
    A = graph.adjacency()
    base = siv_base_point(model, n)
    if model.contact is not None:
        return np.array(model.contact, dtype=float), base
    rule = _VARIANTS[model.variant]
    ps = rule.free_law(model)[0]
    eff = ps * rule.infection(model)
    infected = (1.0 - model.delta) * np.eye(n) + eff * model.beta * A
    if model.k == 2:
        return infected, base
    theta = model.theta or 0.0
    tr = (model.delta - theta) * np.eye(n) - theta * ps * model.beta * A
    top = np.hstack([(1.0 - model.gamma - theta) * np.eye(n), tr])
    bot = np.hstack([np.zeros((n, n)), infected])
    return np.vstack([top, bot]), base


class TestLinearModel:
    def test_k2_matrix(self):
        g = generate("star", n=4)
        m = ModelSpec("sis-nia", beta=0.3, delta=0.4)
        L, base = linear_model(m, g)
        expected = 0.6 * np.eye(4) + 0.3 * g.adjacency()
        assert np.allclose(L, expected, atol=1e-15)
        assert np.all(base.p_i == 0.0)

    def test_general_matrix_is_contact(self, rng):
        g = random_connected_graph(rng, 4)
        M = contact_from_rates(g, 0.2, 0.7)
        m = ModelSpec("sis-general", contact=M)
        L, _ = linear_model(m, g)
        assert np.array_equal(L, M)

    def test_sirs_blocks(self):
        g = generate("path", n=3)
        m = ModelSpec("sirs", beta=0.2, delta=0.5, gamma=0.3)
        L, _ = linear_model(m, g)
        n = 3
        A = g.adjacency()
        assert np.allclose(L[:n, :n], 0.7 * np.eye(n))
        assert np.allclose(L[:n, n:], 0.5 * np.eye(n))
        assert np.allclose(L[n:, :n], 0.0)
        assert np.allclose(L[n:, n:], 0.5 * np.eye(n) + 0.2 * A)

    def test_jacobian_at_base_equals_linear_k2_sirs(self, rng):
        for variant in ("sis-nia", "sis-ia", "sis-general", "sirs"):
            g = random_connected_graph(rng, 5)
            m = random_model(rng, variant, n=g.n)
            L, base = linear_model(m, g)
            J = mf_jacobian(m, g, base)
            assert np.abs(J - L).max() < 1e-12, variant

    def test_siv_id_printed_equals_jacobian(self, rng):
        g = random_connected_graph(rng, 5)
        m = random_model(rng, "siv-id", n=g.n)
        L, base = linear_model(m, g)
        J = mf_jacobian(m, g, base)
        assert np.abs(J - L).max() < 1e-12

    def test_siv_vd_printed_top_right_discrepancy(self, rng):
        """The conventional printed linearization for vaccination-dominant
        dynamics carries an adjacency term in its upper-right block that the
        true derivative does not have; the spectra still agree because both
        matrices are block-triangular with identical diagonal blocks."""
        g = random_connected_graph(rng, 5)
        m = random_model(rng, "siv-vd", n=g.n)
        n = g.n
        L, base = linear_model(m, g)
        J = mf_jacobian(m, g, base)
        ps = m.gamma / (m.gamma + m.theta)
        expected_gap = m.theta * ps * m.beta * g.adjacency()
        gap = J[:n, n:] - L[:n, n:]
        assert np.abs(gap - expected_gap).max() < 1e-12
        # identical everywhere else
        assert np.abs(J[:n, :n] - L[:n, :n]).max() < 1e-12
        assert np.abs(J[n:, :] - L[n:, :]).max() < 1e-12
        ev_a = np.sort_complex(np.linalg.eigvals(L))
        ev_b = np.sort_complex(np.linalg.eigvals(J))
        assert np.abs(ev_a - ev_b).max() < 1e-9

    def test_linear_spectrum_matches_threshold(self, rng):
        """Spectral radius of the infected block is ratio * delta for the
        rate-based variants (the threshold statement in matrix form)."""
        g = random_connected_graph(rng, 6)
        lam = spectral_radius(g).lambda_max
        m = ModelSpec("siv-vd", beta=0.3, delta=0.6, gamma=0.4, theta=0.2)
        L, _ = linear_model(m, g)
        n = g.n
        block = L[n:, n:]
        rho = np.abs(np.linalg.eigvals(block)).max()
        eff = (1.0 - 0.2) * (0.4 / 0.6)  # (1-theta) * stationary S fraction
        assert rho == pytest.approx(0.4 + 0.3 * eff * lam, abs=1e-9)
        # the same quantity expressed through the scalar threshold ratio:
        # rho = (1 - delta) + ratio * delta
        ratio = threshold_ratio(m, g)
        assert rho == pytest.approx(0.4 + ratio * 0.6, abs=1e-9)


class TestJacobian:
    def test_matches_finite_differences(self, rng):
        for variant in ALL_VARIANTS:
            for _ in range(3):
                g = random_connected_graph(rng, 5, weighted_prob=0.3)
                m = random_model(rng, variant, n=g.n)
                pt = random_point(rng, variant, g.n)
                # keep the FD stencil inside the box
                pt = MeanFieldPoint(
                    0.1 + 0.6 * pt.p_i,
                    None if pt.p_r is None else 0.05 + 0.2 * pt.p_r,
                )
                J = mf_jacobian(m, g, pt)
                J_fd = fd_jacobian(m, g, pt)
                assert np.abs(J - J_fd).max() < 1e-6, variant

    @staticmethod
    def fd_jacobian_by_mf_step(model, graph, x, h=1e-6):
        """The finite-difference Jacobian as two mf_step calls per
        column."""
        v0 = x.concat()
        J = np.empty((len(v0), len(v0)))
        for j in range(len(v0)):
            vp, vm = v0.copy(), v0.copy()
            vp[j] += h
            vm[j] -= h
            fp = mf_step(model, graph, MeanFieldPoint.from_concat(vp, model.k))
            fm = mf_step(model, graph, MeanFieldPoint.from_concat(vm, model.k))
            J[:, j] = (fp.concat() - fm.concat()) / (2.0 * h)
        return J

    def test_fd_jacobian_builds_the_map_once(self, rng, monkeypatch):
        import epinet.verify as verify

        builds = []
        build = verify._mf_map

        def counting(model, graph):
            builds.append(model.variant)
            return build(model, graph)

        monkeypatch.setattr(verify, "_mf_map", counting)
        for variant in ALL_VARIANTS:
            g = random_connected_graph(rng, 6, weighted_prob=0.3)
            m = random_model(rng, variant, n=g.n)
            pt = random_point(rng, variant, g.n)
            pt = MeanFieldPoint(
                0.1 + 0.6 * pt.p_i,
                None if pt.p_r is None else 0.05 + 0.2 * pt.p_r,
            )
            builds.clear()
            J_fd = fd_jacobian(m, g, pt)
            assert builds == [variant]
            assert np.array_equal(J_fd, self.fd_jacobian_by_mf_step(m, g, pt))

    def test_zero_escape_factor_leave_one_out(self):
        """A saturated edge (beta w = 1 onto an infected neighbor) zeroes one
        escape factor; the leave-one-out derivative must stay finite and
        match a brute-force product."""
        g = generate("star", n=4)
        m = ModelSpec("sis-nia", beta=1.0, delta=0.5)
        x = np.array([0.0, 1.0, 0.5, 0.25])
        J = mf_jacobian(m, g, MeanFieldPoint(x))
        assert np.all(np.isfinite(J))
        # dPhi_0/dx_2: (1 - bx_1)(1 - bx_3) with the x_1 factor = 0
        assert J[0, 2] == pytest.approx(0.0, abs=1e-15)
        # dPhi_0/dx_1: (1 - bx_2)(1 - bx_3) = 0.5 * 0.75
        assert J[0, 1] == pytest.approx(0.375 * (1.0 - 0.5 * 0.0), abs=1e-12)


class TestJacobianEigenvalues:
    """jacobian_eigenvalues against np.linalg.eigvals(mf_jacobian)."""

    @staticmethod
    def oracle(m, g, pt):
        return np.linalg.eigvals(mf_jacobian(m, g, pt))

    def test_symmetric_path_matches_eigvals(self, rng):
        graphs = [generate("complete", n=1), generate("path", n=2),
                  Graph(6, ((0, 1), (1, 2), (3, 4)))]  # node 5 isolated
        for _ in range(40):
            n = int(rng.integers(1, 40))
            graphs.append(generate("er", n=n, p=float(rng.uniform(0.02, 0.6)),
                                   seed=int(rng.integers(2 ** 31))))
        for t, g in enumerate(graphs):
            m = random_model(rng, ("sis-nia", "sis-ia")[t % 2])
            if t % 5 == 0:
                m = ModelSpec(m.variant, beta=1.0, delta=m.delta)
            pt = MeanFieldPoint(rng.uniform(0.0, 0.99, g.n))
            ev = jacobian_eigenvalues(m, g, pt)
            assert ev.dtype == np.float64
            ref = np.sort_complex(self.oracle(m, g, pt))
            scale = max(1.0, float(np.abs(ref).max()))
            assert np.abs(ref.imag).max() <= 1e-12 * scale
            assert np.abs(np.sort(ev) - ref.real).max() <= 1e-12 * scale

    def test_fallbacks_equal_eigvals(self, rng):
        g = random_connected_graph(rng, 7, n_min=4)
        weighted = Graph(g.n, g.edges, rng.uniform(0.2, 1.0, g.m))
        cases = [(random_model(rng, "sis-nia"), weighted),
                 (random_model(rng, "sis-ia"), weighted)]
        cases += [(random_model(rng, v, n=g.n), g)
                  for v in ("sis-general", "sirs", "siv-id", "siv-vd")]
        for variant in ("sis-nia", "sis-ia"):
            cases.append((ModelSpec(variant, beta=1.0, delta=0.3), g))
        for m, graph in cases:
            pt = random_point(rng, m.variant, graph.n)
            if m.beta == 1.0:
                p = pt.p_i.copy()
                p[1] = 1.0
                pt = MeanFieldPoint(p)
            ev = jacobian_eigenvalues(m, graph, pt)
            assert np.array_equal(ev, self.oracle(m, graph, pt)), m.variant

    def test_mismatched_point_rejected(self, path3):
        m = ModelSpec("sis-nia", beta=0.3, delta=0.7)
        with pytest.raises(MeanFieldError):
            jacobian_eigenvalues(m, path3, MeanFieldPoint(np.full(4, 0.2)))
        with pytest.raises(MeanFieldError):
            jacobian_eigenvalues(m, path3, MeanFieldPoint(np.full(3, 0.2),
                                                          np.full(3, 0.1)))


# ---------------------------------------------------------------------------
# Hand-written map and Jacobian: the oracle of the table kernel
# ---------------------------------------------------------------------------

def reference_map(model, graph, v):
    """Each variant's mean-field map written out by hand, on concat vectors.
    sis-general's is 1 - prod_j (1 - m_ij x_j) over the dense contact
    matrix, which holds the node's own factor 1 - m_ii."""
    n = graph.n
    if model.variant == "sis-general":
        M = model.contact
        return 1.0 - np.prod(1.0 - M * v[None, :], axis=1)
    products = mean_field._neighbor_products(model, graph)
    delta, gamma, theta = model.delta, model.gamma, model.theta
    if model.variant == "sis-nia":
        return 1.0 - products(v) * (1.0 - (1.0 - delta) * v)
    if model.variant == "sis-ia":
        return (1.0 - delta) * v + (1.0 - v) * (1.0 - products(v))
    r, p = v[:n], v[n:]
    Pi = products(p)
    s = 1.0 - r - p
    np.clip(s, 0.0, 1.0, out=s)
    new_i_core = (1.0 - delta) * p
    xi = 1.0 - Pi
    if model.variant == "sirs":
        new_r = (1.0 - gamma) * r + delta * p
        new_i = new_i_core + xi * s
    elif model.variant == "siv-id":
        new_r = (1.0 - gamma) * r + delta * p + theta * Pi * s
        new_i = new_i_core + xi * s
    else:  # siv-vd
        new_r = (1.0 - gamma) * r + delta * p + theta * s
        new_i = new_i_core + (1.0 - theta) * xi * s
    return np.concatenate([new_r, new_i])


def reference_sis_coefficients(model, p, Pi):
    """Diagonal d and row scale c of a 2-compartment rate Jacobian:
    J_ii = d_i and J_ij = c_i * dPi_i/dx_j on every edge (i, j)."""
    if model.variant == "sis-nia":
        return (1.0 - model.delta) * Pi, 1.0 - (1.0 - model.delta) * p
    return (1.0 - model.delta) - (1.0 - Pi), 1.0 - p  # sis-ia


def reference_jacobian(model, graph, x):
    """Each variant's Jacobian written out by hand; sis-general's is the
    dense M o leave-one-out products of its contact map."""
    n = graph.n
    p = x.p_i
    if model.variant == "sis-general":
        M = model.contact
        F = 1.0 - M * p[None, :]
        L = mean_field._leave_one_out(F.ravel(), np.arange(0, n * n + 1, n),
                                      np.prod(F, axis=1))
        return M * L.reshape(n, n)
    A = graph.adjacency_sparse
    rows = np.repeat(np.arange(n), np.diff(A.indptr))
    cols = A.indices
    bw = model.beta * A.data
    f = 1.0 - bw * p[cols]
    Pi = mean_field._row_products(A.indptr, f)
    dPi = bw * mean_field._leave_one_out(f, A.indptr, Pi)
    diag = np.arange(n)
    if model.k == 2:
        J = np.zeros((n, n))
        d, c = reference_sis_coefficients(model, p, Pi)
        J[rows, cols] = dPi * c[rows]
        J[diag, diag] = d
        return J
    r = x.p_r
    s = np.clip(1.0 - r - p, 0.0, 1.0)
    xi = 1.0 - Pi
    J = np.zeros((2 * n, 2 * n))
    R, I = slice(0, n), slice(n, 2 * n)
    scale = (1.0 - model.theta) if model.variant == "siv-vd" else 1.0
    J[n + rows, n + cols] = scale * s[rows] * dPi
    J[n + diag, n + diag] += (1.0 - model.delta) - scale * xi
    J[n + diag, diag] = -scale * xi
    if model.variant == "sirs":
        J[diag, diag] = 1.0 - model.gamma
        J[diag, n + diag] = model.delta
    elif model.variant == "siv-id":
        J[diag, diag] = (1.0 - model.gamma) - model.theta * Pi
        J[rows, n + cols] = -model.theta * s[rows] * dPi
        J[diag, n + diag] += model.delta - model.theta * Pi
    else:  # siv-vd
        J[R, R] = (1.0 - model.gamma - model.theta) * np.eye(n)
        J[R, I] = (model.delta - model.theta) * np.eye(n)
    return J


def reference_eigenvalues(model, graph, x):
    """The symmetric-form spectrum of an unweighted SIS Jacobian."""
    n = graph.n
    A = graph.adjacency_sparse
    rows = np.repeat(np.arange(n), np.diff(A.indptr))
    f = 1.0 - model.beta * x.p_i
    Pi = mean_field._row_products(A.indptr, f[A.indices])
    d, c = reference_sis_coefficients(model, x.p_i, Pi)
    w = np.sqrt(model.beta * Pi * c / f)
    S = np.zeros((n, n))
    S[rows, A.indices] = w[rows] * w[A.indices]
    np.fill_diagonal(S, d)
    return np.linalg.eigvalsh(S)


_ER40 = generate("er", n=40, p=0.15, seed=8)
_TAIL = generate("er", n=16, p=0.3, seed=4)
ORACLE_GRAPHS = {
    # Per-edge products; the log-sum products (unweighted, n > 256); and
    # per-edge products with isolated nodes, where Pi = 1.
    "weighted": Graph(40, _ER40.edges, tuple(
        np.random.default_rng(9).uniform(0.3, 1.0, _ER40.m))),
    "er300": generate("er", n=300, p=0.02, seed=6),
    "isolated-tail": Graph(20, _TAIL.edges),
}
TABLE_VARIANTS = ("sis-nia", "sis-ia", "sis-general", "sirs", "siv-id",
                  "siv-vd")


def oracle_models(rng, variant, graph):
    """Random rates, beta = 1, and every rate at 0 or 1 in turn. For
    sis-general: a random contact matrix, one with a zero row and a zero
    diagonal, and contact_from_rates's, each also with entries of 1 in the
    columns where oracle_point puts p = 1 (row 5 has two of them)."""
    if variant == "sis-general":
        n = graph.n
        dense = rng.uniform(0.0, 1.0, (n, n))
        dense[rng.random((n, n)) < 0.3] = 0.0
        holes = dense.copy()
        holes[0] = 0.0
        np.fill_diagonal(holes, 0.0)
        contacts = []
        for M in (dense, holes, contact_from_rates(graph, 0.4, 0.3)):
            ones = M.copy()
            ones[[2, 3, 5, 5], [1, 3, 1, 3]] = 1.0
            contacts += [M, ones]
        return [ModelSpec(variant, contact=M) for M in contacts]
    models = [random_model(rng, variant)]
    rates = {name: getattr(models[0], name) for name in
             ("beta", "delta", "gamma", "theta")
             if getattr(models[0], name) is not None}
    models.append(ModelSpec(variant, **{**rates, "beta": 1.0}))
    for name in rates:
        for value in (0.0, 1.0):
            changed = {**rates, name: value}
            if changed.get("gamma") == changed.get("theta") == 1.0:
                continue
            models.append(ModelSpec(variant, **changed))
    return models


def oracle_point(rng, model, n):
    """A random point with p = 1 at nodes 1 and 3, p = 0 at node 2 and,
    for three compartments, s = 0 at nodes 1, 3 and 4."""
    p = rng.uniform(0.05, 0.9, n)
    p[[1, 3]] = 1.0
    p[2] = 0.0
    if model.k == 2:
        return MeanFieldPoint(p)
    r = (1.0 - p) * rng.uniform(0.0, 1.0, n)
    r[4] = 1.0 - p[4]
    return MeanFieldPoint(p, r)


class TestTableKernel:
    """The map and Jacobian read from the variant table equal the
    hand-written formulas bit for bit."""

    @pytest.mark.parametrize("graph_name", sorted(ORACLE_GRAPHS))
    @pytest.mark.parametrize("variant", TABLE_VARIANTS)
    def test_map_and_jacobian_bytes(self, variant, graph_name):
        g = ORACLE_GRAPHS[graph_name]
        rng = np.random.default_rng([len(variant), g.n])
        for m in oracle_models(rng, variant, g):
            for x in (oracle_point(rng, m, g.n), random_point(rng, variant, g.n)):
                v = x.concat()
                assert (mean_field._mf_map(m, g)(v).tobytes()
                        == reference_map(m, g, v).tobytes()), m.describe()
                assert (mf_step(m, g, x).concat().tobytes()
                        == MeanFieldPoint.from_concat(reference_map(m, g, v),
                                                      m.k).concat().tobytes())
                assert (mf_jacobian(m, g, x).tobytes()
                        == reference_jacobian(m, g, x).tobytes()), m.describe()
                if m.k == 2 and m.contact is None and not g.is_weighted \
                        and m.beta < 1.0:
                    assert (jacobian_eigenvalues(m, g, x).tobytes()
                            == reference_eigenvalues(m, g, x).tobytes())

    def test_contact_fixed_point_holds_no_dense_temporary(self):
        """sis-general's map runs over the contact matrix's nonzeros: the
        fixed-point loop on an n = 2000 graph allocates no n x n array
        (32 MB)."""
        import tracemalloc

        g = generate("er", n=2000, p=0.0082, seed=7)
        m = ModelSpec("sis-general", contact=contact_from_rates(g, 0.08, 0.9))
        tracemalloc.start()
        try:
            rep = find_fixed_point(m, g)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert rep.classification == "endemic"
        assert peak < 8 * 2 ** 20

    def test_signed_zeros_reproduced(self):
        """-0.0 where the formulas give it: siv-id's -theta s at s = 0,
        -(1 - Pi) at an isolated node, and siv-vd's negative constants off
        the diagonal."""
        g = ORACLE_GRAPHS["isolated-tail"]
        n = g.n
        x = oracle_point(np.random.default_rng(1), ModelSpec(
            "sirs", beta=0.3, delta=0.4, gamma=0.3), n)
        J = mf_jacobian(ModelSpec("siv-id", beta=0.3, delta=0.4, gamma=0.3,
                                  theta=0.2), g, x)
        edge = g.adjacency_sparse.indices[g.adjacency_sparse.indptr[1]]
        assert J[1, n + edge] == 0.0 and np.signbit(J[1, n + edge])
        assert np.signbit(J[n + n - 1, n - 1])  # isolated: -(1 - Pi) = -0.0
        J = mf_jacobian(ModelSpec("siv-vd", beta=0.3, delta=0.1, gamma=0.9,
                                  theta=0.2), g, x)
        assert np.signbit(J[0, 1]) and np.signbit(J[0, n + 1])
        assert not np.signbit(J[n, n + 1])


# ---------------------------------------------------------------------------
# Fixed points
# ---------------------------------------------------------------------------

class TestFixedPoint:
    def test_fixed_point_takes_no_spectrum(self, monkeypatch, star3):
        """find_fixed_point returns the point alone; its spectrum is the
        caller's jacobian_eigenvalues call."""
        def refuse(*args):
            raise AssertionError("find_fixed_point took the spectrum")

        monkeypatch.setattr(mean_field, "jacobian_eigenvalues", refuse)
        rep = find_fixed_point(ModelSpec("sirs", beta=0.6, delta=0.3,
                                         gamma=0.4), star3)
        assert rep.classification == "endemic"

    def test_endemic_closed_form_k2(self):
        g = generate("complete", n=2)
        m = ModelSpec("sis-nia", beta=0.8, delta=0.4)
        rep = find_fixed_point(m, g)
        assert rep.classification == "endemic"
        assert np.allclose(rep.point.p_i, 0.4 / 0.48, atol=1e-9)
        assert rep.residual < 1e-10

    def test_disease_free_below_threshold(self, rng):
        g = random_connected_graph(rng, 8)
        lam = spectral_radius(g).lambda_max
        m = ModelSpec("sis-nia", beta=round(0.5 * 0.8 / lam, 6), delta=0.8)
        assert threshold_ratio(m, g) < 1.0
        rep = find_fixed_point(m, g)
        assert rep.classification == "disease-free"
        assert np.abs(rep.point.p_i).max() < 1e-8

    def test_monotone_variants_use_raw_map(self, rng):
        g = random_connected_graph(rng, 6)
        m = random_model(rng, "sis-general", n=g.n)
        rep = find_fixed_point(m, g)
        assert rep.classification in ("disease-free", "endemic")

    def test_multistart_agreement_above_threshold(self, rng):
        g = random_connected_graph(rng, 7)
        lam = spectral_radius(g).lambda_max
        m = ModelSpec("sis-nia", beta=min(0.95, round(1.6 * 0.5 / lam, 6)),
                      delta=0.5)
        assert threshold_ratio(m, g) > 1.0
        ref = find_fixed_point(m, g, tol=1e-12)
        assert ref.classification == "endemic"
        for _ in range(5):
            x0 = MeanFieldPoint(rng.uniform(0.05, 1.0, g.n))
            rep = find_fixed_point(m, g, tol=1e-12, x0=x0)
            assert np.abs(rep.point.p_i - ref.point.p_i).max() < 1e-7

    def test_raw_iteration_cycles_damped_converges(self, star3):
        """Recovery-independent dynamics on the 3-star at high rates: the
        raw map falls into a period-2 cycle, damping restores convergence to
        the endemic point."""
        m = ModelSpec("sis-ia", beta=0.9, delta=0.9)
        raw = find_fixed_point(m, star3, damping=1.0)
        assert raw.classification == "cycle(2)"
        damped = find_fixed_point(m, star3)
        assert damped.classification == "endemic"
        assert np.allclose(damped.point.p_i,
                           [2.0 / 7.0, 2.0 / 9.0, 2.0 / 9.0], atol=1e-8)

    def test_relation_defect_endemic_k3(self, rng):
        specs = [
            ("sirs", dict(beta=0.6, delta=0.3, gamma=0.4)),
            ("siv-id", dict(beta=0.7, delta=0.2, gamma=0.6, theta=0.05)),
            ("siv-vd", dict(beta=0.8, delta=0.2, gamma=0.6, theta=0.05)),
        ]
        g = random_connected_graph(rng, 7)
        for variant, params in specs:
            m = ModelSpec(variant, **params)
            assert threshold_ratio(m, g) > 1.0
            rep = find_fixed_point(m, g, tol=1e-12)
            assert rep.classification == "endemic", variant
            assert rep.relation_defect is not None
            assert rep.relation_defect <= 1e-8, variant

    def test_iterate_trajectory(self, rng):
        """Every point of the trajectory equals repeated mf_step, bit for
        bit, on unweighted and weighted graphs."""
        for variant in ALL_VARIANTS:
            for weighted_prob in (0.0, 1.0):
                g = random_connected_graph(rng, 8, n_min=3,
                                           weighted_prob=weighted_prob)
                m = random_model(rng, variant, n=g.n)
                x = random_point(rng, variant, g.n)
                traj = mf_iterate(m, g, x, 12)
                assert len(traj) == 13 and traj[0] is x
                for got in traj[1:]:
                    x = mf_step(m, g, x)
                    assert np.array_equal(got.p_i, x.p_i), variant
                    if m.k == 3:
                        assert np.array_equal(got.p_r, x.p_r), variant
                    else:
                        assert got.p_r is None

    def test_tol_validation(self, path3):
        m = ModelSpec("sis-nia", beta=0.3, delta=0.7)
        with pytest.raises(MeanFieldError):
            find_fixed_point(m, path3, tol=0.0)

    def test_x0_must_match(self, path3):
        m = ModelSpec("sirs", beta=0.3, delta=0.7, gamma=0.4)
        for x0 in (MeanFieldPoint(np.full(3, 0.2)),
                   MeanFieldPoint(np.full(4, 0.2), np.full(4, 0.1))):
            with pytest.raises(MeanFieldError, match="point has"):
                find_fixed_point(m, path3, x0=x0)

    @settings(max_examples=300, deadline=None)
    @given(a=st.floats(0.0, 1.0), b=st.floats(0.0, 1.0),
           eta=st.one_of(st.floats(0.0, 1.0, exclude_min=True),
                         st.sampled_from([1.0, 0.5, 1.0 - 2.0 ** -53])))
    def test_damped_combination_stays_in_unit_interval(self, a, b, eta):
        """find_fixed_point keeps its iterates unclipped: the damped
        combination of two points of [0,1] rounds into [0,1]."""
        vec = np.array([a, b, 1e-300, 0.4999999999999999, 1.0, 0.0])
        fvec = np.array([b, a, 1.0, 1.0, 0.0, 1.0])
        nvec = vec + eta * (fvec - vec)
        assert np.all((nvec >= 0.0) & (nvec <= 1.0))

    @pytest.mark.parametrize("tol", [-1e-10, math.inf, math.nan])
    def test_tol_must_be_finite_positive(self, path3, tol):
        m = ModelSpec("sis-ia", beta=0.3, delta=0.7)
        with pytest.raises(MeanFieldError, match="tol"):
            find_fixed_point(m, path3, tol=tol)

    @pytest.mark.parametrize("damping", [0.0, -0.5, 1.5, math.inf,
                                         math.nan])
    def test_damping_in_unit_interval(self, path3, damping):
        m = ModelSpec("sis-ia", beta=0.3, delta=0.7)
        with pytest.raises(MeanFieldError, match="damping"):
            find_fixed_point(m, path3, damping=damping)


def reference_fixed_point(model, graph, tol=1e-10, cap=100000, damping=None,
                          x0=None):
    """The fixed-point loop with a list history and one distance per lag,
    as find_fixed_point ran it before its lags were compared at once.

    Returns (classification, iterations, residual, point) and calls the map
    through mean_field.mf_step, which builds it with mean_field._mf_map as
    find_fixed_point does, so a monkeypatched _mf_map reaches both.
    """
    from epinet.model_core import _VARIANTS

    monotone = _VARIANTS[model.variant].order_preserving
    if damping is None:
        damping = 1.0 if monotone else 0.5
    assert_decreasing = monotone and x0 is None and damping == 1.0
    x = x0 if x0 is not None else mean_field._upper_corner(model, graph.n)
    vec = x.concat()
    history = [vec]
    it = 0
    residual = math.inf
    classification = "non-converged"
    for it in range(1, cap + 1):
        fx = mean_field.mf_step(model, graph, x)
        fvec = fx.concat()
        residual = float(np.abs(fvec - vec).max())
        nvec = vec + damping * (fvec - vec)
        if assert_decreasing and np.any(nvec > vec + 1e-12):
            raise MeanFieldError("monotone iteration increased a coordinate")
        if residual < tol:
            x = fx
            vec = fvec
            classification = "converged"
            break
        cycle_q = 0
        nv_res = None
        for q in range(2, min(len(history), 64) + 1):
            if np.abs(nvec - history[-q]).max() < 1e-9:
                amplitude = max(
                    float(np.abs(nvec - history[-j]).max())
                    for j in range(1, q)
                )
                if amplitude <= 1e-6:
                    break
                nv_res = float(
                    np.abs(mean_field.mf_step(
                        model, graph,
                        MeanFieldPoint.from_concat(nvec, model.k)
                    ).concat() - nvec).max()
                )
                if nv_res > tol:
                    cycle_q = q
                break
        x = MeanFieldPoint.from_concat(nvec, model.k)
        vec = nvec
        if cycle_q:
            classification = f"cycle({cycle_q})"
            residual = nv_res
            break
        history.append(vec)
        if len(history) > 65:
            history.pop(0)
    if classification == "converged":
        inf_norm = float(np.abs(x.p_i).max())
        classification = ("disease-free" if inf_norm < max(tol, 1e-8)
                          else "endemic")
    return classification, it, residual, x


class TestCycleDetector:
    """find_fixed_point's cycle detection against reference_fixed_point."""

    @staticmethod
    def assert_same(m, g, **kwargs):
        cls, it, res, pt = reference_fixed_point(m, g, **kwargs)
        rep = find_fixed_point(m, g, **kwargs)
        assert (rep.classification, rep.iterations, rep.residual) \
            == (cls, it, res)
        assert np.array_equal(rep.point.concat(), pt.concat())
        return rep

    @staticmethod
    def use_map(monkeypatch, fn):
        monkeypatch.setattr(mean_field, "_mf_map", lambda model, graph: fn)

    M = ModelSpec("sis-ia", beta=0.5, delta=0.5)

    def test_period_two(self, monkeypatch):
        self.use_map(monkeypatch, lambda p: 1.0 - p)
        rep = self.assert_same(self.M, generate("path", n=4), damping=1.0,
                               x0=MeanFieldPoint(np.linspace(0.1, 0.4, 4)))
        assert rep.classification == "cycle(2)"

    @pytest.mark.parametrize("q", [3, 17, 64, 65])
    def test_rotation_orbit(self, monkeypatch, q):
        """A rotation of q distinct values has period q; 64 is the longest
        period detected, so 65 runs to the cap."""
        self.use_map(monkeypatch, lambda p: np.roll(p, 1))
        rep = self.assert_same(self.M, generate("path", n=q), damping=1.0,
                               cap=300,
                               x0=MeanFieldPoint(np.linspace(0.05, 0.9, q)))
        assert rep.classification == ("non-converged" if q > 64
                                      else f"cycle({q})")

    def test_slow_convergence_is_not_a_cycle(self, monkeypatch):
        """Iterates recur within 1e-9 at lag 2 but swing by less than 1e-6,
        for longer than the 64 stored iterates."""
        c = np.array([0.3, 0.6])
        self.use_map(monkeypatch, lambda p: c - 0.999 * (p - c))
        rep = self.assert_same(self.M, generate("path", n=2), tol=1e-13,
                               cap=600, damping=1.0,
                               x0=MeanFieldPoint(c + 1e-7))
        assert rep.classification == "non-converged"
        assert rep.iterations == 600

    def test_slow_convergence_converges(self, monkeypatch):
        """Recent iterates recur within 1e-9 and the swing stays below
        1e-6, so each step finds a candidate period and rejects it, until
        the residual falls below tol."""
        c = np.array([0.3, 0.6, 0.45])
        self.use_map(monkeypatch, lambda p: c + 0.999 * (p - c))
        rep = self.assert_same(self.M, generate("path", n=3), tol=1e-13,
                               damping=1.0,
                               x0=MeanFieldPoint(c + [1e-7, -5e-8, 2e-8]))
        assert rep.classification == "endemic"
        assert rep.iterations > 1000

    def test_probe_recurs_other_coordinate_moves(self, monkeypatch):
        """Node 0 flips between 0.2 and 0.8 and so is the probe coordinate;
        it recurs at every even lag while node 1 still climbs by 1e-3 a
        step, and each such lag fails the full comparison. Once node 1
        stops at 0.1 the period-2 cycle is found."""
        def flip_and_climb(p):
            return np.array([1.0 - p[0], min(p[1] + 1e-3, 0.1)])

        self.use_map(monkeypatch, flip_and_climb)
        rep = self.assert_same(self.M, generate("path", n=2), damping=1.0,
                               x0=MeanFieldPoint(np.array([0.2, 0.0])))
        assert rep.classification == "cycle(2)"
        assert rep.iterations > 100

    def test_cycle_after_long_transient(self, monkeypatch):
        """Node 0 decays geometrically; once it is small the other nodes
        flip, so a period-2 cycle is found well past 64 stored iterates."""
        def flip_late(p):
            out = p.copy()
            out[0] = 0.9 * p[0]
            if p[0] < 1e-4:
                out[1:] = 1.0 - p[1:]
            return out

        self.use_map(monkeypatch, flip_late)
        x0 = MeanFieldPoint(np.array([0.5, 0.2, 0.7]))
        rep = self.assert_same(self.M, generate("path", n=3), damping=1.0,
                               x0=x0)
        assert rep.classification == "cycle(2)"
        assert rep.iterations > 100

    @pytest.mark.parametrize("variant", ALL_VARIANTS)
    def test_real_maps(self, rng, variant):
        g = random_connected_graph(rng, 8)
        m = random_model(rng, variant, n=g.n)
        self.assert_same(m, g, tol=1e-12)
        if m.contact is None:
            self.assert_same(m, g, tol=1e-12, damping=1.0,
                             x0=random_point(rng, variant, g.n))

    @pytest.mark.parametrize("damping", [0.5, 1.0])
    @pytest.mark.parametrize("variant", ALL_VARIANTS)
    def test_real_maps_damping(self, rng, variant, damping):
        g = random_connected_graph(rng, 8)
        m = random_model(rng, variant, n=g.n)
        self.assert_same(m, g, tol=1e-12, damping=damping)

    def test_star3_raw_cycle(self, star3):
        rep = self.assert_same(ModelSpec("sis-ia", beta=0.9, delta=0.9),
                               star3, damping=1.0)
        assert rep.classification == "cycle(2)"


# ---------------------------------------------------------------------------
# Stability and certificates
# ---------------------------------------------------------------------------

def perron_growth(m, g):
    """The Perron vector v of the linearized infection matrix and its growth
    under that matrix less the identity: (M - I) v for sis-general, from
    the contact power iteration, else (c beta A - delta I) v with v from
    spectral_radius and c the susceptible-depletion factor."""
    if m.contact is not None:
        M = np.asarray(m.contact, dtype=float)
        v = _power_iteration(lambda y: M @ y, M.shape[0], 1e-13)[2]
        return v, M @ v - v
    v = spectral_radius(g, 1e-13).eigvec
    rule = _VARIANTS[m.variant]
    c = rule.free_law(m)[0] * rule.infection(m)
    return v, c * m.beta * (g.adjacency() @ v) - m.delta * v


class TestStability:
    """Stability as the program decides it: the fixed point's Jacobian
    spectrum and jacobian_contracts, and the Perron vector's growth."""

    def test_disease_free_stable_below_threshold(self, rng):
        g = random_connected_graph(rng, 6)
        lam = spectral_radius(g).lambda_max
        m = ModelSpec("sis-nia", beta=round(0.7 * 0.6 / lam, 6), delta=0.6)
        rep = find_fixed_point(m, g)
        assert np.abs(jacobian_eigenvalues(m, g, rep.point)).max() < 1.0
        assert jacobian_contracts(m, g, rep.point)

    def test_star3_endemic_unstable(self, star3):
        m = ModelSpec("sis-ia", beta=0.9, delta=0.9)
        rep = find_fixed_point(m, star3)
        rho = np.abs(jacobian_eigenvalues(m, star3, rep.point)).max()
        assert rho == pytest.approx(1.0587, abs=1e-3)
        assert not jacobian_contracts(m, star3, rep.point)

    def test_perron_certificate_above_threshold(self, rng):
        g = random_connected_graph(rng, 8)
        lam = spectral_radius(g).lambda_max
        m = ModelSpec("sis-nia", beta=min(0.95, round(1.4 * 0.5 / lam, 6)),
                      delta=0.5)
        assert threshold_ratio(m, g) > 1.0
        v, growth = perron_growth(m, g)
        assert v.min() > 0.0
        assert growth.min() > 1e-12

    def test_perron_none_below_threshold(self, rng):
        g = random_connected_graph(rng, 6)
        lam = spectral_radius(g).lambda_max
        m = ModelSpec("sis-nia", beta=round(0.5 * 0.5 / lam, 6), delta=0.5)
        assert threshold_ratio(m, g) <= 1.0
        _, growth = perron_growth(m, g)
        assert growth.max() <= 0.0

    def test_perron_general_variant(self, rng):
        g = random_connected_graph(rng, 5)
        M = contact_from_rates(g, 0.9, 0.1)
        m = ModelSpec("sis-general", contact=M)
        assert threshold_ratio(m, g) > 1.0
        _, growth = perron_growth(m, g)
        assert growth.min() > 1e-12

    def test_linear_bound_dominates(self, rng):
        for variant in ALL_VARIANTS:
            g = random_connected_graph(rng, 6, weighted_prob=0.3)
            m = random_model(rng, variant, n=g.n)
            pt = random_point(rng, variant, g.n)
            assert linear_bound_check(m, g, pt) >= -1e-12, variant


def spectrum_contracts(m, g, x):
    return bool(np.abs(jacobian_eigenvalues(m, g, x)).max() < 1.0)


class TestJacobianContracts:
    """jacobian_contracts(m, g, x) == spectrum_contracts(m, g, x), with the
    spectrum taken only when the Collatz-Wielandt bound cannot decide."""

    @staticmethod
    def count_spectra(monkeypatch):
        calls = []
        spectrum = mean_field.jacobian_eigenvalues

        def counted(*args):
            calls.append(args)
            return spectrum(*args)

        monkeypatch.setattr(mean_field, "jacobian_eigenvalues", counted)
        return calls

    def test_agrees_on_stability_er_stream(self, monkeypatch):
        """Every endemic point of the stability-er suite at trials=12,
        seeds 0-5: 216 points on ER graphs with n = 200, 400 and 800."""
        import epinet.verify as verify

        points = []
        monkeypatch.setattr(
            verify, "jacobian_contracts",
            lambda m, g, x: points.append((m, g, x)) or True)
        for seed in range(6):
            verify.run_suite("stability-er", trials=12, seed=seed)
        assert len(points) == 216
        spectra = self.count_spectra(monkeypatch)
        got = [jacobian_contracts(m, g, x) for m, g, x in points]
        fallbacks = len(spectra)
        monkeypatch.undo()
        want = [spectrum_contracts(m, g, x) for m, g, x in points]
        assert got == want
        # Most points are decided by the bound alone.
        assert 0 < fallbacks < len(points) // 4

    def test_fallback_decides_when_bound_exceeds_one(self, monkeypatch):
        """On the triangle the endemic Jacobian has a negative diagonal:
        rho(J) = 0.66 while rho(|J|) = 1.06, so no v proves the bound and
        the spectrum decides."""
        g = generate("complete", n=3)
        m = ModelSpec("sis-ia", beta=0.7, delta=0.9)
        x = find_fixed_point(m, g).point
        B = np.abs(mf_jacobian(m, g, x))
        assert np.abs(np.linalg.eigvals(B)).max() > 1.05
        spectra = self.count_spectra(monkeypatch)
        assert jacobian_contracts(m, g, x)
        assert len(spectra) == 1

    def test_disease_free_above_threshold_is_false(self):
        """At x = 0, J = (1 - delta) I + beta A with rho = 1 - delta +
        beta lambda_max > 1."""
        g = generate("star", n=6)
        m = ModelSpec("sis-ia", beta=0.3, delta=0.4)
        lam = spectral_radius(g).lambda_max
        assert 1.0 - m.delta + m.beta * lam > 1.0
        assert not jacobian_contracts(m, g, MeanFieldPoint(np.zeros(g.n)))

    def test_unstable_endemic_is_false(self):
        g = generate("star", n=4)
        m = ModelSpec("sis-ia", beta=0.9, delta=0.8)
        rep = find_fixed_point(m, g)
        assert rep.classification == "endemic"
        assert 1.0 < np.abs(jacobian_eigenvalues(m, g, rep.point)).max() \
            < 1.001
        assert not jacobian_contracts(m, g, rep.point)

    @pytest.mark.parametrize("variant", ALL_VARIANTS)
    def test_weighted_and_k3(self, rng, monkeypatch, variant):
        """Fixed points and random points on graphs that are weighted half
        of the time; every variant, so k=3 and sis-general too."""
        spectra = self.count_spectra(monkeypatch)
        by_bound = 0
        for _ in range(12):
            g = random_connected_graph(rng, 9, n_min=3, weighted_prob=0.5)
            m = random_model(rng, variant, n=g.n)
            points = [find_fixed_point(m, g).point,
                      random_point(rng, variant, g.n)]
            for x in points:
                before = len(spectra)
                got = jacobian_contracts(m, g, x)
                by_bound += len(spectra) == before
                assert got == spectrum_contracts(m, g, x)
        assert by_bound > 0

    def test_does_not_load_scipy_linalg(self):
        """The bound and its fallback use numpy alone."""
        code = (
            "import sys, epinet\n"
            "epinet.run_suite('stability-er', trials=1)\n"
            "print([m for m in ('scipy.sparse.linalg', 'scipy.linalg')\n"
            "       if m in sys.modules])\n"
        )
        src = str(Path(mean_field.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            q for q in (src, os.environ.get("PYTHONPATH")) if q))
        proc = subprocess.run([sys.executable, "-c", code],
                              capture_output=True, text=True, env=env)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[]"
