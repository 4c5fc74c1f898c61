"""Graph handling, generators, spectral radius, and model parameters."""
from __future__ import annotations

import ast
import importlib
import inspect
import logging
import math
import pkgutil
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from epinet import (
    Graph,
    GraphError,
    ModelError,
    ModelSpec,
    contact_from_rates,
    format_edge_list,
    find_fixed_point,
    generate,
    parse_edge_list,
    spectral_radius,
    threshold_ratio,
)

import epinet
from epinet import model_core
from conftest import random_connected_graph


# ---------------------------------------------------------------------------
# Graph construction and validation
# ---------------------------------------------------------------------------

class TestGraph:
    def test_basic_fields(self):
        g = Graph(4, ((0, 1), (2, 1), (3, 0)))
        assert g.n == 4
        assert g.m == 3
        assert set(g.edges) == {(0, 1), (0, 3), (1, 2)}  # canonicalized i<j
        assert not g.is_weighted

    def test_self_loop_rejected(self):
        with pytest.raises(GraphError):
            Graph(3, ((0, 0),))

    def test_out_of_range_rejected(self):
        with pytest.raises(GraphError):
            Graph(3, ((0, 3),))
        with pytest.raises(GraphError):
            Graph(3, ((-1, 2),))

    def test_duplicate_edges_merge(self):
        g = Graph(3, ((0, 1), (1, 0)))
        assert g.m == 1

    def test_conflicting_duplicate_weights_rejected(self):
        with pytest.raises(GraphError):
            Graph(3, ((0, 1), (1, 0)), (0.5, 0.7))

    def test_weight_range(self):
        with pytest.raises(GraphError):
            Graph(2, ((0, 1),), (1.5,))
        with pytest.raises(GraphError):
            Graph(2, ((0, 1),), (-0.1,))

    def test_neighbors_and_degrees(self):
        g = generate("star", n=4)
        A = g.adjacency_sparse
        assert A.indices[A.indptr[0]:A.indptr[1]].tolist() == [1, 2, 3]
        assert g.degrees.tolist() == [3, 1, 1, 1]

    def test_adjacency_weighted(self):
        g = Graph(2, ((0, 1),), (0.25,))
        A = g.adjacency()
        assert A[0, 1] == A[1, 0] == 0.25
        assert g.is_weighted

    def test_components_and_connectivity(self):
        g = Graph(5, ((0, 1), (1, 2), (3, 4)))
        comps = g.components()
        assert sorted(len(c) for c in comps) == [2, 3]
        assert list(comps[0]) == [0, 1, 2]  # largest first
        assert not g.is_connected()
        assert generate("path", n=5).is_connected()
        # A weight-0 edge still links its nodes; equal sizes keep the order
        # of their smallest nodes.
        g = Graph(7, ((5, 6), (1, 3), (2, 4)), (1.0, 0.0, 0.5))
        assert g.components() == [[1, 3], [2, 4], [5, 6], [0]]

    def test_subgraph(self):
        g = Graph(5, ((0, 1), (1, 2), (3, 4)), (0.3, 0.6, 0.9))
        sub = g.subgraph((1, 2, 3))
        assert sub.n == 3
        assert sub.edges == ((0, 1),)
        assert sub.weights == (0.6,)

    def test_edges_sorted_and_deduplicated(self):
        rng = np.random.default_rng(0)
        g = generate("er", n=25, p=0.3, seed=1)
        w = rng.uniform(0.1, 1.0, g.m)
        pairs = list(zip(g.edges, w.tolist()))
        pairs += [pairs[k] for k in rng.integers(0, g.m, 10)]
        pairs = [pairs[k] for k in rng.permutation(len(pairs))]
        edges = tuple(e if k % 2 else e[::-1] for k, (e, _) in enumerate(pairs))
        shuffled = Graph(g.n, edges, tuple(x for _, x in pairs))
        assert shuffled == Graph(g.n, g.edges, tuple(w.tolist()))
        assert shuffled.edges == tuple(sorted(g.edges))
        assert np.array_equal(shuffled.adjacency(),
                              Graph(g.n, g.edges, tuple(w.tolist())).adjacency())

    def test_array_inputs(self):
        g = Graph(3, np.array([[2, 1], [0, 1]]), np.array([0.5, 0.25]))
        assert g == Graph(3, ((0, 1), (1, 2)), (0.25, 0.5))
        assert Graph(3, ((0, 1),), []) == Graph(3, ((0, 1),))

    def test_non_integer_index_rejected(self):
        for edges in (((0.5, 1.7),), ((0, 1), (1.0, 2.5)),
                      ((0, float("nan")),), ((0, float("inf")),)):
            with pytest.raises(GraphError, match="non-integer node index"):
                Graph(3, edges)
        assert Graph(3, ((0.0, 1.0), (2.0, 1.0))) == Graph(3, ((0, 1), (1, 2)))

    def test_first_bad_edge_in_input_order(self):
        with pytest.raises(GraphError, match=r"self-loop \(2,2\)"):
            Graph(3, ((0, 1), (2, 2), (0, 5)))
        with pytest.raises(GraphError, match=r"edge \(5,0\) out of range"):
            Graph(3, ((0, 1), (5, 0), (2, 2)))
        # Every pair clashes; (2, 3) is the first clash in input order.
        with pytest.raises(GraphError, match=r"duplicate edge \(2, 3\)"):
            Graph(4, ((2, 3), (2, 1), (0, 1), (2, 3), (1, 2), (1, 0)),
                  (0.5, 0.5, 0.5, 0.7, 0.6, 0.4))

    @pytest.mark.parametrize("seed", range(8))
    def test_views_match_dense_oracle(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 30))
        pairs = rng.integers(0, n, (int(rng.integers(0, 2 * n)), 2))
        pairs = pairs[pairs[:, 0] != pairs[:, 1]]
        # Equal weights for repeated pairs, whatever their orientation.
        w = (pairs.min(axis=1) * 7 + pairs.max(axis=1) * 3) % 10 / 10 + 0.05
        g = Graph(n, tuple(map(tuple, pairs.tolist())), tuple(w.tolist()))
        A = np.zeros((n, n))
        A[pairs[:, 0], pairs[:, 1]] = w
        A[pairs[:, 1], pairs[:, 0]] = w
        assert np.array_equal(g.adjacency(), A)
        assert g.degrees.tolist() == np.count_nonzero(A, axis=1).tolist()
        csr = g.adjacency_sparse
        for i in range(n):
            assert csr.indices[csr.indptr[i]:csr.indptr[i + 1]].tolist() \
                == np.flatnonzero(A[i]).tolist()
        # Reachability by repeated squaring; components ordered by size,
        # ties by their smallest node.
        R = (A > 0) | np.eye(n, dtype=bool)
        for _ in range(n.bit_length()):
            R = (R.astype(int) @ R.astype(int)) > 0
        comps = sorted({tuple(np.flatnonzero(r).tolist()) for r in R},
                       key=lambda c: (-len(c), c[0]))
        assert g.components() == [list(c) for c in comps]
        nodes = rng.permutation(n)[:max(1, n // 2)].tolist()
        assert np.array_equal(g.subgraph(nodes).adjacency(),
                              A[np.ix_(nodes, nodes)])


class TestEdgeListIO:
    def test_roundtrip_plain(self):
        g = generate("er", n=8, p=0.4, seed=1)
        assert parse_edge_list(format_edge_list(g)) == g

    def test_roundtrip_weighted(self):
        g = Graph(3, ((0, 1), (1, 2)), (0.25, 0.75))
        assert parse_edge_list(format_edge_list(g)) == g

    def test_comments_and_header(self):
        text = "# a comment\nn=4\n0 1\n2 3  # trailing\n"
        g = parse_edge_list(text)
        assert g.n == 4
        assert g.edges == ((0, 1), (2, 3))

    def test_malformed_line_reports_lineno(self):
        with pytest.raises(GraphError, match="line 2"):
            parse_edge_list("0 1\nbogus line here\n")

    def test_isolated_node_preserved_via_header(self):
        g = parse_edge_list("n=5\n0 1\n")
        assert g.n == 5

    @given(st.integers(2, 9), st.integers(0, 10 ** 6))
    @settings(max_examples=25, deadline=None)
    def test_roundtrip_random(self, n, seed):
        g = generate("er", n=n, p=0.5, seed=seed)
        assert parse_edge_list(format_edge_list(g)) == g


class TestGenerate:
    def test_er_deterministic(self):
        a = generate("er", n=30, p=0.2, seed=5)
        b = generate("er", n=30, p=0.2, seed=5)
        assert a == b
        c = generate("er", n=30, p=0.2, seed=6)
        assert a != c

    def test_complete_star_path_counts(self):
        assert generate("complete", n=5).m == 10
        assert generate("star", n=6).m == 5
        assert generate("path", n=6).m == 5
        assert generate("star", n=3).edges == ((0, 1), (0, 2))

    def test_geometric_radius_monotone(self):
        small = generate("geometric", n=40, r=0.1, seed=2)
        large = generate("geometric", n=40, r=0.6, seed=2)
        assert small.m <= large.m

    @pytest.mark.parametrize("block", [1, 4, 7])
    def test_pair_blocks_match_all_pairs(self, monkeypatch, block):
        """Row-blocked er and geometric graphs equal the ones drawn from all
        n(n-1)/2 pairs at once: Generator.random concatenates across calls."""
        def all_pairs(n, p=None, r=None, seed=0):
            rng = np.random.default_rng(seed)
            iu, ju = np.triu_indices(n, k=1)
            if p is not None:
                mask = rng.random(len(iu)) < p
            else:
                pts = rng.random((n, 2))
                mask = ((pts[iu] - pts[ju]) ** 2).sum(axis=1) < r * r
            return Graph(n, np.column_stack((iu[mask], ju[mask])))

        monkeypatch.setattr(model_core, "_PAIR_BLOCK", block)
        for n in (1, 2, 3, 9, 31):
            for seed in (0, 11):
                assert generate("er", n=n, p=0.3, seed=seed) \
                    == all_pairs(n, p=0.3, seed=seed)
                assert generate("geometric", n=n, r=0.4, seed=seed) \
                    == all_pairs(n, r=0.4, seed=seed)

    def test_er_memory_is_not_quadratic(self):
        """12.5 million candidate pairs at n=5000 would need about 300 MB
        held at once; the row blocks keep the peak far below that."""
        tracemalloc.start()
        try:
            g = generate("er", n=5000, p=2.0 * math.log(5000) / 5000, seed=3)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert g.m > 0
        assert peak < 64 * 2 ** 20

    def test_unknown_kind(self):
        with pytest.raises(GraphError):
            generate("torus", n=5)

    def test_missing_params(self):
        with pytest.raises(GraphError):
            generate("er", n=5)
        with pytest.raises(GraphError):
            generate("er", p=0.5)
        with pytest.raises(GraphError):
            generate("geometric", n=5)

    @pytest.mark.parametrize("kind, params, extra", [
        ("er", {"n": 5, "p": 0.5, "r": 0.3}, "r"),
        ("geometric", {"n": 5, "r": 0.3, "p": 0.5}, "p"),
        ("complete", {"n": 5, "p": 0.5}, "p"),
        ("star", {"n": 5, "r": 0.3}, "r"),
        ("path", {"n": 3, "p": 0.5, "q": 2.0}, "p, q"),
    ])
    def test_unknown_params_rejected(self, kind, params, extra):
        with pytest.raises(GraphError,
                           match=f"generator '{kind}' does not accept {extra}$"):
            generate(kind, **params)


# ---------------------------------------------------------------------------
# Spectral radius
# ---------------------------------------------------------------------------

class TestSpectralRadius:
    def test_complete_graph(self):
        rep = spectral_radius(generate("complete", n=7))
        assert rep.lambda_max == pytest.approx(6.0, abs=1e-8)

    def test_star_graph_bipartite(self):
        # Bipartite: plain power iteration on A would oscillate; the shifted
        # iteration must still converge to sqrt(n-1).
        rep = spectral_radius(generate("star", n=10))
        assert rep.lambda_max == pytest.approx(3.0, abs=1e-8)

    def test_path_graph(self):
        n = 7
        rep = spectral_radius(generate("path", n=n))
        assert rep.lambda_max == pytest.approx(
            2.0 * math.cos(math.pi / (n + 1)), abs=1e-8
        )

    def test_single_node(self):
        assert spectral_radius(Graph(1, ())).lambda_max == 0.0

    def test_eigvec_residual(self):
        g = generate("er", n=25, p=0.3, seed=11)
        rep = spectral_radius(g)
        A = g.adjacency()
        res = np.abs(A @ rep.eigvec - rep.lambda_max * rep.eigvec).max()
        assert res < 1e-8
        assert rep.eigvec.max() == pytest.approx(1.0)
        assert rep.eigvec.min() >= 0.0

    def test_against_dense_eigensolver(self, rng):
        for _ in range(10):
            g = random_connected_graph(rng, 12, weighted_prob=0.5)
            lam = spectral_radius(g).lambda_max
            oracle = float(np.max(np.abs(np.linalg.eigvalsh(g.adjacency()))))
            assert lam == pytest.approx(oracle, abs=1e-8)

    def test_disconnected_warns_and_uses_largest_component(self, caplog):
        g = Graph(5, ((0, 1), (1, 2), (3, 4)))
        with caplog.at_level(logging.WARNING, logger="epinet.model_core"):
            rep = spectral_radius(g)
        assert "disconnected" in caplog.text
        assert rep.lambda_max == pytest.approx(math.sqrt(2.0), abs=1e-8)
        # Eigenvector is zero outside the largest component.
        assert rep.eigvec[3] == rep.eigvec[4] == 0.0

    def test_edgeless(self, caplog):
        with caplog.at_level(logging.WARNING, logger="epinet.model_core"):
            assert spectral_radius(Graph(4, ())).lambda_max == 0.0
        assert [r.levelno for r in caplog.records] == [logging.WARNING]

    @pytest.mark.parametrize("tol", [math.nan, 0.0, -1.0])
    def test_tol_not_positive_rejected(self, tol):
        """A tol that is not > 0, NaN included, raises at once instead of
        running power iteration to its cap: in spectral_radius and in the
        contact-matrix path of threshold_ratio."""
        g = generate("path", n=5)
        with pytest.raises(ValueError, match="tol must be > 0"):
            spectral_radius(g, tol)
        m = ModelSpec("sis-general", contact=contact_from_rates(g, 0.3, 0.4))
        with pytest.raises(ValueError, match="tol must be > 0"):
            threshold_ratio(m, g, tol)

    def test_one_matvec_per_step(self):
        A = generate("er", n=30, p=0.2, seed=3).adjacency()
        calls = []

        def matvec(x):
            calls.append(None)
            return A @ x

        lam, it, _ = model_core._power_iteration(matvec, 30, 1e-10)
        assert it > 1 and len(calls) == it + 1
        assert lam == pytest.approx(np.linalg.eigvalsh(A)[-1], abs=1e-8)


def _union(*graphs: Graph) -> Graph:
    """The disjoint union, each graph's nodes after the previous ones."""
    edges, weights, offset = [], [], 0
    for g in graphs:
        edges += [(i + offset, j + offset) for i, j in g.edges]
        weights += list(g.weights) if g.is_weighted else [1.0] * g.m
        offset += g.n
    return Graph(offset, edges, tuple(weights))


def _radius_of_every_component(graph: Graph, tol: float = 1e-10):
    """(lambda, iterations, residual, vector) as spectral_radius chose them
    by power-iterating every component with more than one node."""
    best = None
    for comp in graph.components():
        if best is None or len(comp) > 1:
            found = model_core._connected_radius(graph.subgraph(comp), tol)
            if best is None or found[0] > best[1][0]:
                best = (comp, found)
    comp, (lam, it, res, sub) = best
    v = np.zeros(graph.n)
    v[np.asarray(comp)] = sub
    return lam, it, res, v


def _weighted(g: Graph, seed: int) -> Graph:
    w = np.random.default_rng(seed).uniform(0.2, 1.0, g.m)
    return Graph(g.n, g.edges, tuple(float(x) for x in w))


_SPARSE_ER = generate("er", n=1000, p=0.002, seed=1)
_DISCONNECTED = {
    "sparse-er": _SPARSE_ER,
    "sparse-er-weighted": _weighted(_SPARSE_ER, 3),
    # Two isomorphic components: the first one is reported.
    "twins": _union(generate("er", n=30, p=0.2, seed=4),
                    generate("er", n=30, p=0.2, seed=4)),
    "twins-weighted": _union(*[_weighted(generate("er", n=20, p=0.3,
                                                  seed=2), 9)] * 2),
    # Regular components whose row sums equal their eigenvalue: cycles tie
    # at 2 with a later K4 above them, and a path and a star in between.
    "regular": _union(generate("path", n=3), Graph(12, [(i, (i + 1) % 12)
                                                        for i in range(12)]),
                      Graph(10, [(i, (i + 1) % 10) for i in range(10)]),
                      generate("star", n=5), generate("complete", n=4),
                      Graph(2, ())),
}


class TestSpectralRadiusComponents:
    @pytest.mark.parametrize("name", sorted(_DISCONNECTED))
    def test_matches_iterating_every_component(self, name):
        g = _DISCONNECTED[name]
        assert not g.is_connected()
        rep = spectral_radius(g)
        lam, it, res, v = _radius_of_every_component(g)
        assert rep.lambda_max == lam
        assert rep.iterations == it
        assert rep.residual == res
        assert np.array_equal(rep.eigvec.view(np.uint64), v.view(np.uint64))

    def test_ties_go_to_the_first_component(self):
        rep = spectral_radius(_DISCONNECTED["twins"])
        assert rep.eigvec[:30].min() > 0.0 and not rep.eigvec[30:].any()
        rep = spectral_radius(_DISCONNECTED["regular"])
        assert rep.lambda_max == pytest.approx(3.0, abs=1e-8)
        assert np.flatnonzero(rep.eigvec).tolist() == list(range(30, 34))

    def test_skips_components_below_the_best(self, monkeypatch):
        """On the sparse ER graph (162 components, 29 with an edge) only the
        giant component has a node of degree above its eigenvalue 3.4475."""
        calls = []
        iterate = model_core._connected_radius

        def counted(graph, tol):
            calls.append(graph.n)
            return iterate(graph, tol)

        monkeypatch.setattr(model_core, "_connected_radius", counted)
        comps = _SPARSE_ER.components()
        assert (len(comps), sum(len(c) > 1 for c in comps)) == (162, 29)
        rep = spectral_radius(_SPARSE_ER)
        assert rep.lambda_max == pytest.approx(3.4475, abs=1e-4)
        assert calls == [len(comps[0])] == [798]
        calls.clear()
        spectral_radius(_DISCONNECTED["regular"])
        # The 12-cycle, the 10-cycle (a tie within the margin), the star
        # (row sum 4 above 2) and K4. The path comes after K4, and its row
        # sums (2) lie below 3.
        assert calls == [12, 10, 5, 4]


# ---------------------------------------------------------------------------
# ModelSpec
# ---------------------------------------------------------------------------

class TestModelSpec:
    def test_required_params(self):
        m = ModelSpec("sis-nia", beta=0.3, delta=0.7)
        assert m.k == 2
        with pytest.raises(ModelError):
            ModelSpec("sis-nia", beta=0.3)
        with pytest.raises(ModelError):
            ModelSpec("sirs", beta=0.3, delta=0.7)

    def test_extraneous_params_rejected(self):
        with pytest.raises(ModelError):
            ModelSpec("sis-nia", beta=0.3, delta=0.7, gamma=0.5)
        with pytest.raises(ModelError):
            ModelSpec("sirs", beta=0.3, delta=0.7, gamma=0.5, theta=0.2)
        with pytest.raises(ModelError):
            ModelSpec("sis-general", contact=np.eye(2), beta=0.5)

    def test_rate_ranges(self):
        with pytest.raises(ModelError):
            ModelSpec("sis-nia", beta=1.2, delta=0.5)
        with pytest.raises(ModelError):
            ModelSpec("sis-nia", beta=0.5, delta=-0.1)

    def test_unknown_variant(self):
        with pytest.raises(ModelError):
            ModelSpec("sir")

    def test_contact_validation(self):
        with pytest.raises(ModelError):
            ModelSpec("sis-general", contact=np.ones((2, 3)))
        with pytest.raises(ModelError):
            ModelSpec("sis-general", contact=np.full((2, 2), 1.5))
        m = ModelSpec("sis-general", contact=np.eye(3) * 0.5)
        with pytest.raises(ValueError):
            m.contact[0, 0] = 0.9  # stored read-only

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_contact_non_finite_rejected(self, bad):
        with pytest.raises(ModelError, match="finite"):
            ModelSpec("sis-general", contact=[[bad, 0.1], [0.1, 0.2]])

    def test_siv_degenerate_rejected(self):
        with pytest.raises(ModelError):
            ModelSpec("siv-id", beta=0.5, delta=0.5, gamma=1.0, theta=1.0)

    @pytest.mark.parametrize("variant", ("sis-nia", "sis-ia", "sirs",
                                         "siv-id", "siv-vd"))
    def test_infection_factor_from_tables(self, variant):
        """infection(spec) = B[S, I] - A[S, I]: 1, or 1 - theta for siv-vd."""
        rates = {"beta": 0.3, "delta": 0.4, "gamma": 0.3, "theta": 0.2}
        names = model_core._VARIANTS[variant].required
        m = ModelSpec(variant, **{k: rates[k] for k in names})
        f = model_core._VARIANTS[variant].infection(m)
        assert type(f) is float
        assert f == (1.0 - 0.2 if variant == "siv-vd" else 1.0)

    def test_k_and_describe(self):
        assert ModelSpec("sirs", beta=0.1, delta=0.2, gamma=0.3).k == 3
        d = ModelSpec("siv-vd", beta=0.1, delta=0.2, gamma=0.3,
                      theta=0.4).describe()
        assert d == {"variant": "siv-vd", "beta": 0.1, "delta": 0.2,
                     "gamma": 0.3, "theta": 0.4}


class TestContactFromRates:
    def test_entries(self):
        g = Graph(3, ((0, 1), (1, 2)), (0.5, 1.0))
        M = contact_from_rates(g, beta=0.4, delta=0.3)
        assert M[0, 1] == pytest.approx(0.2)
        assert M[1, 2] == pytest.approx(0.4)
        assert M[0, 2] == 0.0
        assert np.allclose(np.diag(M), 0.7)


# ---------------------------------------------------------------------------
# Threshold ratio
# ---------------------------------------------------------------------------

class TestThresholdRatio:
    def test_sis_on_edge(self):
        g = generate("path", n=2)  # lambda_max = 1
        m = ModelSpec("sis-nia", beta=0.3, delta=0.6)
        assert threshold_ratio(m, g) == pytest.approx(0.5)
        m2 = ModelSpec("sis-ia", beta=0.3, delta=0.6)
        assert threshold_ratio(m2, g) == pytest.approx(0.5)

    def test_sirs_matches_sis(self):
        g = generate("complete", n=4)
        m_sis = ModelSpec("sis-nia", beta=0.2, delta=0.5)
        m_sirs = ModelSpec("sirs", beta=0.2, delta=0.5, gamma=0.7)
        assert threshold_ratio(m_sirs, g) == pytest.approx(
            threshold_ratio(m_sis, g)
        )

    def test_siv_factors(self):
        g = generate("path", n=2)
        base = 0.4 / 0.8
        m_id = ModelSpec("siv-id", beta=0.4, delta=0.8, gamma=0.3, theta=0.1)
        assert threshold_ratio(m_id, g) == pytest.approx(base * 0.3 / 0.4)
        m_vd = ModelSpec("siv-vd", beta=0.4, delta=0.8, gamma=0.3, theta=0.1)
        assert threshold_ratio(m_vd, g) == pytest.approx(
            base * (0.3 / 0.4) * 0.9
        )

    def test_general_is_contact_radius(self):
        g = generate("path", n=3)
        M = contact_from_rates(g, 0.3, 0.4)
        m = ModelSpec("sis-general", contact=M)
        # lambda((1-delta) I + beta A) = 1 - delta + beta lambda(A)
        lam = spectral_radius(g).lambda_max
        assert threshold_ratio(m, g) == pytest.approx(0.6 + 0.3 * lam,
                                                      abs=1e-9)

    def test_general_dimension_mismatch(self):
        m = ModelSpec("sis-general", contact=np.eye(2) * 0.5)
        with pytest.raises(ModelError):
            threshold_ratio(m, generate("path", n=3))

    @pytest.mark.parametrize("size", (3, 5))
    def test_contact_size_checked_everywhere(self, size):
        """Every function that meets a contact matrix and a graph refuses a
        size mismatch with the one ModelError."""
        import epinet

        g = generate("path", n=4)
        m = ModelSpec("sis-general", contact=np.full((size, size), 0.2))
        x = epinet.MeanFieldPoint(np.full(4, 0.3))
        calls = {
            "threshold_ratio": lambda: threshold_ratio(m, g),
            "mf_step": lambda: epinet.mf_step(m, g, x),
            "mf_jacobian": lambda: epinet.mf_jacobian(m, g, x),
            "jacobian_eigenvalues":
                lambda: epinet.jacobian_eigenvalues(m, g, x),
            "linear_bound_check": lambda: epinet.linear_bound_check(m, g, x),
            "find_fixed_point": lambda: find_fixed_point(m, g),
            "build_transition_matrix":
                lambda: epinet.build_transition_matrix(m, g),
            "mixing_time_bound": lambda: epinet.mixing_time_bound(m, g, 0.25),
            "lp_marginal_max": lambda: epinet.lp_marginal_max(
                m, g, 0, epinet.MeanFieldPoint(np.full(4, 0.1))),
        }
        message = f"contact matrix is {size}x{size} but graph has n=4"
        for name, call in calls.items():
            with pytest.raises(ModelError, match=message):
                call()

    def test_delta_zero(self):
        g = generate("path", n=2)
        m = ModelSpec("sis-nia", beta=0.3, delta=0.0)
        assert threshold_ratio(m, g) == math.inf
        m0 = ModelSpec("sis-nia", beta=0.0, delta=0.0)
        assert threshold_ratio(m0, g) == 0.0

    def test_siv_gamma_theta_zero(self):
        g = generate("path", n=2)
        m = ModelSpec("siv-id", beta=0.3, delta=0.5, gamma=0.0, theta=0.0)
        with pytest.raises(ModelError):
            threshold_ratio(m, g)

    def test_disconnected_uses_component_with_largest_eigenvalue(self,
                                                                 caplog):
        # A 20-node path (lambda ~ 1.98, the largest component) plus a
        # disjoint K5 (lambda = 4): the K5 sets the threshold.
        path = [(i, i + 1) for i in range(19)]
        k5 = [(20 + i, 20 + j) for i in range(5) for j in range(i + 1, 5)]
        g = Graph(25, tuple(path + k5))
        m = ModelSpec("sis-nia", beta=0.2, delta=0.7)
        with caplog.at_level(logging.WARNING, logger="epinet.model_core"):
            ratio = threshold_ratio(m, g)
            rep = spectral_radius(g)
            fp = find_fixed_point(m, g)
        assert "disconnected" in caplog.text
        assert ratio == pytest.approx(0.8 / 0.7)
        assert rep.lambda_max == pytest.approx(4.0)
        assert np.all(rep.eigvec[:20] == 0.0)
        assert rep.eigvec[20:] == pytest.approx(np.ones(5))
        assert fp.classification == "endemic"


# ---------------------------------------------------------------------------
# Where the engines still branch on the variant
# ---------------------------------------------------------------------------

# Every comparison of a model's variant and every test of its contact matrix
# against None in the modules that read the variant table, counted per
# top-level function. The variant table describes the variants, and W's
# factors (model_core._infection_factors) carry the linear bound L, its
# 2-norm, the mirrored chain's contact matrix and the unweighted-rate fast
# paths. What is left here: sis-nia's factored map and derivative, which
# round differently from the table's sum; the closed-form fixed-point
# relations, an oracle independent of the table; and the sis-nia-only
# u-bound and non-absorption proofs.
ENGINE_FORKS = {
    "mean_field": {"_mf_map": 1, "_derivatives": 1, "_relation_defect": 2},
    "exact_chain": {"check_u_bound": 1, "non_absorption_check": 1},
    "monte_carlo": {},
    "verify": {},
    "cli": {},
}


def _is_fork(node) -> bool:
    """x.variant compared with ==, !=, in or not in, or x.contact tested
    with is / is not None."""
    if not isinstance(node, ast.Compare):
        return False
    operands = [node.left, *node.comparators]
    attrs = {op.attr for op in operands if isinstance(op, ast.Attribute)}
    if "variant" in attrs and any(isinstance(op, (ast.Eq, ast.NotEq, ast.In,
                                                  ast.NotIn))
                                  for op in node.ops):
        return True
    return "contact" in attrs and any(
        isinstance(op, ast.Constant) and op.value is None for op in operands)


def _forks(module) -> dict[str, int]:
    """The forks per top-level function or class ("<module>" for the
    statements outside both)."""
    found: dict[str, int] = {}
    for top in ast.parse(inspect.getsource(module)).body:
        count = sum(map(_is_fork, ast.walk(top)))
        if count:
            name = getattr(top, "name", "<module>")
            found[name] = found.get(name, 0) + count
    return found


@pytest.mark.parametrize("name", sorted(ENGINE_FORKS))
def test_engine_forks_are_listed(name):
    """A new branch on the variant or on the contact matrix in an engine
    fails here until it is listed in ENGINE_FORKS, with its reason."""
    module = importlib.import_module(f"epinet.{name}")
    assert _forks(module) == ENGINE_FORKS[name]


def test_model_fields_read_only_in_model_core():
    """No module but model_core reads a model's beta or contact matrix: the
    engines read W's factors (model_core._infection_factors) instead."""
    found = []
    for info in pkgutil.iter_modules(epinet.__path__):
        if info.name == "model_core":
            continue
        module = importlib.import_module(f"epinet.{info.name}")
        found += [f"{info.name}:{node.lineno}" for node in
                  ast.walk(ast.parse(inspect.getsource(module)))
                  if isinstance(node, ast.Attribute)
                  and node.attr in ("contact", "beta")]
    assert found == []
