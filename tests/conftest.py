"""Shared fixtures and instance generators for the test suites."""
from __future__ import annotations

import multiprocessing

import numpy as np
import pytest

from epinet import Graph, ModelSpec, generate


def random_connected_graph(rng: np.random.Generator, n_max: int,
                           n_min: int = 2,
                           weighted_prob: float = 0.0) -> Graph:
    """Random connected graph with n in [n_min, n_max]."""
    n = int(rng.integers(n_min, n_max + 1))
    for _ in range(40):
        p = float(rng.uniform(0.4, 0.9))
        g = generate("er", n=n, p=p, seed=int(rng.integers(2 ** 31)))
        if g.m > 0 and g.is_connected():
            break
    else:
        g = generate("complete", n=n)
    if weighted_prob and rng.random() < weighted_prob and g.m:
        w = tuple(float(x) for x in rng.uniform(0.2, 1.0, g.m))
        g = Graph(g.n, g.edges, w)
    return g


def random_model(rng: np.random.Generator, variant: str,
                 n: int | None = None) -> ModelSpec:
    """Random valid parameters for the given variant."""
    beta = float(rng.uniform(0.05, 0.95))
    delta = float(rng.uniform(0.05, 0.95))
    gamma = float(rng.uniform(0.05, 0.95))
    theta = float(rng.uniform(0.05, 0.9))
    if variant in ("sis-nia", "sis-ia"):
        return ModelSpec(variant, beta=beta, delta=delta)
    if variant == "sis-general":
        M = rng.uniform(0.0, 1.0, (n, n))
        M[rng.random((n, n)) < 0.3] = 0.0
        return ModelSpec(variant, contact=M)
    if variant == "sirs":
        return ModelSpec(variant, beta=beta, delta=delta, gamma=gamma)
    return ModelSpec(variant, beta=beta, delta=delta, gamma=gamma,
                     theta=theta)


ALL_VARIANTS = ("sis-nia", "sis-ia", "sis-general", "sirs", "siv-id",
                "siv-vd")


@pytest.fixture(autouse=True)
def no_process_left_running():
    """Fail any test that leaves a multiprocessing child running; stop the
    children first, so that later tests do not inherit them."""
    yield
    left = multiprocessing.active_children()
    for proc in left:
        proc.terminate()
        proc.join()
    assert not left, f"processes left running: {left}"


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


@pytest.fixture
def path3():
    return generate("path", n=3)


@pytest.fixture
def star3():
    return generate("star", n=3)
