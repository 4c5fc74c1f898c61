"""Golden digests: Monte Carlo streams and exact transition matrices.

The digests pin the bits, not just the law: a refactor of the sampler or
the matrix assembly that reorders one floating-point operation shows up
here. They were recorded with numpy 2.4.6; another numpy may draw or round
differently (Philox streams, log1p/exp), which fails these tests without a
bug in the package.
"""
from __future__ import annotations

import hashlib

import numpy as np
import pytest

from epinet import (
    Graph,
    ModelSpec,
    build_transition_matrix,
    contact_from_rates,
    ensemble_to_csv,
    generate,
    mc_ensemble,
)

from conftest import ALL_VARIANTS

_BASE = generate("er", n=30, p=0.15, seed=3)
GRAPHS = {
    "unweighted": _BASE,
    "weighted": Graph(_BASE.n, _BASE.edges, tuple(
        float(w) for w in np.random.default_rng(5).uniform(0.3, 1.0, _BASE.m))),
}
RATES = {"beta": 0.3, "delta": 0.4, "gamma": 0.3, "theta": 0.2}
N_RATES = {"sis-nia": 2, "sis-ia": 2, "sirs": 3, "siv-id": 4, "siv-vd": 4}

ENSEMBLE_SHA256 = {
    ("sis-nia", "unweighted"): "a494e56eb27e1985cca8774cd32cb9627dc44dec29f0a278c2a404377a330666",
    ("sis-ia", "unweighted"): "ad35b250c17229be17ff71e3c12fd8775a548b45c529856a2c63c9835641cd45",
    ("sis-general", "unweighted"): "751872f8970dd1844f76a443ad7ad4311f21e151c255cf11c337501559c06c8d",
    ("sirs", "unweighted"): "1a46b71d4039d06d3832fe3bf852966bb7c00775ae1ca14315eddf9c29a40907",
    ("siv-id", "unweighted"): "54449688ded9795912526cd332c104b58580aecbfb16792f4a18e5d30d1b62be",
    ("siv-vd", "unweighted"): "da0bf4a29b98473a49b69daea32431beb73c525f281f59efe373e81576e45cc7",
    ("sis-nia", "weighted"): "585a232374dadff27aca15d8a1a5d6b0e9eabfaef1b6f6826d8ff89e5272e99b",
    ("sis-ia", "weighted"): "78ddead712a77f7f681c8b569af24f7f5aa845c989382ad53645867013a56dbe",
    ("sis-general", "weighted"): "d29c5672ce275629c3175c3c7879b8bf85b873f706cbe5b69b2dec0b189c7070",
    ("sirs", "weighted"): "3020dc2fcc631547f516dc6495811307da90b70aea19cae5535998ae54de03f6",
    ("siv-id", "weighted"): "507970270e23ea0cf14d9548fdfb84e9df8777e8925338fd2553c63a3b46d0e7",
    ("siv-vd", "weighted"): "e89ed5346bf6055032d1b5a5766d5308a0ccfcabf1775d512deacf7f92929600",
}

MATRIX_SHA256 = {
    "sirs": "4b36e259e36dd6e2a611ca62e4a1b9dc89d9bf40ce8173adb6eedaa74ea62da2",
    "siv-id": "963510bea525ba38f380aa6cb6dddc12634ebb878fffefa0925d6c48945fc2fd",
    "siv-vd": "979f2aec27b36d8e336f068e91e5b1998bfc4f824af5c58eae78f73d1cd04cfb",
}


def _model(variant: str, graph: Graph) -> ModelSpec:
    if variant == "sis-general":
        # Rates on the edges plus weak long-range contacts between all pairs.
        M = contact_from_rates(graph, 0.3, 0.4) + 0.02 * (1.0 - np.eye(graph.n))
        return ModelSpec(variant, contact=M)
    names = list(RATES)[:N_RATES[variant]]
    return ModelSpec(variant, **{k: RATES[k] for k in names})


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


@pytest.mark.parametrize("graph_name", sorted(GRAPHS))
@pytest.mark.parametrize("variant", ALL_VARIANTS)
def test_ensemble_stream(variant, graph_name):
    g = GRAPHS[graph_name]
    rep = mc_ensemble(_model(variant, g), g, init=0.3, t_max=40, n_reps=3,
                      master_seed=11)
    csv = ensemble_to_csv(rep)
    assert _sha256(csv.encode()) == ENSEMBLE_SHA256[(variant, graph_name)]


@pytest.mark.parametrize("variant", sorted(MATRIX_SHA256))
def test_three_compartment_matrix(variant):
    g = generate("path", n=3)
    S = build_transition_matrix(_model(variant, g), g)
    # Hash the dense view, so that the digest pins every entry, zeros too.
    dense = S.entries.toarray()
    assert _sha256(dense.tobytes()) == MATRIX_SHA256[variant]
