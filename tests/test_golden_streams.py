"""Golden digests: Monte Carlo streams, the README's sweep, exact transition
matrices and the mean-field map.

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
from click.testing import CliRunner

from epinet import (
    Graph,
    MeanFieldPoint,
    ModelSpec,
    build_transition_matrix,
    contact_from_rates,
    ensemble_to_csv,
    find_fixed_point,
    generate,
    mc_ensemble,
    mf_jacobian,
    mf_step,
)
from epinet.cli import main

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


def _model(variant: str, graph: Graph, rates: dict = RATES) -> ModelSpec:
    if variant == "sis-general":
        # Rates on the edges plus weak long-range contacts between all pairs.
        M = contact_from_rates(graph, 0.3, 0.4) + 0.02 * (1.0 - np.eye(graph.n))
        return ModelSpec(variant, contact=M)
    names = list(rates)[:N_RATES[variant]]
    return ModelSpec(variant, **{k: rates[k] for k in names})


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


# The README's `epinet sweep` command: six grid points of 30 replicates,
# three of them dying out early.
README_SWEEP = ["sweep", "--generate", "er:n=500,p=0.02,seed=3", "--variant",
                "sis-nia", "--delta", "0.6", "--beta-grid", "0.02:0.12:0.02",
                "--t", "400", "--reps", "30", "--seed", "7"]
README_SWEEP_SHA256 = \
    "894ffd7b73ec76472c411db994b92931229ce581d79567e7ed79c6cd2a3cd5ca"


def test_readme_sweep_csv(tmp_path):
    out = tmp_path / "sweep.csv"
    res = CliRunner().invoke(main, [*README_SWEEP, "-o", str(out)])
    assert res.exit_code == 0, res.output
    assert _sha256(out.read_bytes()) == README_SWEEP_SHA256


@pytest.mark.parametrize("variant", sorted(MATRIX_SHA256))
def test_three_compartment_matrix(variant):
    g = generate("path", n=3)
    S = build_transition_matrix(_model(variant, g), g)
    # Hash the dense view, so that the digest pins every entry, zeros too.
    dense = S.entries.toarray()
    assert _sha256(dense.tobytes()) == MATRIX_SHA256[variant]


def _weighted(g: Graph, seed: int) -> Graph:
    rng = np.random.default_rng(seed)
    return Graph(g.n, g.edges, tuple(float(w) for w in
                                     rng.uniform(0.3, 1.0, g.m)))


# Three escape-product paths: per-edge products on a weighted graph, the
# log-sum on an unweighted graph with n > 256, and per-edge products where
# the last nodes have no neighbors (and, with beta = 1, some factors are 0).
_TAIL = generate("er", n=16, p=0.3, seed=4)
MF_GRAPHS = {
    "weighted-er40": (_weighted(generate("er", n=40, p=0.15, seed=8), 9),
                      RATES),
    "er300": (generate("er", n=300, p=0.02, seed=6), RATES),
    "isolated-tail": (Graph(20, _TAIL.edges), {**RATES, "beta": 1.0}),
}

MEAN_FIELD_SHA256 = {
    ("sis-nia", "er300"): "292a4629bebb45275b3c8ba191973a5da857048a472851204e7d08edf70cc30e",
    ("sis-ia", "er300"): "1279f46065bf782abafd738560d85a039db4538e21aea5db471917d87eacef6c",
    ("sis-general", "er300"): "32cc5ba71c648821e4b7a75916b935157b8312234a7b2d4092382c8f41f5456a",
    ("sirs", "er300"): "e9f368cf7eb1c7e8f44c92eee245702a18bcbc70004b71221c2071dcfc66776c",
    ("siv-id", "er300"): "d6a44074e259fcd19ff19ff34f0a0835328c2237c16ef4cde1f358248915ce40",
    ("siv-vd", "er300"): "6874089d79db2625128db63466b4c34c7016de444b3bdc9f9237af023afc9665",
    ("sis-nia", "isolated-tail"): "4085c975a4b45e8a0504f41343d9c810ba5606995f5a350a95a116b2c688285e",
    ("sis-ia", "isolated-tail"): "8e17ab8ba528c3b1c29b53a0b741310b039e64a52f708807155552aa6be0bbd5",
    ("sis-general", "isolated-tail"): "cd00e7f631e6d6a22801b45dadc86f195c78995b0cfc36b1c001aa193f36d605",
    ("sirs", "isolated-tail"): "1c6c2922b2b6efeef19813efd7e1a822fe0a5cf3c2ea9f98dad7747646099b2a",
    ("siv-id", "isolated-tail"): "8ebf3f467768ec6a835a98bc9f6ce2068d6116a8d8d3ec3e3e37232bbe6ddefd",
    ("siv-vd", "isolated-tail"): "eb8dce7883d1e4d60982e9b6ab0fd01a3c1829a431db5bb79266702405261102",
    ("sis-nia", "weighted-er40"): "5135b5143d27909a74cf566a834bc83fa74aedb66fa1d5a2c83406c2c96f51de",
    ("sis-ia", "weighted-er40"): "9c19b3a7d74ec88b019601b83fb235bc56770ae581664af0371e03f2b41048ca",
    ("sis-general", "weighted-er40"): "4e92d131b42372bbee0c96cef77776583f5d8b87facba7cdab217f8aaba303fe",
    ("sirs", "weighted-er40"): "316be92b8553399c68adf62405ca179ba3a0ea3bbb89de2916e82f486e94577f",
    ("siv-id", "weighted-er40"): "e05d65e227102a2546397583270ace77ed196cdc3cd6189db76c9b9a83e001eb",
    ("siv-vd", "weighted-er40"): "20dbfe31ca413fc580eea7fa79bedce24ff2160cccb58e49bf5433e71a0243fd",
}


def _mf_model(variant: str, graph: Graph, rates: dict) -> ModelSpec:
    # No long-range contacts: with beta = 1 they would exceed 1.
    if variant == "sis-general":
        return ModelSpec(variant, contact=contact_from_rates(
            graph, rates["beta"], rates["delta"]))
    return _model(variant, graph, rates)


def _mean_field_bytes(variant: str, graph_name: str) -> bytes:
    """mf_step and mf_jacobian at a random point, then the fixed point."""
    g, rates = MF_GRAPHS[graph_name]
    m = _mf_model(variant, g, rates)
    rng = np.random.default_rng(17)
    p = rng.uniform(0.05, 0.9, g.n)
    p[[1, 3]] = 1.0
    r = None if m.k == 2 else (1.0 - p) * rng.uniform(0.0, 1.0, g.n)
    x = MeanFieldPoint(p, r)
    fp = find_fixed_point(m, g)
    return b"".join((mf_step(m, g, x).concat().tobytes(),
                     mf_jacobian(m, g, x).tobytes(),
                     fp.point.concat().tobytes()))


@pytest.mark.parametrize("graph_name", sorted(MF_GRAPHS))
@pytest.mark.parametrize("variant", ALL_VARIANTS)
def test_mean_field_bytes(variant, graph_name):
    digest = _sha256(_mean_field_bytes(variant, graph_name))
    assert digest == MEAN_FIELD_SHA256[(variant, graph_name)]
