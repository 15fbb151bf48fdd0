import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from floqnet.circuit import NoiseParams, build_memory_circuit
from floqnet.decode import (
    DecodeError,
    DecoderContext,
    _match_defects,
    decode_batch,
    decode_syndrome,
    shortest_graphlike_error,
)
from floqnet.lattice import generate_honeycomb_torus
from floqnet.sim import DecodingGraph, ShotBatch, sample_shots, extract_decoding_graph
from oracles import brute_force_min_weight, reference_pairing_cost


def _graph(n_det, mechanisms, n_obs=2):
    """Graph from (det1, det2, weight, obs_mask); det2 = -1 is a boundary edge."""
    a, b, w, obs = zip(*mechanisms)
    p = 1.0 / (1.0 + np.exp(np.asarray(w, dtype=np.float64)))
    return DecodingGraph(
        n_detectors=n_det,
        n_observables=n_obs,
        det1=np.asarray(a, dtype=np.int32),
        det2=np.asarray(b, dtype=np.int32),
        probability=p,
        obs_mask=np.asarray(obs, dtype=np.uint64),
    )


def _assert_exact(graph, syndrome):
    """decode_syndrome agrees with brute force over every mechanism subset."""
    syndromes = [
        (1 << int(a)) | ((1 << int(b)) if b >= 0 else 0)
        for a, b in zip(graph.det1, graph.det2)
    ]
    target = sum(1 << int(d) for d in np.flatnonzero(syndrome))
    want, masks = brute_force_min_weight(
        graph.weights.tolist(),
        syndromes,
        [int(o) for o in graph.obs_mask],
        target,
        graph.n_edges,
    )
    if want is None:
        with pytest.raises(DecodeError):
            decode_syndrome(graph, syndrome)
        return
    got = decode_syndrome(graph, syndrome)
    # integer scaling rounds each edge weight by at most half a unit
    tol = graph.n_edges * graph.weights.max() / 2**20
    assert got.total_weight == pytest.approx(want, abs=tol)
    mask = sum(int(bit) << k for k, bit in enumerate(got.prediction))
    assert mask in masks


# boundary - 0 - 1 - 2 - boundary, with a cheap detour 0 - 2 and a
# parallel 1 - 2 edge that flips the other observable
_CHAIN = [
    (0, -1, 2, 1),
    (0, 1, 1, 0),
    (1, 2, 1, 2),
    (1, 2, 3, 1),
    (2, -1, 3, 0),
    (0, 2, 3, 2),
]


@pytest.mark.parametrize(
    "syndrome",
    [[1, 0, 0], [0, 1, 0], [1, 1, 0], [1, 0, 1], [0, 1, 1], [1, 1, 1]],
)
def test_decode_syndrome_exact_on_chain(syndrome):
    _assert_exact(_graph(3, _CHAIN), np.array(syndrome, dtype=np.uint8))


def test_decode_syndrome_exact_on_disconnected_components():
    # component {0, 1, 2} reaches the boundary; component {3, 4} does not
    mechs = [(0, 1, 2, 1), (1, 2, 2, 0), (2, -1, 1, 2), (3, 4, 4, 3), (3, 4, 2, 1)]
    graph = _graph(5, mechs)
    for bits in range(1, 1 << 5):
        syndrome = np.array([(bits >> d) & 1 for d in range(5)], dtype=np.uint8)
        _assert_exact(graph, syndrome)


def test_decode_syndrome_reports_pairs_and_boundary():
    graph = _graph(3, _CHAIN)
    got = decode_syndrome(graph, np.array([1, 1, 1], dtype=np.uint8))
    assert got.matched_pairs == ((-1, 0), (1, 2))
    assert got.total_weight == pytest.approx(3.0)
    assert got.prediction.tolist() == [1, 1]


@st.composite
def _graphs(draw):
    n_det = draw(st.integers(min_value=1, max_value=6))
    mechs = []
    for _ in range(draw(st.integers(min_value=1, max_value=9))):
        a = draw(st.integers(min_value=0, max_value=n_det - 1))
        b = draw(st.integers(min_value=-1, max_value=n_det - 1).filter(lambda b: b != a))
        w = draw(st.integers(min_value=1, max_value=5))
        obs = draw(st.integers(min_value=0, max_value=3))
        mechs.append((a, b, w, obs))
    return _graph(n_det, mechs)


@st.composite
def _graphs_and_syndromes(draw):
    graph = draw(_graphs())
    n_det = graph.n_detectors
    syndrome = draw(st.lists(st.booleans(), min_size=n_det, max_size=n_det))
    return graph, np.array(syndrome, dtype=np.uint8)


@given(_graphs_and_syndromes())
@settings(max_examples=300, deadline=None)
def test_decode_syndrome_exact_against_brute_force(case):
    _assert_exact(*case)


@given(_graphs())
@settings(max_examples=300, deadline=None)
def test_context_tables_are_min_weight_two_defect_corrections(graph):
    """dist and mask against brute force for every pair of nodes.

    The boundary is node n_det of the tables; brute force treats it as one
    more detector, so a correction between two nodes may pass through it.
    Both orientations of the mask, each from its own shortest-path tree,
    must be minimum-weight masks.
    """
    ctx = DecoderContext(graph)
    n = graph.n_detectors
    syndromes = [
        (1 << int(a)) | (1 << (int(b) if b >= 0 else n))
        for a, b in zip(graph.det1, graph.det2)
    ]
    tol = graph.n_edges * graph.weights.max() / 2**20
    for r, v in itertools.combinations(range(n + 1), 2):
        want, masks = brute_force_min_weight(
            graph.weights.tolist(),
            syndromes,
            [int(o) for o in graph.obs_mask],
            (1 << r) | (1 << v),
            graph.n_edges,
        )
        if want is None:
            assert np.isinf(ctx.dist[r, v]) and np.isinf(ctx.dist[v, r])
            continue
        assert ctx.dist[r, v] == ctx.dist[v, r]
        assert ctx.dist[r, v] / ctx.scale == pytest.approx(want, abs=tol)
        assert int(ctx.mask[r, v]) in masks
        assert int(ctx.mask[v, r]) in masks


def test_decode_batch_matches_per_shot_decoding():
    lat = generate_honeycomb_torus(3, 3)
    circuit = build_memory_circuit(lat, None, NoiseParams(0.01, 0.01), 2)
    graph = extract_decoding_graph(circuit)
    batch = sample_shots(circuit, seed=7, shots=300)
    # the batch repeats syndromes, so the per-call cache is exercised
    assert len({row.tobytes() for row in batch.detectors}) < batch.shots
    ctx = DecoderContext(graph)
    preds, errors = decode_batch(graph, batch, ctx)
    want = np.array([decode_syndrome(graph, row, ctx).prediction for row in batch.detectors])
    np.testing.assert_array_equal(preds, want)
    np.testing.assert_array_equal(errors, (want != batch.observables).sum(axis=0))


def _empty_graph(n_det):
    return DecodingGraph(
        n_detectors=n_det,
        n_observables=1,
        det1=np.zeros(0, dtype=np.int32),
        det2=np.zeros(0, dtype=np.int32),
        probability=np.zeros(0),
        obs_mask=np.zeros(0, dtype=np.uint64),
    )


@pytest.mark.parametrize(
    "graph, syndrome",
    [
        (_graph(3, _CHAIN), [1, 0, 0, 0]),
        (_graph(3, _CHAIN), 1),
        (_graph(3, _CHAIN), np.eye(3)),
        (_empty_graph(3), [0, 1, 0]),
        # odd defect count in the component {0, 1}, which has no boundary edge
        (_graph(3, [(0, 1, 1, 1), (2, -1, 1, 0)]), [1, 0, 1]),
        (_graph(3, _CHAIN), [2, 0, 0]),
        (_graph(3, _CHAIN), [0.5, 0, 0]),
        (_graph(3, _CHAIN), [-1, 0, 0]),
    ],
    ids=[
        "wrong-length", "0-d", "2-d", "empty-graph", "odd-component",
        "two", "half", "minus-one",
    ],
)
def test_decode_syndrome_rejects_bad_input(graph, syndrome):
    with pytest.raises(DecodeError):
        decode_syndrome(graph, np.asarray(syndrome))


def test_context_of_another_graph_raises():
    """A context answers for the graph it was built from: on a graph of three
    boundary edges, _CHAIN's tables would pair 0 with 1 at weight 1.0, where
    the graph's own answer is two boundary matches at weight 2.0."""
    chain = _graph(3, _CHAIN)
    boundary = _graph(3, [(0, -1, 1, 0), (1, -1, 1, 0), (2, -1, 1, 0)])
    syndrome = np.array([1, 1, 0], dtype=np.uint8)
    ctx = DecoderContext(chain)
    with pytest.raises(DecodeError, match="another graph"):
        decode_syndrome(boundary, syndrome, ctx)
    batch = ShotBatch(1, 0, syndrome[None], np.zeros((1, 2), dtype=np.uint8))
    with pytest.raises(DecodeError, match="another graph"):
        decode_batch(boundary, batch, ctx)
    got = decode_syndrome(boundary, syndrome)
    assert got.matched_pairs == ((-1, 0), (-1, 1))
    assert got.total_weight == pytest.approx(2.0, abs=1e-5)
    assert decode_syndrome(chain, syndrome, ctx).matched_pairs == ((0, 1),)


def test_decode_batch_rejects_non_binary_detectors():
    graph = _graph(3, _CHAIN)
    detectors = np.array([[1, 0, 0], [2, 0, 0]], dtype=np.uint8)
    batch = ShotBatch(2, 0, detectors, np.zeros((2, 2), dtype=np.uint8))
    with pytest.raises(DecodeError):
        decode_batch(graph, batch)


# a distance: 1..20, or inf (no path) about one time in six
_DIST = st.integers(min_value=1, max_value=24).map(lambda x: math.inf if x > 20 else x)


@st.composite
def _defect_tables(draw):
    """Symmetric distance tables of 1-8 defects, boundary row last; more
    than half of the defects have no boundary path."""
    m = draw(st.integers(min_value=1, max_value=8))
    d = np.zeros((m + 1, m))
    for i, j in itertools.combinations(range(m), 2):
        d[i, j] = d[j, i] = draw(_DIST)
    bound = st.one_of(_DIST, st.just(math.inf))
    d[m] = draw(st.lists(bound, min_size=m, max_size=m))
    return d


@given(_defect_tables())
@settings(max_examples=300, deadline=None)
def test_match_defects_against_subset_dp(d):
    m = len(d) - 1
    want = reference_pairing_cost(d.tolist())
    if math.isinf(want):
        with pytest.raises(DecodeError):
            _match_defects(d)
        return
    matches = _match_defects(d)
    covered = sorted(x for i, j in matches for x in ((i, j) if j < m else (i,)))
    assert covered == list(range(m))
    assert sum(d[j, i] for i, j in matches) == want


@st.composite
def _distance_graphs(draw):
    """_graphs' graphs, some with a parallel copy of one mechanism that
    flips other observables."""
    graph = draw(_graphs())
    mechs = [
        (int(a), int(b), 1, int(o))
        for a, b, o in zip(graph.det1, graph.det2, graph.obs_mask)
    ]
    if draw(st.booleans()):
        a, b, w, obs = mechs[draw(st.integers(0, len(mechs) - 1))]
        mechs.append((a, b, w, obs ^ draw(st.integers(min_value=1, max_value=3))))
    return _graph(graph.n_detectors, mechs)


def _brute_force_distance(graph):
    """Fewest mechanisms whose detectors cancel and whose observable masks
    do not, or None."""
    syndromes = [
        (1 << int(a)) | ((1 << int(b)) if b >= 0 else 0)
        for a, b in zip(graph.det1, graph.det2)
    ]
    masks = [int(o) for o in graph.obs_mask]
    for size in range(1, graph.n_edges + 1):
        for combo in itertools.combinations(range(graph.n_edges), size):
            syndrome = mask = 0
            for i in combo:
                syndrome ^= syndromes[i]
                mask ^= masks[i]
            if not syndrome and mask:
                return size
    return None


@given(_distance_graphs())
@settings(max_examples=300, deadline=None)
def test_shortest_graphlike_error_against_brute_force(graph):
    want = _brute_force_distance(graph)
    if want is None:
        with pytest.raises(DecodeError, match="no undetectable"):
            shortest_graphlike_error(graph)
    else:
        assert shortest_graphlike_error(graph) == want


@pytest.mark.parametrize(
    "graph, match",
    [
        (_graph(2, [(0, 1, 1, 0)], n_obs=0), "no observable"),
        (_empty_graph(3), "empty"),
        (_graph(2, [(0, 1, 1, 1), (-1, -1, 1, 1)]), "no detector"),
    ],
    ids=["no-observable", "empty-graph", "undetectable"],
)
def test_shortest_graphlike_error_rejects_bad_graphs(graph, match):
    with pytest.raises(DecodeError, match=match):
        shortest_graphlike_error(graph)
