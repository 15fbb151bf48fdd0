"""One benchmark workload in one process: set up, then sample and decode.

Run through ``run.py``, which pins BLAS to one thread and puts the
checkout's ``src`` first on the import path.  Prints human-readable lines
and, last, one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.

A run has two phases.  Setup (lattice -> partition -> compile -> certify
-> graph extraction -> DecoderContext -> shortest_graphlike_error, as far
as the workload uses each) is repeated ``setups`` times and its median wall
time is ``setup_s``.  Then whole rounds run until ``--seconds`` have passed.
A round is one ``sample_shots`` call on a block of fresh shots and, on
decoding workloads, one ``decode_batch`` call on that block plus one check
of the graph's detector marginals against it.  Every round attempts the
same operations, so the failed share of ``attempted`` does not depend on
the seed or on how many rounds fit in the run.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import resource
import statistics
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import floqnet
from floqnet import (
    NoiseParams,
    build_memory_circuit,
    decode_batch,
    extract_decoding_graph,
    generate_honeycomb_torus,
    partition_code,
    sample_shots,
    shortest_graphlike_error,
    validate_determinism,
)
from floqnet.decode import DecoderContext

import checks

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = Path(__file__).resolve().parent / "out"

# The paper's operating point: local and Bell-pair fidelities of about
# 99.97 % and 99 %, default Bell-pair wait.
NOISE = NoiseParams(p_local=3e-4, p_nonlocal=1e-2)
PARTITION_SEED = 0  # part of the workload's definition, not of its inputs
ORACLE_MAX_DEFECTS = 8
ORACLE_MAX_SHOTS = 40
SAMPLER_CHECK_SHOTS = 256


# sample_shots works through a call's shots in chunks of 4096 (``_CHUNK``
# in floqnet/sim.py at this benchmark's commit), so every block is a whole
# number of chunks: a user asking for many shots runs full chunks, and a
# smaller block would time a partial chunk that large requests never run.
# The figure is fixed here so that a change to the sampler's chunking
# cannot change the benchmark's inputs.
CHUNK = 4096


@dataclass(frozen=True)
class Workload:
    L: int
    n_qpu: int | None  # None: one processor, no partition
    rounds: int  # detector rounds R
    block: int  # shots per sample_shots call
    decode: bool
    setups: int  # set-ups per run; setup_s is their median


WORKLOADS = {
    # Many cheap shots; ~95 % of syndromes repeat within a block, so
    # decode_batch's syndrome cache carries decoding.  No Bell pairs.  One
    # block is one LER point: 24 chunks, ~10^5 shots, which resolve an LER
    # of 10^-3 to about +-20 % (100 logical errors).  decode_batch caches
    # per call, so the block size sets the repeat share (0.17 distinct at
    # one chunk, 0.10 at 20 000 shots, 0.054 at 24 chunks).
    "hc6-local": Workload(L=6, n_qpu=None, rounds=2, block=24 * CHUNK, decode=True, setups=3),
    # 8 processors, 62 Bell-mediated edges; extraction dominates set-up and
    # every shot carries distinct defects, so the cache cannot help.  One
    # chunk per block.
    "hc9-dist": Workload(L=9, n_qpu=40, rounds=3, block=CHUNK, decode=True, setups=1),
    # Sampling only, for an outside decoder: no graph, no decoding.  One
    # chunk per block, the batch the sampler itself produces.
    "hc12-dist-sample": Workload(L=12, n_qpu=64, rounds=4, block=CHUNK, decode=False, setups=3),
}

# Same pipelines at a size that runs in about a second, for --tiny.
TINY = {
    "hc6-local": Workload(L=3, n_qpu=None, rounds=1, block=2000, decode=True, setups=1),
    "hc9-dist": Workload(L=6, n_qpu=40, rounds=1, block=100, decode=True, setups=1),
    "hc12-dist-sample": Workload(L=6, n_qpu=40, rounds=1, block=200, decode=False, setups=1),
}


class Tracer:
    """Spans around each layer call made from this file.

    Always measures the span's wall time (the metrics need it); keeps the
    span (name, start, end, parent, counts) only when enabled, in memory
    until ``dump``.
    """

    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.spans: list[dict] = []
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str, **counts):
        rec = {"name": name, "start": time.perf_counter(), "end": None, "counts": counts}
        if self.enabled:
            rec["parent"] = self._open[-1] if self._open else None
            self._open.append(len(self.spans))
            self.spans.append(rec)
        try:
            yield rec
        finally:
            rec["end"] = time.perf_counter()
            if self.enabled:
                self._open.pop()

    def durations(self, name: str) -> list[float]:
        return [s["end"] - s["start"] for s in self.spans if s["name"] == name]

    def self_times(self) -> dict[str, float]:
        """Per span name: total duration minus the time its children cover."""
        own = [s["end"] - s["start"] for s in self.spans]
        for s in self.spans:
            if s["parent"] is not None:
                own[s["parent"]] -= s["end"] - s["start"]
        out: dict[str, float] = {}
        for s, t in zip(self.spans, own):
            out[s["name"]] = out.get(s["name"], 0.0) + t
        return out

    def dump(self, path: Path, extra: dict) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        t0 = self.spans[0]["start"] if self.spans else 0.0
        spans = [
            {**s, "start": s["start"] - t0, "end": s["end"] - t0} for s in self.spans
        ]
        doc = {"spans": spans, "self_time_s": self.self_times(), **extra}
        path.write_text(json.dumps(doc, indent=1))


@dataclass
class Setup:
    lattice: object
    partition: object
    circuit: object
    report: object
    graph: object = None
    context: object = None
    distance: int = 0


def set_up(w: Workload, tr: Tracer) -> Setup:
    with tr.span("lattice"):
        lat = generate_honeycomb_torus(w.L, w.L)
    part = None
    if w.n_qpu is not None:
        with tr.span("partition"):
            part = partition_code(lat, w.n_qpu, seed=PARTITION_SEED)
    with tr.span("compile"):
        circuit = build_memory_circuit(lat, part, NOISE, w.rounds)
    with tr.span("certify"):
        report = validate_determinism(circuit)
    s = Setup(lat, part, circuit, report)
    if w.decode:
        with tr.span("extract"):
            s.graph = extract_decoding_graph(circuit)
        with tr.span("context"):
            s.context = DecoderContext(s.graph)
        with tr.span("distance"):
            s.distance = shortest_graphlike_error(s.graph)
    return s


def check_setup(w: Workload, s: Setup, seed: int) -> None:
    checks.check_honeycomb(s.lattice, w.L)
    n_nonlocal = 0
    if s.partition is not None:
        checks.check_partition(s.lattice, s.partition)
        n_nonlocal = len(s.partition.nonlocal_edges)
    checks.check_circuit(s.circuit, s.lattice, n_nonlocal, s.report)
    checks.check_sampler(s.circuit, seed, SAMPLER_CHECK_SHOTS)


def count_distinct_rows(bits: np.ndarray) -> int:
    packed = np.ascontiguousarray(np.packbits(bits, axis=1))
    return len(np.unique(packed.view(np.dtype((np.void, packed.shape[1])))))


def block_seed(seed: int, i: int) -> int:
    return int(np.random.SeedSequence([seed, i]).generate_state(1, np.uint64)[0])


def wilson(k: int, n: int, z: float = 1.96) -> tuple[float, float]:
    """Wilson score interval for k successes in n > 0 trials."""
    p = k / n
    mid = (p + z * z / (2 * n)) / (1 + z * z / n)
    half = z * math.sqrt(p * (1 - p) / n + z * z / (4 * n * n)) / (1 + z * z / n)
    return (max(0.0, mid - half), min(1.0, mid + half))


@dataclass
class Tally:
    """What the rounds did, counted from the benchmark's side."""

    attempted: int = 0
    failed: int = 0
    blocks: int = 0
    sample_time: float = 0.0  # wall time inside sample_shots, all blocks
    shots: int = 0
    defects: int = 0
    distinct: int = 0
    det_counts: np.ndarray | None = None
    graph_failures: int = 0
    decode_failures: dict = field(default_factory=dict)  # message -> blocks
    decoded_shots: int = 0
    decoded_defects: int = 0
    logical_errors: int = 0
    decoded_time: float = 0.0  # sampling plus decoding of returned blocks
    decode_time: float = 0.0  # decoding alone of returned blocks


def play_rounds(w: Workload, s: Setup, seed: int, seconds: float, tr: Tracer) -> Tally:
    """Whole rounds until ``seconds`` have passed; at least one."""
    circuit, graph, ctx = s.circuit, s.graph, s.context
    t = Tally(det_counts=np.zeros(circuit.n_detectors, dtype=np.int64))
    if w.decode:
        pred = checks.graph_marginals(graph)
        oracle = checks.PairingOracle(graph)
    t_end = time.perf_counter() + seconds
    while t.blocks == 0 or time.perf_counter() < t_end:
        with tr.span("round"):
            with tr.span("sample", shots=w.block) as span:
                batch = sample_shots(circuit, block_seed(seed, t.blocks), w.block)
            t_sample = span["end"] - span["start"]
            t.attempted += 1
            t.sample_time += t_sample
            defects = int(batch.detectors.sum(dtype=np.int64))
            distinct = count_distinct_rows(batch.detectors)
            span["counts"].update(defects=defects, distinct_syndromes=distinct)
            t.shots += w.block
            t.defects += defects
            t.distinct += distinct
            t.det_counts += batch.detectors.sum(axis=0, dtype=np.int64)
            if w.decode:
                t.attempted += 1
                preds = None
                with tr.span("decode", shots=w.block, defects=defects) as span:
                    try:
                        preds, _ = decode_batch(graph, batch, ctx)
                    except Exception as exc:  # a raising block is a failed operation
                        t.failed += 1
                        why = f"{type(exc).__name__}: {exc}"
                        t.decode_failures[why] = t.decode_failures.get(why, 0) + 1
                        span["counts"]["failed"] = 1
                if preds is not None:
                    t_decode = span["end"] - span["start"]
                    t.decoded_shots += w.block
                    t.decoded_defects += defects
                    t.decode_time += t_decode
                    t.decoded_time += t_sample + t_decode
                    t.logical_errors += int((preds != batch.observables).any(axis=1).sum())
                    with tr.span("check.decode"):
                        checks.check_decoded_block(
                            graph, ctx, oracle, batch.detectors, preds,
                            ORACLE_MAX_DEFECTS, ORACLE_MAX_SHOTS,
                        )
                t.attempted += 1
                with tr.span("check.graph"):
                    if not checks.graph_matches_block(pred, batch.detectors):
                        t.failed += 1
                        t.graph_failures += 1
        t.blocks += 1
    return t


def print_summary(name: str, w: Workload, s: Setup, t: Tally, seed: int) -> None:
    c = s.circuit
    print(f"workload {name}: {t.blocks} rounds of {w.block} shots, seed {seed}")
    print(f"  circuit: {c.n_qubits} qubits, {c.n_records} records, {c.n_detectors} detectors")
    print(
        f"  defects per shot {t.defects / t.shots:.3f}, "
        f"distinct-syndrome share {t.distinct / t.shots:.4f}"
    )
    if not w.decode:
        return
    print(f"  graph: {s.graph.n_edges} edges, graph-like distance {s.distance}")
    print(
        f"  marginal check failed on {t.graph_failures}/{t.blocks} blocks; graph "
        f"predicts {checks.graph_marginals(s.graph).sum():.3f} defects per shot"
    )
    for why, k in t.decode_failures.items():
        print(f"  decode_batch raised on {k}/{t.blocks} blocks: {why[:160]}")
    if t.decoded_shots:
        lo, hi = wilson(t.logical_errors, t.decoded_shots)
        print(
            f"  LER per shot {t.logical_errors / t.decoded_shots:.3e} "
            f"[{lo:.3e}, {hi:.3e}] (95 % Wilson) over {t.decoded_shots} decoded shots"
        )
    else:
        print("  LER: no decoded shots")


def layer_metrics(w: Workload, s: Setup, t: Tally, tr: Tracer) -> dict:
    """Per-layer metrics from the spans: set-up layers as the median over
    set-ups, sample and decode as the total over all blocks; 0 where the
    workload does not run the layer."""

    def med(span_name: str) -> float:
        d = tr.durations(span_name)
        return statistics.median(d) if d else 0.0

    c, g, part = s.circuit, s.graph, s.partition
    return {
        "lattice.build_s": (med("lattice"), "s"),
        "lattice.n_vertices": (s.lattice.n_vertices, "count"),
        "partition.s": (med("partition"), "s"),
        "partition.n_clusters": (part.n_clusters if part else 1, "count"),
        "partition.n_nonlocal_edges": (len(part.nonlocal_edges) if part else 0, "count"),
        "circuit.compile_s": (med("compile"), "s"),
        "circuit.certify_s": (med("certify"), "s"),
        "circuit.n_qubits": (c.n_qubits, "count"),
        "circuit.n_records": (c.n_records, "count"),
        "circuit.n_detectors": (c.n_detectors, "count"),
        "sim.sample_s": (t.sample_time, "s"),
        "sim.sample_ns_per_shot_detector": (
            t.sample_time / (t.shots * c.n_detectors) * 1e9, "ns"
        ),
        "sim.defects_per_shot": (t.defects / t.shots, "count"),
        "sim.extract_s": (med("extract"), "s"),
        "sim.graph_edges": (g.n_edges if g else 0, "count"),
        "sim.marginal_outliers": (
            checks.marginal_outliers(checks.graph_marginals(g), t.det_counts, t.shots)
            if g else 0,
            "count",
        ),
        "decode.context_s": (med("context"), "s"),
        "decode.distance_s": (med("distance"), "s"),
        "decode.graph_distance": (s.distance, "mechanisms"),
        "decode.s": (sum(tr.durations("decode")), "s"),
        "decode.us_per_defect": (
            t.decode_time / t.decoded_defects * 1e6 if t.decoded_defects else 0.0, "us"
        ),
        "decode.distinct_syndrome_frac": (
            t.distinct / t.shots if w.decode else 0.0, "fraction"
        ),
        "decode.blocks_failed": (sum(t.decode_failures.values()), "count"),
        "decode.decoded_shots_per_s": (
            t.decoded_shots / t.decoded_time if t.decoded_time else 0.0, "shots/s"
        ),
    }


def run(name: str, w: Workload, seed: int, seconds: float, trace: bool) -> dict:
    tr = Tracer(trace)
    setup_times = []
    for _ in range(w.setups):
        with tr.span("setup") as span:
            s = set_up(w, tr)
        setup_times.append(span["end"] - span["start"])
    with tr.span("check.setup"):
        check_setup(w, s, seed)
    # Leave set-up's objects out of the collector's later passes, so that
    # a full collection does not land inside a timed block at random.
    gc.collect()
    gc.freeze()
    t = play_rounds(w, s, seed, seconds, tr)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print_summary(name, w, s, t, seed)

    metrics = {
        "setup_s": (statistics.median(setup_times), "s"),
        "sampled_shots_per_s": (t.shots / t.sample_time, "shots/s"),
        "peak_rss_mb": (peak_rss_mb, "MiB"),
    }
    if trace:
        end_to_end = {k: v for k, (v, _) in metrics.items()}
        metrics = layer_metrics(w, s, t, tr)
        tr.dump(
            OUT_DIR / f"trace-{name}-seed{seed}.json",
            {
                "workload": name,
                "seed": seed,
                "end_to_end": end_to_end,
                "per_layer": {k: v for k, (v, _) in metrics.items()},
            },
        )
    return {
        "correct": True,
        "attempted": t.attempted,
        "failed": t.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true", help="self-check size")
    args = ap.parse_args(argv)

    src = (ROOT / "src").resolve()
    if src not in Path(floqnet.__file__).resolve().parents:
        print(f"floqnet was imported from {floqnet.__file__}, not {src}", file=sys.stderr)
        return 2
    w = (TINY if args.tiny else WORKLOADS)[args.workload]
    try:
        result = run(args.workload, w, args.seed, args.seconds, bool(args.trace))
    except checks.CheckFailed as exc:
        print(f"check failed: {exc}")
        result = {"correct": False, "attempted": 1, "failed": 1, "metrics": {}}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
