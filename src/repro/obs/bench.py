"""Canonical performance benchmarks and the regression compare gate.

``python -m repro.obs bench`` runs a fixed suite of reduced-scale
experiment workloads (the fig5–fig8 shapes) plus micro-benchmarks of the
hot substrate operations, each under a fresh :class:`~.profiling.Profiler`,
and writes one schema-versioned ``BENCH_<timestamp>.json`` file:

.. code-block:: json

    {
      "schema_version": "1.0",
      "kind": "bench",
      "mode": "smoke",
      "manifest": {"seed": ..., "git_describe": ..., "python": ...},
      "runs": [
        {"name": "fig5.can-het.tiny", "group": "fig5", "kind": "sim",
         "wall_seconds": 1.23,
         "metrics": {"sim_events": 1804, "events_per_sec": 1466.7},
         "profile": {"sim.dispatch.Timeout": {"calls": 402, ...}}}
      ]
    }

The committed ``results/BENCH_*.json`` files form the repo's performance
trajectory; ``python -m repro.obs compare A.json B.json`` diffs two points
of it and exits nonzero when any run or profile scope slowed down by more
than the threshold — CI runs it against the committed baseline.
"""

from __future__ import annotations

import datetime
import json
import os
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Tuple

import numpy as np

from ..analysis.export import write_json
from ..analysis.tables import format_table
from .manifest import RunManifest
from .profiling import CLOCK, Profiler
from .schema import SCHEMA_VERSION, check_schema_version

__all__ = [
    "run_bench",
    "bench_filename",
    "load_bench",
    "validate_bench_payload",
    "bench_payload_from_pytest",
    "compare_payloads",
    "compare_files",
    "render_compare",
    "BenchComparison",
]

#: default seed for bench workloads (the presets' CLUSTER 2011 seed)
DEFAULT_SEED = 20110926

#: ignore scope/run timings where both sides are below this many seconds —
#: sub-noise-floor scopes produce wild percentages that mean nothing
#: (back-to-back runs on one machine show >2x swings under ~10 ms)
MIN_SECONDS = 0.05


# --------------------------------------------------------------------------- run --
def _sim_events(env) -> int:
    """Total events ever scheduled on a kernel (its event-id counter)."""
    return int(env._eid)


def _grid_run(scheme: str, preset, seed: int, **config_kwargs):
    """One fig5/fig6-shaped matchmaking run; returns a metrics dict."""
    from ..gridsim import GridSimulation, MatchmakingConfig

    def fn(profiler: Profiler) -> Dict[str, Any]:
        config = MatchmakingConfig(
            preset.with_seed(seed), scheme=scheme, **config_kwargs
        )
        sim = GridSimulation(config, profiler=profiler)
        t0 = CLOCK()
        result = sim.run()
        wall = CLOCK() - t0
        events = _sim_events(sim.env)
        return {
            "sim_events": events,
            "events_per_sec": round(events / wall, 1) if wall > 0 else None,
            "jobs": result.jobs_submitted,
            "jobs_per_sec": (
                round(result.jobs_submitted / wall, 1) if wall > 0 else None
            ),
            "unplaced_jobs": result.unplaced_jobs,
        }

    return fn


def _churn_run(scheme, seed: int, **config_kwargs):
    """One fig7/fig8-shaped churn run; returns a metrics dict."""
    from ..gridsim import ChurnSimulation
    from ..gridsim.config import ChurnConfig

    def fn(profiler: Profiler) -> Dict[str, Any]:
        config = ChurnConfig(scheme=scheme, seed=seed, **config_kwargs)
        sim = ChurnSimulation(config, profiler=profiler)
        t0 = CLOCK()
        result = sim.run()
        wall = CLOCK() - t0
        events = _sim_events(sim.env)
        msgs, nbytes = sim.protocol.stats.totals()
        return {
            "sim_events": events,
            "events_per_sec": round(events / wall, 1) if wall > 0 else None,
            "heartbeat_msgs": msgs,
            "heartbeat_kbytes": round(nbytes / 1024.0, 2),
            "heartbeat_msgs_per_sec": (
                round(msgs / wall, 1) if wall > 0 else None
            ),
            "final_population": result.final_population,
        }

    return fn


# -- micro-benchmarks: direct calls into the hot substrate operations ----------
def _micro_route(routes: int, nodes: int, seed: int):
    from ..can.overlay import CanOverlay
    from ..can.routing import route
    from ..can.space import ResourceSpace
    from ..workload.nodes import generate_node_specs

    def fn(profiler: Profiler) -> Dict[str, Any]:
        space = ResourceSpace(gpu_slots=2)
        overlay = CanOverlay(space)
        rng = np.random.default_rng(seed)
        for spec in generate_node_specs(nodes, 2, rng):
            overlay.add_node(
                spec.node_id, space.node_coordinate(spec, float(rng.random()))
            )
        points = [tuple(rng.random(space.dims) * 0.998) for _ in range(routes)]
        t0 = CLOCK()
        for point in points:
            route(overlay, 0, point, profiler=profiler)
        return _micro_metrics(routes, CLOCK() - t0)

    return fn


def _micro_chord_route(routes: int, nodes: int, seed: int):
    """Finger-table key routing on the Chord ring (micro.route's rival)."""
    from ..can.space import ResourceSpace
    from ..chord import ChordRing, chord_route
    from ..workload.nodes import generate_node_specs

    def fn(profiler: Profiler) -> Dict[str, Any]:
        space = ResourceSpace(gpu_slots=2)
        ring = ChordRing(space)
        rng = np.random.default_rng(seed)
        for spec in generate_node_specs(nodes, 2, rng):
            ring.add_node(
                spec.node_id, space.node_coordinate(spec, float(rng.random()))
            )
        starts = [int(r) for r in rng.integers(0, nodes, routes)]
        points = [tuple(rng.random(space.dims) * 0.998) for _ in range(routes)]
        hops = 0
        t0 = CLOCK()
        for start, point in zip(starts, points):
            hops += len(chord_route(ring, start, point, profiler=profiler)) - 1
        metrics = _micro_metrics(routes, CLOCK() - t0)
        metrics["mean_hops"] = round(hops / routes, 3)
        return metrics

    return fn


def _build_protocol(scheme, nodes: int, seed: int, profiler=None, engine="object"):
    """A populated heartbeat protocol on a fresh overlay (shared harness)."""
    from ..can.heartbeat import ProtocolConfig
    from ..can.overlay import CanOverlay
    from ..can.soa import build_protocol
    from ..can.space import ResourceSpace
    from ..workload.nodes import generate_node_specs

    space = ResourceSpace(gpu_slots=2)
    overlay = CanOverlay(space)
    proto = build_protocol(
        overlay, ProtocolConfig(scheme=scheme), engine=engine,
        profiler=profiler,
    )
    rng = np.random.default_rng(seed)
    specs = generate_node_specs(nodes, 2, rng)
    proto.bootstrap(
        specs[0].node_id,
        space.node_coordinate(specs[0], float(rng.random())),
    )
    for spec in specs[1:]:
        proto.join(
            spec.node_id,
            space.node_coordinate(spec, float(rng.random())),
            now=0.0,
        )
    return proto


def _micro_heartbeat(scheme, rounds: int, nodes: int, seed: int, engine="object"):
    def fn(profiler: Profiler) -> Dict[str, Any]:
        proto = _build_protocol(
            scheme, nodes, seed, profiler=profiler, engine=engine
        )
        t0 = CLOCK()
        for i in range(rounds):
            proto.run_round(60.0 * (i + 1))
        return _micro_metrics(rounds, CLOCK() - t0)

    return fn


def _micro_can_join(nodes: int, seed: int):
    """Sequential protocol joins of ``nodes`` nodes in 11-d (array engine).

    The overlay split, its adjacency update and the join reply/notify
    exchange, as the churn workloads' bootstrap runs them; ``per_call_us``
    is the cost of one join, node generation included.
    """
    from ..can.heartbeat import HeartbeatScheme

    def fn(profiler: Profiler) -> Dict[str, Any]:
        t0 = CLOCK()
        with profiler.scope("can.join"):
            _build_protocol(
                HeartbeatScheme.ADAPTIVE, nodes, seed, engine="array"
            )
        return _micro_metrics(nodes - 1, CLOCK() - t0)

    return fn


def _micro_table_merge(merges: int, nodes: int, seed: int):
    """Full-table merge path: re-absorb a believed neighbor's whole table.

    One warm-up round populates tables; each iteration then drops the
    receiver's processed-epoch entry for one sender (forcing the full merge
    rather than the unchanged-re-send fast path) and merges that sender's
    table again — the vanilla scheme's hottest sub-path.
    """
    from ..can.heartbeat import HeartbeatScheme

    def fn(profiler: Profiler) -> Dict[str, Any]:
        proto = _build_protocol(HeartbeatScheme.VANILLA, nodes, seed)
        proto.run_round(60.0)
        pairs = []
        for receiver_id in sorted(proto.nodes):
            receiver = proto.nodes[receiver_id]
            for sender_id in receiver.table.sorted_ids():
                sender = proto.nodes.get(sender_id)
                if sender is not None:
                    pairs.append((receiver, sender))
        done = 0
        t0 = CLOCK()
        with profiler.scope("can.table_merge"):
            while done < merges:
                for receiver, sender in pairs:
                    if done >= merges:
                        break
                    receiver.processed_epoch.pop(sender.node_id, None)
                    proto._merge_full_table(receiver, sender, 120.0)
                    done += 1
        return _micro_metrics(done, CLOCK() - t0)

    return fn


def _micro_broken_links(counts: int, nodes: int, seed: int):
    """count_broken_links under per-iteration table churn.

    Each iteration perturbs one node's believed table (remove + re-insert a
    record, invalidating that node's cached count) before recounting, so
    the benchmark measures the incremental-recount path rather than pure
    cache hits.
    """
    from ..can.heartbeat import HeartbeatScheme

    def fn(profiler: Profiler) -> Dict[str, Any]:
        proto = _build_protocol(HeartbeatScheme.VANILLA, nodes, seed)
        proto.run_round(60.0)
        ids = sorted(proto.nodes)
        t0 = CLOCK()
        with profiler.scope("can.count_broken_links"):
            for i in range(counts):
                pnode = proto.nodes[ids[i % len(ids)]]
                if len(pnode.table):
                    nid = pnode.table.sorted_ids()[0]
                    rec = pnode.table.get(nid)
                    heard = pnode.table.last_heard(nid)
                    pnode.table.remove(nid)
                    pnode.table.upsert(rec, heard, heard=True)
                proto.count_broken_links()
        return _micro_metrics(counts, CLOCK() - t0)

    return fn


def _micro_recovery(cycles: int, nodes: int, seed: int):
    """Full crash -> detection -> take-over cycles on a live protocol.

    Each iteration silently fails one node, then runs heartbeat rounds
    until some believer's timeout fires the detection callback (the
    faulty grid's recovery trigger) and the zone is reclaimed.  Measures
    the whole failure-handling path rather than one sub-operation.
    """
    from ..can.heartbeat import HeartbeatScheme

    def fn(profiler: Profiler) -> Dict[str, Any]:
        proto = _build_protocol(
            HeartbeatScheme.VANILLA, nodes, seed, profiler=profiler
        )
        period = proto.config.period
        proto.run_round(period)
        detected: List[int] = []
        proto.on_failure_detected = lambda nid, t: detected.append(nid)
        rng = np.random.default_rng(seed)
        now = period
        done = 0
        t0 = CLOCK()
        with profiler.scope("can.recovery_cycle"):
            for _ in range(cycles):
                alive = sorted(proto.overlay.alive_ids())
                if len(alive) <= 2:
                    break
                victim = int(alive[int(rng.integers(len(alive)))])
                proto.fail(victim, now)
                target = len(detected) + 1
                while len(detected) < target:
                    now += period
                    proto.run_round(now)
                done += 1
        return _micro_metrics(done, CLOCK() - t0)

    return fn


def _micro_aggregation(steps: int, nodes: int, seed: int):
    from ..can.aggregation import AggregationEngine
    from ..can.overlay import CanOverlay
    from ..can.space import ResourceSpace
    from ..model.node import GridNode
    from ..sim.core import Environment
    from ..workload.nodes import generate_node_specs

    def fn(profiler: Profiler) -> Dict[str, Any]:
        space = ResourceSpace(gpu_slots=2)
        overlay = CanOverlay(space)
        env = Environment()
        rng = np.random.default_rng(seed)
        grid = {}
        for spec in generate_node_specs(nodes, 2, rng):
            overlay.add_node(
                spec.node_id, space.node_coordinate(spec, float(rng.random()))
            )
            grid[spec.node_id] = GridNode(spec, env)
        engine = AggregationEngine(overlay, grid)
        engine.step()  # build topology caches outside the timed region
        t0 = CLOCK()
        with profiler.scope("can.aggregation.step"):
            for _ in range(steps):
                engine.step()
        return _micro_metrics(steps, CLOCK() - t0)

    return fn


def _micro_placement(scheme: str, repeats: int, seed: int):
    from ..gridsim import GridSimulation, MatchmakingConfig
    from ..workload import TINY_LOAD

    def fn(profiler: Profiler) -> Dict[str, Any]:
        sim = GridSimulation(
            MatchmakingConfig(TINY_LOAD.with_seed(seed), scheme=scheme),
            profiler=profiler,
        )
        sim.aggregation.run_rounds(3)
        jobs = sim.jobs * repeats
        t0 = CLOCK()
        for job in jobs:
            sim.matchmaker.place(job)
        return _micro_metrics(len(jobs), CLOCK() - t0)

    return fn


def _micro_ledger(jobs: int, seed: int):
    """Full job lifecycles through the sqlite WAL ledger.

    Each iteration is one complete SUBMITTED -> MATCHED -> RUNNING ->
    COMPLETED trajectory — four durable transactions — against a real
    on-disk database, so the number tracks what a gateway pays per job
    for ledger durability.
    """
    import tempfile

    from ..service.ledger import JobLedger, JobStatus, SqliteBackend

    def fn(profiler: Profiler) -> Dict[str, Any]:
        with tempfile.TemporaryDirectory() as tmp:
            ledger = JobLedger(SqliteBackend(f"{tmp}/bench_ledger.sqlite"))
            spec = {
                "job_id": None,
                "submit_time": 0.0,
                "base_duration": 60.0,
                "requirements": {
                    "cpu": {"cores": 1, "clock": 1.0, "memory": 1.0, "disk": 1.0}
                },
            }
            t0 = CLOCK()
            with profiler.scope("service.ledger_lifecycle"):
                for i in range(jobs):
                    record = ledger.submit(spec, now=float(i))
                    ledger.transition(
                        record.job_id,
                        JobStatus.MATCHED,
                        now=float(i),
                        node_id=seed % 97,
                    )
                    ledger.transition(
                        record.job_id, JobStatus.RUNNING, now=float(i)
                    )
                    ledger.transition(
                        record.job_id, JobStatus.COMPLETED, now=float(i) + 1
                    )
            wall = CLOCK() - t0
            ledger.close()
        return _micro_metrics(jobs, wall)

    return fn


def _micro_net_channel(sends: int, nodes: int, seed: int):
    """Per-send cost of the network channel's transmit verdict.

    Exercises the adversarial configuration (loss + latency + partition +
    flap — every verdict branch live) over a realistic id space, and
    reports the identity-channel bypass alongside it as ``identity_ns``:
    the price every loss-free simulation pays per send.
    """
    from ..net import (
        FlapSpec,
        LatencySpec,
        NetworkModel,
        NetworkSpec,
        PartitionSpec,
    )

    def fn(profiler: Profiler) -> Dict[str, Any]:
        rng = np.random.default_rng(seed)
        spec = NetworkSpec(
            loss=0.05,
            latency=LatencySpec(kind="lognormal", mu=-2.5, sigma=1.0),
            partitions=(
                PartitionSpec(src=(0, 1, 2), dst=(7, 8, 9), start=0.0),
            ),
            flaps=(FlapSpec(down=240.0, up=120.0, fraction=0.3),),
            seed=seed,
        )
        model = NetworkModel(spec, rng)
        pairs = rng.integers(0, nodes, size=(sends, 2)).tolist()
        transmit = model.transmit
        t0 = CLOCK()
        with profiler.scope("net.transmit"):
            for i, (src, dst) in enumerate(pairs):
                transmit(src, dst, float(i))
        wall = CLOCK() - t0
        metrics = _micro_metrics(sends, wall)
        metrics["delivered_fraction"] = round(model.delivered / sends, 4)
        identity = NetworkModel()
        t0 = CLOCK()
        for i, (src, dst) in enumerate(pairs):
            identity.transmit(src, dst, float(i))
        metrics["identity_ns"] = round((CLOCK() - t0) / sends * 1e9, 1)
        return metrics

    return fn


def _micro_sketch(inserts: int, seed: int):
    """Streaming quantile-sketch ingest: the per-sample telemetry cost.

    Feeds an exponential stream (the wait-time shape) one value at a
    time — the path every finished job pays under ``stream_waits`` — then
    reports the retained footprint alongside the usual rate numbers.
    """
    from .sketch import QuantileSketch

    def fn(profiler: Profiler) -> Dict[str, Any]:
        rng = np.random.default_rng(seed)
        values = rng.exponential(1000.0, inserts).tolist()
        sk = QuantileSketch()
        insert = sk.insert
        t0 = CLOCK()
        with profiler.scope("obs.sketch_insert"):
            for v in values:
                insert(v)
        wall = CLOCK() - t0
        metrics = _micro_metrics(inserts, wall)
        metrics["retained"] = sk.retained
        metrics["p99"] = round(sk.quantile(0.99), 2)
        return metrics

    return fn


def _micro_metrics(iterations: int, wall: float) -> Dict[str, Any]:
    return {
        "iterations": iterations,
        "per_call_us": (
            round(wall / iterations * 1e6, 2) if iterations else None
        ),
        "calls_per_sec": round(iterations / wall, 1) if wall > 0 else None,
    }


# --------------------------------------------------------------------- the suite --
def _suite(mode: str, seed: int) -> List[Tuple[str, str, str, Callable]]:
    """(name, group, kind, workload) rows for one bench invocation."""
    from ..can.heartbeat import HeartbeatScheme
    from ..workload import SMALL_LOAD, TINY_LOAD

    smoke = mode == "smoke"
    preset = TINY_LOAD if smoke else SMALL_LOAD
    schemes = ["can-het", "can-hom", "central"]
    hb_schemes = [
        HeartbeatScheme.VANILLA,
        HeartbeatScheme.COMPACT,
        HeartbeatScheme.ADAPTIVE,
    ]
    rows: List[Tuple[str, str, str, Callable]] = []

    # fig5 shape: the three matchmakers on one load level
    for scheme in schemes:
        rows.append(
            (
                f"fig5.{scheme}.{preset.name}",
                "fig5",
                "sim",
                _grid_run(scheme, preset, seed),
            )
        )
    # fig6 shape: constraint-ratio sweep point away from the default
    rows.append(
        (
            f"fig6.can-het.{preset.name}.ratio0.9",
            "fig6",
            "sim",
            _grid_run(
                "can-het", preset.with_constraint_ratio(0.9), seed
            ),
        )
    )
    # fig7 shape: high churn (events denser than the heartbeat period)
    churn = dict(
        initial_nodes=60 if smoke else 120,
        event_gap_mean=15.0,
        duration=3_000.0 if smoke else 6_000.0,
    )
    for scheme in hb_schemes:
        rows.append(
            (
                f"fig7.{scheme.value}",
                "fig7",
                "sim",
                _churn_run(scheme, seed, **churn),
            )
        )
    # fig8 shape: larger population, sparse churn (message-cost regime)
    scale = dict(
        initial_nodes=120 if smoke else 250,
        event_gap_mean=120.0,
        duration=1_200.0 if smoke else 1_800.0,
    )
    for scheme in hb_schemes:
        rows.append(
            (
                f"fig8.{scheme.value}",
                "fig8",
                "sim",
                _churn_run(scheme, seed, **scale),
            )
        )
    # substrate rival: the same fig7/fig8 shapes on the Chord ring, for
    # the CAN-vs-Chord maintenance-cost comparison in every BENCH point
    for scheme in hb_schemes:
        rows.append(
            (
                f"fig7.chord.{scheme.value}",
                "fig7-chord",
                "sim",
                _churn_run(scheme, seed, substrate="chord", **churn),
            )
        )
    rows.append(
        (
            "fig8.chord.adaptive",
            "fig8-chord",
            "sim",
            _churn_run(
                HeartbeatScheme.ADAPTIVE, seed, substrate="chord", **scale
            ),
        )
    )
    # fig8 at scale (full mode only): the object/array engine pair at 1k
    # nodes pins the speedup, and the array engine carries the 10k/100k
    # populations the object engine cannot reach in reasonable time.  The
    # 1k pair measures steady maintenance throughput (the fig8 regime —
    # events slower than the period), so its churn is sparse enough that
    # repair storms do not overlap the round kernels under comparison;
    # the 10k/100k rows keep the standard fig8 event density.
    if not smoke:
        scale_churn = dict(event_gap_mean=120.0, leave_mode="fail")
        pair_churn = dict(event_gap_mean=600.0, leave_mode="fail")
        rows += [
            (
                "fig8.1k.object",
                "fig8-scale",
                "sim",
                _churn_run(
                    HeartbeatScheme.ADAPTIVE, seed, initial_nodes=1_000,
                    duration=21_600.0, engine="object", **pair_churn,
                ),
            ),
            (
                "fig8.1k.array",
                "fig8-scale",
                "sim",
                _churn_run(
                    HeartbeatScheme.ADAPTIVE, seed, initial_nodes=1_000,
                    duration=21_600.0, engine="array", **pair_churn,
                ),
            ),
            (
                "fig8.10k",
                "fig8-scale",
                "sim",
                _churn_run(
                    HeartbeatScheme.ADAPTIVE, seed, initial_nodes=10_000,
                    duration=1_200.0, engine="array", **scale_churn,
                ),
            ),
            (
                # the 5-dim fig8 cell: at 11 dims the CAN's average degree
                # (and with it the per-join cost) grows enough that the
                # 100k bootstrap alone would run for the better part of an
                # hour — the low-dimension cell keeps the row regenerable
                "fig8.100k",
                "fig8-scale",
                "sim",
                _churn_run(
                    HeartbeatScheme.ADAPTIVE, seed, initial_nodes=100_000,
                    gpu_slots=0, duration=600.0, engine="array",
                    **scale_churn,
                ),
            ),
        ]
    # micro-benchmarks of the hot substrate operations
    routes = 200 if smoke else 1_000
    rounds = 20 if smoke else 60
    steps = 20 if smoke else 60
    repeats = 5 if smoke else 20
    overlay_nodes = 150 if smoke else 300
    rows += [
        ("micro.route", "micro", "micro", _micro_route(routes, overlay_nodes, seed)),
        (
            "micro.chord_route",
            "micro",
            "micro",
            _micro_chord_route(routes, overlay_nodes, seed),
        ),
        *(
            (
                f"micro.heartbeat_round.{s.value}",
                "micro",
                "micro",
                _micro_heartbeat(s, rounds, 100 if smoke else 200, seed),
            )
            for s in hb_schemes
        ),
        (
            # the array engine's batched per-round kernels, on a converged
            # population (pure clean-path rounds); compare against
            # micro.heartbeat_round.vanilla for the per-round speedup
            "micro.round_kernel",
            "micro",
            "micro",
            _micro_heartbeat(
                HeartbeatScheme.VANILLA,
                200 if smoke else 400,
                100 if smoke else 200,
                seed,
                engine="array",
            ),
        ),
        (
            "micro.can_join",
            "micro",
            "micro",
            _micro_can_join(200 if smoke else 1_000, seed),
        ),
        (
            "micro.aggregation_step",
            "micro",
            "micro",
            _micro_aggregation(steps, overlay_nodes, seed),
        ),
        (
            "micro.placement.can-het",
            "micro",
            "micro",
            _micro_placement("can-het", repeats, seed),
        ),
        (
            "micro.table_merge",
            "micro",
            "micro",
            _micro_table_merge(
                2_000 if smoke else 10_000, 100 if smoke else 200, seed
            ),
        ),
        (
            "micro.broken_links",
            "micro",
            "micro",
            _micro_broken_links(
                200 if smoke else 1_000, 100 if smoke else 200, seed
            ),
        ),
        (
            "micro.recovery",
            "micro",
            "micro",
            _micro_recovery(
                10 if smoke else 30, 100 if smoke else 200, seed
            ),
        ),
        (
            "micro.ledger",
            "micro",
            "micro",
            _micro_ledger(100 if smoke else 500, seed),
        ),
        (
            "micro.sketch",
            "micro",
            "micro",
            _micro_sketch(50_000 if smoke else 500_000, seed),
        ),
        (
            "micro.net_channel",
            "micro",
            "micro",
            _micro_net_channel(
                50_000 if smoke else 200_000, 100 if smoke else 200, seed
            ),
        ),
    ]
    return rows


def bench_filename(now: Optional[datetime.datetime] = None) -> str:
    """``BENCH_<UTC timestamp>.json``, the trajectory-point file name."""
    now = now or datetime.datetime.now(datetime.timezone.utc)
    return f"BENCH_{now.strftime('%Y%m%dT%H%M%SZ')}.json"


def run_bench(
    mode: str = "smoke",
    seed: int = DEFAULT_SEED,
    out_dir: str = "results",
    out_path: Optional[str] = None,
    progress=None,
    name_filter: Optional[str] = None,
) -> Tuple[Dict[str, Any], str]:
    """Run the suite, write ``BENCH_*.json`` atomically, return (payload, path).

    ``name_filter`` keeps only suite rows whose name contains the given
    substring (e.g. ``"micro.heartbeat"``); an exhaustive filter is an
    error rather than a silently empty benchmark.
    """
    if mode not in ("smoke", "full"):
        raise ValueError(f"unknown bench mode {mode!r}")
    suite = _suite(mode, seed)
    if name_filter:
        suite = [row for row in suite if name_filter in row[0]]
        if not suite:
            raise ValueError(
                f"--filter {name_filter!r} matches no bench scenario"
            )
    manifest = RunManifest(name=f"bench-{mode}", seed=seed)
    manifest.config = {
        "mode": mode,
        "runs": len(suite),
        **({"filter": name_filter} if name_filter else {}),
    }
    runs: List[Dict[str, Any]] = []
    for i, (name, group, kind, workload) in enumerate(suite):
        if progress is not None:
            progress.progress("bench", i, len(suite))
        # micro runs are short enough that scheduler interference dominates
        # a single sample; keep the fastest of three repetitions (the
        # standard noise-robust estimator).  Sim runs are long and costly.
        reps = 3 if kind == "micro" else 1
        best = None
        for _ in range(reps):
            profiler = Profiler()
            t0 = CLOCK()
            metrics = workload(profiler)
            wall = CLOCK() - t0
            if best is None or wall < best[0]:
                best = (wall, metrics, profiler.as_dict())
        wall, metrics, profile = best
        runs.append(
            {
                "name": name,
                "group": group,
                "kind": kind,
                "wall_seconds": round(wall, 6),
                "metrics": metrics,
                "profile": profile,
            }
        )
    if progress is not None:
        progress.progress("bench", len(suite), len(suite))
    manifest.finish()
    payload = {
        "schema_version": SCHEMA_VERSION,
        "kind": "bench",
        "mode": mode,
        "manifest": manifest.as_dict(),
        "runs": runs,
    }
    if out_path is None:
        out_path = os.path.join(out_dir, bench_filename())
    write_json(out_path, payload)
    return payload, out_path


# ----------------------------------------------------------------------- loading --
def validate_bench_payload(payload: Any, what: str = "bench payload") -> None:
    """Raise :class:`ValueError` unless ``payload`` is a readable BENCH file."""
    if not isinstance(payload, dict):
        raise ValueError(f"{what}: not a JSON object")
    check_schema_version(payload.get("schema_version"), what)
    if payload.get("kind") != "bench":
        raise ValueError(
            f"{what}: kind is {payload.get('kind')!r}, expected 'bench'"
        )
    runs = payload.get("runs")
    if not isinstance(runs, list):
        raise ValueError(f"{what}: 'runs' must be a list")
    for run in runs:
        for key in ("name", "wall_seconds", "metrics", "profile"):
            if key not in run:
                raise ValueError(
                    f"{what}: run {run.get('name', '?')!r} lacks {key!r}"
                )


def load_bench(path: str) -> Dict[str, Any]:
    """Read and validate one ``BENCH_*.json`` file."""
    with open(path) as fh:
        payload = json.load(fh)
    validate_bench_payload(payload, what=path)
    return payload


def bench_payload_from_pytest(output_json: Dict[str, Any]) -> Dict[str, Any]:
    """Convert a pytest-benchmark ``--benchmark-json`` dict to BENCH schema.

    Each pytest benchmark becomes one ``kind: "micro"`` run whose
    ``wall_seconds`` is the mean round time, so ``compare`` gates
    pytest-benchmark results exactly like ``python -m repro.obs bench``
    output.
    """
    runs = []
    for bench in output_json.get("benchmarks", []):
        stats = bench.get("stats", {})
        mean = float(stats.get("mean", 0.0))
        runs.append(
            {
                "name": f"pytest.{bench.get('name', '?')}",
                "group": str(bench.get("group") or "pytest-benchmark"),
                "kind": "micro",
                "wall_seconds": mean,
                "metrics": {
                    "min_s": stats.get("min"),
                    "max_s": stats.get("max"),
                    "stddev_s": stats.get("stddev"),
                    "rounds": stats.get("rounds"),
                    "ops_per_sec": stats.get("ops"),
                },
                "profile": {},
            }
        )
    commit = output_json.get("commit_info") or {}
    machine = output_json.get("machine_info") or {}
    return {
        "schema_version": SCHEMA_VERSION,
        "kind": "bench",
        "mode": "pytest",
        "manifest": {
            "name": "bench-pytest",
            "schema_version": SCHEMA_VERSION,
            "seed": None,
            "git_describe": str(commit.get("id") or "unknown")[:12],
            "python": machine.get("python_version", "unknown"),
            "started_at": output_json.get("datetime", "unknown"),
            "wall_seconds": None,
        },
        "runs": runs,
    }


# ----------------------------------------------------------------------- compare --
@dataclass
class BenchComparison:
    """Outcome of diffing two bench payloads."""

    threshold: float
    #: (scope, old seconds, new seconds, delta percent, regressed?)
    rows: List[Tuple[str, float, float, float, bool]] = field(
        default_factory=list
    )
    only_old: List[str] = field(default_factory=list)
    only_new: List[str] = field(default_factory=list)

    @property
    def regressions(self) -> List[Tuple[str, float, float, float, bool]]:
        return [row for row in self.rows if row[4]]

    @property
    def ok(self) -> bool:
        return not self.regressions


def _delta_pct(old: float, new: float) -> float:
    if old <= 0:
        return 0.0 if new <= 0 else float("inf")
    return (new - old) / old * 100.0


def compare_payloads(
    old: Dict[str, Any],
    new: Dict[str, Any],
    threshold: float = 20.0,
    min_seconds: float = MIN_SECONDS,
) -> BenchComparison:
    """Diff run wall times and per-scope cumulative profile times.

    A row regresses when the new time exceeds the old by more than
    ``threshold`` percent *and* at least one side is above the
    ``min_seconds`` noise floor.
    """
    validate_bench_payload(old, "old payload")
    validate_bench_payload(new, "new payload")
    comparison = BenchComparison(threshold=threshold)
    old_runs = {r["name"]: r for r in old["runs"]}
    new_runs = {r["name"]: r for r in new["runs"]}
    comparison.only_old = sorted(set(old_runs) - set(new_runs))
    comparison.only_new = sorted(set(new_runs) - set(old_runs))

    def add(scope: str, old_s: float, new_s: float) -> None:
        if max(old_s, new_s) < min_seconds:
            return
        delta = _delta_pct(old_s, new_s)
        comparison.rows.append(
            (scope, old_s, new_s, delta, delta > threshold)
        )

    for name in sorted(set(old_runs) & set(new_runs)):
        o, n = old_runs[name], new_runs[name]
        add(name, float(o["wall_seconds"]), float(n["wall_seconds"]))
        o_prof, n_prof = o.get("profile", {}), n.get("profile", {})
        for path in sorted(set(o_prof) & set(n_prof)):
            add(
                f"{name} :: {path}",
                float(o_prof[path]["cum_s"]),
                float(n_prof[path]["cum_s"]),
            )
    return comparison


def compare_files(
    old_path: str,
    new_path: str,
    threshold: float = 20.0,
    min_seconds: float = MIN_SECONDS,
) -> BenchComparison:
    return compare_payloads(
        load_bench(old_path),
        load_bench(new_path),
        threshold=threshold,
        min_seconds=min_seconds,
    )


def render_compare(
    comparison: BenchComparison, old_path: str = "A", new_path: str = "B"
) -> str:
    """Human-readable regression report (repo table formatting)."""
    chunks: List[str] = []
    title = f"Bench compare — {old_path} -> {new_path}"
    chunks.append(f"{title}\n{'=' * len(title)}")
    regressed = comparison.regressions
    rows = [
        [
            scope,
            f"{old_s:.4f}",
            f"{new_s:.4f}",
            f"{delta:+.1f}",
            "REGRESSED" if bad else "",
        ]
        for scope, old_s, new_s, delta, bad in sorted(
            comparison.rows, key=lambda r: -r[3]
        )
    ]
    chunks.append(
        format_table(
            ["scope", "old s", "new s", "delta %", ""],
            rows,
            title=f"Timings (threshold {comparison.threshold:.0f}%)",
        )
    )
    if comparison.only_old:
        chunks.append(
            "only in old: " + ", ".join(comparison.only_old)
        )
    if comparison.only_new:
        chunks.append(
            "only in new: " + ", ".join(comparison.only_new)
        )
    if regressed:
        chunks.append(
            f"{len(regressed)} scope(s) regressed past "
            f"{comparison.threshold:.0f}%"
        )
    else:
        chunks.append("no regressions past threshold")
    return "\n\n".join(chunks)
