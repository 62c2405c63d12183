"""The benchmark's workloads, each one repetition ("rep") at a time.

A rep builds the system from an input seed (set-up), runs a fixed amount
of simulated work (run phase), then checks the outputs with the
program's own checkers.  The same input seed always gives the same
inputs, so two reps on one input seed repeat the same work and their
exact work counts must match.

Every workload goes through the program's public API in-process, on one
thread.  Timing wrappers are set on the instances a rep builds; the
traced rep additionally patches classes through :class:`Tracer`.
"""

from __future__ import annotations

import dataclasses
import os
import shutil
import tempfile
import time
from typing import Callable, Dict, List, Optional

import numpy as np

from repro.can.aggregation import AggregationEngine
from repro.can.heartbeat import HeartbeatProtocol, HeartbeatScheme
from repro.can.messages import MessageType
from repro.can.overlay import CanOverlay
from repro.can.soa import ArrayHeartbeatProtocol
from repro.gridsim import (
    ChurnConfig,
    ChurnSimulation,
    CrashBurst,
    FaultPlan,
    JoinBurst,
    scenario_pack,
)
from repro.gridsim import churn as churn_mod
from repro.gridsim.invariants import check_service_accounting
from repro.net.model import LatencySpec, NetworkModel
from repro.sched.can_het import CanHetMatchmaker
from repro.service import core as service_mod
from repro.service.core import GridService, ServiceConfig
from repro.service.ledger import TERMINAL_STATES, JobLedger, JobStatus, open_ledger
from repro.sim.clock import SimClock
from repro.sim.core import Environment
from repro.sim.rng import RngRegistry
from repro.workload.jobs import JobDistribution, generate_jobs
from repro.workload.nodes import generate_node_specs
from repro.workload.presets import SMALL_LOAD
from repro.workload.trace import job_to_dict

from .tracing import Tracer

__all__ = ["WORKLOADS", "Rep", "GateFailure", "install_layer_spans"]

#: believed-route probes per churn rep (a paper-result metric)
ROUTE_PROBES = 200
#: simulated seconds the service runs per drain step once submits end
SERVICE_DRAIN_STEP = 1200.0
SERVICE_MAX_DRAIN_STEPS = 1000
#: node crashes in the service's submission window, as fractions of it
SERVICE_CRASHES = (0.2, 0.5, 0.8)


class GateFailure(AssertionError):
    """A benchmark-side correctness check failed."""


@dataclasses.dataclass
class Rep:
    """What one rep measured."""

    setup_s: float
    run_s: float
    #: work units done in the run phase: jobs that reached a terminal
    #: state within it, or node-rounds
    ops: int
    #: wall seconds of each user-facing call (placement/submit, or round)
    op_latencies: List[float]
    #: operations judged by the correctness gate, and how many failed
    attempted: int
    failed: int
    #: exact work counts, the per-layer counters among them; every rep of
    #: one seed must repeat them
    counts: Dict[str, float]
    #: the correctness gate's message, None when it passed
    gate_error: Optional[str] = None


def _scaled(base: int, scale: float, floor: int) -> int:
    return max(floor, int(round(base * scale)))


def _timed(fn: Callable, sink: List[float]) -> Callable:
    """Wrap ``fn`` to append each call's wall seconds to ``sink``."""

    def wrapper(*args, **kwargs):
        t0 = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            sink.append(time.perf_counter() - t0)

    return wrapper


def _count_events(env: Environment) -> List[int]:
    """Count the kernel's processed events (``Environment.run`` steps)."""
    counter = [0]
    step = env.step

    def counted() -> None:
        counter[0] += 1
        step()

    env.step = counted
    return counter


def _gate(check: Callable[[], None]) -> Optional[str]:
    try:
        check()
    except AssertionError as exc:  # InvariantViolation and GateFailure
        return f"{type(exc).__name__}: {exc}"
    return None


def install_layer_spans(tracer: Tracer) -> None:
    """Patch every layer boundary the traced rep records."""
    for owner, attr, name in (
        (Environment, "run", "sim.run"),
        (churn_mod, "generate_node_specs", "workload.gen"),
        (service_mod, "generate_node_specs", "workload.gen"),
        (CanOverlay, "add_node", "overlay.add_node"),
        (HeartbeatProtocol, "join", "hb.join"),
        (HeartbeatProtocol, "run_round", "hb.round"),
        (HeartbeatProtocol, "fail", "hb.fail"),
        (ArrayHeartbeatProtocol, "fail", "hb.fail"),
        (NetworkModel, "transmit", "net.transmit"),
        (AggregationEngine, "step", "agg.step"),
        (CanHetMatchmaker, "place", "sched.place"),
        (GridService, "submit", "service.submit"),
        (GridService, "fail_node", "service.fail_node"),
        (JobLedger, "submit", "ledger.submit"),
        (JobLedger, "transition", "ledger.transition"),
    ):
        tracer.patch(owner, attr, name)


def _call(tracer: Optional[Tracer], name: str, fn: Callable, *args):
    if tracer is None:
        return fn(*args)
    return tracer.span(name, fn, *args)


def _protocol_layer(protocol) -> Dict[str, float]:
    """Heartbeat and channel counters of a maintenance protocol."""
    stats = protocol.stats
    layer = {f"hb.msgs.{t.value}": stats.count[t] for t in MessageType}
    layer["hb.kbytes"] = sum(stats.bytes.values()) / 1024.0
    layer["hb.claims"] = protocol.events["claims"]
    layer["hb.failures"] = protocol.events["failures"]
    net = protocol.net.counters()
    layer["net.attempts"] = net["attempts"]
    layer["net.delivered_frac"] = (
        net["delivered"] / net["attempts"] if net["attempts"] else 0.0
    )
    for reason in ("loss", "partition", "link_down"):
        layer[f"net.dropped_{reason}"] = net[f"dropped_{reason}"]
    return layer


def _sched_layer(stats) -> Dict[str, float]:
    """Placement counters of a matchmaker's ``MatchmakingStats``."""
    return {
        "sched.push_hops": stats.total_push_hops,
        "sched.placed_on_free_frac": (
            stats.placed_on_free / stats.placed if stats.placed else 0.0
        ),
        "sched.fallback_searches": stats.fallback_searches,
        "sched.unplaced": stats.unplaced,
    }


# --------------------------------------------------------------------- churn --
def _churn(cfg: ChurnConfig, tracer: Optional[Tracer]) -> Rep:
    t0 = time.perf_counter()
    sim = _call(tracer, "bench.rep", ChurnSimulation, cfg)
    ctor_s = time.perf_counter() - t0
    events = _count_events(sim.env)
    latencies: List[float] = []
    alive_per_round: List[int] = []
    boot: List[float] = []
    round_fn = _timed(sim.protocol.run_round, latencies)
    overlay = sim.overlay

    def counted_round(now: float) -> None:
        alive_per_round.append(len(overlay.alive_ids()))
        round_fn(now)

    sim.protocol.run_round = counted_round
    sim.bootstrap_population = _timed(sim.bootstrap_population, boot)
    t1 = time.perf_counter()
    result = _call(tracer, "bench.rep", sim.run)
    run_s = time.perf_counter() - t1 - sum(boot)

    gate_error = _gate(sim.check_invariants)
    counts = _protocol_layer(sim.protocol)
    counts.update(
        {
            "result.hb_kbytes_per_node_min": result.rates.kbytes_per_node_minute,
            "result.broken_links_steady": result.steady_state_broken_links(),
            "result.route_delivered_frac": sim.routing_success_rate(ROUTE_PROBES),
            "sim.events": events[0],
            "hb.node_rounds": sum(alive_per_round),
            "hb.joins": sim.protocol.events["joins"],
            "result.broken_links_sum": float(result.broken_links_values.sum()),
        }
    )
    return Rep(
        setup_s=ctor_s + sum(boot),
        run_s=run_s,
        ops=sum(alive_per_round),
        op_latencies=latencies,
        attempted=sum(alive_per_round),
        failed=0,
        counts=counts,
        gate_error=gate_error,
    )


def _churn_plan(start: float, end: float, every: float, count: int) -> FaultPlan:
    """Alternate a crash and a join of ``count`` nodes every ``every`` s.

    A fixed schedule in place of the background Poisson churn: the number
    of events, and so the work they cause, is the same for every seed,
    while the seed still picks the victims and the newcomers.
    """
    times = [float(t) for t in np.arange(start, end, every)]
    return FaultPlan(
        bursts=tuple(CrashBurst(at=t, count=count) for t in times[0::2]),
        joins=tuple(JoinBurst(at=t, count=count) for t in times[1::2]),
    )


def _churn_config(nodes: int, duration: float, seed: int) -> ChurnConfig:
    return ChurnConfig(
        initial_nodes=nodes,
        scheme=HeartbeatScheme.ADAPTIVE,
        engine="array",
        # no background churn: a fixed plan supplies every event
        event_gap_mean=1e12,
        duration=duration,
        seed=seed,
    )


def maintenance(
    seed: int, scale: float, tracer: Optional[Tracer], workdir: str = ""
) -> Rep:
    """fig8 shape: adaptive, array engine, sparse churn, identity channel."""
    duration = max(900.0, 9000.0 * scale)
    cfg = _churn_config(_scaled(500, scale, 40), duration, seed)
    period = cfg.heartbeat_period
    # sparse churn: one event every six heartbeat periods, so most rounds
    # run the settled kernel and the disturbed ones stay a minority
    plan = _churn_plan(period * (cfg.warmup_rounds + 1.5), duration, 6 * period, 1)
    return _churn(dataclasses.replace(cfg, plan=plan), tracer)


def flap_storm(
    seed: int, scale: float, tracer: Optional[Tracer], workdir: str = ""
) -> Rep:
    """fig7 shape: high churn under the flap-storm plan, lossy and slow."""
    nodes = _scaled(150, scale, 30)
    duration = max(900.0, 1800.0 * scale)
    cfg = _churn_config(nodes, duration, seed)
    period = cfg.heartbeat_period
    storm = {s.name: s for s in scenario_pack(duration, nodes)}["flap_storm"]
    network = dataclasses.replace(
        storm.plan.network,
        loss=0.03,
        # lognormal one-way latency, median ~50 ms
        latency=LatencySpec("lognormal", mu=-3.0, sigma=0.8),
        seed=seed,
    )
    # high churn: two crashes and two joins per heartbeat period, the
    # event rate of fig7's 15 s mean gap
    churn = _churn_plan(period * (cfg.warmup_rounds + 1.5), duration, period / 2, 2)
    plan = dataclasses.replace(churn, network=network)
    return _churn(dataclasses.replace(cfg, plan=plan), tracer)


# ------------------------------------------------------------------- service --
def _job_trace(preset, jobs: int, seed: int) -> List[Dict]:
    """A fig5 job trace from ``seed`` against the service's population.

    Arrivals are Poisson conditioned on ``jobs`` arrivals in the window
    ``[0, jobs * mean_interarrival)``: one extra arrival is drawn and the
    times scaled so that it lands on the window's end, which leaves the
    others distributed as uniform order statistics over the window.  The
    window, and so the simulated time the run phase covers, is then the
    same for every seed.
    """
    specs = generate_node_specs(
        preset.nodes, preset.gpu_slots, RngRegistry(preset.seed).stream("nodes")
    )
    stream = generate_jobs(
        jobs + 1,
        specs,
        preset.gpu_slots,
        preset.mean_interarrival,
        RngRegistry(seed).stream("jobs"),
        JobDistribution().with_constraint_ratio(preset.constraint_ratio),
    )
    stretch = jobs * preset.mean_interarrival / stream[-1].submit_time
    trace = [job_to_dict(job) for job in stream[:-1]]
    for spec in trace:
        spec["submit_time"] *= stretch
    return trace


def service(
    seed: int, scale: float, tracer: Optional[Tracer], workdir: str
) -> Rep:
    """GridService on SimClock over a sqlite-WAL ledger, open-loop submits.

    The deployment is fixed (``SMALL_LOAD``'s population and service
    seed); the seed drives the traffic: the job trace and which nodes
    crash.
    """
    preset = SMALL_LOAD
    crashes = _scaled(len(SERVICE_CRASHES), scale, 1)
    tmp = tempfile.mkdtemp(prefix="ledger-", dir=workdir)
    env = Environment()
    clock = SimClock(env)

    def setup():
        trace = _call(
            tracer, "workload.gen", _job_trace, preset, _scaled(300, scale, 30),
            seed,
        )
        ledger = open_ledger(os.path.join(tmp, "ledger.db"), clock=clock)
        svc = GridService(ServiceConfig(preset=preset), ledger, clock)
        svc.start()
        return trace, ledger, svc

    try:
        t0 = time.perf_counter()
        trace, ledger, svc = _call(tracer, "bench.rep", setup)
        setup_s = time.perf_counter() - t0
        try:
            events = _count_events(env)
            latencies: List[float] = []
            submit = _timed(svc.submit, latencies)
            for spec in trace:
                env.schedule_callback(
                    spec["submit_time"], lambda s=spec: submit(s)
                )
            crash_rng = RngRegistry(seed).stream("bench-crashes")
            window = len(trace) * preset.mean_interarrival

            def crash() -> None:
                alive = sorted(svc.grid_nodes)
                svc.fail_node(alive[int(crash_rng.integers(len(alive)))])

            for fraction in SERVICE_CRASHES[:crashes]:
                env.schedule_callback(fraction * window, crash)

            def drain() -> None:
                for _ in range(SERVICE_MAX_DRAIN_STEPS):
                    if svc.quiesced():
                        return
                    env.run(until=env.now + SERVICE_DRAIN_STEP)
                raise GateFailure("service did not quiesce")

            # the run phase is a simulated horizon that is the same for
            # every seed: the submission window plus the longest base job
            # duration, so most jobs also complete in it; the drain that
            # follows is untimed and only precedes the correctness gate
            horizon = window + JobDistribution().duration_range[1]
            t1 = time.perf_counter()
            _call(tracer, "bench.rep", env.run, horizon)
            run_s = time.perf_counter() - t1
            at_horizon = ledger.counts()
            done = sum(at_horizon[s] for s in TERMINAL_STATES)
            _call(tracer, "bench.rep", drain)
            svc.stop()

            status = ledger.counts()

            def check() -> None:
                check_service_accounting(svc, final=True)
                in_flight = {
                    s.value: n
                    for s, n in status.items()
                    if n and s not in TERMINAL_STATES
                }
                if in_flight or sum(status.values()) != len(trace):
                    raise GateFailure(
                        f"ledger census: {len(trace)} submitted, "
                        f"non-terminal {in_flight}"
                    )

            gate_error = _gate(check)
            rows = len(ledger.records())
            transitions = len(ledger.backend.transitions())
        finally:
            ledger.close()
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    tracker = svc.tracker
    failed = status[JobStatus.ABANDONED] + status[JobStatus.CANCELLED]
    counts = _protocol_layer(svc.protocol)
    counts.update(_sched_layer(svc.matchmaker.stats))
    counts.update({f"ledger.{s.value}": n for s, n in status.items()})
    counts.update(
        {
            "result.hb_kbytes_per_node_min": svc.protocol.stats.rates(
                env.now
            ).kbytes_per_node_minute,
            "recovery.jobs_lost": tracker.losses,
            "recovery.resubmitted": tracker.resubmissions,
            "recovery.abandoned": tracker.abandonments,
            "ledger.submit.calls": rows,
            # the audit table logs one row per submit and per transition
            "ledger.transition.calls": transitions - rows,
            "sim.events": events[0],
            "mm.placed": svc.matchmaker.stats.placed,
            "service.done_in_run": done,
        }
    )
    return Rep(
        setup_s=setup_s,
        run_s=run_s,
        ops=done,
        op_latencies=latencies,
        attempted=len(trace),
        failed=failed,
        counts=counts,
        gate_error=gate_error,
    )


#: workload name -> rep function ``(seed, scale, tracer, workdir) -> Rep``;
#: ``workdir`` is where a rep may write files
WORKLOADS: Dict[str, Callable[..., Rep]] = {
    "maintenance": maintenance,
    "flap-storm": flap_storm,
    "service": service,
}
