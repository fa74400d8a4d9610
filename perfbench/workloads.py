"""The four workloads and the per-layer probes of the traced run.

Every workload drives the program only through its public entry points
(``GraphDB``, ``GraphServer``/``GraphClient``, ``RoutedClient``/
``ReplicaServer``) from one thread: one closed-loop client, the next
operation sent when the previous one has returned.  A run is:

1. ``prepare`` — the benchmark's own inputs and oracle (not timed);
2. ``setup`` — the system made ready to serve, timed, repeated
   :attr:`Workload.setup_repeats` times; the last one is kept for the run;
3. the timed phase — a fixed number of whole rounds of the workload's
   operations, ``--seconds`` times the workload's rounds per second
   (:attr:`Workload.rounds_per_second`, set so that the summed operation
   time is about ``--seconds`` on the reference box).  The work, and with
   it the allocation pattern the collector sees, the size of the RIG cache
   and the number of writes, does not depend on how fast the box is.  The
   read-only workloads make :attr:`Workload.writes_per_round` seeded
   writes per round, spread among the reads, to a second tenant (the write
   tenant), so that write latency is sampled over the same stretch of time
   as read latency while the read tenant's caches stay as the workload
   needs them; ``mixed_rw`` writes to its read tenant;
4. verification of every answer against the oracle.

With tracing on, each operation is followed by isolated calls into the
layers below it, each inside a span (see :mod:`spans`), and layers the
workload does not cross are measured on side fixtures over the same graph.
"""

from __future__ import annotations

import gc
import os
import random
import shutil
import subprocess
import sys
import time
from typing import Dict, List, Optional, Tuple

from repro import (
    Budget,
    GraphClient,
    GraphDB,
    GraphDelta,
    GraphServer,
    MatchReport,
    PatternQuery,
    ReplicaServer,
    RoutedClient,
    build_rig,
    mjoin_iter,
)
from repro.dynamic import MutableDataGraph
from repro.framing import decode_body, encode_frame
from repro.matching.ordering import OrderingMethod, search_order
from repro.query import transitive_reduction
from repro.server import GraphCatalog
from repro.simulation import fbsim, node_prefilter

import inputs
from oracle import AnswerMismatch, Oracle, Pattern
from spans import Tracer

HERE = os.path.dirname(os.path.abspath(__file__))

#: Setups per run (more for the cheap in-process ones); ``setup_s`` is
#: their median.
SETUP_REPEATS = 3
#: The durable tenants checkpoint after this many folds (inside the write
#: that reaches it, so checkpoints land in the write latency tail).
CHECKPOINT_EVERY = 25
#: Match caps.
COLD_CAP = 1_000
#: The enumeration patterns' caps, one per pattern, spread over this range:
#: with one shared cap every warm query costs the same and the pooled
#: latencies form narrow modes, one per speed state of the machine, so the
#: median jumps between them; spread caps give a distribution without gaps.
ENUM_CAPS = (5_000, 15_000)
RW_CAP = 1_000_000
#: Occurrence range of the mixed_rw read set (fully enumerated).
RW_LOW, RW_HIGH = 500, 5_000
#: Tenant names on the servers: the read tenant and the write tenant.
GRAPH_NAME = "bench"
WRITE_GRAPH = "bench_w"


def to_query(pattern: Pattern) -> PatternQuery:
    return PatternQuery(
        pattern.labels,
        [(s, t, "descendant" if d else "child") for s, t, d in pattern.edges],
        name=pattern.name,
    )


def budget(cap: int) -> Budget:
    return Budget(max_matches=cap, time_limit_seconds=None, max_intermediate_results=None)


def peak_rss_mb(pid: Optional[int] = None) -> float:
    """VmHWM of a process (this one by default) in MB."""
    path = f"/proc/{pid or 'self'}/status"
    with open(path, encoding="ascii") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    return 0.0


def current_rss_mb() -> float:
    with open("/proc/self/status", encoding="ascii") as handle:
        for line in handle:
            if line.startswith("VmRSS:"):
                return int(line.split()[1]) / 1024.0
    return 0.0


class Recorder:
    """Latency samples, work counts and failures of one run."""

    def __init__(self) -> None:
        self.latency: Dict[str, List[float]] = {"read": [], "write": []}
        self.attempted = {"read": 0, "write": 0}
        self.failed = {"read": 0, "write": 0}
        self.errors: Dict[str, int] = {}
        self.phase_seconds = 0.0
        self.phase_reads = 0
        self.phase_matches = 0

    def call(self, kind: str, fn, *args, in_phase: bool = True, **kwargs):
        """Time one operation; a raised error counts it as failed."""
        self.attempted[kind] += 1
        start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        except Exception as exc:  # every failure is counted by class
            elapsed = time.perf_counter() - start
            if in_phase:
                self.phase_seconds += elapsed
            self.failed[kind] += 1
            key = f"{kind}:{type(exc).__name__}"
            self.errors[key] = self.errors.get(key, 0) + 1
            return None
        elapsed = time.perf_counter() - start
        self.latency[kind].append(elapsed)
        if in_phase:
            self.phase_seconds += elapsed
            if kind == "read":
                self.phase_reads += 1
                self.phase_matches += result.num_matches
        return result


class Writes:
    """The seeded write stream over the benchmark's mirror of the graph.

    Write ``i`` adds one node, one edge into it and three random edges;
    every odd write also removes one existing edge.
    """

    def __init__(self, seed: int, labels, edges) -> None:
        self.rng = random.Random(f"writes-{seed}")
        self.mirror = inputs.Mirror(labels, edges)
        self.version = 0
        self.count = 0

    def next_delta(self) -> GraphDelta:
        base_nodes = len(self.mirror.labels)
        added_labels, added, removed = self.mirror.draw_delta(
            self.rng, inserts=3, removals=self.count % 2, new_nodes=1
        )
        new_node = base_nodes
        source = self.rng.randrange(base_nodes)
        self.mirror.edges.add((source, new_node))
        delta = GraphDelta(base_nodes, base_version=self.version)
        for label in added_labels:
            delta.add_node(label)
        delta.add_edge(source, new_node)
        for u, v in added:
            delta.add_edge(u, v)
        for u, v in removed:
            delta.remove_edge(u, v)
        self.count += 1
        return delta

    def acknowledge(self, report) -> None:
        """Check the write published exactly one new version."""
        if report is None:
            return
        if report.old_version != self.version or report.new_version != self.version + 1:
            raise AnswerMismatch(
                f"write {self.count} published v{report.old_version}->v{report.new_version},"
                f" expected v{self.version}->v{self.version + 1}"
            )
        self.version = report.new_version


class LayerProbe:
    """Isolated calls into each layer, each in a span (traced runs only)."""

    def __init__(self, tracer: Tracer) -> None:
        self.tracer = tracer
        self.counts: Dict[str, List[float]] = {}
        self.pairs: Dict[str, List[float]] = {}
        self.gc_collections = 0
        self.gc_pause = 0.0
        self._gc_started = 0.0
        self._flip = False

    def note(self, name: str, value: float) -> None:
        self.counts.setdefault(name, []).append(float(value))

    def pair(self, name: str, outer: float, inner: float) -> None:
        self.pairs.setdefault(name, []).append((outer - inner) * 1000.0)

    def span(self, name: str):
        return self.tracer.span(name)

    def timed(self, name: str, fn, *args, **kwargs):
        with self.tracer.span(name) as span:
            result = fn(*args, **kwargs)
        return result, span.seconds

    # -- simulation + RIG + order ---------------------------------------- #

    def rig_layers(self, context, query: PatternQuery) -> None:
        reduced = transitive_reduction(query)
        initial, _ = self.timed("simulation.prefilter", node_prefilter, context, reduced)
        before = sum(len(nodes) for nodes in initial.values())
        simulation, _ = self.timed("simulation.fbsim", fbsim, context, reduced, initial)
        self.note("simulation.passes", simulation.passes)
        self.note("simulation.kept_ratio", simulation.total_candidates() / max(1, before))
        report, _ = self.timed("rig.build", build_rig, context, query)
        self.note("rig.select_ms", report.select_seconds * 1000.0)
        self.note("rig.expand_ms", report.expand_seconds * 1000.0)
        self.note("rig.candidates", report.rig.num_rig_nodes())
        self.note("rig.edges", report.rig.num_rig_edges())
        if not report.rig.is_empty():
            self.timed(
                "matching.order", search_order, report.query, report.rig, OrderingMethod.JO
            )

    # -- enumeration, session, service, wire ------------------------------ #

    def paired(self, metric: str, outer: Tuple, inner: Tuple):
        """Time two calls on the same inputs and record outer minus inner.

        ``outer`` and ``inner`` are ``(span name, callable, *args)``.  The
        order alternates from pair to pair, so that a collection or cache
        effect the first call leaves to the second one lands on each side
        equally often.
        """
        self._flip = not self._flip
        first, second = (outer, inner) if self._flip else (inner, outer)
        results = {}
        for name, fn, *args in (first, second):
            results[name] = self.timed(name, fn, *args)
        self.pair(metric, results[outer[0]][1], results[inner[0]][1])
        return results[outer[0]][0], results[inner[0]][0]

    def enum_layers(self, db: GraphDB, query: PatternQuery, cap: int) -> None:
        """Service, session and raw MJoin on a cached RIG (the caller's read built it)."""
        limit = budget(cap)
        with db.pin() as snapshot:
            self.paired(
                "service.overhead_ms",
                ("service.query", lambda: db.query(query, budget=limit)),
                ("snapshot.query", lambda: snapshot.query(query, budget=limit)),
            )
            session = snapshot.session
            built = session.cached_rig(query)
            if built is None or built.rig.is_empty():
                report, _ = self.timed("session.query", session.query, query, budget=limit)
            else:
                order = search_order(built.query, built.rig, OrderingMethod.JO)
                stats: dict = {}
                report, found = self.paired(
                    "session.stream_overhead_ms",
                    ("session.query", lambda: session.query(query, budget=limit)),
                    ("matching.mjoin", lambda: self.drain(built.rig, order, cap, stats)),
                )
                self.note("matching.mjoin_candidates", stats.get("candidates", 0))
                self.note("matching.mjoin_intersections", stats.get("intersections", 0))
                self.note("matching.yield_ratio", found / max(1, stats.get("candidates", 0)))
        self.wire_layers(report)

    @staticmethod
    def drain(rig, order, cap: int, stats: dict) -> int:
        """Raw ``mjoin_iter`` to the cap; its work counters land in ``stats``."""
        stats.clear()
        found = 0
        iterator = mjoin_iter(rig, order=order, budget=budget(cap), stats=stats)
        for _ in iterator:
            found += 1
            if found >= cap:
                break
        iterator.close()
        return found

    def wire_layers(self, report: MatchReport) -> None:
        with self.span("wire.encode"):
            frame = encode_frame(report.to_wire())
        with self.span("wire.decode"):
            MatchReport.from_wire(decode_body(frame[4:]))
        if report.num_matches:
            self.note("wire.bytes_per_match", len(frame) / report.num_matches)

    # -- remote ----------------------------------------------------------- #

    def remote_layers(self, routed, direct, query: PatternQuery, cap: int) -> None:
        """Routed against direct on the same replica, both on a warm RIG cache."""
        limit = budget(cap)
        direct.query(query, budget=limit)
        self.paired(
            "routed.overhead_ms",
            ("routed.query", lambda: routed.query(query, budget=limit)),
            ("direct.query", lambda: direct.query(query, budget=limit)),
        )
        self.timed("wire.count_roundtrip", direct.count, query, budget=limit)

    # -- writes ----------------------------------------------------------- #

    def materialize(self, graph, delta: GraphDelta) -> None:
        self.timed("dynamic.materialize", MutableDataGraph(graph, delta).materialize)

    # -- garbage collector -------------------------------------------------- #

    def gc_callback(self, phase: str, info: dict) -> None:
        if info.get("generation") != 2:
            return
        if phase == "start":
            self._gc_started = time.perf_counter()
        else:
            self.gc_collections += 1
            self.gc_pause += time.perf_counter() - self._gc_started


class Workload:
    """Shared skeleton; subclasses fill in setup, rounds and checks."""

    name = "?"
    setup_repeats = SETUP_REPEATS
    rounds_per_second = 1.0
    #: Writes per round of the read-only workloads, to the write tenant.
    writes_per_round = 2
    #: Traced runs call the layers in isolation during this many first rounds.
    probed_rounds = 3

    def __init__(self, root: str, seed: int, trace: bool) -> None:
        self.root = root
        self.seed = seed
        self.traced = trace
        self.tracer = Tracer()
        self.probe = LayerProbe(self.tracer) if trace else None
        self.probing = False
        self.rec = Recorder()
        self.workdir = os.path.join(root, ".perfbench_tmp", f"{self.name}-{os.getpid()}")
        self.children: List[subprocess.Popen] = []
        self.setup_seconds: List[float] = []
        self.apply_reports = []
        self.detail: Dict[str, object] = {}
        self.side = None  # side fixtures of the traced run

    # -- lifecycle ---------------------------------------------------------- #

    def prepare(self) -> None:
        self.labels, self.edges = inputs.make_graph()
        self.oracle = Oracle(self.labels, self.edges)

    def run(self, seconds: float) -> None:
        os.makedirs(self.workdir, exist_ok=True)
        wall = self.detail["wall_seconds"] = {}
        clock = time.perf_counter()

        def lap(step: str) -> None:
            nonlocal clock
            now = time.perf_counter()
            wall[step] = round(now - clock, 2)
            clock = now

        self.rounds = max(1, round(seconds * self.rounds_per_second))
        try:
            self.prepare()
            lap("prepare")
            for index in range(self.setup_repeats):
                if index:
                    self.teardown()
                started = time.perf_counter()
                self.setup(os.path.join(self.workdir, f"setup{index}"))
                self.setup_seconds.append(time.perf_counter() - started)
            self.writes = Writes(self.seed, self.labels, self.edges)
            self.rss_after_setup = current_rss_mb()
            if self.traced:
                self.open_side_fixtures()
                gc.callbacks.append(self.probe.gc_callback)
            lap("setup")
            try:
                for index in range(self.rounds):
                    self.probing = self.traced and index < self.probed_rounds
                    with self.tracer.trace("round"):
                        self.round(index)
                self.probing = False
                self.detail["rounds"] = self.rounds
            finally:
                if self.traced:
                    gc.callbacks.remove(self.probe.gc_callback)
            lap("phase")
            self.after_phase()
            self.wal = self.durability_counters()
            self.verify()
            lap("verify")
            self.peak_rss = self.total_peak_rss()
        finally:
            self.close_side_fixtures()
            self.teardown()
            self.stop_children()
            shutil.rmtree(self.workdir, ignore_errors=True)
            try:
                os.rmdir(os.path.dirname(self.workdir))
            except OSError:  # another run's directory is still there
                pass

    def after_phase(self) -> None:
        """After the timed phase: RIG cache size."""
        if self.probe is not None:
            with self.local_db().pin() as snapshot:
                self.probe.note("session.rig_cache_entries", snapshot.session.stats.misses("rig"))

    def interleaved(self, items):
        """Yield ``items``, making :attr:`writes_per_round` writes evenly among them."""
        count = self.writes_per_round
        marks = {len(items) * (k + 1) // count for k in range(count)}
        for position, item in enumerate(items, 1):
            yield item
            if position in marks:
                self.write(in_phase=False)

    def write(self, in_phase: bool = True) -> None:
        """The next write of the seeded stream, timed; read-only workloads
        keep it out of the phase time that ``queries_per_s`` divides by."""
        delta = self.writes.next_delta()
        if self.traced:
            self.traced_write_layers(delta)
        report = self.rec.call("write", self.apply, delta, in_phase=in_phase)
        self.writes.acknowledge(report)
        if report is not None:
            self.apply_reports.append(report)

    def traced_write_layers(self, delta: GraphDelta) -> None:
        self.probe.materialize(self.write_graph(), delta)

    def total_peak_rss(self) -> float:
        total = peak_rss_mb()
        for child in self.children:
            if child.poll() is None:
                total += peak_rss_mb(child.pid)
        return total

    # -- child processes (remote_enum) ---------------------------------------- #

    def spawn(self, *args: str) -> Tuple[str, int]:
        child = subprocess.Popen(
            [sys.executable, os.path.join(HERE, "serve.py"), *args],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            text=True,
        )
        self.children.append(child)
        line = child.stdout.readline().split()
        if len(line) != 2:
            raise RuntimeError(f"server process {args[0]} did not start")
        return line[0], int(line[1])

    def stop_children(self) -> None:
        children, self.children = self.children, []
        for child in children:
            try:
                child.stdin.close()
            except OSError:
                pass
        for child in children:
            try:
                child.wait(timeout=30)
            except subprocess.TimeoutExpired:
                child.kill()
                child.wait(timeout=30)
            child.stdout.close()

    # -- side fixtures of the traced run ---------------------------------------- #

    def open_side_fixtures(self) -> None:
        """Serve the local tenant over loopback plus one replica of it."""
        db = self.local_db()
        catalog = GraphCatalog()
        catalog.attach(GRAPH_NAME, db, owned=False)
        server = GraphServer(catalog=catalog, node="side-primary")
        primary = server.start()
        replica = ReplicaServer(primary[0], primary[1], graphs=[GRAPH_NAME], node="side-replica")
        replica_address = replica.start()
        direct = GraphClient(*replica_address, graph=GRAPH_NAME)
        routed = RoutedClient(primary, [replica_address], graph=GRAPH_NAME, probe_ttl=3600.0)
        self.side = (server, replica, direct, routed)

    def close_side_fixtures(self) -> None:
        if self.side is None:
            return
        server, replica, direct, routed = self.side
        self.side = None
        routed.close()
        direct.close()
        replica.close()
        server.close()

    def side_remote_layers(self, query: PatternQuery, cap: int) -> None:
        if self.side is not None:
            _, _, direct, routed = self.side
            self.probe.remote_layers(routed, direct, query, cap)

    # -- to be provided ---------------------------------------------------------- #

    def setup(self, directory: str) -> None:
        raise NotImplementedError

    def teardown(self) -> None:
        raise NotImplementedError

    def round(self, index: int) -> None:
        raise NotImplementedError

    def apply(self, delta: GraphDelta):
        raise NotImplementedError

    def verify(self) -> None:
        raise NotImplementedError

    def local_db(self) -> GraphDB:
        raise NotImplementedError

    def write_graph(self):
        """Head graph of the tenant the writes go to."""
        raise NotImplementedError

    def durability_counters(self) -> Dict[str, object]:
        raise NotImplementedError


class InProcess(Workload):
    """A durable tenant opened in this process through ``GraphDB``, and a
    second one for the writes unless :attr:`own_writes` is set."""

    db: Optional[GraphDB] = None
    write_db: Optional[GraphDB] = None
    #: Writes go to the read tenant itself (``mixed_rw``).
    own_writes = False

    def open_tenant(self, directory: str, name: str) -> GraphDB:
        return GraphDB.open_durable(
            directory,
            labels=self.labels,
            edges=self.edges,
            name=name,
            checkpoint_every=CHECKPOINT_EVERY,
        )

    def setup(self, directory: str) -> None:
        self.db = self.open_tenant(os.path.join(directory, "read"), GRAPH_NAME)
        if self.own_writes:
            self.write_db = self.db
        else:
            self.write_db = self.open_tenant(os.path.join(directory, "write"), WRITE_GRAPH)
        with self.db.pin() as snapshot:
            if self.probe is not None:
                self.probe.timed("reachability.build", lambda: snapshot.session.reachability)
            else:
                snapshot.session.reachability
        self.warm()

    def warm(self) -> None:
        """Caches to fill before the timed phase."""

    def teardown(self) -> None:
        if self.write_db is not None and self.write_db is not self.db:
            self.write_db.close()
        self.write_db = None
        if self.db is not None:
            self.db.close()
            self.db = None

    def local_db(self) -> GraphDB:
        return self.db

    def write_graph(self):
        return self.write_db.graph

    def durability_counters(self) -> Dict[str, object]:
        return self.write_db.stats().get("durability", {})

    def apply(self, delta: GraphDelta):
        if self.probe is not None:
            with self.probe.span("store.apply"):
                return self.write_db.apply(delta)
        return self.write_db.apply(delta)

    def read(self, pattern: Pattern, cap: int) -> Optional[MatchReport]:
        query = to_query(pattern)
        if not self.probing:
            return self.rec.call("read", self.db.query, query, budget=budget(cap))
        with self.probe.span("GraphDB.query"):
            report = self.rec.call("read", self.db.query, query, budget=budget(cap))
        if report is not None:
            self.probe.note("session.rig_hit", 1.0 if report.extra.get("rig_cached") else 0.0)
        self.probe.enum_layers(self.db, query, cap)
        return report


# ---------------------------------------------------------------------- #
# cold_hybrid
# ---------------------------------------------------------------------- #


class ColdHybrid(InProcess):
    name = "cold_hybrid"
    setup_repeats = 21
    rounds_per_second = 5.0
    writes_per_round = 1
    probed_rounds = 10

    def prepare(self) -> None:
        super().prepare()
        self.asked: List[Tuple[Pattern, str, int]] = []
        self.stream = inputs.cold_stream(self.oracle, self.seed, self.rounds)

    def round(self, index: int) -> None:
        for pattern in self.interleaved(self.stream[index]):
            report = self.read(pattern, COLD_CAP)
            if self.probing:
                with self.db.pin() as snapshot:
                    self.probe.rig_layers(snapshot.session.context, to_query(pattern))
                self.side_remote_layers(to_query(pattern), COLD_CAP)
            if report is None:
                continue
            # Occurrences now (sound, distinct, as many as counted); the
            # count itself against the oracle after the timed phase.
            self.oracle.check(
                pattern, 0, report.status.value, report.num_matches,
                report.occurrences, COLD_CAP, report.num_matches,
            )
            self.asked.append((pattern, report.status.value, report.num_matches))

    def after_phase(self) -> None:
        super().after_phase()
        with self.db.pin() as snapshot:
            entries = snapshot.session.stats.misses("rig")
        grown = current_rss_mb() - self.rss_after_setup
        self.detail["rig_cache_entries"] = entries
        self.detail["rss_growth_mb"] = round(grown, 1)
        self.detail["mb_per_pattern"] = round(grown / max(1, entries), 3)

    def verify(self) -> None:
        empty = capped = 0
        for pattern, status, num_matches in self.asked:
            expected = self.oracle.count(pattern, COLD_CAP)
            self.oracle.check(pattern, 0, status, num_matches, None, COLD_CAP, expected)
            empty += expected == 0
            capped += expected >= COLD_CAP
        total = max(1, len(self.asked))
        self.detail["answers"] = {
            "patterns": len(self.asked),
            "empty_share": round(empty / total, 3),
            "capped_share": round(capped / total, 3),
            **inputs.pattern_summary([p for p, _, _ in self.asked]),
        }


# ---------------------------------------------------------------------- #
# warm_enum
# ---------------------------------------------------------------------- #


class WarmEnum(InProcess):
    name = "warm_enum"
    rounds_per_second = 3.5

    def prepare(self) -> None:
        super().prepare()
        caps = inputs.enum_caps(*ENUM_CAPS)
        pairs = list(zip(inputs.enum_patterns(self.oracle, caps), caps))
        random.Random(f"order-{self.seed}").shuffle(pairs)
        self.patterns = [pattern for pattern, _ in pairs]
        self.caps = [cap for _, cap in pairs]
        self.checked = set()

    def warm(self) -> None:
        for pattern, cap in zip(self.patterns, self.caps):
            self.db.query(to_query(pattern), budget=budget(cap))

    def round(self, index: int) -> None:
        for pattern, cap in self.interleaved(list(zip(self.patterns, self.caps))):
            report = self.read(pattern, cap)
            if self.probing and index == 0:
                with self.local_db().pin() as snapshot:
                    self.probe.rig_layers(snapshot.session.context, to_query(pattern))
                self.side_remote_layers(to_query(pattern), cap)
            self.check(pattern, cap, report)

    def check(self, pattern: Pattern, cap: int, report: Optional[MatchReport]) -> None:
        """Count and status every time; every occurrence on first sight."""
        if report is None:
            return
        occurrences = None
        if pattern.name not in self.checked:
            self.checked.add(pattern.name)
            occurrences = report.occurrences
        self.oracle.check(
            pattern, 0, report.status.value, report.num_matches, occurrences, cap, cap
        )

    def verify(self) -> None:
        """Counts were checked as they came; the caps sit below every oracle count."""
        self.detail["answers"] = {
            "oracle_counts": [self.oracle.tree_count(p) for p in self.patterns],
            "caps": self.caps,
            **inputs.pattern_summary(self.patterns),
        }


# ---------------------------------------------------------------------- #
# remote_enum
# ---------------------------------------------------------------------- #


class RemoteEnum(WarmEnum):
    name = "remote_enum"
    setup_repeats = 5
    rounds_per_second = 1.8

    routed: Optional[RoutedClient] = None
    local: Optional[GraphDB] = None

    def setup(self, directory: str) -> None:
        primary = self.spawn("primary", directory)
        with GraphClient(*primary) as client:
            client.create_graph(GRAPH_NAME, labels=self.labels, edges=self.edges)
            client.create_graph(WRITE_GRAPH, labels=self.labels, edges=self.edges)
        replica = self.spawn("replica", primary[0], str(primary[1]), GRAPH_NAME)
        self.primary, self.replica = primary, replica
        self.routed = RoutedClient(primary, [replica], graph=GRAPH_NAME, probe_ttl=3600.0)
        for pattern, cap in zip(self.patterns, self.caps):
            self.routed.query(to_query(pattern), budget=budget(cap))

    def teardown(self) -> None:
        if self.routed is not None:
            self.routed.close()
            self.routed = None
        self.stop_children()

    def open_side_fixtures(self) -> None:
        """The in-process layers are measured on local copies of the tenants."""
        self.local = self.open_tenant(os.path.join(self.workdir, "local"), GRAPH_NAME)
        self.local_writes = self.open_tenant(
            os.path.join(self.workdir, "local_writes"), WRITE_GRAPH
        )
        with self.local.pin() as snapshot:
            self.probe.timed("reachability.build", lambda: snapshot.session.reachability)
        for pattern, cap in zip(self.patterns, self.caps):
            self.local.query(to_query(pattern), budget=budget(cap))
        self.direct = GraphClient(*self.replica, graph=GRAPH_NAME)

    def close_side_fixtures(self) -> None:
        if self.local is not None:
            self.direct.close()
            self.local_writes.close()
            self.local.close()
            self.local = None

    def local_db(self) -> GraphDB:
        return self.local

    def write_graph(self):
        return self.local_writes.graph

    def read(self, pattern: Pattern, cap: int) -> Optional[MatchReport]:
        query = to_query(pattern)
        if not self.probing:
            return self.rec.call("read", self.routed.query, query, budget=budget(cap))
        with self.probe.span("RoutedClient.query"):
            report = self.rec.call("read", self.routed.query, query, budget=budget(cap))
        if report is not None:
            self.probe.note("session.rig_hit", 1.0 if report.extra.get("rig_cached") else 0.0)
        self.probe.remote_layers(self.routed, self.direct, query, cap)
        self.probe.enum_layers(self.local, query, cap)
        return report

    def side_remote_layers(self, query: PatternQuery, cap: int) -> None:
        """The remote layers are already measured on every read."""

    def traced_write_layers(self, delta: GraphDelta) -> None:
        """The local copy takes every write too, outside the timed one."""
        super().traced_write_layers(delta)
        with self.probe.span("store.apply"):
            self.local_writes.apply(delta)

    def apply(self, delta: GraphDelta):
        return self.routed.apply(delta, graph=WRITE_GRAPH)

    def durability_counters(self) -> Dict[str, object]:
        with GraphClient(*self.primary, graph=WRITE_GRAPH) as client:
            return client.stats().get("durability", {})


# ---------------------------------------------------------------------- #
# mixed_rw
# ---------------------------------------------------------------------- #


class MixedRW(InProcess):
    name = "mixed_rw"
    setup_repeats = 9
    rounds_per_second = 5.0
    probed_rounds = 10
    own_writes = True

    def prepare(self) -> None:
        super().prepare()
        self.patterns = inputs.rw_patterns(self.oracle, RW_LOW, RW_HIGH)
        random.Random(f"order-{self.seed}").shuffle(self.patterns)
        self.versions_checked = 0

    def round(self, index: int) -> None:
        self.write()
        if self.probing:
            with self.db.pin() as snapshot:
                self.probe.timed("reachability.build", lambda: snapshot.session.reachability)
        # Rotated each round, so every pattern is equally often the first
        # read after a write (the one that rebuilds invalidated indexes).
        shift = index % len(self.patterns)
        answers = []
        for pattern in self.patterns[shift:] + self.patterns[:shift]:
            answers.append((pattern, self.read(pattern, RW_CAP)))
            if self.probing and index < 3:
                with self.db.pin() as snapshot:
                    self.probe.rig_layers(snapshot.session.context, to_query(pattern))
                self.side_remote_layers(to_query(pattern), RW_CAP)
        # Every answer at this version, checked on the benchmark's own
        # post-write copy of the graph.
        oracle = Oracle(self.writes.mirror.labels, self.writes.mirror.edges)
        for pattern, answer in answers:
            if answer is None:
                continue
            expected = oracle.count(pattern, RW_CAP)
            oracle.check(
                pattern, self.writes.version, answer.status.value, answer.num_matches,
                answer.occurrences, RW_CAP, expected,
            )
        self.versions_checked += 1

    def verify(self) -> None:
        self.detail["answers"] = {
            "versions_checked": self.versions_checked,
            "oracle_counts_v0": [self.oracle.tree_count(p) for p in self.patterns],
            **inputs.pattern_summary(self.patterns),
        }


WORKLOADS = {cls.name: cls for cls in (ColdHybrid, WarmEnum, RemoteEnum, MixedRW)}
