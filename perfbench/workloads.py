"""The benchmark workloads.

Each workload takes the run's seed, builds its inputs from it, sets up
several times (the median is ``setup_s``), measures for the requested
seconds, then checks the program's outputs outside the timed region.  A
workload returns an :class:`Outcome`; ``run.py`` prints it.

Both workloads run over one fixed corpus: the six worlds of the default
seed 7 (world seeds 7000-7005 at scale 0.05), whose per-class
``canonical_json()`` sha256 digests are recorded in ``digests.json``.
Every class run a workload makes is checked against them.  The cost of
one world varies by up to a factor of two between worlds, so a corpus
drawn afresh from each seed would make that most of a run's spread.  The
seed makes the order of the work instead: the sweep order of the worlds,
the class order of each pass, and the stream of reads.

One *op* is the unit a user of the workload waits for:

* ``cold_batch`` — a sweep: one three-class cold pass over each world;
* ``serve_reads`` — one HTTP read.

Load comes from one process with at most two client threads, because the
reference host has two CPUs.
"""

from __future__ import annotations

import hashlib
import json
import random
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

from tracing import LAYER_UNITS, Trace, Tracer, layer_values

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
#: Scratch space (stores, traces) inside the checkout.
WORK = ROOT / ".perfbench"
DIGESTS_FILE = HERE / "digests.json"

CLASSES = ("Song", "Settlement", "GridironFootballPlayer")
#: World scale: near the generator's per-class minimum counts, so that a
#: sweep over the corpus fits in one run.
SCALE = 0.05
#: The corpus: the six worlds of the default seed 7.
WORLD_SEEDS = tuple(7 * 1000 + offset for offset in range(6))
#: The world the served store holds.
SERVE_WORLD = WORLD_SEEDS[0]
#: Set-ups per run; ``setup_s`` is their median.  A cold set-up (building
#: the worlds) takes about a second, a serve set-up (which publishes three
#: classes) several.
COLD_SETUPS = 5
SERVE_SETUPS = 3
#: Read kinds, drawn with equal weight.  No traffic was ever recorded, so
#: the mix is an assumption: the three read endpoints the repo's earlier
#: serve benchmark (``benchmarks/bench_serve.py``) timed, with the same
#: arguments (a whole class listing, or one entity) and the same number
#: of requests each.
READ_KINDS = ("entities", "facts", "entity")
READERS = 2
#: Largest share of the traced wall clock not covered by spans.
RESIDUAL_BOUND = 0.05
#: Error messages kept per run; every failure is still counted.
MAX_MESSAGES = 20
HTTP_TIMEOUT = 60.0
RUN_TIMEOUT = 150.0
#: SIGTERMs sent to a child before it is killed, and the wait after each.
STOP_ATTEMPTS = 6
STOP_WAIT = 5.0


@dataclass
class Outcome:
    correct: bool
    attempted: int
    failed: int
    metrics: dict[str, tuple[float, str]]
    inputs: dict = field(default_factory=dict)
    problems: list[str] = field(default_factory=list)


@dataclass
class Counts:
    """Attempted and failed ops per kind, with the first failures' messages."""

    attempted: dict = field(default_factory=dict)
    failed: dict = field(default_factory=dict)
    errors: list = field(default_factory=list)
    lock: threading.Lock = field(default_factory=threading.Lock)

    def add(self, kind: str, ok: bool) -> None:
        with self.lock:
            self.attempted[kind] = self.attempted.get(kind, 0) + 1
            if not ok:
                self.failed[kind] = self.failed.get(kind, 0) + 1

    def fail(self, kind: str, message: str) -> None:
        self.add(kind, False)
        with self.lock:
            if len(self.errors) < MAX_MESSAGES:
                self.errors.append(message)

    def totals(self) -> tuple[int, int]:
        return sum(self.attempted.values()), sum(self.failed.values())


def nearest_rank(values: list[float], q: float) -> float:
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * q // 100))
    return ordered[int(rank) - 1]


def build_worlds(seeds) -> list:
    from repro.synthesis import api
    from repro.synthesis.profiles import WorldScale

    return [api.build_world(s, scale=WorldScale(SCALE)) for s in seeds]


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def digest_key(world_seed: int) -> str:
    return f"scale={SCALE} world_seed={world_seed}"


def record_digests(seeds) -> dict:
    """The digests of ``seeds``' worlds, as ``digests.json`` holds them."""
    from repro.api import RunSession

    recorded = {}
    for world in build_worlds(seeds):
        session = RunSession(world=world)
        recorded[digest_key(world.seed)] = {
            name: sha256(session.run(name, use_cache=False).canonical_json())
            for name in CLASSES
        }
    return recorded


def check_digests(outputs, problems: list) -> None:
    """Every class output equals the recorded digest of its world.

    ``outputs`` holds ``(world seed, class -> sha256)`` pairs.  A world
    without recorded digests is a mismatch too.
    """
    recorded = json.loads(DIGESTS_FILE.read_text(encoding="utf-8"))
    for world_seed, digests in outputs:
        expected = recorded.get(digest_key(world_seed))
        if expected is None:
            problems.append(f"no recorded digests for {digest_key(world_seed)}")
            continue
        for name, digest in sorted(digests.items()):
            if digest != expected.get(name):
                problems.append(f"{digest_key(world_seed)} {name}: output differs")


def check_residual(values: dict, problems: list) -> None:
    residual, wall = values["trace.residual_s"], values["trace.wall_s"]
    if residual > RESIDUAL_BOUND * wall:
        problems.append(
            f"trace residual {residual:.3f}s exceeds {RESIDUAL_BOUND:.0%} "
            f"of the traced {wall:.3f}s"
        )


def peak_rss_mb_self() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def peak_rss_mb_of(pid: int) -> float:
    """``VmHWM`` of a live child process, in MB."""
    with open(f"/proc/{pid}/status", encoding="ascii") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for pid {pid}")


def op_metrics(
    setups: list[float], ops: list[float], rss_mb: float
) -> dict[str, tuple[float, str]]:
    """The end-to-end metrics every workload reports."""
    return {
        "setup_s": (statistics.median(setups), "s"),
        "op_p50_ms": (statistics.median(ops) * 1000.0, "ms"),
        "peak_rss_mb": (rss_mb, "MB"),
    }


def layer_outcome(values, attempted, failed, inputs, problems) -> Outcome:
    metrics = {
        name: (float(values.get(name, 0.0)), unit)
        for name, unit in LAYER_UNITS.items()
    }
    return Outcome(not problems, attempted, failed, metrics, inputs, problems)


# ---------------------------------------------------------------------------
# Subprocesses
# ---------------------------------------------------------------------------

class Child:
    """A ``repro`` CLI command started through ``launch.py``."""

    def __init__(self, args: list[str], workdir: Path, name: str,
                 trace_out: Path | None) -> None:
        self.log = workdir / f"{name}.log"
        self.trace_out = trace_out
        command = [sys.executable, str(HERE / "launch.py")]
        if trace_out is not None:
            command += ["--trace-out", str(trace_out)]
        command += ["--", *args]
        self._log_handle = open(self.log, "w", encoding="utf-8")
        self.process = subprocess.Popen(
            command,
            stdout=self._log_handle,
            stderr=subprocess.STDOUT,
            cwd=str(ROOT),
        )

    def wait_for_line(self, marker: str, timeout: float = 60.0) -> str:
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            for line in self.log.read_text(encoding="utf-8").splitlines():
                if marker in line:
                    return line
            if self.process.poll() is not None:
                break
            time.sleep(0.02)
        raise RuntimeError(
            f"{' '.join(self.process.args)} did not print {marker!r}:\n"
            + self.log.read_text(encoding="utf-8")
        )

    def stop(self) -> dict | None:
        """SIGTERM, wait, and return the child's trace (if traced).

        ``repro serve`` can lose a SIGTERM that lands while its main
        thread dispatches a request (the HTTP server's error handler
        catches the exception the signal raises), so the signal is sent
        again until the process exits, and it is killed as a last resort.
        """
        for attempt in range(STOP_ATTEMPTS):
            if self.process.poll() is not None:
                break
            self.process.send_signal(signal.SIGTERM)
            try:
                self.process.wait(timeout=STOP_WAIT)
            except subprocess.TimeoutExpired:
                continue
        if self.process.poll() is None:
            self.process.kill()
            self.process.wait()
        self._log_handle.close()
        if self.trace_out is not None and self.trace_out.exists():
            return json.loads(self.trace_out.read_text(encoding="utf-8"))
        return None


class Scratch:
    """Per-run scratch directory under the checkout; removed on exit."""

    def __init__(self, workload: str, seed: int) -> None:
        WORK.mkdir(exist_ok=True)
        self.path = Path(tempfile.mkdtemp(prefix=f"{workload}-{seed}-", dir=WORK))
        self.children: list[Child] = []

    def start(self, args, name, trace_out=None) -> Child:
        child = Child(args, self.path, name, trace_out)
        self.children.append(child)
        return child

    def close(self) -> None:
        for child in self.children:
            child.stop()
        shutil.rmtree(self.path, ignore_errors=True)


# ---------------------------------------------------------------------------
# cold_batch
# ---------------------------------------------------------------------------

def cold_pass(world, rng: random.Random, counts: Counts) -> tuple[float, dict]:
    """One three-class cold pass, in a seeded class order.

    Returns the seconds and the sha256 of each class's canonical output.
    A class run that raises is a failed op and has no output.
    """
    from repro.api import RunSession

    started = time.perf_counter()
    session = RunSession(world=world)
    results = {}
    for name in rng.sample(CLASSES, len(CLASSES)):
        try:
            results[name] = session.run(name, use_cache=False, executor="serial")
        except Exception as error:  # noqa: BLE001 - counted and reported
            counts.fail("run", f"world {world.seed} {name}: {error}")
        else:
            counts.add("run", True)
    seconds = time.perf_counter() - started
    return seconds, {name: sha256(r.canonical_json()) for name, r in results.items()}


def cold(ctx) -> Outcome:
    rng = random.Random(ctx.seed)
    order = rng.sample(WORLD_SEEDS, len(WORLD_SEEDS))
    counts = Counts()
    if ctx.trace:
        return cold_traced(ctx, order, rng, counts)
    setups = []
    worlds = None
    for attempt in range(COLD_SETUPS):
        worlds = None  # frees the previous set-up's worlds first
        started = time.perf_counter()
        worlds = build_worlds(order)
        setups.append(time.perf_counter() - started)
    sweeps: list[float] = []
    passes: list[float] = []
    outputs = []
    window_started = time.perf_counter()
    while time.perf_counter() - window_started < ctx.seconds:
        for world in worlds:
            seconds, digests = cold_pass(world, rng, counts)
            passes.append(seconds)
            outputs.append((world.seed, digests))
        sweeps.append(sum(passes[-len(worlds):]))
    problems: list[str] = []
    check_digests(outputs, problems)
    attempted, failed = counts.totals()
    return Outcome(
        correct=not problems,
        attempted=attempted,
        failed=failed,
        metrics=op_metrics(setups, sweeps, peak_rss_mb_self()),
        inputs={
            "world_seeds": order,
            "scale": SCALE,
            "tables": [len(w.corpus) for w in worlds],
            "setup_s": setups,
            "pass_s": passes,
            "failures": counts.errors,
        },
        problems=problems,
    )


def cold_traced(ctx, order, rng, counts) -> Outcome:
    """A traced set-up, then per world an untraced and a traced pass.

    Pairing each traced pass with an untraced pass of the same world right
    before it keeps the overhead estimate clear of slow drifts in host
    speed.  Both passes are checked against the recorded digests.
    """
    tracer = Tracer()
    tracer.install()
    worlds = build_worlds(order)
    tracer.uninstall()
    untraced = traced = covered = 0.0
    outputs = []
    for world in worlds:
        plain, digests = cold_pass(world, rng, counts)
        outputs.append((world.seed, digests))
        tracer.install()
        state = tracer.state()
        covered_before = state.covered
        seconds, digests = cold_pass(world, rng, counts)
        tracer.uninstall()
        outputs.append((world.seed, digests))
        untraced += plain
        traced += seconds
        covered += state.covered - covered_before
    tracer.dump(ctx.trace_dir / "benchmark.json")
    values = layer_values(Trace.merge([tracer.snapshot()]))
    values.update({
        "trace.wall_s": traced,
        "trace.residual_s": traced - covered,
        "trace.overhead_pct": 100.0 * (traced / untraced - 1.0),
    })
    problems: list[str] = []
    check_digests(outputs, problems)
    check_residual(values, problems)
    attempted, failed = counts.totals()
    return layer_outcome(values, attempted, failed,
                         {"world_seeds": order, "scale": SCALE,
                          "failures": counts.errors}, problems)


# ---------------------------------------------------------------------------
# serve_reads
# ---------------------------------------------------------------------------

class Server:
    """A store holding one world, a ``repro serve`` process and its client."""

    def __init__(self, scratch: Scratch, name: str, world,
                 trace_out: Path | None) -> None:
        from repro.corpus.store import CorpusStore
        from repro.io import save_knowledge_base
        from repro.io.serialize import WORLD_KB_FILE
        from repro.serve import ServiceClient

        self.world_seed = world.seed
        self.tables = len(world.corpus)
        self.directory = scratch.path / name
        store = CorpusStore.create(self.directory, shards=2)
        try:
            save_knowledge_base(world.knowledge_base, self.directory / WORLD_KB_FILE)
            store.ingest(list(world.corpus))
        finally:
            store.close()
        self.child = scratch.start(
            ["serve", "--store", str(self.directory), "--port", "0"],
            name,
            trace_out,
        )
        line = self.child.wait_for_line("serving ")
        url = line.split(" on ", 1)[1].split()[0]
        self.client = ServiceClient(url, timeout=HTTP_TIMEOUT)
        #: The ``done`` run document of each published class.
        self.published: dict[str, dict] = {}

    def publish(self, counts: Counts) -> None:
        """Submit runs for the three classes and wait for them.

        A failed run is a failed op, and leaves its class unpublished.
        """
        from repro.serve.client import ServiceClientError

        submitted = [self.client.submit_run(name) for name in CLASSES]
        for document in submitted:
            try:
                final = self.client.wait_for_run(
                    document["run_id"], timeout=RUN_TIMEOUT, max_poll=0.1
                )
            except ServiceClientError as error:
                counts.fail("run", f"{document['class_name']}: {error}")
                continue
            counts.add("run", True)
            self.published[final["class_name"]] = final

    def check_published(self, problems: list) -> None:
        """The served ``canonical_json()`` equals the recorded digests."""
        check_digests(
            [(self.world_seed, {
                name: sha256(self.client.run_canonical(document["run_id"]))
                for name, document in self.published.items()
            })],
            problems,
        )

    def stop(self) -> tuple[float, dict | None]:
        """Peak RSS (MB) of the server, then SIGTERM and its trace."""
        rss = peak_rss_mb_of(self.child.process.pid)
        return rss, self.child.stop()


def set_up_server(scratch, name, counts, trace_out=None) -> Server:
    """Build the served world, ingest it, start the server and publish.

    Callers check the published outputs outside the timed set-up.
    """
    server = Server(scratch, name, build_worlds([SERVE_WORLD])[0], trace_out)
    server.publish(counts)
    return server


class Readers:
    """Closed-loop readers over a seeded stream of reads.

    Each reader thread waits for every reply before its next request.
    Nothing is written while they read, so every response must name the
    snapshot version read at the start, a class listing must hold exactly
    the total read then, and a point read must return the entity asked
    for.  Any error, in a request or in the reader itself, is a failed
    read.
    """

    def __init__(self, server: Server, seed: int, counts: Counts,
                 tracer: Tracer | None) -> None:
        self.client = server.client
        self.seed = seed
        self.counts = counts
        self.tracer = tracer
        self.latencies: list[float] = []
        self.problems: list[str] = []
        #: Seconds and count of every read, the initial listings included.
        self.all_read_s = 0.0
        self.all_reads = 0
        #: Loop wall clock not covered by wrapped client calls (traced).
        self.uncovered_s = 0.0
        self.lock = threading.Lock()
        self.stop = threading.Event()
        self.pools: dict[str, list[str]] = {}
        self.totals: dict[tuple[str, str], int] = {}
        versions = set()
        started = time.perf_counter()
        for name in sorted(server.published):
            entities = self.client.entities(class_name=name)
            facts = self.client.facts(class_name=name)
            versions |= {entities["snapshot_version"], facts["snapshot_version"]}
            self.pools[name] = [entity["id"] for entity in entities["entities"]]
            self.totals[("entities", name)] = entities["total"]
            self.totals[("facts", name)] = facts["total"]
        self.all_read_s = time.perf_counter() - started
        self.all_reads = 2 * len(self.pools)
        if len(versions) != 1:
            raise RuntimeError(f"one snapshot, several versions: {sorted(versions)}")
        self.version = versions.pop()
        self.classes = sorted(self.pools)

    def one_read(self, rng: random.Random) -> None:
        from repro.serve.client import ServiceClientError

        kind = rng.choice(READ_KINDS)
        name = rng.choice(self.classes)
        entity_id = rng.choice(self.pools[name]) if kind == "entity" else None
        started = time.perf_counter()
        try:
            if kind == "entities":
                document = self.client.entities(class_name=name)
            elif kind == "facts":
                document = self.client.facts(class_name=name)
            else:
                document = self.client.entity(name, entity_id)
        except ServiceClientError as error:
            self.counts.fail(f"read:{kind}", f"{kind} {name}: {error}")
            return
        elapsed = time.perf_counter() - started
        problem = self.check(kind, name, entity_id, document)
        with self.lock:
            self.latencies.append(elapsed)
            self.all_read_s += elapsed
            self.all_reads += 1
            if problem is not None and len(self.problems) < MAX_MESSAGES:
                self.problems.append(problem)
        self.counts.add(f"read:{kind}", problem is None)

    def check(self, kind, name, entity_id, document) -> str | None:
        if document["snapshot_version"] != self.version:
            return (f"{kind} {name} at snapshot version "
                    f"{document['snapshot_version']}, not {self.version}")
        if kind == "entity":
            if document["entity"]["id"] != entity_id:
                return f"asked for {entity_id}, got {document['entity']['id']}"
        elif not document["total"] == document["count"] == self.totals[(kind, name)]:
            return (f"{kind} {name}: total {document['total']}, count "
                    f"{document['count']}, expected {self.totals[(kind, name)]}")
        return None

    def loop(self, index: int) -> None:
        rng = random.Random(self.seed * 7919 + index)
        state = self.tracer.state() if self.tracer is not None else None
        covered = state.covered if state is not None else 0.0
        started = time.perf_counter()
        while not self.stop.is_set():
            try:
                self.one_read(rng)
            except Exception as error:  # noqa: BLE001 - counted and reported
                self.counts.fail("read", f"reader {index}: {error!r}")
        if state is not None:
            uncovered = time.perf_counter() - started - (state.covered - covered)
            with self.lock:
                self.uncovered_s += uncovered

    def run(self, seconds: float) -> float:
        """Read from ``READERS`` threads for ``seconds``; the wall clock."""
        workers = [
            threading.Thread(target=self.loop, args=(n,)) for n in range(READERS)
        ]
        started = time.perf_counter()
        try:
            for worker in workers:
                worker.start()
            self.stop.wait(seconds)
        finally:
            self.stop.set()
            for worker in workers:
                if worker.ident is not None:
                    worker.join(timeout=HTTP_TIMEOUT * 2)
        return time.perf_counter() - started


def serve(ctx) -> Outcome:
    scratch = Scratch(ctx.workload, ctx.seed)
    counts = Counts()
    problems: list[str] = []
    try:
        if ctx.trace:
            return serve_traced(ctx, scratch, counts, problems)
        setups = []
        server = None
        for attempt in range(SERVE_SETUPS):
            if server is not None:
                server.stop()
            started = time.perf_counter()
            server = set_up_server(scratch, f"store{attempt}", counts)
            setups.append(time.perf_counter() - started)
            server.check_published(problems)
        readers = Readers(server, ctx.seed, counts, None)
        readers.run(ctx.seconds)
        problems.extend(readers.problems)
        rss, _ = server.stop()
        attempted, failed = counts.totals()
        latencies = readers.latencies
        return Outcome(
            correct=not problems,
            attempted=attempted,
            failed=failed,
            metrics=op_metrics(setups, latencies, rss),
            inputs={
                "world_seed": SERVE_WORLD,
                "scale": SCALE,
                "tables": server.tables,
                "setup_s": setups,
                "reads": len(latencies),
                "read_p50_ms": statistics.median(latencies) * 1000.0,
                "read_p99_ms": nearest_rank(latencies, 99) * 1000.0,
                "ops_by_kind": counts.attempted,
                "failures": counts.errors,
            },
            problems=problems,
        )
    finally:
        scratch.close()


def serve_traced(ctx, scratch, counts, problems) -> Outcome:
    """An untraced set-up and read phase, then a traced one."""
    server = set_up_server(scratch, "untraced", counts)
    server.check_published(problems)
    plain = Readers(server, ctx.seed, counts, None)
    plain.run(ctx.seconds)
    problems.extend(plain.problems)
    server.stop()

    tracer = Tracer()
    tracer.install(client=True)
    server = set_up_server(scratch, "traced", counts,
                           ctx.trace_dir / "server.json")
    reads = Readers(server, ctx.seed, counts, tracer)
    window = reads.run(ctx.seconds)
    tracer.uninstall()
    server.check_published(problems)
    problems.extend(reads.problems)
    __, server_trace = server.stop()
    tracer.dump(ctx.trace_dir / "benchmark.json")

    trace = Trace.merge([tracer.snapshot(), server_trace])
    values = layer_values(trace)
    handler_s = sum(
        trace.self_s(name)
        for name in ("serve.list_entities", "serve.get_entity", "serve.list_facts")
    )
    documents = list(server.published.values())
    reports = [d["incremental_report"] for d in documents
               if d.get("incremental_report")]
    loaded = sum(r["entities_loaded"] for r in reports)
    computed = sum(r["entities_computed"] for r in reports)
    values.update({
        "newdetect.detections_loaded_ratio": (
            loaded / (loaded + computed) if loaded + computed else 0.0
        ),
        "pipeline.stage_hits": sum(r["stage_hits"] for r in reports),
        "pipeline.stage_misses": sum(r["stage_misses"] for r in reports),
        "serve.http_ms": 1000.0 * (reads.all_read_s - handler_s) / reads.all_reads,
        "serve.read_p50_ms": statistics.median(plain.latencies) * 1000.0,
        "serve.read_p99_ms": nearest_rank(plain.latencies, 99) * 1000.0,
        "serve.writer_wait_s": sum(d["started_at"] - d["submitted_at"]
                                   for d in documents),
        "serve.run_s": sum(d["finished_at"] - d["started_at"] for d in documents),
        "trace.wall_s": window * READERS,
        "trace.residual_s": reads.uncovered_s,
        "trace.overhead_pct": 100.0 * (
            statistics.fmean(reads.latencies) / statistics.fmean(plain.latencies)
            - 1.0
        ),
    })
    check_residual(values, problems)
    attempted, failed = counts.totals()
    return layer_outcome(
        values, attempted, failed,
        {"world_seed": SERVE_WORLD, "scale": SCALE, "reads": len(reads.latencies),
         "failures": counts.errors},
        problems,
    )
