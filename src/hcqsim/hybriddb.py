"""Synthetic articles corpus and the local vs hybrid query experiment.

The corpus models articles of 100 KB to 3 MB with a main author and 0-9
coauthors. A local query answers entirely from the local store (metadata
lookup plus one bulk transfer at local-store speed). A hybrid query looks
up metadata locally, then fetches each article body from blob storage
across the simulated bottleneck link, so its latency depends on the link's
current queues and shares. Both protocols resolve the same article set;
only timing differs.

A corpus is sized by one rule: a scale s > 0 targets
max(MIN_BODY_BYTES, round(FULL_CORPUS_BYTES * s)) body bytes, and the
article count is that target over MEAN_BODY_BYTES, rounded, and at least 1.
A scale whose count exceeds MAX_ARTICLES is refused.
"""

from __future__ import annotations

import csv
import math
import random
from dataclasses import dataclass, fields
from enum import Enum

from .metrics import quantiles_nearest_rank
from .netsim import FeedbackMode, LinkSimulator, LinkSpec
from .traffic import AppKind, Trace, TrafficClassLabel, ZoneClass, canonical_class_order

MIN_BODY_BYTES = 100 * 1024
MAX_BODY_BYTES = 3 * 1024 * 1024
MEAN_BODY_BYTES = (MIN_BODY_BYTES + MAX_BODY_BYTES) / 2.0
MAX_COAUTHORS = 9

# Full-scale corpus footprint a CorpusSpec scale divides down (26667.25 MB).
FULL_CORPUS_BYTES = round(26667.25 * 1024 * 1024)
DEFAULT_SCALE = 1e-3
# build_corpus holds every record in memory; the full-scale corpus has 17,218.
MAX_ARTICLES = 100_000
DEFAULT_METADATA_BYTES = 2048

# Blob fetches ride the link as public-cloud database traffic.
QUERY_LABEL = TrafficClassLabel(ZoneClass.B, AppKind.DATABASE)


class ExperimentError(RuntimeError):
    pass


class Protocol(Enum):
    LOCAL_4STEP = "local"
    HYBRID_5STEP = "hybrid"


@dataclass(frozen=True)
class ArticleRecord:
    article_id: int
    body_size: int
    main_author: int
    coauthors: tuple[int, ...]

    def __post_init__(self):
        if not (MIN_BODY_BYTES <= self.body_size <= MAX_BODY_BYTES):
            raise ValueError(
                f"body_size {self.body_size} outside [{MIN_BODY_BYTES}, {MAX_BODY_BYTES}]"
            )
        if len(self.coauthors) > MAX_COAUTHORS:
            raise ValueError(f"at most {MAX_COAUTHORS} coauthors, got {len(self.coauthors)}")
        if self.main_author in self.coauthors:
            raise ValueError("main author cannot also be a coauthor")
        if len(set(self.coauthors)) != len(self.coauthors):
            raise ValueError("duplicate coauthors")


@dataclass(frozen=True)
class CorpusSpec:
    """A corpus of `scale` times the full corpus (see the module docstring)."""

    scale: float = DEFAULT_SCALE
    metadata_bytes_per_article: int = DEFAULT_METADATA_BYTES
    seed: int = 0

    def __post_init__(self):
        if not (math.isfinite(self.scale) and self.scale > 0):
            raise ValueError(f"scale must be finite and > 0, got {self.scale}")
        if self.metadata_bytes_per_article <= 0:
            raise ValueError("metadata_bytes_per_article must be > 0")
        # The float target is compared first: round() overflows on an infinite one.
        if (FULL_CORPUS_BYTES * self.scale > (MAX_ARTICLES + 1) * MEAN_BODY_BYTES
                or self.article_count > MAX_ARTICLES):
            raise ValueError(f"scale {self.scale!r} asks for more than {MAX_ARTICLES} articles")

    @property
    def article_count(self) -> int:
        target = max(MIN_BODY_BYTES, round(FULL_CORPUS_BYTES * self.scale))
        return max(1, round(target / MEAN_BODY_BYTES))


@dataclass
class Corpus:
    spec: CorpusSpec
    articles: tuple[ArticleRecord, ...]
    author_index: dict

    def write_csv(self, path) -> None:
        # Every body lives in blob storage; the location column says so.
        with open(path, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["article_id", "body_size", "main_author", "coauthor_count", "location"])
            for a in self.articles:
                w.writerow([a.article_id, a.body_size, a.main_author, len(a.coauthors),
                            "CloudBlob"])


def build_corpus(spec: CorpusSpec) -> Corpus:
    """Deterministic corpus: sizes uniform in the body range, coauthor
    counts uniform in 0-9, author index covering main and co-authorship."""
    count = spec.article_count
    rng = random.Random(f"corpus/{spec.seed}")
    n_authors = max(10, 2 * count)
    articles = []
    index: dict[int, list[int]] = {}
    for aid in range(count):
        size = rng.randint(MIN_BODY_BYTES, MAX_BODY_BYTES)
        main = rng.randrange(n_authors)
        n_co = rng.randint(0, MAX_COAUTHORS)
        others = rng.sample(range(n_authors - 1), n_co)
        coauthors = tuple(o if o < main else o + 1 for o in others)
        articles.append(ArticleRecord(aid, size, main, coauthors))
        for author in (main, *coauthors):
            index.setdefault(author, []).append(aid)
    author_index = {a: tuple(ids) for a, ids in sorted(index.items())}
    return Corpus(spec=spec, articles=tuple(articles), author_index=author_index)


def sample_query_authors(corpus: Corpus, n: int, seed: int) -> list[int]:
    """n author parameters drawn (with replacement) from authors that have
    at least one article."""
    rng = random.Random(f"queries/{seed}")
    known = sorted(corpus.author_index)
    return [known[rng.randrange(len(known))] for _ in range(n)]


@dataclass(frozen=True)
class BackendLatency:
    """Latency stand-ins for the metadata store, blob store and local store."""

    metadata_lookup_s: float
    metadata_per_row_s: float
    blob_first_byte_s: float
    blob_bytes_per_s: float
    local_bytes_per_s: float

    def __post_init__(self):
        for f in fields(self):
            if not getattr(self, f.name) > 0:
                raise ValueError(f"{f.name} must be > 0")


@dataclass(frozen=True)
class QueryPlan:
    query_id: int
    author: int
    article_ids: tuple[int, ...]


def plan_query(corpus: Corpus, query_id: int, author: int) -> QueryPlan:
    return QueryPlan(query_id, author, corpus.author_index.get(author, ()))


@dataclass(frozen=True)
class QueryResult:
    query_id: int
    author: int
    protocol: Protocol
    latency_s: float
    bytes_moved: int
    meta_s: float
    transfer_s: float
    queue_s: float
    article_ids: tuple[int, ...]


def _plan_cost(plan: QueryPlan, corpus: Corpus,
               backends: BackendLatency) -> tuple[float, int, int]:
    """A plan's (metadata lookup seconds, metadata bytes, body bytes)."""
    rows = len(plan.article_ids)
    return (backends.metadata_lookup_s + rows * backends.metadata_per_row_s,
            rows * corpus.spec.metadata_bytes_per_article,
            sum(corpus.articles[i].body_size for i in plan.article_ids))


def execute_local(plan: QueryPlan, corpus: Corpus, backends: BackendLatency) -> QueryResult:
    """Local protocol: lookup, then metadata plus all bodies over the local
    store path. Never touches the bottleneck link."""
    meta_s, meta_bytes, body_bytes = _plan_cost(plan, corpus, backends)
    nbytes = meta_bytes + body_bytes
    transfer_s = nbytes / backends.local_bytes_per_s
    return QueryResult(
        query_id=plan.query_id, author=plan.author, protocol=Protocol.LOCAL_4STEP,
        latency_s=meta_s + transfer_s, bytes_moved=nbytes, meta_s=meta_s,
        transfer_s=transfer_s, queue_s=0.0, article_ids=plan.article_ids)


class HybridQueryDriver:
    """Runs hybrid queries inside a link simulation, on its fetches'
    completion callbacks alone: no query step.

    One client session: one query is in flight at a time, and the driver
    holds its state. start submits query 0 and offers its fetches at once,
    so call it once the background is in the simulator. The callback that
    delivers a query's last fetch submits the next at that instant, and a
    query that fetches nothing finishes when its metadata is read. Within a
    query the per-article blob fetches are sequential by default, or all
    offered at once with parallel. Each fetch is a serial pipeline: blob
    first-byte + read at blob speed, then transit of the bottleneck link
    subject to its queues, then propagation. transfer_s collects the
    queue-free pipeline time and queue_s the residual waiting, so components
    always sum to the total exactly.
    """

    def __init__(self, sim: LinkSimulator, corpus: Corpus, backends: BackendLatency,
                 plans, parallel: bool = False):
        self.sim = sim
        self.corpus = corpus
        self.backends = backends
        self.plans = list(plans)
        self.costs = [_plan_cost(plan, corpus, backends) for plan in self.plans]
        self.parallel = parallel
        self.results: list[QueryResult] = []
        # The query in flight: its index and submit time, its queue-free
        # seconds so far, the next of its articles to fetch and the fetches
        # offered but not yet delivered.
        self._qi = self._next = self._waiting = 0
        self._submitted = self._transfer_s = 0.0

    def start(self, time: float) -> None:
        """Submit query 0 at time (see the class docstring)."""
        if not self.sim.now <= time < math.inf:
            raise ValueError(f"event time {time} is not finite or before now={self.sim.now}")
        self._submit(time)

    def _submit(self, t: float) -> None:
        """Submit query _qi at t, and each next one at once while a query
        fetches nothing, until one is in flight or none is left."""
        while self._qi < len(self.plans):
            meta_s, meta_bytes, _ = self.costs[self._qi]
            meta_transfer = meta_bytes / self.backends.local_bytes_per_s
            self._submitted, self._transfer_s, self._next = t, meta_transfer, 0
            t = t + meta_s + meta_transfer
            rows = len(self.plans[self._qi].article_ids)
            if rows:
                for _ in range(rows if self.parallel else 1):
                    self._fetch(t)
                return
            self._finish(t)

    def _fetch(self, t: float) -> None:
        """Offer the in-flight query's next article at t."""
        b = self.backends
        size = self.corpus.articles[self.plans[self._qi].article_ids[self._next]].body_size
        blob_stage = b.blob_first_byte_s + size / b.blob_bytes_per_s
        self._transfer_s += blob_stage + (size / self.sim.byte_rate
                                          + self.sim.link.propagation_delay_s)
        self._next += 1
        self._waiting += 1
        self.sim.inject_flow(t + blob_stage, size, QUERY_LABEL, callback=self._delivered)

    def _delivered(self, sim: LinkSimulator, t: float) -> None:
        self._waiting -= 1
        if self._next < len(self.plans[self._qi].article_ids):
            self._fetch(t)  # sequential: the next article
        elif not self._waiting:
            self._finish(t)
            self._submit(t)

    def _finish(self, t: float) -> None:
        """Record the in-flight query as done at t."""
        plan = self.plans[self._qi]
        meta_s, meta_bytes, body_bytes = self.costs[self._qi]
        latency = t - self._submitted
        self.results.append(QueryResult(
            query_id=plan.query_id, author=plan.author, protocol=Protocol.HYBRID_5STEP,
            latency_s=latency, bytes_moved=meta_bytes + body_bytes, meta_s=meta_s,
            transfer_s=self._transfer_s, queue_s=latency - meta_s - self._transfer_s,
            article_ids=plan.article_ids))
        self._qi += 1


@dataclass
class ExperimentResult:
    scenario_id: str
    rows: list  # (local QueryResult, hybrid QueryResult) per query
    summary: dict  # protocol value -> {mean, p50, p95}
    sim_metrics: object

    def write_csv(self, path) -> None:
        """One row per query and protocol, local first, in the bytes
        csv.writer would write (no field needs quoting; lines end in CR LF),
        the seconds as "%.9g"."""
        with open(path, "w", newline="") as fh:
            fh.write("query_id,author,protocol,latency_s,bytes,meta_s,transfer_s,queue_s\r\n")
            fh.write("".join(
                "%s,%s,%s,%.9g,%s,%.9g,%.9g,%.9g\r\n" % (
                    r.query_id, r.author, r.protocol.value, r.latency_s, r.bytes_moved,
                    r.meta_s, r.transfer_s, r.queue_s)
                for pair in self.rows for r in pair))


def run_experiment(
    corpus: Corpus,
    authors,
    backends: BackendLatency,
    link: LinkSpec,
    *,
    background=(),
    scenario_id: str = "experiment",
    seed: int = 0,
    start_time: float = 0.0,
    parallel: bool = False,
) -> ExperimentResult:
    """Run every author query under both protocols and pair the results.

    The hybrid side shares one open-mode simulation with the background
    trace (a Trace, or FlowEvents), which must not use the query class; this
    is checked before anything is simulated. The background is added first,
    then the driver is started at start_time: one query in flight at a time,
    each submitted from the completion callback that delivers the previous
    one, with no query step. The simulation starts at epoch 0, so it takes
    the FIFO pass (hcqsim.fifo), which runs the fetch callbacks as the event
    core would, until idle; a query that fetches nothing does not extend the
    run. Local results come from execute_local. Fetch bytes are reconciled
    against the link's per-class delivered counters and any dropped fetch
    byte is an error (size the queue above the largest article).
    """
    plans = [plan_query(corpus, i, a) for i, a in enumerate(authors)]

    background = Trace.from_flows(background)
    if QUERY_LABEL in background.labels:
        raise ExperimentError(
            f"background traffic uses the query class {QUERY_LABEL}; reserve it for fetches"
        )
    sim = LinkSimulator(link, canonical_class_order((*background.labels, QUERY_LABEL)),
                        FeedbackMode.OPEN, scenario_id=scenario_id, seed=seed)
    sim.add_flows(background)
    driver = HybridQueryDriver(sim, corpus, backends, plans, parallel=parallel)
    local_results = [execute_local(p, corpus, backends) for p in plans]
    driver.start(start_time)
    metrics = sim.run_until_idle()

    if len(driver.results) != len(plans):
        raise ExperimentError(
            f"only {len(driver.results)}/{len(plans)} hybrid queries completed; "
            f"failed flow ids: {metrics.failed_flow_ids}"
        )
    fetch_bytes = sum(body_bytes for _, _, body_bytes in driver.costs)
    tot = metrics.totals[QUERY_LABEL]
    if tot.dropped or tot.queued or tot.delivered != fetch_bytes:
        raise ExperimentError(
            f"fetch byte reconciliation failed for {QUERY_LABEL}: delivered {tot.delivered}, "
            f"dropped {tot.dropped}, queued {tot.queued}, expected {fetch_bytes}"
        )

    summary = {}
    for proto, results in ((Protocol.LOCAL_4STEP, local_results),
                           (Protocol.HYBRID_5STEP, driver.results)):
        vals = sorted(r.latency_s for r in results)
        p50, p95 = quantiles_nearest_rank(vals, (0.50, 0.95))
        summary[proto.value] = {
            "mean": sum(vals) / len(vals) if vals else float("nan"),
            "p50": p50,
            "p95": p95,
        }
    return ExperimentResult(scenario_id=scenario_id,
                            rows=list(zip(local_results, driver.results)), summary=summary,
                            sim_metrics=metrics)
