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

from .metrics import quantile_nearest_rank
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
        query_id=plan.query_id,
        author=plan.author,
        protocol=Protocol.LOCAL_4STEP,
        latency_s=meta_s + transfer_s,
        bytes_moved=nbytes,
        meta_s=meta_s,
        transfer_s=transfer_s,
        queue_s=0.0,
        article_ids=plan.article_ids,
    )


class HybridQueryDriver:
    """Runs hybrid queries inside a link simulation.

    Queries run one after another (a single client session); within a query
    the per-article blob fetches are sequential by default. Each fetch is a
    serial pipeline: blob first-byte + read at blob speed, then transit of
    the bottleneck link subject to its queues, then propagation. transfer_s
    collects the queue-free pipeline time and queue_s the residual waiting,
    so components always sum to the total exactly.
    """

    def __init__(self, sim: LinkSimulator, corpus: Corpus, backends: BackendLatency,
                 plans, parallel: bool = False):
        self.sim = sim
        self.corpus = corpus
        self.backends = backends
        self.plans = list(plans)
        self.parallel = parallel
        self.results: list[QueryResult] = []

    def start(self, time: float) -> None:
        if self.plans:
            self.sim.schedule_at(time, lambda sim, t, qi=0: self._submit(qi, t))

    def _submit(self, qi: int, t: float) -> None:
        plan = self.plans[qi]
        meta_s, meta_bytes, body_bytes = _plan_cost(plan, self.corpus, self.backends)
        meta_transfer = meta_bytes / self.backends.local_bytes_per_s
        rows = len(plan.article_ids)
        state = {
            "qi": qi,
            "plan": plan,
            "submit": t,
            "meta_s": meta_s,
            "transfer_s": meta_transfer,
            "bytes_moved": meta_bytes + body_bytes,
            "remaining": rows,
        }
        meta_done = t + meta_s + meta_transfer
        if rows == 0:
            self._finish(state, meta_done)
            return
        if self.parallel:
            for idx in range(rows):
                self._dispatch_fetch(state, idx, meta_done)
        else:
            self._dispatch_fetch(state, 0, meta_done)

    def _dispatch_fetch(self, state, idx: int, t: float) -> None:
        plan = state["plan"]
        b = self.backends
        size = self.corpus.articles[plan.article_ids[idx]].body_size
        blob_stage = b.blob_first_byte_s + size / b.blob_bytes_per_s
        ideal_link = size / self.sim.byte_rate + self.sim.link.propagation_delay_s
        state["transfer_s"] += blob_stage + ideal_link

        def on_delivered(sim, delivery, state=state, idx=idx):
            if state["remaining"] == 0:
                raise ExperimentError("fetch completion after query already finished")
            state["remaining"] -= 1
            if not self.parallel and idx + 1 < len(state["plan"].article_ids):
                self._dispatch_fetch(state, idx + 1, delivery)
            elif state["remaining"] == 0:
                self._finish(state, delivery)
            # parallel mode finishes when the slowest fetch lands

        self.sim.inject_flow(t + blob_stage, size, QUERY_LABEL, callback=on_delivered)

    def _finish(self, state, t: float) -> None:
        plan = state["plan"]
        latency = t - state["submit"]
        queue_s = latency - state["meta_s"] - state["transfer_s"]
        self.results.append(
            QueryResult(
                query_id=plan.query_id,
                author=plan.author,
                protocol=Protocol.HYBRID_5STEP,
                latency_s=latency,
                bytes_moved=state["bytes_moved"],
                meta_s=state["meta_s"],
                transfer_s=state["transfer_s"],
                queue_s=queue_s,
                article_ids=plan.article_ids,
            )
        )
        nxt = state["qi"] + 1
        if nxt < len(self.plans):
            self.sim.schedule_at(t, lambda sim, tt, qi=nxt: self._submit(qi, tt))


@dataclass
class ExperimentResult:
    scenario_id: str
    rows: list  # (local QueryResult, hybrid QueryResult) per query
    summary: dict  # protocol value -> {mean, p50, p95}
    sim_metrics: object

    def write_csv(self, path) -> None:
        with open(path, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["query_id", "author", "protocol", "latency_s", "bytes",
                        "meta_s", "transfer_s", "queue_s"])
            for local, hybrid in self.rows:
                for r in (local, hybrid):
                    w.writerow([r.query_id, r.author, r.protocol.value,
                                "%.9g" % r.latency_s, r.bytes_moved, "%.9g" % r.meta_s,
                                "%.9g" % r.transfer_s, "%.9g" % r.queue_s])


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
    is checked before anything is simulated. Fetch bytes are reconciled
    against the link's per-class delivered counters and any dropped fetch
    byte is an error (size the queue above the largest article).
    """
    plans = [plan_query(corpus, i, a) for i, a in enumerate(authors)]
    local_results = [execute_local(p, corpus, backends) for p in plans]

    background = Trace.from_flows(background)
    if QUERY_LABEL in background.labels:
        raise ExperimentError(
            f"background traffic uses the query class {QUERY_LABEL}; reserve it for fetches"
        )
    sim = LinkSimulator(link, canonical_class_order((*background.labels, QUERY_LABEL)),
                        FeedbackMode.OPEN, scenario_id=scenario_id, seed=seed)
    sim.add_flows(background)
    driver = HybridQueryDriver(sim, corpus, backends, plans, parallel=parallel)
    driver.start(start_time)
    metrics = sim.run_until_idle()

    if len(driver.results) != len(plans):
        raise ExperimentError(
            f"only {len(driver.results)}/{len(plans)} hybrid queries completed; "
            f"failed flow ids: {metrics.failed_flow_ids}"
        )
    hybrid_results = sorted(driver.results, key=lambda r: r.query_id)
    fetch_bytes = sum(corpus.articles[i].body_size for p in plans for i in p.article_ids)
    tot = metrics.totals[QUERY_LABEL]
    if tot.dropped or tot.queued or tot.delivered != fetch_bytes:
        raise ExperimentError(
            f"fetch byte reconciliation failed for {QUERY_LABEL}: delivered {tot.delivered}, "
            f"dropped {tot.dropped}, queued {tot.queued}, expected {fetch_bytes}"
        )

    rows = list(zip(local_results, hybrid_results))
    for local, hybrid in rows:
        if local.article_ids != hybrid.article_ids:
            raise ExperimentError(
                f"query {local.query_id} resolved different article sets per protocol"
            )

    summary = {}
    for proto, results in ((Protocol.LOCAL_4STEP, local_results),
                           (Protocol.HYBRID_5STEP, hybrid_results)):
        vals = sorted(r.latency_s for r in results)
        summary[proto.value] = {
            "mean": sum(vals) / len(vals) if vals else float("nan"),
            "p50": quantile_nearest_rank(vals, 0.50),
            "p95": quantile_nearest_rank(vals, 0.95),
        }
    return ExperimentResult(scenario_id=scenario_id, rows=rows, summary=summary,
                            sim_metrics=metrics)
