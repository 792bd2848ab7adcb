"""Traffic entities, the two-stage flow classifier, and seeded trace generation.

Flows run between five topology zones. Stage 1 buckets a flow into zone
class A (internal: local servers / private cloud / network core), B (touches
the public cloud) or C (everything else). Stage 2 attaches the application
kind (web / database / file / service) for classes A and B only.

Synthetic traces come from independent on/off-modulated Poisson sources,
one per (zone class, app kind) pair, each driven by its own seeded
substream so traces are bit-identical for identical inputs.

The stream contract: with seed s, class L draws from
random.Random(f"{s}/{L}") in this order. An on/off source draws the length
of each on period (none when burst_dist is fixed), then its flows, then
the idle gap after it; a Poisson source is one on period to the horizon.
Each flow draws its interarrival gap, then its size (nothing for a fixed
size; one uniform for a uniform or exponential size; pairs of uniforms
until Kinderman and Monahan's test accepts, for a lognormal size), then
its zone pair, then, in class C only, its app kind. The gap that passes
the end of an on period is drawn and unused. One loop per class makes
these draws with the formulas of random.Random's expovariate,
lognormvariate, uniform and randrange, so it reproduces their values bit
for bit; the tests check it against a generator that calls those methods.

A trace is a `Trace`: columns of arrival time, size, endpoint and id, one
entry per flow, classified once when it is made. The endpoint column holds
each flow's (src, dst, app) as an index into the fixed table `ENDPOINTS`;
`cls` holds each flow's index into `labels`, the distinct classes of the
trace in canonical order. `FlowEvent` is the per-flow view at the edges:
`Trace.from_flows` builds a trace from FlowEvents, and indexing or
iterating a trace yields them.
"""

from __future__ import annotations

import math
import random
from array import array
from dataclasses import dataclass
from enum import Enum
from itertools import product
from typing import Optional

import numpy as np


class Zone(Enum):
    LOCAL_SERVER = "LocalServer"
    PRIVATE_CLOUD = "PrivateCloud"
    NETWORK_CORE = "NetworkCore"
    PUBLIC_CLOUD = "PublicCloud"
    INTERNET = "Internet"


class ZoneClass(Enum):
    A = "A"
    B = "B"
    C = "C"


class AppKind(Enum):
    WEB = "Web"
    DATABASE = "Database"
    FILE = "File"
    SERVICE = "Service"


# Zones whose mutual traffic is class A.
INTERNAL_ZONES = frozenset({Zone.LOCAL_SERVER, Zone.PRIVATE_CLOUD, Zone.NETWORK_CORE})

# Fixed class order used for deterministic tie-breaking everywhere:
# A-Database, A-Web, A-File, A-Service, then B same kind order, then C.
_KIND_ORDER = (AppKind.DATABASE, AppKind.WEB, AppKind.FILE, AppKind.SERVICE)
_CLASS_ORDER = (ZoneClass.A, ZoneClass.B, ZoneClass.C)


@dataclass(frozen=True)
class FlowEvent:
    """One unit of offered traffic."""

    id: int
    arrival_time: float
    size: int
    src: Zone
    dst: Zone
    app: AppKind

    def __post_init__(self):
        if self.size < 1:
            raise ValueError(f"flow size must be >= 1 byte, got {self.size}")
        if not (self.arrival_time >= 0.0 and math.isfinite(self.arrival_time)):
            raise ValueError(f"arrival_time must be finite and >= 0, got {self.arrival_time}")


@dataclass(frozen=True, order=False)
class TrafficClassLabel:
    """(zone class, app kind) pair from the two-stage classifier.

    app_kind is present exactly when zone_class is A or B; class C carries
    no application kind.
    """

    zone_class: ZoneClass
    app_kind: Optional[AppKind] = None

    def __post_init__(self):
        has_kind = self.app_kind is not None
        if self.zone_class is ZoneClass.C and has_kind:
            raise ValueError("class C traffic carries no app kind")
        if self.zone_class is not ZoneClass.C and not has_kind:
            raise ValueError(f"class {self.zone_class.value} traffic requires an app kind")
        # Labels key the simulator's class index, so the hash is taken once,
        # with the value the generated __hash__ would give.
        object.__setattr__(self, "_hash", hash((self.zone_class, self.app_kind)))

    def __hash__(self) -> int:
        return self._hash

    def __reduce__(self):
        # Enum hashes are salted per process: an unpickled label hashes anew.
        return TrafficClassLabel, (self.zone_class, self.app_kind)

    def sort_key(self) -> tuple[int, int]:
        c = _CLASS_ORDER.index(self.zone_class)
        k = _KIND_ORDER.index(self.app_kind) if self.app_kind is not None else 0
        return (c, k)

    def __str__(self) -> str:
        if self.app_kind is None:
            return self.zone_class.value
        return f"{self.zone_class.value}:{self.app_kind.value}"


def canonical_class_order(labels) -> tuple[TrafficClassLabel, ...]:
    """Labels sorted into the fixed deterministic class order."""
    return tuple(sorted(labels, key=lambda lab: lab.sort_key()))


def classify_stage1(flow: FlowEvent) -> ZoneClass:
    """Zone-membership classification: A internal, B public-cloud, C other."""
    if flow.src in INTERNAL_ZONES and flow.dst in INTERNAL_ZONES:
        return ZoneClass.A
    if flow.src is Zone.PUBLIC_CLOUD or flow.dst is Zone.PUBLIC_CLOUD:
        return ZoneClass.B
    return ZoneClass.C


def classify_stage2(flow: FlowEvent, stage1: ZoneClass) -> TrafficClassLabel:
    """Attach the application kind for classes A/B; class C stays bare."""
    if stage1 is ZoneClass.C:
        return TrafficClassLabel(ZoneClass.C)
    return TrafficClassLabel(stage1, flow.app)


def classify(flow: FlowEvent) -> TrafficClassLabel:
    return classify_stage2(flow, classify_stage1(flow))


# Every (src, dst, app) triple, so that a trace stores a flow's endpoint as
# one byte, and the class of each triple, found by the classifier once.
ENDPOINTS: tuple[tuple[Zone, Zone, AppKind], ...] = tuple(product(Zone, Zone, AppKind))
_ENDPOINT_CODE = {e: code for code, e in enumerate(ENDPOINTS)}
_ENDPOINT_LABEL = tuple(classify(FlowEvent(0, 0.0, 1, *e)) for e in ENDPOINTS)


class Trace:
    """A flow trace as columns, one entry per flow, classified once.

    time (array 'd') and size (array 'q') are arrival times and byte sizes;
    endpoint (array 'B') indexes ENDPOINTS; ids is a range for generated
    traces. labels is the set of classes the flows fall into, in canonical
    order, and cls (array 'B') each flow's index into it. The constructor
    checks sizes >= 1, times finite and >= 0, and endpoints index ENDPOINTS.
    """

    __slots__ = ("time", "size", "endpoint", "ids", "labels", "cls")

    def __init__(self, time: array, size: array, endpoint: array, ids=None):
        n = len(time)
        self.ids = range(n) if ids is None else ids
        if not len(size) == len(endpoint) == len(self.ids) == n:
            raise ValueError(
                f"trace columns differ in length: time {n}, size {len(size)}, "
                f"endpoint {len(endpoint)}, ids {len(self.ids)}"
            )
        if n:
            smallest = int(np.asarray(size).min())
            if smallest < 1:
                raise ValueError(f"flow size must be >= 1 byte, got {smallest}")
            t = np.asarray(time, dtype=float)
            if not 0.0 <= t.min() <= t.max() < math.inf:  # NaN fails too
                bad = next(v for v in time if not 0.0 <= v < math.inf)
                raise ValueError(f"arrival_time must be finite and >= 0, got {bad}")
        self.time = time
        self.size = size
        self.endpoint = endpoint
        codes = np.flatnonzero(np.bincount(np.asarray(endpoint))).tolist()  # those that occur
        if codes and codes[-1] >= len(ENDPOINTS):
            j = next(j for j, c in enumerate(endpoint) if c >= len(ENDPOINTS))
            raise ValueError(f"flow {self.ids[j]} has endpoint code {endpoint[j]}, "
                             f"not below {len(ENDPOINTS)}")
        self.labels = canonical_class_order({_ENDPOINT_LABEL[c] for c in codes})
        table = bytearray(256)
        for c in codes:
            table[c] = self.labels.index(_ENDPOINT_LABEL[c])
        self.cls = array("B", endpoint.tobytes().translate(table))

    @classmethod
    def from_flows(cls, flows) -> "Trace":
        """The trace of an iterable of FlowEvents, in its order; a Trace is
        returned as it is."""
        if isinstance(flows, Trace):
            return flows
        time, size, endpoint, ids = array("d"), array("q"), array("B"), array("q")
        code = _ENDPOINT_CODE
        for f in flows:
            time.append(f.arrival_time)
            size.append(f.size)
            endpoint.append(code[f.src, f.dst, f.app])
            ids.append(f.id)
        return cls(time, size, endpoint, ids)

    def __len__(self) -> int:
        return len(self.time)

    def __getitem__(self, j: int) -> FlowEvent:
        return FlowEvent(self.ids[j], self.time[j], self.size[j], *ENDPOINTS[self.endpoint[j]])

    def __iter__(self):
        return map(self.__getitem__, range(len(self)))

    def __eq__(self, other) -> bool:
        if not isinstance(other, Trace):
            return NotImplemented
        return (self.time == other.time and self.size == other.size
                and self.endpoint == other.endpoint
                and array("q", self.ids) == array("q", other.ids))


# The largest flow size: sizes are held as int64s, in a trace's size column
# and in the simulator's flow table.
MAX_FLOW_BYTES = 2**63 - 1


def _check_fits(name: str, value: float) -> None:
    """Refuse a size parameter that rounds to more than MAX_FLOW_BYTES."""
    if round(value) > MAX_FLOW_BYTES:
        raise ValueError(f"{name} must be at most {MAX_FLOW_BYTES:,} bytes, got {value:g}")


@dataclass(frozen=True)
class SizeDistribution:
    """Flow-size distribution descriptor (bytes).

    Families: fixed (size_bytes), uniform (low/high), exponential
    (mean_bytes), lognormal (mean_bytes + log-space sigma). A fixed size or
    a uniform high must fit MAX_FLOW_BYTES; an exponential or lognormal
    size is checked as it is drawn.
    """

    family: str
    size_bytes: float = 0.0
    low: float = 0.0
    high: float = 0.0
    mean_bytes: float = 0.0
    sigma: float = 0.0

    def __post_init__(self):
        for name in ("size_bytes", "low", "high", "mean_bytes", "sigma"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)}")
        if self.family == "fixed":
            if self.size_bytes <= 0:
                raise ValueError("fixed size distribution requires size_bytes > 0")
            _check_fits("size_bytes", self.size_bytes)
        elif self.family == "uniform":
            if not (0 < self.low <= self.high):
                raise ValueError("uniform size distribution requires 0 < low <= high")
            _check_fits("high", self.high)
        elif self.family == "exponential":
            if self.mean_bytes <= 0:
                raise ValueError("exponential size distribution requires mean_bytes > 0")
        elif self.family == "lognormal":
            if self.mean_bytes <= 0 or self.sigma <= 0:
                raise ValueError("lognormal size distribution requires mean_bytes > 0 and sigma > 0")
        else:
            raise ValueError(f"unknown size distribution family {self.family!r}")


# Kinderman and Monahan's constant 4 * exp(-0.5) / sqrt(2), as random.Random
# has it.
_NV_MAGICCONST = random.NV_MAGICCONST

# Representative endpoint pairs per zone class; every pair classifies back
# to its class under classify_stage1.
_ZONE_PAIRS = {
    ZoneClass.A: (
        (Zone.LOCAL_SERVER, Zone.PRIVATE_CLOUD),
        (Zone.PRIVATE_CLOUD, Zone.LOCAL_SERVER),
        (Zone.LOCAL_SERVER, Zone.NETWORK_CORE),
        (Zone.PRIVATE_CLOUD, Zone.NETWORK_CORE),
    ),
    ZoneClass.B: (
        (Zone.PRIVATE_CLOUD, Zone.PUBLIC_CLOUD),
        (Zone.PUBLIC_CLOUD, Zone.PRIVATE_CLOUD),
        (Zone.LOCAL_SERVER, Zone.PUBLIC_CLOUD),
        (Zone.PUBLIC_CLOUD, Zone.LOCAL_SERVER),
    ),
    ZoneClass.C: (
        (Zone.INTERNET, Zone.INTERNET),
        (Zone.INTERNET, Zone.LOCAL_SERVER),
        (Zone.LOCAL_SERVER, Zone.INTERNET),
    ),
}


@dataclass(frozen=True)
class ClassProfile:
    """Arrival process for one traffic class.

    rate_per_s is the long-run mean arrival rate; with on/off modulation the
    on-period rate is scaled up by (burst_s + idle_s) / burst_s so the
    long-run mean is preserved. idle_s = 0 means an unmodulated Poisson
    source. Burst durations are exponential with mean burst_s, or exactly
    burst_s when burst_dist is "fixed" (periodic bulk transfers); idle gaps
    are always exponential.
    """

    label: TrafficClassLabel
    rate_per_s: float
    size_dist: SizeDistribution
    burst_s: float = 1.0
    idle_s: float = 0.0
    burst_dist: str = "exponential"

    def __post_init__(self):
        # Written so that NaN fails too: a NaN or infinite rate or period
        # would make the draw loop spin or return nothing.
        if not 0 < self.rate_per_s < math.inf:
            raise ValueError(f"rate_per_s must be finite and > 0, got {self.rate_per_s}")
        if not 0 < self.burst_s < math.inf:
            raise ValueError(f"burst_s must be finite and > 0, got {self.burst_s}")
        if not 0 <= self.idle_s < math.inf:
            raise ValueError(f"idle_s must be finite and >= 0, got {self.idle_s}")
        if self.burst_dist not in ("exponential", "fixed"):
            raise ValueError(f"burst_dist must be exponential or fixed, got {self.burst_dist!r}")


@dataclass(frozen=True)
class TrafficProfile:
    classes: tuple[ClassProfile, ...]

    def __post_init__(self):
        if not self.classes:
            raise ValueError("traffic profile needs at least one class")
        labels = [cp.label for cp in self.classes]
        if len(set(labels)) != len(labels):
            raise ValueError("duplicate class labels in traffic profile")

    def labels(self) -> tuple[TrafficClassLabel, ...]:
        return canonical_class_order(cp.label for cp in self.classes)


# A trace is held in memory whole: 18 bytes per flow in its columns, 59 at
# the peak of generate_trace and 61 at the peak of an open run of it
# (tracemalloc, s1's sources at four times their rate). A trace is refused
# when its sources expect more flows than this: about 0.6 GB at that rate.
MAX_TRACE_FLOWS = 10_000_000


def check_flow_count(rate_per_s: float, duration_s: float) -> None:
    """Refuse sources of total mean rate rate_per_s over duration_s when
    they expect more than MAX_TRACE_FLOWS flows."""
    expected = rate_per_s * duration_s
    if expected > MAX_TRACE_FLOWS:
        raise ValueError(f"sources of {rate_per_s:g} flows/s in all over {duration_s:g} s "
                         f"expect {expected:,.0f} flows, more than the {MAX_TRACE_FLOWS:,} a "
                         f"trace may hold")


def check_burst_flows(cp: ClassProfile, duration_s: float) -> None:
    """Refuse a source whose on-period rate, rate_per_s * (burst_s + idle_s)
    / burst_s, times duration_s is more than MAX_TRACE_FLOWS: that is the
    most flows one burst can expect, and a burst is drawn whole."""
    on_rate = cp.rate_per_s * (cp.burst_s + cp.idle_s) / cp.burst_s
    if on_rate * duration_s > MAX_TRACE_FLOWS:
        raise ValueError(f"{cp.label} bursts at {on_rate:g} flows/s: one burst over "
                         f"{duration_s:g} s may expect more than the {MAX_TRACE_FLOWS:,} flows "
                         f"a trace may hold")


def _class_arrivals(cp: ClassProfile, duration_s: float, rng: random.Random):
    """Arrival times, sizes and endpoint codes of one class's flows, in time
    order, drawn from rng in the order the module docstring states.

    Each draw is written out as random.Random computes it, with the class's
    constants worked out once: an exponential is -log(1.0 - random()) /
    lambd (expovariate), a lognormal is exp of Kinderman and Monahan's
    ratio-of-uniforms normal (lognormvariate), a uniform is
    low + (high - low) * random() (uniform), and an index below n is
    getrandbits(n.bit_length()) drawn until it is below n (randrange).
    Sizes are rounded half to even and clamped at 1 byte.
    """
    random, getrandbits = rng.random, rng.getrandbits
    log, exp = math.log, math.exp
    nv_magic = _NV_MAGICCONST

    sd = cp.size_dist
    lognormal = sd.family == "lognormal"
    exponential = sd.family == "exponential"
    uniform = sd.family == "uniform"
    if lognormal:
        mu = math.log(sd.mean_bytes) - 0.5 * sd.sigma * sd.sigma
        sigma = sd.sigma
    elif exponential:
        size_lambd = 1.0 / sd.mean_bytes
    elif uniform:
        low, width = sd.low, sd.high - sd.low
    else:
        fixed_size = max(1, round(sd.size_bytes))

    rows = [[_ENDPOINT_CODE[src, dst, app] for app in AppKind]
            for src, dst in _ZONE_PAIRS[cp.label.zone_class]]
    n_pairs = len(rows)
    pair_bits = n_pairs.bit_length()
    draw_kind = cp.label.app_kind is None
    if draw_kind:
        n_kinds = len(AppKind)
        kind_bits = n_kinds.bit_length()
    else:
        kind = list(AppKind).index(cp.label.app_kind)
        rows = [row[kind] for row in rows]

    poisson = cp.idle_s == 0
    if poisson:
        rate = cp.rate_per_s
        # -0.0 + gap is the gap itself, bit for bit, as when the first
        # arrival time was the first gap.
        t = -0.0
    else:
        rate = cp.rate_per_s / (cp.burst_s / (cp.burst_s + cp.idle_s))
        burst_lambd = None if cp.burst_dist == "fixed" else 1.0 / cp.burst_s
        idle_lambd = 1.0 / cp.idle_s
        t = 0.0

    times, sizes, codes = array("d"), array("q"), array("B")
    add_time, add_size, add_code = times.append, sizes.append, codes.append
    while t < duration_s:
        if poisson:
            on_end = duration_s
        else:
            burst = cp.burst_s if burst_lambd is None else -log(1.0 - random()) / burst_lambd
            on_end = min(t + burst, duration_s)
        arrival = t + -log(1.0 - random()) / rate
        while arrival < on_end:
            if lognormal:
                while True:
                    u1 = random()
                    u2 = 1.0 - random()
                    z = nv_magic * (u1 - 0.5) / u2
                    if z * z / 4.0 <= -log(u2):
                        break
                size = round(exp(mu + z * sigma))
            elif exponential:
                size = round(-log(1.0 - random()) / size_lambd)
            elif uniform:
                size = round(low + width * random())
            else:
                size = fixed_size
            pair = getrandbits(pair_bits)
            while pair >= n_pairs:
                pair = getrandbits(pair_bits)
            if draw_kind:
                k = getrandbits(kind_bits)
                while k >= n_kinds:
                    k = getrandbits(kind_bits)
                add_code(rows[pair][k])
            else:
                add_code(rows[pair])
            add_time(arrival)
            add_size(size if size > 0 else 1)
            arrival += -log(1.0 - random()) / rate
        t = on_end
        if t < duration_s:
            t += -log(1.0 - random()) / idle_lambd
    return times, sizes, codes


def generate_trace(profile: TrafficProfile, duration_s: float, seed: int) -> Trace:
    """Generate a time-sorted synthetic trace with ids 0..n-1.

    Each class draws from its own substream derived from (seed, label), so
    adding a class never perturbs the others. Identical inputs produce a
    bit-identical trace. Simultaneous arrivals are ordered by class. Sources
    that expect more than MAX_TRACE_FLOWS flows, in all or in one burst, are
    refused before any is drawn. A drawn size beyond MAX_FLOW_BYTES is a
    ValueError that names its class.
    """
    if not 0.0 < duration_s < math.inf:
        raise ValueError(f"duration_s must be finite and > 0, got {duration_s}")
    check_flow_count(sum(cp.rate_per_s for cp in profile.classes), duration_s)
    for cp in profile.classes:
        check_burst_flows(cp, duration_s)
    time, size, endpoint = array("d"), array("q"), array("B")
    # Classes are joined in canonical order, so that a stable sort by time
    # alone breaks ties by class, and within a class by draw order.
    for cp in sorted(profile.classes, key=lambda cp: cp.label.sort_key()):
        try:
            t, s, e = _class_arrivals(cp, duration_s, random.Random(f"{seed}/{cp.label}"))
        except OverflowError:  # a size past the int64 column, or past a float
            raise ValueError(f"{cp.label} drew a flow size of more than {MAX_FLOW_BYTES:,} "
                             f"bytes") from None
        time.extend(t)
        size.extend(s)
        endpoint.extend(e)
    if len(profile.classes) > 1 and len(time) > 1:
        order = np.argsort(np.frombuffer(time), kind="stable")
        time, size, endpoint = (_gather(col, order) for col in (time, size, endpoint))
    return Trace(time, size, endpoint)


def _gather(col: array, order: np.ndarray) -> array:
    """The entries of col at the indices order, in a new array of its type
    and of exactly their size."""
    out = array(col.typecode, bytes(col.itemsize)) * len(order)
    np.take(np.frombuffer(col, col.typecode), order, out=np.frombuffer(out, col.typecode))
    return out
