import csv
import hashlib
import io
import itertools
import math
import pickle
import random
import re
from array import array
from operator import itemgetter

import pytest
from hypothesis import given, settings, strategies as st

from hcqsim import traffic
from hcqsim.runner import build_trace
from hcqsim.scenarios import S1_SEED, S2_SEED, s1_config, s2_congested_config
from hcqsim.traffic import (
    ENDPOINTS,
    AppKind,
    ClassProfile,
    FlowEvent,
    SizeDistribution,
    Trace,
    TrafficClassLabel,
    TrafficProfile,
    Zone,
    ZoneClass,
    canonical_class_order,
    classify,
    classify_stage1,
    classify_stage2,
    generate_trace,
)


def flow(src, dst, app=AppKind.WEB, fid=0, t=0.0, size=1000):
    return FlowEvent(id=fid, arrival_time=t, size=size, src=src, dst=dst, app=app)


def trace_csv_bytes(trace):
    """The trace as CSV, one row per flow: id, arrival time (%.17g), size and
    the endpoint triple by value."""
    out = io.StringIO()
    w = csv.writer(out)
    w.writerow(["id", "arrival_time", "size", "src", "dst", "app"])
    for fid, t, size, code in zip(trace.ids, trace.time, trace.size, trace.endpoint):
        src, dst, app = ENDPOINTS[code]
        w.writerow([fid, "%.17g" % t, size, src.value, dst.value, app.value])
    return out.getvalue().encode()


class TestStage1:
    def test_internal_pair_is_a(self):
        assert classify_stage1(flow(Zone.LOCAL_SERVER, Zone.PRIVATE_CLOUD)) is ZoneClass.A

    def test_public_cloud_is_b(self):
        assert classify_stage1(flow(Zone.PRIVATE_CLOUD, Zone.PUBLIC_CLOUD)) is ZoneClass.B

    def test_internet_only_is_c(self):
        assert classify_stage1(flow(Zone.INTERNET, Zone.INTERNET)) is ZoneClass.C

    def test_total_and_partitioned_over_all_pairs(self):
        # 5 x 5 endpoint pairs: classifier is total and each flow gets
        # exactly one class.
        for src in Zone:
            for dst in Zone:
                got = classify_stage1(flow(src, dst))
                assert got in (ZoneClass.A, ZoneClass.B, ZoneClass.C)
                expect_a = src in (Zone.LOCAL_SERVER, Zone.PRIVATE_CLOUD, Zone.NETWORK_CORE) \
                    and dst in (Zone.LOCAL_SERVER, Zone.PRIVATE_CLOUD, Zone.NETWORK_CORE)
                expect_b = not expect_a and Zone.PUBLIC_CLOUD in (src, dst)
                if expect_a:
                    assert got is ZoneClass.A
                elif expect_b:
                    assert got is ZoneClass.B
                else:
                    assert got is ZoneClass.C


class TestStage2:
    def test_database_in_a(self):
        f = flow(Zone.LOCAL_SERVER, Zone.PRIVATE_CLOUD, AppKind.DATABASE)
        assert classify_stage2(f, ZoneClass.A) == TrafficClassLabel(ZoneClass.A, AppKind.DATABASE)

    def test_c_has_no_kind(self):
        f = flow(Zone.INTERNET, Zone.INTERNET, AppKind.WEB)
        label = classify_stage2(f, ZoneClass.C)
        assert label.zone_class is ZoneClass.C
        assert label.app_kind is None

    def test_service_in_b(self):
        f = flow(Zone.PUBLIC_CLOUD, Zone.LOCAL_SERVER, AppKind.SERVICE)
        assert classify_stage2(f, ZoneClass.B) == TrafficClassLabel(ZoneClass.B, AppKind.SERVICE)

    def test_kind_present_iff_a_or_b(self):
        for src in Zone:
            for dst in Zone:
                for app in AppKind:
                    label = classify(flow(src, dst, app))
                    assert (label.app_kind is not None) == (label.zone_class in (ZoneClass.A, ZoneClass.B))


class TestLabels:
    def test_c_rejects_kind(self):
        with pytest.raises(ValueError):
            TrafficClassLabel(ZoneClass.C, AppKind.WEB)

    def test_a_requires_kind(self):
        with pytest.raises(ValueError):
            TrafficClassLabel(ZoneClass.A)

    def test_canonical_order(self):
        labels = [
            TrafficClassLabel(ZoneClass.C),
            TrafficClassLabel(ZoneClass.B, AppKind.WEB),
            TrafficClassLabel(ZoneClass.A, AppKind.SERVICE),
            TrafficClassLabel(ZoneClass.A, AppKind.DATABASE),
        ]
        ordered = canonical_class_order(labels)
        assert [str(x) for x in ordered] == ["A:Database", "A:Service", "B:Web", "C"]

    def test_hash_and_equality_as_generated(self):
        # The hash is taken once, with the value the dataclass would give,
        # so sets and dicts of labels keep their order.
        pairs = [(zc, ak) for zc in (ZoneClass.A, ZoneClass.B) for ak in AppKind]
        pairs.append((ZoneClass.C, None))
        labels = [TrafficClassLabel(*pair) for pair in pairs]
        for pair, label in zip(pairs, labels):
            assert hash(label) == hash(pair)
            twin = TrafficClassLabel(*pair)
            assert twin == label and hash(twin) == hash(label) and twin is not label
        assert len(set(labels)) == 9
        assert all(a != b for a, b in itertools.combinations(labels, 2))
        assert TrafficClassLabel(ZoneClass.C) != (ZoneClass.C, None)
        assert [str(x) for x in set(labels)] == [
            str(TrafficClassLabel(*pair)) for pair in set(pairs)]

    def test_unpickled_label_hashes_anew(self):
        # Enum hashes are salted per process, so a pickled label must not
        # carry its hash: unpickling rebuilds it through the constructor.
        label = TrafficClassLabel(ZoneClass.B, AppKind.FILE)
        object.__setattr__(label, "_hash", 12345)  # as if hashed in another process
        back = pickle.loads(pickle.dumps(label))
        assert back == label and hash(back) == hash((ZoneClass.B, AppKind.FILE))


class TestFlowValidation:
    def test_zero_size_rejected(self):
        with pytest.raises(ValueError):
            flow(Zone.INTERNET, Zone.INTERNET, size=0)

    def test_negative_arrival_rejected(self):
        with pytest.raises(ValueError):
            flow(Zone.INTERNET, Zone.INTERNET, t=-1.0)


def single_class_profile(rate=10.0, idle=0.0, burst=1.0, label=None):
    return TrafficProfile(
        (
            ClassProfile(
                label or TrafficClassLabel(ZoneClass.A, AppKind.WEB),
                rate_per_s=rate,
                size_dist=SizeDistribution(family="fixed", size_bytes=1000.0),
                burst_s=burst,
                idle_s=idle,
            ),
        )
    )


class TestGenerateTrace:
    def test_zero_duration_rejected(self):
        with pytest.raises(ValueError):
            generate_trace(single_class_profile(), 0.0, seed=1)

    def test_bad_profile_rejected(self):
        with pytest.raises(ValueError):
            single_class_profile(rate=-1.0)
        with pytest.raises(ValueError):
            SizeDistribution(family="lognormal", mean_bytes=0.0, sigma=1.0)

    def test_poisson_count_within_3_sigma(self):
        # rate 10/s for 1000 s with no on/off modulation: Poisson(10000),
        # sigma = 100.
        trace = generate_trace(single_class_profile(rate=10.0), 1000.0, seed=42)
        assert abs(len(trace) - 10000) <= 300

    def test_deterministic(self):
        profile = single_class_profile(rate=5.0, idle=2.0, burst=3.0)
        a = generate_trace(profile, 200.0, seed=7)
        b = generate_trace(profile, 200.0, seed=7)
        assert a == b
        c = generate_trace(profile, 200.0, seed=8)
        assert a != c

    def test_sorted_and_ids_unique(self):
        profile = TrafficProfile(
            (
                ClassProfile(
                    TrafficClassLabel(ZoneClass.A, AppKind.WEB),
                    5.0,
                    SizeDistribution(family="uniform", low=100.0, high=2000.0),
                    burst_s=2.0,
                    idle_s=1.0,
                ),
                ClassProfile(
                    TrafficClassLabel(ZoneClass.B, AppKind.FILE),
                    3.0,
                    SizeDistribution(family="lognormal", mean_bytes=5e4, sigma=1.0),
                ),
                ClassProfile(
                    TrafficClassLabel(ZoneClass.C),
                    2.0,
                    SizeDistribution(family="exponential", mean_bytes=2e3),
                ),
            )
        )
        trace = generate_trace(profile, 100.0, seed=3)
        times = [f.arrival_time for f in trace]
        assert times == sorted(times)
        assert len({f.id for f in trace}) == len(trace)
        assert all(f.size >= 1 for f in trace)
        assert all(0 <= f.arrival_time < 100.0 for f in trace)

    def test_generated_flows_classify_back_to_their_profile(self):
        label_b = TrafficClassLabel(ZoneClass.B, AppKind.DATABASE)
        label_c = TrafficClassLabel(ZoneClass.C)
        profile = TrafficProfile(
            (
                ClassProfile(label_b, 4.0, SizeDistribution(family="fixed", size_bytes=500.0)),
                ClassProfile(label_c, 4.0, SizeDistribution(family="fixed", size_bytes=500.0)),
            )
        )
        trace = generate_trace(profile, 50.0, seed=5)
        assert trace, "expected a non-empty trace"
        seen = {classify(f) for f in trace}
        assert seen == {label_b, label_c}

    def test_simultaneous_arrivals_in_class_then_draw_order(self, monkeypatch):
        # Every class draws two flows at 0.5 s and one at 1.0 s; classes are
        # listed out of canonical order.
        def arrivals(cp, duration_s, rng):
            src, dst = traffic._ZONE_PAIRS[cp.label.zone_class][0]
            code = ENDPOINTS.index((src, dst, cp.label.app_kind or AppKind.WEB))
            return [0.5, 0.5, 1.0], [1, 2, 3], [code] * 3
        monkeypatch.setattr(traffic, "_class_arrivals", arrivals)
        labels = (C, B_FILE, B_DB)
        fixed = SizeDistribution(family="fixed", size_bytes=1.0)
        trace = generate_trace(TrafficProfile(tuple(ClassProfile(lab, 1.0, fixed)
                                                    for lab in labels)), 2.0, seed=0)
        assert [(f.arrival_time, str(classify(f)), f.size) for f in trace] == [
            (0.5, "B:Database", 1), (0.5, "B:Database", 2), (0.5, "B:File", 1),
            (0.5, "B:File", 2), (0.5, "C", 1), (0.5, "C", 2),
            (1.0, "B:Database", 3), (1.0, "B:File", 3), (1.0, "C", 3)]

    def test_sources_over_the_flow_budget_are_refused_before_drawing(self, monkeypatch):
        # Two sources of 2,500,000 flows/s over 2 s expect 10,000,000 flows,
        # the most a trace may hold; one more flow/s is refused before any
        # source draws.
        drawn = []
        monkeypatch.setattr(traffic, "_class_arrivals",
                            lambda cp, duration_s, rng: drawn.append(cp) or ([], [], []))
        fixed = SizeDistribution(family="fixed", size_bytes=1.0)

        def profile(rate_c):
            return TrafficProfile((ClassProfile(B_FILE, 2_500_000.0, fixed),
                                   ClassProfile(C, rate_c, fixed)))
        assert len(generate_trace(profile(2_500_000.0), 2.0, seed=0)) == 0 and len(drawn) == 2
        with pytest.raises(ValueError, match=r"sources of 5e\+06 flows/s in all over 2 s expect "
                                             r"10,000,002 flows, more than the 10,000,000"):
            generate_trace(profile(2_500_001.0), 2.0, seed=0)
        assert len(drawn) == 2

    def test_a_burst_over_the_flow_budget_is_refused_before_drawing(self, monkeypatch):
        # One flow/s in 1 s bursts with idle gaps of I s bursts at 1 + I
        # flows/s, so one burst over 2 s may expect 2 (1 + I) flows: I =
        # 4,999,999 is the most the budget allows. An idle gap of 1e20 s made
        # the first burst draw without end; it is refused before any source
        # draws, as is one whose on-period rate overflows.
        drawn = []
        monkeypatch.setattr(traffic, "_class_arrivals",
                            lambda cp, duration_s, rng: drawn.append(cp) or ([], [], []))
        fixed = SizeDistribution(family="fixed", size_bytes=1.0)

        def profile(idle_s, burst_s=1.0):
            return TrafficProfile((ClassProfile(B_FILE, 1.0, fixed, burst_s, idle_s),))
        assert len(generate_trace(profile(4_999_999.0), 2.0, seed=0)) == 0 and len(drawn) == 1
        for idle_s, burst_s, rate in ((5_000_000.0, 1.0, "5e+06"), (1e20, 1.0, "1e+20"),
                                      (1e308, 1e-10, "inf")):
            with pytest.raises(ValueError, match=re.escape(
                    f"B:File bursts at {rate} flows/s: one burst over 2 s may expect more than "
                    f"the 10,000,000 flows a trace may hold")):
                generate_trace(profile(idle_s, burst_s), 2.0, seed=0)
        assert len(drawn) == 1

    def test_empirical_rate_converges(self):
        # On/off modulated source: long-run rate should still match.
        profile = single_class_profile(rate=8.0, idle=3.0, burst=5.0)
        trace = generate_trace(profile, 4000.0, seed=9)
        rate = len(trace) / 4000.0
        assert rate == pytest.approx(8.0, rel=0.08)


def mixed_flows():
    """Unsorted flows with scattered ids over three classes."""
    return [
        flow(Zone.PUBLIC_CLOUD, Zone.LOCAL_SERVER, AppKind.FILE, fid=40, t=2.5, size=7),
        flow(Zone.LOCAL_SERVER, Zone.NETWORK_CORE, AppKind.WEB, fid=3, t=0.0, size=1),
        flow(Zone.INTERNET, Zone.INTERNET, AppKind.SERVICE, fid=-8, t=1.25, size=90_000),
        flow(Zone.PRIVATE_CLOUD, Zone.LOCAL_SERVER, AppKind.WEB, fid=11, t=1.25, size=3),
    ]


class TestTrace:
    def test_generated_trace_is_columns(self):
        trace = generate_trace(single_class_profile(rate=5.0), 20.0, seed=1)
        assert isinstance(trace, Trace)
        assert (trace.time.typecode, trace.size.typecode) == ("d", "q")
        assert trace.ids == range(len(trace))
        assert trace.labels == (TrafficClassLabel(ZoneClass.A, AppKind.WEB),)
        assert set(trace.cls) == {0}

    def test_generate_trace_creates_no_flow_event(self, monkeypatch):
        def refuse(self):
            raise AssertionError("generate_trace built a FlowEvent")
        monkeypatch.setattr(FlowEvent, "__post_init__", refuse)
        assert len(generate_trace(single_class_profile(rate=5.0), 20.0, seed=1)) > 50

    def test_labels_are_the_classes_that_drew_flows(self):
        # C's source is too slow to draw a flow in 5 s: no C label, so a run
        # built from the labels gets no C class.
        label_c = TrafficClassLabel(ZoneClass.C)
        profile = TrafficProfile((
            ClassProfile(TrafficClassLabel(ZoneClass.B, AppKind.FILE), 20.0,
                         SizeDistribution(family="fixed", size_bytes=500.0)),
            ClassProfile(label_c, 1e-9, SizeDistribution(family="fixed", size_bytes=500.0)),
            ClassProfile(TrafficClassLabel(ZoneClass.A, AppKind.SERVICE), 20.0,
                         SizeDistribution(family="fixed", size_bytes=500.0)),
        ))
        trace = generate_trace(profile, 5.0, seed=2)
        assert set(trace.labels) == {classify(f) for f in trace}
        assert label_c not in trace.labels
        assert trace.labels == canonical_class_order(trace.labels)
        assert [trace.labels[c] for c in trace.cls] == [classify(f) for f in trace]

    def test_from_flows_keeps_order_ids_and_endpoints(self):
        flows = mixed_flows()
        trace = Trace.from_flows(flows)
        assert list(trace) == flows
        assert trace[0] == flows[0] and trace[-1] == flows[-1]
        assert [str(lab) for lab in trace.labels] == ["A:Web", "B:File", "C"]
        assert [trace.labels[c] for c in trace.cls] == [classify(f) for f in flows]
        assert Trace.from_flows(trace) is trace
        assert Trace.from_flows(flows) == trace
        assert Trace.from_flows(flows[1:]) != trace

    def test_empty(self):
        trace = Trace.from_flows([])
        assert len(trace) == 0 and trace.labels == () and list(trace) == []

    def test_endpoint_table_covers_every_triple_once(self):
        assert len(ENDPOINTS) == len(set(ENDPOINTS)) == len(Zone) ** 2 * len(AppKind)

    @pytest.mark.parametrize("time, size, endpoint, match", [
        ([0.0, 1.0], [5], [0, 0], "differ in length"),
        ([0.0], [0], [0], "flow size must be >= 1 byte, got 0"),
        ([0.5, -1.0], [5, 5], [0, 0], "arrival_time must be finite and >= 0, got -1.0"),
        ([math.nan], [5], [0], "got nan"),
        ([math.inf], [5], [0], "got inf"),
        ([0.0, 1.0], [5, 5], [3, 100], "flow 1 has endpoint code 100, not below 100"),
        ([0.0, 1.0, 2.0], [5, 5, 5], [3, 255, 100], "flow 1 has endpoint code 255,"),
    ])
    def test_constructor_checks_columns(self, time, size, endpoint, match):
        with pytest.raises(ValueError, match=match):
            Trace(array("d", time), array("q", size), array("B", endpoint))


class TestTraceCsv:
    # SHA-256 of trace_csv_bytes for the canned traces. Flow ids and
    # endpoints reach no run directory, so the golden run digests cannot
    # see them; these can.
    @pytest.mark.parametrize("make_cfg, seed, n, sha256", [
        (s1_config, S1_SEED, 51003,
         "de84f025ac376c7d96baaeef7c3ebb0ffe39dd44a5b22298e4209e89dd5f1f32"),
        (s2_congested_config, S2_SEED, 5962,
         "e6c664f2477630f6b7a0cbe1e41ecd04932fb2143a09f6cca931b7771f8eb62e"),
    ])
    def test_canned_trace_csv_digest(self, make_cfg, seed, n, sha256):
        trace = build_trace(make_cfg(seed))
        assert len(trace) == n
        assert hashlib.sha256(trace_csv_bytes(trace)).hexdigest() == sha256


A_DB = TrafficClassLabel(ZoneClass.A, AppKind.DATABASE)
A_WEB = TrafficClassLabel(ZoneClass.A, AppKind.WEB)
A_FILE = TrafficClassLabel(ZoneClass.A, AppKind.FILE)
B_DB = TrafficClassLabel(ZoneClass.B, AppKind.DATABASE)
B_FILE = TrafficClassLabel(ZoneClass.B, AppKind.FILE)
B_SERVICE = TrafficClassLabel(ZoneClass.B, AppKind.SERVICE)
C = TrafficClassLabel(ZoneClass.C)
ALL_LABELS = tuple(TrafficClassLabel(zc, k) for zc in (ZoneClass.A, ZoneClass.B)
                   for k in AppKind) + (C,)


def one_class(label, rate, size_dist, **on_off):
    return TrafficProfile((ClassProfile(label, rate, size_dist, **on_off),))


# The nine-class benchmark workload's traffic: every class of the
# classifier, Poisson at 1.5 flows/s, lognormal sizes, 400 epochs of 0.5 s.
NINE_CLASS = TrafficProfile(tuple(
    ClassProfile(label, 1.5, SizeDistribution(family="lognormal", mean_bytes=20480.0, sigma=0.8))
    for label in ALL_LABELS))

# (profile, duration, seed) per generator path that no canned trace takes:
# each size family (small sizes so that rounding and the clamp at 1 byte
# both occur), Poisson and on/off sources with fixed and exponential
# bursts, a class-C source (random app kind over three zone pairs), and
# nine classes merged.
PINNED_TRACES = {
    "size-fixed": (one_class(A_DB, 40.0, SizeDistribution(family="fixed", size_bytes=2.5)),
                   50.0, 11),
    "size-uniform": (one_class(A_WEB, 40.0, SizeDistribution(family="uniform", low=0.2,
                                                              high=9.7)), 50.0, 12),
    "size-exponential": (one_class(B_FILE, 40.0, SizeDistribution(family="exponential",
                                                                   mean_bytes=3.0)), 50.0, 13),
    "size-lognormal": (one_class(B_SERVICE, 40.0, SizeDistribution(family="lognormal",
                                                                    mean_bytes=3e4,
                                                                    sigma=1.3)), 50.0, 14),
    "burst-fixed": (one_class(A_FILE, 30.0, SizeDistribution(family="lognormal", mean_bytes=2e3,
                                                              sigma=0.5),
                              burst_s=2.0, idle_s=3.0, burst_dist="fixed"), 80.0, 15),
    "burst-exponential": (one_class(B_DB, 30.0, SizeDistribution(family="uniform", low=10.0,
                                                                  high=5e3),
                                    burst_s=1.5, idle_s=0.5), 80.0, 16),
    "class-c": (one_class(C, 30.0, SizeDistribution(family="exponential", mean_bytes=5e3),
                          burst_s=2.0, idle_s=1.0), 80.0, 17),
    "nine-class": (NINE_CLASS, 200.0, 1),
}


class TestPinnedTraces:
    # SHA-256 of trace_csv_bytes per PINNED_TRACES entry, and its flow count.
    PINS = {
        "size-fixed": (2130,
            "1256249b18ec794c061a46ed06e5d10b17d9431f9307d9e03755763c67f39c72"),
        "size-uniform": (2044,
            "1ad76ad73703882b38bdbdb69b919f286ff482a9bdeb2104eb912da8efad4eac"),
        "size-exponential": (2005,
            "22d767cfccf045df59b4f72c10e4e7d630d63e12dfc240f85513cc9fd6722609"),
        "size-lognormal": (2049,
            "f04e527c24fcc1747ff0c58c078e2fa0c0803fa5213f7a8c2c5bd14fea5fc6ba"),
        "burst-fixed": (2681,
            "636a3adbf5e74748fb291e7c47fbf8b73a96a67aa840bcffc35fa1571dcc9c7e"),
        "burst-exponential": (2165,
            "92432e2fac5e6163cf0fbed353eebac76a09a54be3a5f697edae1b65b50a1bb7"),
        "class-c": (3022,
            "8406b4ddd219ce7828954d5bd647944543f8063b6da136d7687a8e7a7bc88f42"),
        "nine-class": (2728,
            "b288323447fb451042e8148bf00043ff35c6f970a23a69f603761d92954c1bb0"),
    }

    @pytest.mark.parametrize("name", sorted(PINNED_TRACES))
    def test_trace_csv_digest(self, name):
        profile, duration, seed = PINNED_TRACES[name]
        trace = generate_trace(profile, duration, seed)
        assert (len(trace), hashlib.sha256(trace_csv_bytes(trace)).hexdigest()) == self.PINS[name]


def reference_size(sd, rng):
    if sd.family == "fixed":
        raw = sd.size_bytes
    elif sd.family == "uniform":
        raw = rng.uniform(sd.low, sd.high)
    elif sd.family == "exponential":
        raw = rng.expovariate(1.0 / sd.mean_bytes)
    else:
        mu = math.log(sd.mean_bytes) - 0.5 * sd.sigma * sd.sigma
        raw = rng.lognormvariate(mu, sd.sigma)
    return max(1, int(round(raw)))


def reference_arrivals(cp, duration_s, rng):
    key = cp.label.sort_key()
    codes = [[ENDPOINTS.index((src, dst, app)) for app in AppKind]
             for src, dst in traffic._ZONE_PAIRS[cp.label.zone_class]]
    fixed_kind = None if cp.label.app_kind is None else list(AppKind).index(cp.label.app_kind)

    def emit(t):
        size = reference_size(cp.size_dist, rng)
        pair = codes[rng.randrange(len(codes))]
        kind = fixed_kind if fixed_kind is not None else rng.randrange(len(AppKind))
        return (t, key, size, pair[kind])

    out = []
    if cp.idle_s == 0:
        t = rng.expovariate(cp.rate_per_s)
        while t < duration_s:
            out.append(emit(t))
            t += rng.expovariate(cp.rate_per_s)
        return out
    on_rate = cp.rate_per_s / (cp.burst_s / (cp.burst_s + cp.idle_s))
    t = 0.0
    on = True
    while t < duration_s:
        if on:
            seg = cp.burst_s if cp.burst_dist == "fixed" else rng.expovariate(1.0 / cp.burst_s)
        else:
            seg = rng.expovariate(1.0 / cp.idle_s)
        seg_end = min(t + seg, duration_s)
        if on:
            tt = t + rng.expovariate(on_rate)
            while tt < seg_end:
                out.append(emit(tt))
                tt += rng.expovariate(on_rate)
        t = seg_end
        on = not on
    return out


def reference_trace(profile, duration_s, seed):
    """The trace generate_trace must give, built only from random.Random's
    public expovariate, lognormvariate, uniform and randrange: the oracle
    for its inlined draws, and so for an interpreter whose random module
    computes them differently."""
    merged = []
    for cp in profile.classes:
        merged.extend(reference_arrivals(cp, duration_s, random.Random(f"{seed}/{cp.label}")))
    merged.sort(key=itemgetter(0, 1))
    return Trace(array("d", [f[0] for f in merged]), array("q", [f[2] for f in merged]),
                 array("B", [f[3] for f in merged]))


size_dists = st.one_of(
    st.builds(lambda v: SizeDistribution(family="fixed", size_bytes=v), st.floats(0.01, 1e6)),
    st.builds(lambda low, width: SizeDistribution(family="uniform", low=low, high=low + width),
              st.floats(0.01, 1e4), st.floats(0.0, 1e5)),
    st.builds(lambda mean: SizeDistribution(family="exponential", mean_bytes=mean),
              st.floats(0.1, 1e6)),
    st.builds(lambda mean, sigma: SizeDistribution(family="lognormal", mean_bytes=mean,
                                                   sigma=sigma),
              st.floats(0.5, 1e6), st.floats(0.05, 2.0)),
)

class_profiles = st.builds(
    ClassProfile,
    label=st.sampled_from(ALL_LABELS),
    rate_per_s=st.floats(0.05, 40.0),
    size_dist=size_dists,
    burst_s=st.floats(0.05, 5.0),
    idle_s=st.one_of(st.just(0.0), st.floats(0.05, 5.0)),
    burst_dist=st.sampled_from(["exponential", "fixed"]),
)


class TestAgainstReference:
    @settings(max_examples=150, deadline=None)
    @given(classes=st.lists(class_profiles, min_size=1, max_size=4,
                            unique_by=lambda cp: cp.label),
           duration=st.floats(0.05, 40.0), seed=st.integers(0, 2**32))
    def test_bit_identical_to_random_methods(self, classes, duration, seed):
        profile = TrafficProfile(tuple(classes))
        got = generate_trace(profile, duration, seed)
        want = reference_trace(profile, duration, seed)
        for col in ("time", "size", "endpoint"):
            assert getattr(got, col).tobytes() == getattr(want, col).tobytes(), col


class TestSizesPastInt64:
    """Sizes are int64s: a fixed size or a uniform high past int64 is
    refused when its distribution is made, and a drawn size past it is a
    ValueError that names its class, not an OverflowError."""

    @pytest.mark.parametrize("family, field, value", [
        ("fixed", "size_bytes", 1e20), ("uniform", "high", 2.0**63)])
    def test_refused_when_made(self, family, field, value):
        args = dict(size_bytes=100.0, low=10.0, high=100.0)
        args[field] = value
        with pytest.raises(ValueError, match=re.escape(
                f"{field} must be at most 9,223,372,036,854,775,807 bytes, got {value:g}")):
            SizeDistribution(family=family, **args)
        args[field] = 2.0**63 - 1024  # the largest double below 2**63
        SizeDistribution(family=family, **args)

    @pytest.mark.parametrize("size", [
        SizeDistribution(family="exponential", mean_bytes=1e19),
        SizeDistribution(family="lognormal", mean_bytes=1e300, sigma=0.8)])
    def test_a_drawn_size_past_int64_names_its_class(self, size):
        profile = TrafficProfile((ClassProfile(B_FILE, 5.0, size),))
        with pytest.raises(ValueError, match=r"^B:File drew a flow size of more than "
                                             r"9,223,372,036,854,775,807 bytes$"):
            generate_trace(profile, 10.0, seed=1)


class TestNonFiniteInputs:
    @pytest.mark.parametrize("duration", [math.nan, math.inf])
    def test_duration_refused_before_any_draw(self, monkeypatch, duration):
        def reached(*args):
            raise AssertionError("the draw loop was reached")
        monkeypatch.setattr(traffic, "_class_arrivals", reached)
        with pytest.raises(ValueError, match="duration_s must be finite and > 0, got"):
            generate_trace(single_class_profile(), duration, seed=1)

    @pytest.mark.parametrize("field", ["rate_per_s", "burst_s", "idle_s"])
    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_class_profile_refuses(self, field, value):
        args = dict(label=A_WEB, rate_per_s=10.0, burst_s=1.0, idle_s=1.0,
                    size_dist=SizeDistribution(family="fixed", size_bytes=100.0))
        args[field] = value
        with pytest.raises(ValueError, match=f"{field} must be finite"):
            ClassProfile(**args)

    @pytest.mark.parametrize("family, field", [
        ("fixed", "size_bytes"), ("uniform", "low"), ("uniform", "high"),
        ("exponential", "mean_bytes"), ("lognormal", "mean_bytes"), ("lognormal", "sigma"),
    ])
    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_size_distribution_refuses(self, family, field, value):
        args = dict(size_bytes=100.0, low=10.0, high=100.0, mean_bytes=100.0, sigma=1.0)
        args[field] = value
        with pytest.raises(ValueError, match=f"{field} must be finite"):
            SizeDistribution(family=family, **args)
