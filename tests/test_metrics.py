import csv
import math
import random

import numpy as np
import pytest
from hypothesis import given, strategies as st

from hcqsim.metrics import (
    REPORT_CSV_HEADER,
    Histogram,
    build_histogram,
    compare_modes,
    export_report,
    fmt,
    quantiles_nearest_rank,
    report_rows,
    variance_two_pass,
    write_report_csv,
)
from hcqsim.netsim import FeedbackMode, LinkSpec, run_simulation
from hcqsim.traffic import (
    AppKind,
    ClassProfile,
    SizeDistribution,
    TrafficClassLabel,
    TrafficProfile,
    ZoneClass,
    generate_trace,
)


def read_report_csv(path):
    """{metric: (open, closed, delta)} from a report CSV."""
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == REPORT_CSV_HEADER
    return {name: (float(o), float(c), float(d)) for name, o, c, d in rows[1:]}


def variance_streaming(values):
    """Welford's online variance: the independent oracle."""
    n = 0
    mean = 0.0
    m2 = 0.0
    for v in values:
        n += 1
        d = v - mean
        mean += d / n
        m2 += d * (v - mean)
    return m2 / n if n else 0.0


class TestHistogram:
    def test_hand_count_half_open(self):
        h = build_histogram([0.1, 0.5, 0.9], [0.0, 0.5, 1.0])
        assert h.counts == (1, 2)  # 0.5 belongs to the second bin

    def test_final_bin_closed(self):
        h = build_histogram([1.0], [0.0, 0.5, 1.0])
        assert h.counts == (0, 1)
        assert h.overflow == 0

    def test_empty_samples(self):
        h = build_histogram([], [0.0, 0.5, 1.0])
        assert h.counts == (0, 0)
        assert h.total() == 0

    def test_out_of_range_tracked(self):
        h = build_histogram([-0.1, 0.2, 1.5], [0.0, 1.0])
        assert h.underflow == 1
        assert h.overflow == 1
        assert h.counts == (1,)
        assert h.total() == 3

    def test_non_monotone_edges_rejected(self):
        with pytest.raises(ValueError):
            build_histogram([0.5], [0.0, 0.0, 1.0])
        with pytest.raises(ValueError):
            Histogram(edges=(1.0,), counts=())

    def test_uniform_binomial_bound(self):
        # 1e5 uniform samples over 10 equal bins: each count within 4 sigma
        # of 1e4 (sigma = sqrt(1e5 * 0.1 * 0.9) ~ 95).
        rng = random.Random("hist/binomial")
        samples = [rng.random() for _ in range(100_000)]
        h = build_histogram(samples, [i / 10 for i in range(11)])
        sigma = math.sqrt(100_000 * 0.1 * 0.9)
        for count in h.counts:
            assert abs(count - 10_000) <= 4 * sigma

    @given(
        st.lists(st.floats(min_value=-2.0, max_value=3.0, allow_nan=False), max_size=300),
        st.integers(min_value=2, max_value=12),
    )
    def test_totals_always_reconcile(self, samples, nbins):
        edges = [i / nbins for i in range(nbins + 1)]
        h = build_histogram(samples, edges)
        assert h.total() == len(samples)
        assert all(c >= 0 for c in h.counts)


class TestQuantilesAndVariance:
    def test_nearest_rank_quantiles(self):
        vals = [1.0, 2.0, 3.0, 4.0]
        assert quantiles_nearest_rank(vals, (0.50,)) == (2.0,)
        assert quantiles_nearest_rank(vals, (0.95,)) == (4.0,)
        p50, p95 = quantiles_nearest_rank([], (0.5, 0.95))
        assert math.isnan(p50) and math.isnan(p95)

    def test_many_ranks_from_one_sorted_copy(self):
        # Each rank is the ceil(p * n)-th smallest value (the first at p = 0),
        # whatever the order the values come in; the input is left as it was.
        vals = [float(v) for v in range(1, 101)]
        random.Random("ranks").shuffle(vals)
        given_order = list(vals)
        ps = (0.0, 0.01, 0.015, 0.5, 0.95, 0.99, 1.0)
        assert quantiles_nearest_rank(vals, ps) == (1.0, 1.0, 2.0, 50.0, 95.0, 99.0, 100.0)
        assert vals == given_order
        assert quantiles_nearest_rank([7.0], ps) == (7.0,) * len(ps)
        assert quantiles_nearest_rank([3.0, 1.0, 2.0], ()) == ()

    def test_two_pass_matches_streaming_oracle(self):
        rng = random.Random("var/oracle")
        for _ in range(20):
            vals = [rng.uniform(0, 2) for _ in range(rng.randint(1, 500))]
            got = variance_two_pass(vals)
            want = variance_streaming(vals)
            assert got == pytest.approx(want, rel=1e-9, abs=1e-12)


def tiny_profile():
    return TrafficProfile((
        ClassProfile(TrafficClassLabel(ZoneClass.A, AppKind.WEB), 15.0,
                     SizeDistribution(family="lognormal", mean_bytes=4e4, sigma=0.8),
                     burst_s=2.0, idle_s=2.0),
    ))


def small_run(scenario_id="m", seed=3, n_epochs=40):
    link = LinkSpec(capacity_bps=8e6, queue_capacity_bytes=10**6)
    trace = generate_trace(tiny_profile(), float(n_epochs), seed)
    return run_simulation(trace, link, FeedbackMode.OPEN, scenario_id=scenario_id,
                          n_epochs=n_epochs)


class TestCompare:
    def test_identical_runs_zero_deltas(self):
        a = small_run()
        b = small_run()
        rep = compare_modes(a, b)
        assert rep.drop_fraction_delta == 0.0
        assert rep.util_variance_delta == 0.0
        assert rep.tail_mass_delta == 0.0

    def test_antisymmetric_deltas(self):
        a = small_run(seed=3)
        b = small_run(seed=4)
        ab = compare_modes(a, b)
        ba = compare_modes(b, a)
        assert ab.drop_fraction_delta == -ba.drop_fraction_delta
        assert ab.util_variance_delta == -ba.util_variance_delta
        assert ab.tail_mass_delta == -ba.tail_mass_delta

    def test_scenario_mismatch_rejected(self):
        a = small_run(scenario_id="x")
        b = small_run(scenario_id="y")
        with pytest.raises(ValueError):
            compare_modes(a, b)


class TestExport:
    @pytest.mark.parametrize("x, text", [
        (math.nan, "nan"), (-math.nan, "nan"), (np.float64("nan"), "nan"),
        (np.float32("nan"), "nan"), (math.inf, "inf"), (-math.inf, "-inf"),
        (-0.0, "-0"), (3, "3"), (np.float64(0.1), "0.1"), (1 / 3, "0.333333333")])
    def test_fmt_is_nine_significant_digits(self, x, text):
        # Every NaN prints "nan", whatever its sign or type.
        assert fmt(x) == "%.9g" % x == text

    def make_report(self):
        return compare_modes(small_run(seed=3), small_run(seed=4))

    def test_export_files_and_determinism(self, tmp_path):
        rep = self.make_report()
        d1 = tmp_path / "a"
        d2 = tmp_path / "b"
        p1 = export_report(rep, d1)
        p2 = export_report(rep, d2)
        assert [p.split("/")[-1] for p in p1] == ["report.csv", "histogram.csv", "hist.svg"]
        for a, b in zip(p1, p2):
            assert open(a, "rb").read() == open(b, "rb").read()

    def test_report_csv_round_trip(self, tmp_path):
        rep = self.make_report()
        path = tmp_path / "report.csv"
        write_report_csv(rep, path)
        parsed = read_report_csv(path)
        for name, o, c, d in report_rows(rep):
            po, pc, pd = parsed[name]
            # lossless at the documented 9-significant-digit precision
            assert fmt(po) == fmt(o)
            assert fmt(pc) == fmt(c)
            assert fmt(pd) == fmt(d)

    def test_empty_report_header_only(self, tmp_path):
        link = LinkSpec(capacity_bps=8e6, queue_capacity_bytes=10**6)
        a = run_simulation([], link, FeedbackMode.OPEN, classes=[
            TrafficClassLabel(ZoneClass.A, AppKind.WEB)], n_epochs=1, scenario_id="e")
        b = run_simulation([], link, FeedbackMode.OPEN, classes=[
            TrafficClassLabel(ZoneClass.A, AppKind.WEB)], n_epochs=1, scenario_id="e")
        rep = compare_modes(a, b)
        path = tmp_path / "empty.csv"
        write_report_csv(rep, path)
        parsed = read_report_csv(path)
        assert parsed["drop_fraction"] == (0.0, 0.0, 0.0)

    def test_svg_is_static_and_deterministic(self):
        rep = self.make_report()
        from hcqsim.metrics import render_histogram_svg

        svg1 = render_histogram_svg(rep)
        svg2 = render_histogram_svg(rep)
        assert svg1 == svg2
        assert svg1.startswith("<svg")
        assert "<script" not in svg1
