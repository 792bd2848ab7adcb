"""The benchmark's calls into hcqsim still work.

perfbench/ builds its workloads from hcqsim's public functions; a change
that breaks one of those calls fails here rather than only in a benchmark
run. The benchmark code itself is imported as it stands.
"""

import sys
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
sys.path.insert(0, str(PERFBENCH))

import checks  # noqa: E402
import workloads  # noqa: E402


def test_every_workload_sets_up():
    for work in workloads.WORKLOADS.values():
        assert work.setup(0)


def test_one_s2_operation_passes_its_checks(tmp_path):
    work = workloads.WORKLOADS["s2-hybrid-db"]
    pairs = [p for p in work.setup(0) if p[0] == 0]
    rr = work.run_round(pairs, str(tmp_path / "run"), None, lambda seconds: 1.0)
    assert (rr.attempted, rr.failed) == (1, 0)
    assert len(rr.experiments) == 2
    assert checks.check_round("s2-hybrid-db", rr, str(tmp_path)) == []
