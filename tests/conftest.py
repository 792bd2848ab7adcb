import pytest
from hypothesis import Phase, settings

from hcqsim.netsim import LinkSimulator

# For mutation checks, run as `pytest --hypothesis-profile=mutation`: a
# mutant fails many properties, and shrinking every failure before it is
# reported can make the suite take ten times as long. This profile skips
# the shrink phase (and the explain phase, which follows it); the default
# profile is unchanged.
settings.register_profile("mutation", phases=[Phase.explicit, Phase.reuse, Phase.generate,
                                              Phase.target])


@pytest.fixture
def core_calls(monkeypatch):
    """The names of the event core's _run_epoch calls, one per epoch it
    runs, made by any LinkSimulator while the test runs."""
    calls = []

    def counted(self, _method=LinkSimulator._run_epoch):
        calls.append("_run_epoch")
        return _method(self)

    monkeypatch.setattr(LinkSimulator, "_run_epoch", counted)
    return calls
