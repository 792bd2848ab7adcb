import pytest

from hcqsim.netsim import LinkSimulator


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
