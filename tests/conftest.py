import pytest

from hcqsim.netsim import LinkSimulator


@pytest.fixture
def core_calls(monkeypatch):
    """The names of the event core's _busy_period and _handle_arrival calls,
    in order, made by any LinkSimulator while the test runs."""
    calls = []
    for name in ("_busy_period", "_handle_arrival"):
        def counted(self, *args, _method=getattr(LinkSimulator, name), _name=name):
            calls.append(_name)
            return _method(self, *args)
        monkeypatch.setattr(LinkSimulator, name, counted)
    return calls
