import pytest

import spans


def _busy(n):
    x = 0
    for i in range(n):
        x += i % 3
    return x


def test_self_time_adds_up_on_a_synthetic_nested_call():
    tracer = spans.Tracer()

    def leaf():
        return _busy(20000)

    def middle():
        _busy(20000)
        return tracer.call("leaf", leaf) + tracer.call("leaf", leaf)

    def top():
        _busy(20000)
        return tracer.call("middle", middle)

    tracer.call("root", top)
    summary = tracer.summary()
    name, start, end, parent, _ = tracer.spans[0]
    assert (name, parent) == ("root", -1)
    assert summary["job_s"] == end - start
    assert sum(summary["self_s"].values()) == pytest.approx(end - start, rel=1e-9)
    assert summary["calls"] == {"root": 1, "middle": 1, "leaf": 2}
    assert all(v > 0 for v in summary["self_s"].values())
    assert tracer.nested_calls("leaf", "middle") == 2
    assert tracer.nested_calls("middle", "leaf") == 0


def test_install_wraps_every_namespace_and_uninstall_restores():
    from semifd import cli, funcalg, linrep

    original = linrep.operator_norm
    tracer = spans.Tracer()
    tracer.install()
    try:
        assert cli.operator_norm is funcalg.operator_norm is linrep.operator_norm
        assert linrep.operator_norm.__wrapped__ is original
    finally:
        tracer.uninstall()
    assert cli.operator_norm is funcalg.operator_norm is linrep.operator_norm is original
    assert tracer.missing == []


def test_missing_boundary_is_reported_not_fatal(monkeypatch):
    monkeypatch.setitem(spans.BOUNDARIES, "fake.gone", ["semifd.linrep:no_such_function"])
    tracer = spans.Tracer()
    tracer.install()
    tracer.uninstall()
    assert tracer.missing == ["semifd.linrep:no_such_function"]
