"""Unit tests for repro.sim.future."""

import pytest

from repro.errors import Interrupted, SimulationError
from repro.sim.future import Future


class TestFuture:
    def test_starts_pending(self):
        fut = Future("f")
        assert not fut.resolved

    def test_resolve_sets_value(self):
        fut = Future()
        fut.resolve(42)
        assert fut.resolved
        assert fut.value == 42

    def test_resolve_default_value_is_none(self):
        fut = Future()
        fut.resolve()
        assert fut.value is None

    def test_value_before_resolve_raises(self):
        fut = Future("pending")
        with pytest.raises(SimulationError):
            _ = fut.value

    def test_double_resolve_raises(self):
        fut = Future()
        fut.resolve(1)
        with pytest.raises(SimulationError):
            fut.resolve(2)

    def test_fail_then_value_reraises(self):
        fut = Future()
        fut.fail(ValueError("boom"))
        assert fut.resolved
        with pytest.raises(ValueError, match="boom"):
            _ = fut.value

    def test_fail_after_resolve_raises(self):
        fut = Future()
        fut.resolve(1)
        with pytest.raises(SimulationError):
            fut.fail(ValueError())

    def test_resolve_if_pending(self):
        fut = Future()
        assert fut.resolve_if_pending(1)
        assert not fut.resolve_if_pending(2)
        assert fut.value == 1

    def test_fail_if_pending(self):
        fut = Future()
        assert fut.fail_if_pending(ValueError())
        assert not fut.fail_if_pending(KeyError())
        assert isinstance(fut.exception, ValueError)

    def test_interrupt_pending(self):
        fut = Future()
        assert fut.interrupt("crash")
        assert isinstance(fut.exception, Interrupted)

    def test_interrupt_settled_is_noop(self):
        fut = Future()
        fut.resolve(7)
        assert not fut.interrupt()
        assert fut.value == 7

    def test_callback_after_resolve_runs_immediately(self):
        fut = Future()
        fut.resolve(5)
        seen = []
        fut.add_callback(lambda f: seen.append(f.value))
        assert seen == [5]

    def test_callbacks_run_in_registration_order(self):
        fut = Future()
        order = []
        fut.add_callback(lambda f: order.append("a"))
        fut.add_callback(lambda f: order.append("b"))
        fut.resolve()
        assert order == ["a", "b"]

    def test_callback_on_failure(self):
        fut = Future()
        seen = []
        fut.add_callback(lambda f: seen.append(f.exception))
        fut.fail(KeyError("k"))
        assert isinstance(seen[0], KeyError)
