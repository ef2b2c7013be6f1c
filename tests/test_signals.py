"""Unit tests for signals, resolved signals, ports, clock and FIFO."""

import pytest

from repro.datatypes import LogicVector
from repro.kernel import MultipleDriverError, SimTime, Simulator
from repro.kernel.errors import BindingError
from repro.signals import (CachingInPort, Clock, DataMode, Fifo, InOutPort,
                           InPort, ManualClock, OutPort, ResolvedSignal,
                           Signal, UnresolvedSignal, make_signal,
                           signal_value_to_int)


class TestSignal:
    def test_write_not_visible_until_update(self):
        sim = Simulator()
        sig = Signal(sim, "s", 0)
        observed = []

        def writer():
            sig.write(42)
            observed.append(sig.read())   # still old value
            yield SimTime.ns(1)
            observed.append(sig.read())   # committed

        sim.spawn_thread("writer", writer)
        sim.run(SimTime.ns(2))
        assert observed == [0, 42]

    def test_change_event_fires_only_on_change(self):
        sim = Simulator()
        sig = Signal(sim, "s", 3)
        changes = []
        sim.spawn_method("watch", lambda: changes.append(sig.value),
                         sensitive=[sig.default_event()],
                         dont_initialize=True)

        def writer():
            sig.write(3)
            yield SimTime.ns(1)
            sig.write(4)
            yield SimTime.ns(1)
            sig.write(4)

        sim.spawn_thread("writer", writer)
        sim.run(SimTime.ns(5))
        assert changes == [4]
        assert sig.change_count == 1

    def test_posedge_negedge_events(self):
        sim = Simulator()
        sig = Signal(sim, "flag", False)
        edges = []
        sim.spawn_method("pos", lambda: edges.append("pos"),
                         sensitive=[sig.posedge_event()],
                         dont_initialize=True)
        sim.spawn_method("neg", lambda: edges.append("neg"),
                         sensitive=[sig.negedge_event()],
                         dont_initialize=True)

        def driver():
            sig.write(True)
            yield SimTime.ns(1)
            sig.write(False)

        sim.spawn_thread("driver", driver)
        sim.run(SimTime.ns(5))
        assert edges == ["pos", "neg"]

    def test_force_bypasses_update_phase(self):
        sim = Simulator()
        sig = Signal(sim, "s", 0)
        sig.force(9)
        assert sig.value == 9

    def test_read_and_write_counters(self):
        sim = Simulator()
        sig = Signal(sim, "s", 0)
        sig.write(1)
        sig.read()
        sig.read()
        assert sig.write_count == 1
        assert sig.read_count == 2


class TestUnresolvedSignal:
    def test_single_driver_ok(self):
        sim = Simulator()
        sig = UnresolvedSignal(sim, "s", 0)

        def driver():
            sig.write(5)

        sim.spawn_method("driver", driver)
        sim.run()
        assert sig.value == 5

    def test_two_drivers_same_delta_detected(self):
        sim = Simulator()
        sig = UnresolvedSignal(sim, "s", 0)
        sim.spawn_method("a", lambda: sig.write(1))
        sim.spawn_method("b", lambda: sig.write(2))
        with pytest.raises(MultipleDriverError):
            sim.run()

    def test_native_signal_does_not_detect_conflict(self):
        # The exact drawback the paper accepts when switching to native types.
        sim = Simulator()
        sig = Signal(sim, "s", 0)
        sim.spawn_method("a", lambda: sig.write(1))
        sim.spawn_method("b", lambda: sig.write(2))
        sim.run()
        assert sig.value in (1, 2)


class TestResolvedSignal:
    def test_undriven_is_all_z(self):
        sim = Simulator()
        sig = ResolvedSignal(sim, "bus", width=4)
        assert sig.value.to_string() == "ZZZZ"

    def test_single_driver_resolution(self):
        sim = Simulator()
        sig = ResolvedSignal(sim, "bus", width=8)

        def driver():
            sig.write(0xA5)

        sim.spawn_method("driver", driver)
        sim.run()
        assert sig.read_int() == 0xA5

    def test_two_driver_conflict_produces_x(self):
        sim = Simulator()
        sig = ResolvedSignal(sim, "bus", width=2)
        sim.spawn_method("a", lambda: sig.write(0b01, driver="a"))
        sim.spawn_method("b", lambda: sig.write(0b00, driver="b"))
        sim.run()
        assert sig.value.to_string() == "0X"

    def test_release_removes_driver(self):
        sim = Simulator()
        sig = ResolvedSignal(sim, "bus", width=4)

        def sequence():
            sig.write(0xF, driver="tb")
            yield SimTime.ns(1)
            sig.release(driver="tb")
            yield SimTime.ns(1)

        sim.spawn_thread("tb", sequence)
        sim.run(SimTime.ns(5))
        assert sig.value.to_string() == "ZZZZ"
        assert sig.driver_count == 0

    def test_width_mismatch_rejected(self):
        sim = Simulator()
        sig = ResolvedSignal(sim, "bus", width=4)
        with pytest.raises(ValueError):
            sig.write(LogicVector(8, 1), driver="x")

    def test_initial_value(self):
        sim = Simulator()
        sig = ResolvedSignal(sim, "bus", width=4, initial=0b1010)
        assert sig.value.to_int() == 0b1010


class TestMakeSignal:
    def test_native_mode(self):
        sim = Simulator()
        sig = make_signal(sim, "s", 32, DataMode.NATIVE, initial=7)
        assert isinstance(sig, Signal)
        assert sig.value == 7

    def test_resolved_mode(self):
        sim = Simulator()
        sig = make_signal(sim, "s", 8, DataMode.RESOLVED, initial=7)
        assert isinstance(sig, ResolvedSignal)
        assert sig.value.to_int() == 7

    def test_signal_value_to_int(self):
        assert signal_value_to_int(5) == 5
        assert signal_value_to_int(LogicVector(4, 9)) == 9


class TestPorts:
    def test_unbound_port_raises(self):
        port = InPort("p")
        with pytest.raises(BindingError):
            port.read()

    def test_rebinding_rejected(self):
        sim = Simulator()
        a = Signal(sim, "a", 0)
        b = Signal(sim, "b", 0)
        port = InPort("p")
        port.bind(a)
        with pytest.raises(BindingError):
            port.bind(b)

    def test_binding_same_channel_twice_is_idempotent(self):
        sim = Simulator()
        a = Signal(sim, "a", 0)
        port = InPort("p")
        port.bind(a)
        port.bind(a)
        assert port.bound

    def test_call_syntax_binds(self):
        sim = Simulator()
        sig = Signal(sim, "s", 1)
        port = InPort("p")
        port(sig)
        assert port.read() == 1

    def test_out_port_write_through(self):
        sim = Simulator()
        sig = Signal(sim, "s", 0)
        port = OutPort("p")
        port.bind(sig)

        def driver():
            port.write(11)

        sim.spawn_method("driver", driver)
        sim.run()
        assert sig.value == 11

    def test_out_port_drives_resolved_signal_per_port(self):
        sim = Simulator()
        bus = ResolvedSignal(sim, "bus", width=4)
        port_a = OutPort("a")
        port_b = OutPort("b")
        port_a.bind(bus)
        port_b.bind(bus)

        def drive():
            port_a.write(0b1100)
            port_b.write(LogicVector(4, "ZZ11"))

        sim.spawn_method("drive", drive)
        sim.run()
        assert bus.value.to_string() == "11XX"  # low bits: 0 vs 1 -> X

    def test_channel_error_propagates_once(self):
        """A TypeError raised by the channel itself is not retried: the
        write happens (and is counted) exactly once."""
        sim = Simulator()
        bus = ResolvedSignal(sim, "bus", width=8)
        port = OutPort("p")
        port.bind(bus)
        with pytest.raises(TypeError):
            port.write(object())
        assert bus.write_count == 1
        assert port.write_count == 1

    def test_native_signal_write_raises_nothing(self):
        """Writes to a driverless channel call it once, without a driver."""
        calls = []

        class Channel:
            def write(self, value):
                calls.append(value)

        port = OutPort("p")
        port.bind(Channel())
        port.write(3)
        port.write(4)
        assert calls == [3, 4]

    def test_inout_port_reads_and_writes(self):
        sim = Simulator()
        sig = Signal(sim, "s", 5)
        port = InOutPort("io")
        port.bind(sig)
        assert port.read() == 5

    def test_port_read_counter(self):
        sim = Simulator()
        sig = Signal(sim, "s", 0)
        port = InPort("p")
        port.bind(sig)
        port.read()
        port.read()
        assert port.read_count == 2
        assert sig.read_count == 2

    def test_caching_port_reduces_underlying_reads(self):
        sim = Simulator()
        sig = Signal(sim, "s", 3)
        port = CachingInPort("p")
        port.bind(sig)

        def reader():
            for __ in range(4):
                port.read()
            yield SimTime.ns(1)
            for __ in range(4):
                port.read()

        sim.spawn_thread("reader", reader)
        sim.run(SimTime.ns(2))
        assert port.read_count == 8
        assert port.underlying_reads <= 2


class TestClock:
    def test_posedge_count(self):
        sim = Simulator()
        clock = Clock(sim, "clk", SimTime.ns(10))
        sim.run(SimTime.ns(100))
        assert clock.posedge_count == 10
        assert clock.cycles == 10

    def test_duty_cycle_validation(self):
        sim = Simulator()
        with pytest.raises(ValueError):
            Clock(sim, "clk", SimTime.ns(10), duty_cycle=1.5)

    def test_short_period_rejected(self):
        sim = Simulator()
        with pytest.raises(ValueError):
            Clock(sim, "clk", 1)

    def test_stop_ends_edges(self):
        sim = Simulator()
        clock = Clock(sim, "clk", SimTime.ns(10))
        sim.run(SimTime.ns(50))
        clock.stop()
        sim.run(SimTime.ns(50))
        assert clock.posedge_count == 5

    def test_sensitivity_to_posedge(self):
        sim = Simulator()
        clock = Clock(sim, "clk", SimTime.ns(10))
        count = []
        sim.spawn_method("count", lambda: count.append(sim.time_ps),
                         sensitive=[clock.posedge_event()],
                         dont_initialize=True)
        sim.run(SimTime.ns(35))
        assert count == [10_000, 20_000, 30_000]

    def test_manual_clock(self):
        sim = Simulator()
        clock = ManualClock(sim, "clk")
        seen = []
        sim.spawn_method("watch", lambda: seen.append(True),
                         sensitive=[clock.posedge_event()],
                         dont_initialize=True)
        sim.run()  # initialize
        clock.tick()
        sim.run()
        clock.tick()
        sim.run()
        assert len(seen) == 2
        assert clock.cycles == 2


class TestFifo:
    def test_write_then_read(self):
        sim = Simulator()
        fifo = Fifo(sim, "f", depth=2)
        assert fifo.nb_write("a")
        assert fifo.nb_write("b")
        assert not fifo.nb_write("c")
        assert fifo.full
        assert fifo.nb_read() == "a"
        assert fifo.nb_read() == "b"
        assert fifo.nb_read() is None
        assert fifo.empty

    def test_peek_does_not_consume(self):
        sim = Simulator()
        fifo = Fifo(sim, "f")
        fifo.nb_write(1)
        assert fifo.peek() == 1
        assert fifo.size == 1

    def test_drain(self):
        sim = Simulator()
        fifo = Fifo(sim, "f")
        for i in range(5):
            fifo.nb_write(i)
        assert fifo.drain() == [0, 1, 2, 3, 4]
        assert fifo.empty

    def test_invalid_depth(self):
        sim = Simulator()
        with pytest.raises(ValueError):
            Fifo(sim, "f", depth=0)

    def test_data_written_event_wakes_reader(self):
        sim = Simulator()
        fifo = Fifo(sim, "f")
        received = []

        def reader():
            while len(received) < 3:
                item = fifo.nb_read()
                if item is None:
                    yield fifo.data_written_event()
                else:
                    received.append(item)

        def writer():
            for ch in "xyz":
                yield SimTime.ns(5)
                fifo.nb_write(ch)

        sim.spawn_thread("reader", reader)
        sim.spawn_thread("writer", writer)
        sim.run(SimTime.ns(100))
        assert received == ["x", "y", "z"]

    def test_counters(self):
        sim = Simulator()
        fifo = Fifo(sim, "f")
        fifo.nb_write(1)
        fifo.nb_write(2)
        fifo.nb_read()
        assert fifo.total_written == 2
        assert fifo.total_read == 1
        assert fifo.free == fifo.depth - 1
