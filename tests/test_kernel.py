"""Tests for the stratified event-queue kernel."""

import pytest

from repro.sim.kernel import (
    Delay,
    Finish,
    SimulationError,
    Simulator,
    WaitChange,
)
from repro.sim.runtime import Design, Edge, Process, Sensitivity, Signal
from repro.sim.values import Logic


def make_design():
    return Design(name="t")


class TestScheduling:
    def test_delay_advances_time(self):
        design = make_design()
        seen = []

        def factory(sim):
            def body():
                seen.append(sim.time)
                yield Delay(10)
                seen.append(sim.time)

            return body()

        design.add_process(Process("p", factory))
        Simulator(design).run()
        assert seen == [0, 10]

    def test_processes_start_at_time_zero(self):
        design = make_design()
        order = []
        for name in ("a", "b"):
            def factory(sim, name=name):
                def body():
                    order.append(name)
                    return
                    yield

                return body()

            design.add_process(Process(name, factory))
        Simulator(design).run()
        assert sorted(order) == ["a", "b"]

    def test_finish_stops_other_processes(self):
        design = make_design()
        late = []

        def finisher(sim):
            def body():
                yield Delay(5)
                yield Finish()

            return body()

        def lagger(sim):
            def body():
                yield Delay(100)
                late.append(sim.time)

            return body()

        design.add_process(Process("f", finisher))
        design.add_process(Process("l", lagger))
        stats = Simulator(design).run()
        assert stats.finished_cleanly
        assert stats.end_time == 5
        assert late == []

    def test_max_time_bounds_run(self):
        design = make_design()

        def clock(sim):
            def body():
                while True:
                    yield Delay(5)

            return body()

        design.add_process(Process("clk", clock))
        stats = Simulator(design, max_time=50).run()
        assert stats.end_time <= 50


class TestSignals:
    def test_write_wakes_waiter(self):
        design = make_design()
        signal = design.new_signal("s", 1)
        woken = []

        def waiter(sim):
            def body():
                yield WaitChange.on(signal)
                woken.append(sim.time)

            return body()

        def driver(sim):
            def body():
                yield Delay(7)
                sim.write_signal(signal, Logic.from_int(1, 1))

            return body()

        design.add_process(Process("w", waiter))
        design.add_process(Process("d", driver))
        Simulator(design).run()
        assert woken == [7]

    def test_same_value_write_does_not_wake(self):
        design = make_design()
        signal = design.new_signal("s", 1, Logic.from_int(0, 1))
        woken = []

        def waiter(sim):
            def body():
                yield WaitChange.on(signal)
                woken.append(sim.time)

            return body()

        def driver(sim):
            def body():
                yield Delay(3)
                sim.write_signal(signal, Logic.from_int(0, 1))

            return body()

        design.add_process(Process("w", waiter))
        design.add_process(Process("d", driver))
        Simulator(design).run()
        assert woken == []

    def test_posedge_filter(self):
        design = make_design()
        clk = design.new_signal("clk", 1, Logic.from_int(0, 1))
        edges = []

        def waiter(sim):
            def body():
                while True:
                    yield WaitChange((Sensitivity(clk, Edge.POS),))
                    edges.append(sim.time)

            return body()

        def driver(sim):
            def body():
                for value in (1, 0, 1, 0):
                    yield Delay(5)
                    sim.write_signal(clk, Logic.from_int(value, 1))

            return body()

        design.add_process(Process("w", waiter))
        design.add_process(Process("d", driver))
        Simulator(design).run()
        assert edges == [5, 15]  # only rising edges

    def test_nba_commits_after_active_region(self):
        design = make_design()
        a = design.new_signal("a", 4, Logic.from_int(1, 4))
        b = design.new_signal("b", 4, Logic.from_int(2, 4))
        observed = {}

        def swapper(sim):
            def body():
                # classic NBA swap: both reads see pre-update values
                sim.schedule_nba(a, b.value)
                sim.schedule_nba(b, a.value)
                yield Delay(1)
                observed["a"] = a.value.to_int()
                observed["b"] = b.value.to_int()

            return body()

        design.add_process(Process("s", swapper))
        Simulator(design).run()
        assert observed == {"a": 2, "b": 1}

    def test_nba_update_read_modify_write(self):
        design = make_design()
        v = design.new_signal("v", 4, Logic.from_int(0, 4))

        def writer(sim):
            def body():
                sim.schedule_nba_update(
                    v, lambda old: old.set_slice(0, 0, Logic.from_int(1, 1))
                )
                sim.schedule_nba_update(
                    v, lambda old: old.set_slice(3, 3, Logic.from_int(1, 1))
                )
                yield Delay(1)

            return body()

        design.add_process(Process("w", writer))
        Simulator(design).run()
        assert v.value.to_int() == 0b1001

    def test_schedule_write_fires_later(self):
        design = make_design()
        s = design.new_signal("s", 1, Logic.from_int(0, 1))
        at = {}

        def proc(sim):
            def body():
                sim.schedule_write(s, Logic.from_int(1, 1), 25)
                yield Delay(10)
                at["mid"] = s.value.to_int()
                yield Delay(20)
                at["end"] = s.value.to_int()

            return body()

        design.add_process(Process("p", proc))
        Simulator(design).run()
        assert at == {"mid": 0, "end": 1}


class TestGuards:
    def test_delta_limit_detects_oscillation(self):
        design = make_design()
        s = design.new_signal("s", 1, Logic.from_int(0, 1))

        def oscillator(sim):
            def body():
                while True:
                    sim.write_signal(s, ~s.value)
                    yield WaitChange.on(s)

            return body()

        def kicker(sim):
            def body():
                sim.write_signal(s, Logic.from_int(1, 1))
                return
                yield

            return body()

        # two oscillators feeding each other in zero time
        design.add_process(Process("o1", oscillator))
        design.add_process(Process("o2", oscillator))
        design.add_process(Process("k", kicker))
        with pytest.raises(SimulationError, match="step activation limit"):
            Simulator(design).run()

    def test_custom_step_activation_limit(self):
        """The ctor parameter shadows the class default per instance."""
        design = make_design()
        s = design.new_signal("s", 1, Logic.from_int(0, 1))

        def oscillator(sim):
            def body():
                while True:
                    sim.write_signal(s, ~s.value)
                    yield WaitChange.on(s)

            return body()

        def kicker(sim):
            def body():
                sim.write_signal(s, Logic.from_int(1, 1))
                return
                yield

            return body()

        design.add_process(Process("o1", oscillator))
        design.add_process(Process("o2", oscillator))
        design.add_process(Process("k", kicker))
        simulator = Simulator(design, step_activation_limit=500)
        with pytest.raises(
            SimulationError, match=r"step activation limit \(500\)"
        ):
            simulator.run()
        # the tightened limit caught the loop well before the default would
        assert simulator.stats.process_activations < 2_000
        # instance tuning must not leak into the class default
        assert Simulator.STEP_ACTIVATION_LIMIT == 100_000

    def test_empty_wait_marks_process_done(self):
        design = make_design()

        def body_factory(sim):
            def body():
                yield WaitChange(())

            return body()

        process = Process("p", body_factory)
        design.add_process(process)
        Simulator(design).run()
        assert process.done

    def test_negative_delay_rejected(self):
        design = make_design()

        def proc(sim):
            def body():
                yield Delay(-1)

            return body()

        design.add_process(Process("p", proc))
        with pytest.raises(SimulationError, match="negative delay"):
            Simulator(design).run()

    def test_display_collects_output(self):
        design = make_design()

        def proc(sim):
            def body():
                sim.display("hello")
                return
                yield

            return body()

        design.add_process(Process("p", proc))
        simulator = Simulator(design)
        simulator.run()
        assert simulator.output == ["hello"]


class TestDesignContainer:
    def test_duplicate_signal_rejected(self):
        design = make_design()
        design.new_signal("s", 1)
        with pytest.raises(ValueError, match="duplicate"):
            design.new_signal("s", 1)

    def test_signal_lookup_error_lists_names(self):
        design = make_design()
        design.new_signal("a", 1)
        with pytest.raises(KeyError, match="known"):
            design.signal("missing")


def monitor(signal, seen, edge=Edge.ANY):
    """A process that logs ``(time, bit string)`` on every matching change."""

    def factory(sim):
        def body():
            while True:
                yield WaitChange((Sensitivity(signal, edge),))
                seen.append((sim.time, signal.value.to_bit_string()))

        return body()

    return Process("monitor", factory)


def driver(signal, writes):
    """A process that performs ``(delay, value)`` blocking writes in order."""

    def factory(sim):
        def body():
            for delay, value in writes:
                yield Delay(delay)
                sim.write_signal(signal, value)

        return body()

    return Process("driver", factory)


class TestValueChanges:
    """Every value change reaches the processes that wait on the signal."""

    def test_monitor_sees_every_change_in_time_order(self):
        design = make_design()
        s = design.new_signal("s", 1, Logic.from_int(0, 1))
        seen = []
        design.add_process(monitor(s, seen))
        design.add_process(driver(s, [
            (5, Logic.from_int(1, 1)),
            (7, Logic.from_int(0, 1)),
            (8, Logic.from_int(0, 1)),  # same value: no change
            (1, Logic.from_int(1, 1)),
        ]))
        Simulator(design).run()
        assert seen == [(5, "1"), (12, "0"), (21, "1")]

    def test_vector_changes_carry_the_written_value(self):
        design = make_design()
        v = design.new_signal("v", 4, Logic.from_int(0, 4))
        seen = []
        design.add_process(monitor(v, seen))
        design.add_process(driver(v, [
            (2, Logic.from_int(3, 4)),
            (2, Logic.from_string("1x01")),
        ]))
        Simulator(design).run()
        assert seen == [(2, "0011"), (4, "1x01")]

    def test_signal_without_initial_value_is_unknown(self):
        design = make_design()
        s = design.new_signal("s", 3)
        assert s.value == Logic.unknown(3)
        assert s.value.to_bit_string() == "xxx"

    def test_first_write_over_unknown_wakes_waiter(self):
        design = make_design()
        s = design.new_signal("s", 1)
        seen = []
        design.add_process(monitor(s, seen))
        design.add_process(driver(s, [(2, Logic.from_int(0, 1))]))
        Simulator(design).run()
        assert seen == [(2, "0")]

    def test_unknown_over_known_wakes_waiter(self):
        design = make_design()
        s = design.new_signal("s", 1, Logic.from_int(1, 1))
        seen = []
        design.add_process(monitor(s, seen))
        design.add_process(driver(s, [(4, Logic.unknown(1))]))
        Simulator(design).run()
        assert seen == [(4, "x")]

    def test_rewriting_unknown_does_not_wake(self):
        design = make_design()
        s = design.new_signal("s", 2)
        seen = []
        design.add_process(monitor(s, seen))
        design.add_process(driver(s, [(3, Logic.unknown(2))]))
        Simulator(design).run()
        assert seen == []

    def test_wide_write_is_truncated_to_signal_width(self):
        design = make_design()
        s = design.new_signal("s", 4, Logic.from_int(0, 4))
        seen = []
        design.add_process(monitor(s, seen))
        design.add_process(driver(s, [(1, Logic.from_int(0x3A, 8))]))
        Simulator(design).run()
        assert s.value.width == 4
        assert seen == [(1, "1010")]

    def test_narrow_write_is_zero_extended(self):
        design = make_design()
        s = design.new_signal("s", 4, Logic.from_int(0, 4))
        design.add_process(driver(s, [(1, Logic.from_int(1, 1))]))
        Simulator(design).run()
        assert s.value == Logic.from_int(1, 4)

    def test_truncation_to_the_current_value_does_not_wake(self):
        design = make_design()
        s = design.new_signal("s", 4, Logic.from_int(0xF, 4))
        seen = []
        design.add_process(monitor(s, seen))
        design.add_process(driver(s, [(1, Logic.from_int(0x1F, 5))]))
        Simulator(design).run()
        assert seen == []

    def test_negedge_filter(self):
        design = make_design()
        clk = design.new_signal("clk", 1, Logic.from_int(0, 1))
        seen = []
        design.add_process(monitor(clk, seen, Edge.NEG))
        design.add_process(driver(clk, [
            (5, Logic.from_int(value, 1)) for value in (1, 0, 1, 0)
        ]))
        Simulator(design).run()
        assert seen == [(10, "0"), (20, "0")]  # only falling edges

    def test_write_wakes_every_waiter(self):
        design = make_design()
        s = design.new_signal("s", 1, Logic.from_int(0, 1))
        first, second = [], []
        design.add_process(monitor(s, first))
        design.add_process(monitor(s, second))
        design.add_process(driver(s, [(7, Logic.from_int(1, 1))]))
        Simulator(design).run()
        assert first == second == [(7, "1")]

    def test_write_without_waiters_updates_the_value(self):
        design = make_design()
        s = design.new_signal("s", 2, Logic.from_int(0, 2))
        simulator = Simulator(design)
        simulator.write_signal(s, Logic.from_int(2, 2))
        assert s.value == Logic.from_int(2, 2)
        assert s.waiters == {}
