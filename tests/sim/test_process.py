"""Unit tests for the process layer (generators driven by the kernel)."""

import pytest

from repro.sim.engine import Simulator
from repro.sim.errors import ProcessError
from repro.sim.process import Hold, Passivate, ProcessState, WaitFor
from repro.sim.resources import DelayStation, FCFSServer
from repro.telemetry.events import TraceMessage
from tests.sim.paths import run_both


class TestHold:
    def test_sequential_holds(self):
        sim = Simulator()
        times = []

        def proc():
            for _ in range(3):
                yield Hold(1.5)
                times.append(sim.now)

        sim.launch(proc())
        sim.run()
        assert times == [1.5, 3.0, 4.5]

    def test_zero_hold_keeps_time(self):
        sim = Simulator()
        times = []

        def proc():
            yield Hold(0.0)
            times.append(sim.now)

        sim.launch(proc())
        sim.run()
        assert times == [0.0]

    def test_negative_hold_raises(self):
        sim = Simulator()

        def proc():
            yield Hold(-1.0)

        sim.launch(proc())
        with pytest.raises(Exception):
            sim.run()


class TestPassivate:
    def test_reactivate_delivers_value(self):
        sim = Simulator()
        got = []

        def sleeper():
            value = yield Passivate()
            got.append((sim.now, value))

        process = sim.launch(sleeper())
        sim.schedule(3.0, lambda: process.reactivate("wake"))
        sim.run()
        assert got == [(3.0, "wake")]

    def test_reactivate_with_delay(self):
        sim = Simulator()
        got = []

        def sleeper():
            yield Passivate()
            got.append(sim.now)

        process = sim.launch(sleeper())
        sim.schedule(1.0, lambda: process.reactivate(delay=2.0))
        sim.run()
        assert got == [3.0]

    def test_reactivate_non_passive_raises(self):
        sim = Simulator()

        def proc():
            yield Hold(10.0)

        process = sim.launch(proc())
        sim.run(until=1.0)
        with pytest.raises(ProcessError):
            process.reactivate()

    def test_state_is_passive_while_sleeping(self):
        sim = Simulator()

        def sleeper():
            yield Passivate()

        process = sim.launch(sleeper())
        sim.run(until=1.0)
        assert process.state is ProcessState.PASSIVE


class TestWaitFor:
    def test_resume_via_callback(self):
        sim = Simulator()
        got = []
        resumers = []

        def proc():
            value = yield WaitFor(resumers.append)
            got.append((sim.now, value))

        sim.launch(proc())
        sim.run(until=1.0)
        assert len(resumers) == 1
        sim.schedule(4.0, lambda: resumers[0]("done"))
        sim.run()
        assert got == [(5.0, "done")]

    def test_immediate_resume(self):
        sim = Simulator()
        got = []

        def proc():
            value = yield WaitFor(lambda resume: resume(42))
            got.append(value)

        sim.launch(proc())
        sim.run()
        assert got == [42]


class TestComposition:
    def test_yield_from_subbehaviour(self):
        sim = Simulator()
        log = []

        def step(name, duration):
            yield Hold(duration)
            log.append((name, sim.now))

        def proc():
            yield from step("a", 1.0)
            yield from step("b", 2.0)

        sim.launch(proc())
        sim.run()
        assert log == [("a", 1.0), ("b", 3.0)]

    def test_return_value_captured(self):
        sim = Simulator()

        def proc():
            yield Hold(1.0)
            return "result"

        process = sim.launch(proc())
        sim.run()
        assert process.terminated
        assert process.result == "result"

    def test_on_terminate_callback(self):
        sim = Simulator()
        seen = []

        def proc():
            yield Hold(1.0)

        process = sim.launch(proc())
        process.on_terminate(lambda p: seen.append(p.name))
        sim.run()
        assert seen == [process.name]

    def test_on_terminate_after_finish_fires_immediately(self):
        sim = Simulator()

        def proc():
            yield Hold(1.0)

        process = sim.launch(proc())
        sim.run()
        seen = []
        process.on_terminate(lambda p: seen.append(True))
        assert seen == [True]


class TestErrors:
    def test_yielding_non_command_raises(self):
        sim = Simulator()

        def proc():
            yield 42

        sim.launch(proc())
        with pytest.raises(ProcessError):
            sim.run()

    def test_activate_twice_raises(self):
        sim = Simulator()

        def proc():
            yield Hold(1.0)

        process = sim.launch(proc())
        with pytest.raises(ProcessError):
            process.activate()

    def test_interrupt_delivers_exception(self):
        sim = Simulator()
        caught = []

        def proc():
            try:
                yield Hold(100.0)
            except RuntimeError as exc:
                caught.append((sim.now, str(exc)))

        process = sim.launch(proc())
        sim.schedule(2.0, lambda: process.interrupt(RuntimeError("preempted")))
        sim.run()
        assert caught == [(2.0, "preempted")]

    def test_interrupt_terminated_raises(self):
        sim = Simulator()

        def proc():
            yield Hold(1.0)

        process = sim.launch(proc())
        sim.run()
        with pytest.raises(ProcessError):
            process.interrupt(RuntimeError("too late"))

    def test_uncaught_process_exception_propagates(self):
        sim = Simulator()

        def proc():
            yield Hold(1.0)
            raise ValueError("model bug")

        sim.launch(proc())
        with pytest.raises(ValueError, match="model bug"):
            sim.run()


class TestTailResume:
    """A station's completion resumes its process in place only when the
    resume event would provably be the next pop; every other case hops."""

    @staticmethod
    def _one_service(priority=None, at=1.0):
        """One job of demand 1.0 at an FCFS disk, plus an optional marker
        event at time *at* scheduled after the service started."""

        def build(sim, log):
            disk = FCFSServer(sim, name="disk")

            def job():
                yield disk.service(1.0)
                log.append(("resumed", sim.now))
                yield Hold(1.0)
                log.append(("held", sim.now))

            sim.launch(job(), name="job")
            if priority is not None:
                sim.schedule(
                    0.0,
                    lambda: sim.schedule(
                        at, lambda: log.append(("marker", sim.now)), priority=priority
                    ),
                )

        return build

    def test_untied_completion_resumes_in_place(self):
        hop, fast = run_both(self._one_service())
        assert fast.log == [("resumed", 1.0), ("held", 2.0)]
        assert (fast.in_place, fast.refused) == (1, 0)
        # activate, completion, resume, hold: the in-place resume counts.
        assert fast.events_fired == hop.events_fired == 4

    @pytest.mark.parametrize(
        "priority, order",
        [
            (-1, ["marker", "resumed"]),  # fires before the completion
            (0, ["marker", "resumed"]),  # pending at the completion: hop
            (1, ["resumed", "marker"]),  # pending at the completion: hop
        ],
    )
    def test_completion_tied_with_a_pending_event_hops(self, priority, order):
        hop, fast = run_both(self._one_service(priority))
        assert [tag for tag, _ in fast.log if tag != "held"] == order
        if priority < 0:
            assert (fast.in_place, fast.refused) == (1, 0)
        else:
            assert (fast.in_place, fast.refused) == (0, 1)

    def test_step_fires_exactly_one_queue_event_per_call(self):
        def stepping(sim):
            while True:
                before = sim.events_fired
                if not sim.step():
                    return
                assert sim.events_fired == before + 1

        for build in (self._one_service(), self._one_service(priority=1, at=5.0)):
            hop, fast = run_both(build, drive=stepping)
            assert fast.claims == []
            assert fast.log[:2] == [("resumed", 1.0), ("held", 2.0)]

    def test_bounded_run_fires_exactly_max_events(self):
        build = self._one_service()

        def bounded(sim):
            for expected in range(1, 5):
                sim.run(max_events=1)
                assert sim.events_fired == expected

        hop, fast = run_both(build, drive=bounded)
        assert fast.claims == []
        assert fast.log == [("resumed", 1.0), ("held", 2.0)]

    def test_step_inside_a_fast_loop_callback_hops(self):
        def build(sim, log):
            disk = FCFSServer(sim, name="disk")

            def job():
                yield disk.service(1.0)
                log.append(("resumed", sim.now))

            def nested_step():
                before = sim.events_fired
                sim.step()  # pops the completion at t=1.0
                log.append(("stepped", sim.events_fired - before, sim.now))

            sim.launch(job())
            sim.schedule(0.5, nested_step)

        hop, fast = run_both(build)
        assert fast.log == [("stepped", 1, 1.0), ("resumed", 1.0)]
        assert fast.claims == []

    def test_trace_subscription_made_in_a_completion_callback_sees_the_resume(self):
        sim = Simulator()
        labels = []

        class SubscribingStation(DelayStation):
            def _complete(self, process):
                sim.bus.subscribe(TraceMessage, lambda message: labels.append(message.label))
                super()._complete(process)

        station = SubscribingStation(sim, name="station")

        def job():
            yield station.service(1.0)
            yield Hold(1.0)

        sim.launch(job(), name="job")
        sim.run()
        # The resume after the service hops, so the new subscriber sees it.
        assert labels == ["job:resume", "job:resume"]

    def test_exception_in_resumed_generator_propagates_and_counts(self):
        def build(sim, log):
            disk = FCFSServer(sim, name="disk")

            def job():
                yield disk.service(1.0)
                log.append(("resumed", sim.now))
                raise ValueError("model bug")

            sim.launch(job())

        def drive(sim):
            with pytest.raises(ValueError, match="model bug"):
                sim.run()

        hop, fast = run_both(build, drive=drive)
        assert fast.log == [("resumed", 1.0)]
        assert fast.in_place == 1
        assert fast.events_fired == 3  # activate, completion, resume

    @pytest.mark.parametrize(
        "priority, expected, refused",
        [
            # The crash fires first: the completion event is cancelled.
            (-1, [("crash", 1, 1.0)], 0),
            # The completion fires first but its resume event is still
            # pending when the crash interrupts: the resume never runs.
            (0, [("crash", 0, 1.0)], 1),
            # The resume (priority 0) beats the crash (priority 1).
            (1, [("resumed", 1.0), ("crash", 0, 1.0)], 1),
        ],
    )
    def test_crash_at_the_completion_instant(self, priority, expected, refused):
        """The fault injector's teardown (abort the station, then
        interrupt the victim) at the instant a service completes."""

        def build(sim, log):
            disk = FCFSServer(sim, name="disk")

            def job():
                try:
                    yield disk.service(1.0)
                    log.append(("resumed", sim.now))
                    yield Hold(3.0)
                    log.append(("held", sim.now))
                except RuntimeError as exc:
                    log.append(("interrupted", str(exc), sim.now))

            victim = sim.launch(job())

            def crash():
                log.append(("crash", disk.abort_all(), sim.now))
                if not victim.terminated:
                    victim.interrupt(RuntimeError("site down"))

            sim.schedule(0.0, lambda: sim.schedule(1.0, crash, priority=priority))
            return lambda: (disk.completions, disk.population.integral)

        hop, fast = run_both(build)
        assert fast.log == expected + [("interrupted", "site down", 1.0)]
        assert (fast.in_place, fast.refused) == (0, refused)
