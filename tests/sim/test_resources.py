"""Unit tests for the service-center resources (FCFS, PS, delay)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim.engine import Simulator
from repro.sim.errors import ResourceError
from repro.sim.process import Hold
from repro.sim.resources import DelayStation, FCFSServer, PSServer
from tests.sim.paths import run_both


def run_jobs(sim, server, arrivals):
    """Launch jobs as (arrival_time, demand, tag); collect completions."""
    done = []

    def job(delay, demand, tag):
        if delay > 0:
            yield Hold(delay)
        yield server.service(demand)
        done.append((tag, sim.now))

    for delay, demand, tag in arrivals:
        sim.launch(job(delay, demand, tag))
    sim.run()
    return done


class TestFCFSSingle:
    def test_single_job_takes_demand(self):
        sim = Simulator()
        server = FCFSServer(sim, servers=1)
        done = run_jobs(sim, server, [(0.0, 3.0, "a")])
        assert done == [("a", 3.0)]

    def test_jobs_served_in_order(self):
        sim = Simulator()
        server = FCFSServer(sim, servers=1)
        done = run_jobs(
            sim, server, [(0.0, 2.0, "a"), (0.5, 2.0, "b"), (1.0, 2.0, "c")]
        )
        assert done == [("a", 2.0), ("b", 4.0), ("c", 6.0)]

    def test_short_job_does_not_preempt(self):
        # FCFS: a tiny job behind a big one still waits.
        sim = Simulator()
        server = FCFSServer(sim, servers=1)
        done = run_jobs(sim, server, [(0.0, 10.0, "big"), (1.0, 0.1, "small")])
        assert done == [("big", 10.0), ("small", 10.1)]

    def test_waiting_time_recorded(self):
        sim = Simulator()
        server = FCFSServer(sim, servers=1)
        done = run_jobs(sim, server, [(0.0, 2.0, "a"), (0.0, 2.0, "b")])
        # a waits 0 and leaves at 2; b waits 2 and leaves at 4.
        assert done == [("a", 2.0), ("b", 4.0)]
        assert server.completions == 2
        # Little's law: mean response = population integral / completions.
        assert server.population.integral / server.completions == pytest.approx(3.0)

    def test_utilization(self):
        sim = Simulator()
        server = FCFSServer(sim, servers=1)

        def job():
            yield server.service(3.0)

        sim.launch(job())
        sim.run(until=6.0)
        assert server.utilization() == pytest.approx(0.5)

    def test_completions_counted(self):
        sim = Simulator()
        server = FCFSServer(sim, servers=1)
        run_jobs(sim, server, [(0.0, 1.0, "a"), (0.0, 1.0, "b")])
        assert server.completions == 2

    def test_zero_demand_completes_immediately(self):
        sim = Simulator()
        server = FCFSServer(sim, servers=1)
        done = run_jobs(sim, server, [(1.0, 0.0, "a")])
        assert done == [("a", 1.0)]

    def test_invalid_demand_rejected(self):
        sim = Simulator()
        server = FCFSServer(sim, servers=1)
        with pytest.raises(ResourceError):
            server.service(-1.0)
        with pytest.raises(ResourceError):
            server.service(float("nan"))

    def test_invalid_server_count_rejected(self):
        sim = Simulator()
        with pytest.raises(ResourceError):
            FCFSServer(sim, servers=0)


class TestFCFSMultiServer:
    def test_two_servers_run_in_parallel(self):
        sim = Simulator()
        server = FCFSServer(sim, servers=2)
        done = run_jobs(sim, server, [(0.0, 4.0, "a"), (0.0, 4.0, "b")])
        assert done == [("a", 4.0), ("b", 4.0)]

    def test_third_job_waits_for_first_free_server(self):
        sim = Simulator()
        server = FCFSServer(sim, servers=2)
        done = run_jobs(
            sim, server, [(0.0, 4.0, "a"), (0.0, 2.0, "b"), (0.0, 3.0, "c")]
        )
        # b frees a server at 2; c runs 2..5.
        assert ("b", 2.0) in done
        assert ("c", 5.0) in done

    def test_queue_depth_and_busy(self):
        sim = Simulator()
        server = FCFSServer(sim, servers=2)

        def job(demand):
            yield server.service(demand)

        for _ in range(4):
            sim.launch(job(10.0))
        sim.run(until=1.0)
        assert server.busy_servers == 2
        assert server.queue_depth == 2

    def test_multiserver_utilization_normalized(self):
        sim = Simulator()
        server = FCFSServer(sim, servers=2)
        run_jobs(sim, server, [(0.0, 4.0, "a"), (0.0, 4.0, "b")])
        # Both servers busy the whole 4 units: utilization 1.0 per server.
        assert server.utilization() == pytest.approx(1.0)


class TestPSServer:
    def test_single_job_takes_demand(self):
        sim = Simulator()
        cpu = PSServer(sim)
        done = run_jobs(sim, cpu, [(0.0, 3.0, "a")])
        assert done == [("a", 3.0)]

    def test_two_equal_jobs_share_equally(self):
        # Two jobs of demand 2 arriving together: each sees rate 1/2, both
        # finish at t=4.
        sim = Simulator()
        cpu = PSServer(sim)
        done = run_jobs(sim, cpu, [(0.0, 2.0, "a"), (0.0, 2.0, "b")])
        assert [t for _, t in done] == pytest.approx([4.0, 4.0])

    def test_staggered_arrivals_exact_times(self):
        # A (demand 2) at t=0; B (demand 2) at t=1.  A has 1 unit left at
        # t=1, then shares: A done at t=3; B then runs alone, done at t=4.
        sim = Simulator()
        cpu = PSServer(sim)
        done = run_jobs(sim, cpu, [(0.0, 2.0, "a"), (1.0, 2.0, "b")])
        assert done == [("a", pytest.approx(3.0)), ("b", pytest.approx(4.0))]

    def test_short_job_overtakes_long_job(self):
        # PS lets a short job finish before an earlier long one.
        sim = Simulator()
        cpu = PSServer(sim)
        done = run_jobs(sim, cpu, [(0.0, 10.0, "long"), (1.0, 1.0, "short")])
        names = [n for n, _ in done]
        assert names == ["short", "long"]
        # short: enters at 1 with demand 1 at rate 1/2 -> done at 3.
        assert done[0][1] == pytest.approx(3.0)
        # long: 1 unit before t=1, 1 unit shared during [1,3], rest alone.
        assert done[1][1] == pytest.approx(11.0)

    def test_work_conservation(self):
        # Total busy time equals total demand when the server never idles.
        sim = Simulator()
        cpu = PSServer(sim)
        demands = [1.0, 2.0, 3.0]
        run_jobs(sim, cpu, [(0.0, d, str(i)) for i, d in enumerate(demands)])
        assert sim.now == pytest.approx(sum(demands))

    def test_busy_indicator(self):
        sim = Simulator()
        cpu = PSServer(sim)

        def job():
            yield Hold(1.0)
            yield cpu.service(2.0)

        sim.launch(job())
        sim.run(until=4.0)
        # Busy during [1, 3] out of [0, 4].
        assert cpu.utilization() == pytest.approx(0.5)

    def test_population_average(self):
        sim = Simulator()
        cpu = PSServer(sim)
        run_jobs(sim, cpu, [(0.0, 2.0, "a"), (0.0, 2.0, "b")])
        # 2 jobs present during the whole run.
        assert cpu.population.time_average == pytest.approx(2.0)

    def test_many_jobs_all_finish(self):
        sim = Simulator()
        cpu = PSServer(sim)
        done = run_jobs(
            sim, cpu, [(i * 0.1, 1.0 + (i % 3), str(i)) for i in range(50)]
        )
        assert len(done) == 50
        assert cpu.job_count == 0


class TestDelayStation:
    def test_no_queueing(self):
        sim = Simulator()
        delay = DelayStation(sim)
        done = run_jobs(
            sim, delay, [(0.0, 5.0, "a"), (0.0, 5.0, "b"), (0.0, 5.0, "c")]
        )
        assert [t for _, t in done] == pytest.approx([5.0, 5.0, 5.0])

    def test_response_equals_demand(self):
        sim = Simulator()
        delay = DelayStation(sim)
        done = run_jobs(sim, delay, [(0.0, 3.0, "a")])
        assert done == [("a", 3.0)]
        assert delay.population.integral / delay.completions == pytest.approx(3.0)


class TestStatisticsReset:
    def test_reset_truncates_everything(self):
        sim = Simulator()
        server = FCFSServer(sim, servers=1)
        run_jobs(sim, server, [(0.0, 2.0, "a")])
        server.reset_statistics()
        assert server.completions == 0
        assert server.population.time_average == 0.0


class TestTailResume:
    """Stations resume their process in place only when the resume is
    provably the next event; the hop and in-place runs must agree."""

    @staticmethod
    def _jobs(make_station, arrivals):
        def build(sim, log):
            station = make_station(sim)

            def job(delay, demand, tag):
                if delay > 0:
                    yield Hold(delay)
                yield station.service(demand)
                log.append((tag, sim.now))

            for delay, demand, tag in arrivals:
                sim.launch(job(delay, demand, tag))
            return lambda: (
                station.completions,
                station.population.integral,
                station.busy.integral,
            )

        return build

    def test_fcfs_zero_demand_successor_forces_the_hop(self):
        # a's completion at t=1 starts b, whose completion is due at t=1
        # too; b's completion then finds a's resume event still pending.
        build = self._jobs(FCFSServer, [(0.0, 1.0, "a"), (0.0, 0.0, "b")])
        hop, fast = run_both(build)
        assert fast.log == [("a", 1.0), ("b", 1.0)]
        assert (fast.in_place, fast.refused) == (0, 2)

    def test_two_server_fcfs_simultaneous_finishes(self):
        build = self._jobs(
            lambda sim: FCFSServer(sim, servers=2),
            [(0.0, 2.0, "a"), (0.0, 2.0, "b"), (0.0, 1.0, "c")],
        )
        hop, fast = run_both(build)
        assert fast.log == [("a", 2.0), ("b", 2.0), ("c", 3.0)]
        assert (fast.in_place, fast.refused) == (1, 2)

    def test_ps_equal_finishes_force_the_hop(self):
        # Both finish at t=4: the first completion reschedules the second
        # at delay 0, so its resume must hop behind it, and the second's
        # resume behind the first's.
        build = self._jobs(PSServer, [(0.0, 2.0, "a"), (0.0, 2.0, "b")])
        hop, fast = run_both(build)
        assert fast.log == [("a", 4.0), ("b", 4.0)]
        assert (fast.in_place, fast.refused) == (0, 2)

    def test_delay_station_resumes_in_place(self):
        build = self._jobs(DelayStation, [(0.0, 3.0, "a"), (1.0, 3.0, "b")])
        hop, fast = run_both(build)
        assert fast.log == [("a", 3.0), ("b", 4.0)]
        assert (fast.in_place, fast.refused) == (2, 0)

    @pytest.mark.parametrize(
        "priority, expected",
        [
            (-1, [("abort", 2, 3.0)]),  # nobody completes
            # a completes first; its resume event queues behind the abort.
            (0, [("abort", 1, 3.0), ("a", 3.0)]),
            # a's resume (priority 0) runs before the abort (priority 1).
            (1, [("a", 3.0), ("abort", 1, 3.0)]),
        ],
    )
    def test_ps_abort_all_at_the_completion_instant(self, priority, expected):
        # a (1.5) and b (9.0) share the CPU: a finishes at t=3.0, exactly
        # when the station is aborted.
        def scenario(sim, log):
            cpu = PSServer(sim)
            read_out = self._jobs(
                lambda _sim: cpu, [(0.0, 1.5, "a"), (0.0, 9.0, "b")]
            )(sim, log)

            def abort():
                log.append(("abort", cpu.abort_all(), sim.now))

            sim.schedule(0.0, lambda: sim.schedule(3.0, abort, priority=priority))
            return read_out

        hop, fast = run_both(scenario)
        assert fast.log == expected
        assert fast.in_place == 0


STATION_KINDS = ("hold", "fcfs1", "fcfs2", "ps", "delay")


@settings(deadline=None, max_examples=60)
@given(
    st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=3),
            st.lists(
                st.tuples(
                    st.sampled_from(STATION_KINDS), st.integers(min_value=0, max_value=3)
                ),
                min_size=1,
                max_size=5,
            ),
        ),
        min_size=1,
        max_size=8,
    )
)
def test_in_place_and_hop_runs_are_indistinguishable(processes):
    """Integer demands force ties at every station kind; the traced run
    (always hops) and the untraced run (in place where provable) agree on
    completion order, monitor integrals, events fired and the final seq."""

    def build(sim, log):
        stations = {
            "fcfs1": FCFSServer(sim, name="fcfs1"),
            "fcfs2": FCFSServer(sim, name="fcfs2", servers=2),
            "ps": PSServer(sim, name="ps"),
            "delay": DelayStation(sim, name="delay"),
        }

        def process(index, start, steps):
            if start:
                yield Hold(float(start))
            for number, (kind, demand) in enumerate(steps):
                if kind == "hold":
                    yield Hold(float(demand))
                else:
                    yield stations[kind].service(float(demand))
                log.append((index, number, sim.now))

        for index, (start, steps) in enumerate(processes):
            sim.launch(process(index, start, steps))
        return lambda: [
            (
                station.completions,
                station.population.integral,
                station.busy.integral,
            )
            for station in stations.values()
        ]

    hop, fast = run_both(build)
    assert len(fast.log) == sum(len(steps) for _, steps in processes)
