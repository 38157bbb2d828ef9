"""One benchmark child in a fresh interpreter (started by ``run.py``).

    python perf/child.py WORKLOAD SEED default|vectorized|setup TRACED SPAWNED_AT SECONDS ROUNDS

``setup`` stops at the first kernel event and prints its set-up time.
Any other variant imports the simulator once and then runs the workload
in *rounds*: ``ROUNDS`` of them, or (``ROUNDS`` = 0) as many as end
within ``SECONDS`` of host time, at least two.  Every round is a fork of
this process, so each starts from the same heap, the same empty caches
and the same message counters, and none sees what another left behind.
The last line of standard output is ``{"rounds": [...]}``, one object
per round: host times, peak resident set, the outcome digest with the
simulated statistics derived from the outcome, the workload's own output
checks and — in a traced round — the span report and the
metrics-registry snapshot.

**Host times are calibrated.**  The reference host is a few cores of a
shared machine and slows by 10-40% for seconds or minutes at a time, so
a raw wall time says as much about the neighbours as about the
simulator.  While a round runs, a fixed *calibration loop* (~9 ms of
heap, dict and tuple work, the simulator's kind) is timed on the same
core every 0.2 s of host time: ``Simulator.run`` is stepped to its
horizon ``STEP_S[workload]`` simulated seconds at a time and the loop
runs between steps, outside the round's clock; the shard workers run it
between ``Simulator.run_window`` calls (inside the clock: +4%).  The
round's *host speed* is the median loop time over ``CALIBRATION_REF_S``,
what the loop takes on the quiet reference host, and every host time of
the round is reported both raw and divided by it: seconds on the quiet
reference host.  Stepping changes no outcome; the digests are those of
an unstepped run.
"""

from __future__ import annotations

import heapq
import json
import os
import resource
import statistics
import sys
import time
import traceback
from typing import Any, Callable, Dict, List, Tuple

#: time-boxed children make at least this many rounds, so there is a
#: same-seed replay to check and a median to take.
MIN_ROUNDS = 2
#: the calibration loop on the reference host (2 CPUs, Python 3.11.7)
#: with nothing else running: the fastest tenth of 300 samples.
CALIBRATION_REF_S = 0.0085


class SetupDone(Exception):
    """Raised at the first kernel event of a set-up probe."""


def calibration_loop(n: int = 12000) -> int:
    """A fixed piece of interpreter work of the simulator's kind: heap
    pushes and pops, dict stores, small tuples."""
    heap: List[Tuple[int, int]] = []
    table: Dict[int, Tuple[int, int]] = {}
    push, pop = heapq.heappush, heapq.heappop
    x = 12345
    for i in range(n):
        x = (x * 1103515245 + 12345) & 0x7FFFFFFF
        push(heap, (x, i))
        table[x & 4095] = (i, x)
        if i & 1:
            pop(heap)
    return len(heap)


class Calibrator:
    """Times the calibration loop every ``EVERY_S`` of host time, in
    whichever process calls :meth:`tick` (shard workers are forks: they
    inherit this object and the pipe the samples go through)."""

    EVERY_S = 0.2

    def __init__(self) -> None:
        self._read_end, self._write_end = os.pipe()
        self._sampled_at = 0.0
        #: wall and CPU seconds this process has spent calibrating
        self.wall_s = self.cpu_s = 0.0

    def sample(self, times: int = 1) -> None:
        for _ in range(times):
            wall0, cpu0 = time.perf_counter(), time.process_time()
            calibration_loop()
            cpu = time.process_time() - cpu0
            self._sampled_at = time.perf_counter()
            wall = self._sampled_at - wall0
            os.write(self._write_end, f"{wall!r} {cpu!r}\n".encode())
            self.wall_s += wall
            self.cpu_s += cpu

    def tick(self) -> None:
        if time.perf_counter() - self._sampled_at >= self.EVERY_S:
            self.sample()

    def clocks(self) -> Tuple[float, float]:
        """(wall, CPU of this process and of the children it has waited
        for), both without the time this process spent calibrating."""
        children = resource.getrusage(resource.RUSAGE_CHILDREN)
        return (
            time.perf_counter() - self.wall_s,
            time.process_time() + children.ru_utime + children.ru_stime
            - self.cpu_s,
        )

    def host_speed(self) -> Tuple[float, float, int]:
        """(wall speed, CPU speed, samples): median loop time over the
        reference; 1.3 means the host ran 30% slower than the reference
        while the samples were taken.  Call once, when every process
        that sampled has ended."""
        os.close(self._write_end)
        with os.fdopen(self._read_end) as lines:
            samples = [tuple(map(float, line.split())) for line in lines]
        return (
            statistics.median(wall for wall, _cpu in samples) / CALIBRATION_REF_S,
            statistics.median(cpu for _wall, cpu in samples) / CALIBRATION_REF_S,
            len(samples),
        )


def setup_probe(name: str, seed: int, spawned_at: float) -> Dict[str, Any]:
    """Interpreter start to the first kernel event: importing ``repro``,
    building topology and stacks, scheduling traffic."""
    calibrator = Calibrator()
    calibrator.sample(5)

    from repro.sim import Simulator

    from workloads import WORKLOADS

    workload = WORKLOADS[name]

    def stop_at_first_event(sim, *args, **kwargs):
        raise SetupDone

    plain_run, Simulator.run = Simulator.run, stop_at_first_event
    try:
        # The sharded workload builds in its workers: set-up here is the
        # imports alone.
        if workload.in_process:
            workload.run(seed)
    except SetupDone:
        pass
    finally:
        Simulator.run = plain_run
    raw = time.time() - spawned_at - calibrator.wall_s
    calibrator.sample(5)
    speed, _cpu_speed, _samples = calibrator.host_speed()
    return {"setup_s": raw / speed, "setup_raw_s": raw, "host_speed": speed}


def run_round(name: str, seed: int, variant: str, traced: bool) -> Dict[str, Any]:
    from repro.sim import MetricsRegistry, Simulator, use_registry

    from spans import Tracer
    from workloads import STEP_S, WORKLOADS, digest_of

    workload = WORKLOADS[name]
    run = workload.vectorized_run if variant == "vectorized" else workload.run
    step = STEP_S[name]

    calibrator = Calibrator()
    tracer = registry = None
    if traced:
        # Calibration runs between spans: keep it off the tracer's clock.
        tracer = Tracer(clock=lambda: time.perf_counter() - calibrator.wall_s)
        tracer.install()
        registry = MetricsRegistry()

    # The run phase starts at the first kernel event, the first entry
    # into Simulator.run; what comes before is set-up.
    first_event: List[Tuple[float, float]] = []
    plain_run, plain_window = Simulator.run, Simulator.run_window

    def stepped_run(sim, until=None, **kwargs):
        if not first_event:
            first_event.append(calibrator.clocks())
        if until is None or kwargs:
            return plain_run(sim, until, **kwargs)
        horizon = sim.now
        while True:
            horizon = min(until, horizon + step)
            plain_run(sim, horizon)
            calibrator.tick()
            # A run stopped from inside leaves the clock short of its horizon.
            if horizon >= until or sim.now < horizon:
                break

    def calibrated_window(sim, *args, **kwargs):
        calibrator.tick()
        return plain_window(sim, *args, **kwargs)

    Simulator.run, Simulator.run_window = stepped_run, calibrated_window
    calibrator.sample(3)
    called = calibrator.clocks()
    try:
        if traced:
            with use_registry(registry):
                tracer.start()
                result = run(seed)
                tracer.finish()
        else:
            result = run(seed)
        ended = calibrator.clocks()
    finally:
        Simulator.run, Simulator.run_window = plain_run, plain_window
        if tracer is not None:
            tracer.uninstall()
    calibrator.sample(3)
    speed, cpu_speed, samples = calibrator.host_speed()
    # The sharded workload never runs a Simulator in this process: its
    # run phase is the run_sharded call, worker start-up included.
    began = first_event[0] if first_event else called
    wall_raw, cpu_raw = ended[0] - began[0], ended[1] - began[1]

    outcome = result.pop("outcome")
    delivered, offered = result["delivered"], result["offered"]
    result.update(
        workload=name, seed=seed, variant=variant, traced=traced,
        wall_s=wall_raw / speed, wall_raw_s=wall_raw,
        cpu_s=cpu_raw / cpu_speed, cpu_raw_s=cpu_raw,
        host_speed=speed, calibration_samples=samples,
        outcome_digest=digest_of(outcome),
        delivery_ratio=delivered / offered if offered else None,
        peak_rss_mb=max(
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
            resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
        ) / 1024,
        trace=tracer.report() if tracer is not None else None,
        counters=registry.snapshot() if registry is not None else None,
    )
    result["checks"]["delivery_ratio_above_0"] = delivered > 0
    return result


def in_fork(func: Callable[[], Dict[str, Any]]) -> Dict[str, Any]:
    """``func()`` as computed by a fork of this process, which has ended
    (and has been waited for) when this returns."""
    read_end, write_end = os.pipe()
    pid = os.fork()
    if pid == 0:
        status = 1
        try:
            os.close(read_end)
            with os.fdopen(write_end, "w") as out:
                json.dump(func(), out)
            status = 0
        except BaseException:
            # Not re-raised: the fork must not unwind into the code of the
            # process it was copied from.  It reports and exits non-zero.
            traceback.print_exc()
        finally:
            os._exit(status)
    os.close(write_end)
    with os.fdopen(read_end) as inp:
        payload = inp.read()
    _, status = os.waitpid(pid, 0)
    if status != 0:
        raise RuntimeError(f"round exited with status {status}")
    return json.loads(payload)


def main(argv) -> int:
    started = time.perf_counter()
    name, seed, variant, traced, spawned_at, seconds, rounds = argv
    seed, traced, spawned_at = int(seed), traced == "1", float(spawned_at)
    seconds, rounds = float(seconds), int(rounds)

    if variant == "setup":
        print(json.dumps(setup_probe(name, seed, spawned_at)))
        return 0

    import spans        # noqa: F401  (loaded once, before the forks)
    import workloads    # noqa: F401  (imports every layer of repro)

    done: List[Dict[str, Any]] = []
    longest = 0.0
    while True:
        began = time.perf_counter()
        done.append(in_fork(lambda: run_round(name, seed, variant, traced)))
        now = time.perf_counter()
        longest = max(longest, now - began)
        if rounds:
            if len(done) >= rounds:
                break
        elif len(done) >= MIN_ROUNDS and now - started + longest > seconds:
            break
    print(json.dumps({"rounds": done}))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
