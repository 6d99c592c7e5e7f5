"""Reference per-device cluster simulator: one Python loop per device.

The original scalar implementation of
:func:`repro.runtime.simulate.simulate_cluster`, kept verbatim as a test
oracle.  The shipped function runs the vectorized scenario engine
(:func:`repro.runtime.batch.simulate_scenarios`) with one scenario;
``tests/test_batch_simulate.py`` and ``tests/test_cluster_simulation.py``
assert both agree interval for interval.
"""

from __future__ import annotations

from repro.ir import Program, Stream
from repro.runtime.simulate import GroundTruthCost, SimulationConfig
from repro.runtime.timeline import ClusterTimeline, Interval, Timeline


def simulate_cluster_reference(
    program: Program,
    cost: GroundTruthCost | None = None,
    config: SimulationConfig | None = None,
) -> ClusterTimeline:
    """Simulate one iteration with ``G`` per-device timelines.

    Compute instructions run on each device's compute stream, scaled by
    its straggler factor; a collective starts once every participant
    has arrived, each device's interval lasts its own busy time, and
    outputs become ready -- and comm streams free -- at the common
    completion time.
    """
    if cost is None:
        if config is None:
            raise ValueError("need cost or config")
        cost = GroundTruthCost(config)
    g = cost.config.cluster.num_gpus
    slowdowns = cost.config.device_slowdowns()

    value_ready = [dict() for _ in range(g)]  # type: list[dict[int, float]]
    stream_free = [
        {Stream.COMPUTE: 0.0, Stream.COMM: 0.0} for _ in range(g)
    ]
    intervals: list[list[Interval]] = [[] for _ in range(g)]

    for instr in program.instructions:
        stream = Stream.COMM if instr.is_comm else Stream.COMPUTE
        arrivals = []
        for d in range(g):
            dep_ready = 0.0
            for v in instr.inputs:
                t = value_ready[d].get(v, 0.0)
                if t > dep_ready:
                    dep_ready = t
            arrivals.append(max(stream_free[d][stream], dep_ready))

        if instr.is_comm:
            # collective: wait for all participants, resolve per-device
            # busy times, release everyone at the common completion time
            start = max(arrivals)
            times = cost.collective_device_times(instr, program)
            complete = start + float(times.max())
            for d in range(g):
                end_d = start + float(times[d])
                stream_free[d][stream] = complete
                for o in instr.outputs:
                    value_ready[d][o] = complete
                intervals[d].append(
                    Interval(
                        uid=instr.uid,
                        op=instr.op,
                        kind=instr.kind.value,
                        stream=stream,
                        start=start,
                        end=end_d,
                    )
                )
        else:
            for d in range(g):
                dur = cost.device_duration_ms(instr, program, slowdowns[d])
                end = arrivals[d] + dur
                stream_free[d][stream] = end
                for o in instr.outputs:
                    value_ready[d][o] = end
                intervals[d].append(
                    Interval(
                        uid=instr.uid,
                        op=instr.op,
                        kind=instr.kind.value,
                        stream=stream,
                        start=arrivals[d],
                        end=end,
                    )
                )

    return ClusterTimeline([Timeline(ivs) for ivs in intervals])
