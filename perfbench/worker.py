"""One pass of one workload in a fresh interpreter.

Usage: python3 perfbench/worker.py WORKLOAD SEED MODE

MODE is ``setup`` (import and build the inputs, then stop), ``timed``
(run every item once with no instrumentation) or ``traced`` (the same
with the wrappers of ``tracer`` installed).  The pass prints one JSON
object on its last line of standard output.  Outputs are checked after
the timed loop, with tracing switched off, so checks cost no measured
time and add no counts.

Set-up and, in timed passes, every item are also given in reference
seconds (``speed``): set-up from speed samples taken just before and
after it, items from samples taken while they run.  Traced passes take
no samples, so the samples add nothing to the per-layer times.
"""

from __future__ import annotations

import json
import resource
import sys
import traceback
from time import perf_counter

import speed

SETUP_SAMPLES = 5


def main(argv) -> int:
    workload_name, seed, mode = argv[1], int(argv[2]), argv[3]
    probe = speed.Probe()
    probe.burst(SETUP_SAMPLES)
    start = perf_counter()

    import workloads  # imports the library: part of set-up

    wl = workloads.WORKLOADS[workload_name]
    tracer = None
    if mode == "traced":
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
        tracer.enabled = True
    items = wl.build(seed)
    setup_s = perf_counter() - start
    probe.burst(SETUP_SAMPLES)
    result = {"setup_s": setup_s, "setup_ref_s": setup_s * speed.REFERENCE_S / probe.median_s()}
    if mode == "setup":
        print(json.dumps(result))
        return 0

    outputs, item_s, spans, problems = [], [], [], []
    probe = speed.Probe()
    if not tracer:
        probe.burst(SETUP_SAMPLES)
        probe.start()
    loop_start, loop_paused = perf_counter(), probe.paused
    for index, item in enumerate(items):
        if tracer:
            tracer.trace_id = index
        t, paused = perf_counter(), probe.paused
        try:
            outputs.append(wl.run(item))
        except Exception:  # an item that raises is a failed item
            outputs.append(None)
            problems.append((item.name, traceback.format_exc(limit=-3)))
        end = perf_counter()
        item_s.append(end - t - (probe.paused - paused))
        spans.append((t, end))
    wall_s = perf_counter() - loop_start - (probe.paused - loop_paused)
    item_ref_s = []
    if not tracer:
        probe.stop()
        probe.burst(SETUP_SAMPLES)
        item_ref_s = [secs * probe.factor(*span) for secs, span in zip(item_s, spans)]
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if tracer:
        tracer.enabled = False

    done = [(it, out) for it, out in zip(items, outputs) if out is not None]
    done_items, done_outputs = [it for it, _ in done], [out for _, out in done]
    problems += wl.check(done_items, done_outputs, workloads.load_expected()[wl.name])
    result.update(
        wall_s=wall_s,
        item_s=item_s,
        item_ref_s=item_ref_s,
        speed_samples=len(probe.samples),
        peak_rss_mb=peak_rss_mb,
        items=[it.name for it in items],
        attempted=len(items),
        failed=len({name for name, _ in problems}),
        problems=[f"{name}: {text}" for name, text in problems],
        counts=wl.counts(done_items, done_outputs),
        coverage=workloads.coverage(items),
        skipped=list(wl.skipped),
    )
    if tracer:
        result["trace"] = tracer.report()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
