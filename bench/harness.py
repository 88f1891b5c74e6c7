"""Child process of the benchmark: runs one `otfs-papr` command in this
fresh interpreter and reports what it cost.

    python3 bench/harness.py REPORT.json TRACE -- <otfs-papr arguments>

The report is JSON with `first_frame` (when the first experiment runner
was entered, i.e. when imports, config parsing and argument parsing were
done), `marks` (when each method-frame started: every runner draws one
`frame_rng` per method-frame), `end` (when the command returned, CSVs
written), `rc` and `max_rss_kb`.  All times are `time.monotonic()`, one
clock for every process on Linux, so the parent subtracts its own spawn
time from them.

With TRACE = 1 every public function that `otfs_papr.experiment` holds
(its own, and those it imports from the layer modules) is replaced by a
wrapper that records a span, found by introspection so that a function
a later change adds is traced too.  The spans and counters stay in
memory and go into the report at the end.
"""

import functools
import hashlib
import inspect
import json
import resource
import sys
import time
from collections import Counter

RUNNER_PREFIX = "run_"
FRAME_START = "frame_rng"


def _channel_key(ch, params) -> str:
    h = hashlib.sha1()
    for a in (ch.gains, ch.delay_taps, ch.doppler_hz):
        h.update(a.tobytes())
    h.update(f"{params.M}x{params.N}".encode())
    return h.hexdigest()


def _after_greedy(tracer, args, result):
    tracer.counts["precoder.greedy_precode.passes"] += result.iterations_used
    tracer.counts["precoder.greedy_precode.flips"] += len(result.flips)


def _after_clip_count(tracer, args, result):
    tracer.counts["baselines.mu_expand.clips"] += result


def _after_effective_dd(tracer, args, result):
    tracer.counts["channel.effective_dd_matrix.bytes_computed"] += result.nbytes
    tracer.channels.add(_channel_key(*args[:2]))


def _after_mmse(tracer, args, result):
    # The normal equations form an (MN)^2 Gram matrix the size of H_eff.
    tracer.counts["receiver.mmse_equalize.bytes_computed"] += args[0].H_eff.nbytes


# Counters read off a call's arguments or result, keyed by span name.
AFTER = {
    "precoder.greedy_precode": _after_greedy,
    "baselines.clip_count": _after_clip_count,
    "channel.effective_dd_matrix": _after_effective_dd,
    "receiver.mmse_equalize": _after_mmse,
}


class Tracer:
    """Spans [name, start, end, parent index] and counters of one process."""

    def __init__(self):
        self.spans = []
        self.stack = []
        self.counts = Counter()
        self.channels = set()

    def wrap(self, name, fn):
        after = AFTER.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, time.perf_counter(), 0.0,
                    self.stack[-1] if self.stack else -1]
            self.stack.append(len(self.spans))
            self.spans.append(span)
            try:
                result = fn(*args, **kwargs)
            except Exception:
                self.counts[name + ".raised"] += 1
                raise
            finally:
                span[2] = time.perf_counter()
                self.stack.pop()
            if after is not None:
                after(self, args, result)
            return result
        return traced

    def install(self, module):
        """Wrap every public function of the package that `module` holds."""
        for attr, obj in list(vars(module).items()):
            if attr.startswith("_") or not inspect.isfunction(obj) \
                    or not obj.__module__.startswith("otfs_papr."):
                continue
            layer = obj.__module__.rpartition(".")[2]
            setattr(module, attr, self.wrap(f"{layer}.{obj.__name__}", obj))

    def report(self) -> dict:
        return {"spans": self.spans, "counts": dict(self.counts),
                "channels": sorted(self.channels)}


def main(argv) -> int:
    report_path, trace, sep, *cli_args = argv
    if sep != "--":
        raise SystemExit("usage: harness.py REPORT.json TRACE -- ARGS...")
    from otfs_papr import cli, experiment

    tracer = Tracer() if trace == "1" else None
    if tracer is not None:
        tracer.install(experiment)
    report = {"first_frame": None, "marks": []}
    marks = report["marks"]
    frame_start = getattr(experiment, FRAME_START, None)
    if frame_start is not None:
        @functools.wraps(frame_start)
        def marked_frame_start(*args, **kwargs):
            marks.append(time.monotonic())
            return frame_start(*args, **kwargs)

        setattr(experiment, FRAME_START, marked_frame_start)

    def mark_first_frame(fn):
        @functools.wraps(fn)
        def runner(*args, **kwargs):
            if report["first_frame"] is None:
                report["first_frame"] = time.monotonic()
            return fn(*args, **kwargs)
        return runner

    for attr, obj in list(vars(experiment).items()):
        if attr.startswith(RUNNER_PREFIX) and callable(obj):
            setattr(experiment, attr, mark_first_frame(obj))

    rc = cli.main(cli_args)
    report.update(end=time.monotonic(), rc=rc,
                  max_rss_kb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
    if tracer is not None:
        report.update(tracer.report())
    with open(report_path, "w") as fh:
        json.dump(report, fh)
    return rc


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
