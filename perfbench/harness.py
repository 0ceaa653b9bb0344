"""The workload process: set-up, then whole passes over the operation list.

Started by ``run.py``, one process per workload run:

    python perfbench/harness.py --workload W --seed N --seconds S --trace 0|1 [--setup-only]

It imports the workload, builds its inputs from the seed and prints
``READY`` (the parent times process start to that line as set-up).  With
``--setup-only`` it stops there.  Otherwise it runs passes until
``--seconds`` have elapsed, always finishing the pass it is in, with a
``calibrate.Sampler`` timing the calibration loop all through, and
prints one JSON line with the raw measurements: for each operation its
time (less the sampling that paused it), start and end, and all the
loop samples.  With ``--trace 1`` it records spans around every
``octhls`` entry point, reports per-layer metrics per pass, and writes
the spans of the last pass under ``.perfbench_out/`` (the CLI children
write their own there).
"""

from __future__ import annotations

import argparse
import importlib
import json
import random
import resource
import time
import warnings
from pathlib import Path

import calibrate
import tracing
from workloads import NAMES, nonfinite

OUT_DIR = Path(__file__).resolve().parent.parent / ".perfbench_out"


def _run_op(op):
    """Run one operation: (start, end, failure reason or None, RuntimeWarning count)."""
    result, reason = None, None
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", RuntimeWarning)
        start = time.perf_counter()
        try:
            result = op.run()
        except Exception as exc:  # a failed operation is counted, and the run goes on
            reason = f"{type(exc).__name__}: {exc}"
        end = time.perf_counter()
    if reason is None:
        try:
            reason = "non-finite result" if nonfinite(result) else op.check(result)
        except Exception as exc:  # a malformed result fails its check
            reason = f"check raised {type(exc).__name__}: {exc}"
    # a subprocess's numpy warnings arrive on its stderr
    child = str(getattr(result, "stderr", "")).count("RuntimeWarning")
    return start, end, reason, child + sum(issubclass(w.category, RuntimeWarning) for w in caught)


def main(argv=None):
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", choices=NAMES, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    wl = importlib.import_module(f"workloads.{args.workload}")
    inputs = wl.make_inputs(args.seed)
    print("READY", flush=True)
    if args.setup_only:
        return 0

    refs = wl.references()
    tracer = None
    if args.trace:
        OUT_DIR.mkdir(exist_ok=True)
        for stale in OUT_DIR.glob(f"spans-{args.workload}*"):
            stale.unlink()
        tracer = tracing.Tracer()
        tracer.install()
    ops = wl.operations(inputs, refs, OUT_DIR if args.trace else None)
    order = random.Random(args.seed).sample(range(len(ops)), len(ops))

    children = getattr(wl, "CHILD_PROCESSES", False)
    passes, layers = [], []
    with calibrate.Sampler(timer=not children) as sampler:
        if tracer:
            calibrate.loop = tracer.wrap("calibrate.loop", calibrate.loop)
        sampler.burst()
        start = time.perf_counter()
        while not passes or time.perf_counter() - start < args.seconds:
            rows = []
            for i in order:
                if tracer:
                    tracer.op = i
                t0, t1, reason, nwarn = _run_op(ops[i])
                if children:
                    sampler.burst()
                net = t1 - t0 - sampler.paused(t0, t1)
                rows.append([ops[i].name, net, reason, nwarn, ops[i].known_fault, t0, t1])
            passes.append(rows)
            if tracer:
                spans = tracer.take()
                child_layers = [json.loads(p.read_text(encoding="utf-8"))
                                for p in sorted(OUT_DIR.glob(f"spans-{args.workload}-op*.json"))]
                layers.append(tracing.merge([tracing.summarize(spans)] + child_layers))
    if tracer and spans:
        tracing.write(spans, OUT_DIR / f"spans-{args.workload}.tsv.gz")

    usage = resource.getrusage(resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF)
    print(json.dumps({
        "passes": passes,
        "calibration": sampler.samples,
        "peak_rss_mb": usage.ru_maxrss / 1024.0,
        "layers": layers,
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
