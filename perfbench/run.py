"""octhls benchmark: one run of one workload.

    python3 perfbench/run.py --workload {oracle,sphere,geometry,cli} --seed N --seconds S --trace 0|1

Run from the root of a source checkout.  The workload runs in its own
process (``harness.py``) with ``src/`` on ``PYTHONPATH`` and every thread
pool capped at the number of usable cores.  Before it, ``SETUP_PROBES``
more processes of the same workload are started and stopped once ready,
so that set-up time is a median too.  Times are reported in calibrated
seconds (see ``calibrate.py``), with raw seconds beside them.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``.
"""

from __future__ import annotations

import argparse
import collections
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import calibrate
import tracing
from workloads import NAMES

ROOT = Path(__file__).resolve().parent.parent
SETUP_PROBES = 6
#: the whole run must end within this many seconds
DEADLINE_S = 175.0
_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


class RunError(Exception):
    pass


def _child_env():
    env = dict(os.environ)
    env.update(dict.fromkeys(_THREAD_VARS, str(len(os.sched_getaffinity(0)))))
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return env


def _start(args, *extra):
    """Start a workload process; return (process, start time, time it printed READY)."""
    cmd = [sys.executable, str(ROOT / "perfbench" / "harness.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace), *extra]
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT, env=_child_env(),
                            start_new_session=True)
    line = proc.stdout.readline()
    ready = time.perf_counter()
    if line.strip() != "READY":
        _stop(proc)
        raise RunError(f"{args.workload} set-up failed (exit status {proc.returncode})")
    return proc, start, ready


def _stop(proc):
    """Kill a workload process and everything it started, and wait for it."""
    if proc.poll() is None:
        os.killpg(proc.pid, signal.SIGKILL)
    proc.wait()


def _finish(proc, deadline):
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        _stop(proc)
        raise RunError("workload did not finish in time") from None
    if proc.returncode != 0:
        raise RunError(f"workload exited with status {proc.returncode}")
    return out


def measure(args):
    """Run the set-up probes and the workload; return the workload's raw report
    with ``setups``, the (raw, calibrated) set-up times, added.

    Set-ups are calibrated by loop bursts taken between them, while no
    workload process runs.
    """
    deadline = time.monotonic() + DEADLINE_S
    sampler, spans = calibrate.Sampler(timer=False), []
    sampler.burst()
    for _ in range(0 if args.trace else SETUP_PROBES):
        proc, t0, t1 = _start(args, "--setup-only")
        _finish(proc, deadline)
        sampler.burst()
        spans.append((t0, t1))
    proc, t0, t1 = _start(args)
    spans.append((t0, t1))
    try:
        raw = json.loads(_finish(proc, deadline).splitlines()[-1])
    finally:
        _stop(proc)
    samples = sampler.samples + [tuple(s) for s in raw["calibration"]]
    raw["setups"] = [(t1 - t0, calibrate.calibrated(t1 - t0, t0, t1, samples)) for t0, t1 in spans]
    return raw


def report(args, raw):
    """Print the human-readable lines and return the result object."""
    samples = [tuple(s) for s in raw["calibration"]]
    passes = [[(name, net, calibrate.calibrated(net, t0, t1, samples), reason, nwarn, known)
               for name, net, reason, nwarn, known, t0, t1 in rows] for rows in raw["passes"]]
    ops = [op for p in passes for op in p]
    failed = [op for op in ops if op[3] is not None]
    pass_raw = [sum(op[1] for op in p) for p in passes]
    pass_cal = [sum(op[2] for op in p) for p in passes]

    print(f"workload {args.workload}, seed {args.seed}: {len(passes)} passes, "
          f"{len(ops)} operations attempted, {len(failed)} failed")
    print(f"calibration: {len(samples)} loop samples, median "
          f"{statistics.median(d for _, d in samples):.6f} s, reference {calibrate.REF_S} s")
    by_op = collections.defaultdict(list)
    for name, raw_s, cal_s, *_ in ops:
        by_op[name].append((raw_s, cal_s))
    for name, times in by_op.items():
        print(f"  {name} = {statistics.median(t[1] for t in times):.6f} s "
              f"(raw {statistics.median(t[0] for t in times):.6f} s)")
    for (name, reason, known), n in collections.Counter((op[0], op[3], op[5]) for op in failed).items():
        print(f"  FAILED {name} x{n}{' (known fault)' if known else ''}: {reason}")
    for name, n in collections.Counter(op[0] for op in ops for _ in range(op[4])).items():
        print(f"  {name}: {n} RuntimeWarning(s) captured")

    pass_s = (statistics.median(pass_cal), "s", statistics.median(pass_raw))
    if args.trace:
        layers = raw["layers"]
        metrics = {"traced_pass_s": pass_s}
        for name, (kind, _) in tracing.METRICS.items():
            if kind == "self_s":
                # a pass's self times are calibrated by that pass's own ratio
                metrics[name] = (statistics.median(layer[name] * c / r for layer, c, r
                                                   in zip(layers, pass_cal, pass_raw)),
                                 "s", statistics.median(layer[name] for layer in layers))
            else:
                metrics[name] = (layers[0][name], "count", None)
    else:
        metrics = {
            "setup_s": (statistics.median(c for _, c in raw["setups"]), "s",
                        statistics.median(r for r, _ in raw["setups"])),
            "pass_s": pass_s,
            "peak_rss_mb": (raw["peak_rss_mb"], "MB", None),
        }
    for name, (value, unit, raw_s) in metrics.items():
        print(f"{name} = {value:.6g} {unit}" + (f" (raw {raw_s:.6g} s)" if raw_s is not None else ""))
    return {
        "correct": all(op[3] is None or op[5] for op in ops),
        "attempted": len(ops),
        "failed": len(failed),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit, _) in metrics.items()},
    }


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=NAMES, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "octhls" / "__init__.py").is_file():
        print(f"error: no octhls source tree at {ROOT / 'src'}; run from a source checkout",
              file=sys.stderr)
        return 2
    try:
        result = report(args, measure(args))
    except RunError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
