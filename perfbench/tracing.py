"""Span tracing of the ``octhls`` layers, installed from outside the package.

``Tracer.install()`` wraps every function named in each loaded
``octhls`` module's ``__all__`` (for ``octhls.cli``, which has none, its
public functions), and every method of the classes listed there.  Each
wrapper is installed on the defining module and on every
``from .x import name`` binding of it in the other loaded ``octhls``
modules, so calls between layers are seen too.  ``leggauss`` is wrapped
as bound in ``spectra`` and in ``functional``.

A span is ``(name, start, end, parent, op, work)``: ``name`` is
``layer.function``, ``parent`` the index of the enclosing span (-1 at
the top), ``op`` the benchmark operation it belongs to, and ``work`` the
amount of work the call was asked to do where a layer has a count
(octonion products, recurrence steps, projected coefficients, ...).
Spans stay in memory; ``write`` stores them as gzipped tab-separated lines.
"""

from __future__ import annotations

import functools
import gzip
import inspect
import math
import sys
import time

import numpy as np

#: the octhls modules; a span is named after the module that defines the wrapped
#: function (``leggauss``: the module it is bound in)
LAYERS = ("octonion", "nilgroup", "cayley", "specfun", "spectra", "constants", "functional", "cli")

_CLOSED_FORMS = (
    "eig_K1", "eig_K2", "eig_K1_ratio", "bilinear_margin",
    "intertwining_spectrum", "c_d", "logsob_gap", "logsob_gap_limit",
)
_ORACLE = ("eig_quadrature", "eig_quadrature_table", "leggauss")


def _rows(*arrays):
    """Broadcast row count of (..., n) arrays."""
    return math.prod(np.broadcast_shapes(*(np.shape(a)[:-1] for a in arrays)))


def _one(*_args, **_kwargs):
    return 1


#: work done by one call, for the functions whose layer has a count
_WORK = {
    "octonion.mul": lambda x, y: _rows(x, y),
    "specfun.gegenbauer3": lambda n, x: int(n) * np.size(x),
    "specfun.jacobi33": lambda k, m, x: int(k) * np.size(x),
    "functional.project_bispherical": lambda f, jmax=40, *a, **kw: (jmax + 1) * (jmax + 2) // 2,
    "functional.sample_sphere": lambda n, *a, **kw: int(n),
    "cayley.cayley": _one,
    "cayley.cayley_inv": _one,
    "cayley.jac_cayley": _one,
    "cayley.jac_cayley_sphere": _one,
    "cayley.sdist": _one,
    "cayley.hermitian_pairing": _one,
    "cayley.sdist_arrays": lambda zv, ev: _rows(zv, ev),
}

#: per-layer metrics: name -> (kind, span-name predicate); kind is "self_s",
#: "calls" (number of spans) or "work" (sum of span work)
METRICS = {
    "spectra.oracle_s": ("self_s", lambda n: n in {f"spectra.{f}" for f in _ORACLE}),
    "spectra.gauss_rules": ("calls", lambda n: n == "spectra.leggauss"),
    "spectra.closed_form_s": ("self_s", lambda n: n in {f"spectra.{f}" for f in _CLOSED_FORMS}),
    "spectra.closed_form_calls": ("calls", lambda n: n in {f"spectra.{f}" for f in _CLOSED_FORMS}),
    "specfun.self_s": ("self_s", lambda n: n.startswith("specfun.")),
    "specfun.recurrence_steps": ("work", lambda n: n in ("specfun.gegenbauer3", "specfun.jacobi33")),
    "functional.self_s": ("self_s", lambda n: n.startswith("functional.")),
    "functional.projections": ("work", lambda n: n == "functional.project_bispherical"),
    "functional.mc_samples": ("work", lambda n: n == "functional.sample_sphere"),
    "octonion.self_s": ("self_s", lambda n: n.startswith("octonion.")),
    "octonion.products": ("work", lambda n: n == "octonion.mul"),
    "nilgroup.self_s": ("self_s", lambda n: n.startswith("nilgroup.")),
    "nilgroup.calls": ("calls", lambda n: n.startswith("nilgroup.")),
    "cayley.self_s": ("self_s", lambda n: n.startswith("cayley.")),
    "cayley.points": ("work", lambda n: n.startswith("cayley.")),
    "constants.self_s": ("self_s", lambda n: n.startswith("constants.")),
    "cli.self_s": ("self_s", lambda n: n.startswith("cli.")),
}


class Tracer:
    """Records spans around the wrapped ``octhls`` entry points."""

    def __init__(self):
        self.spans = []
        self._stack = []
        self.op = -1

    def wrap(self, name, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        work = _WORK.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.op,
                    work(*args, **kwargs) if work else 0]
            # append before pushing: a calibration sample taken from a signal
            # handler in between must not take this span's index
            spans.append(span)
            stack.append(len(spans) - 1)
            span[1] = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()

        return traced

    def install(self):
        """Wrap the public names of every ``octhls`` module imported so far."""
        mods = {n: sys.modules[f"octhls.{n}"] for n in LAYERS if f"octhls.{n}" in sys.modules}
        for layer, mod in mods.items():
            names = getattr(mod, "__all__", None) or [
                n for n, v in vars(mod).items() if not n.startswith("_") and inspect.isfunction(v)
            ]
            for attr in names:
                obj = getattr(mod, attr)
                if getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isclass(obj):
                    self._wrap_methods(f"{layer}.{attr}", obj)
                elif inspect.isfunction(obj):
                    wrapped = self.wrap(f"{layer}.{attr}", obj)
                    for other in mods.values():
                        if vars(other).get(attr) is obj:
                            setattr(other, attr, wrapped)
        for layer in ("spectra", "functional"):
            if layer in mods:
                mods[layer].leggauss = self.wrap(f"{layer}.leggauss", mods[layer].leggauss)

    def _wrap_methods(self, prefix, cls):
        for attr, val in list(vars(cls).items()):
            if inspect.isfunction(val):
                setattr(cls, attr, self.wrap(f"{prefix}.{attr}", val))
            elif isinstance(val, (classmethod, staticmethod)):
                setattr(cls, attr, type(val)(self.wrap(f"{prefix}.{attr}", val.__func__)))

    def take(self):
        """Return the spans recorded so far and start a fresh list."""
        spans = list(self.spans)
        self.spans.clear()
        return spans


def write(spans, path):
    """Store spans gzipped, one per line, times in integer nanoseconds from the first start."""
    t0 = spans[0][1] if spans else 0.0
    with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
        fh.write("name\tstart_ns\tend_ns\tparent\top\twork\n")
        for name, start, end, parent, op, work in spans:
            fh.write(f"{name}\t{round((start - t0) * 1e9)}\t{round((end - t0) * 1e9)}\t{parent}\t{op}\t{work}\n")


def summarize(spans):
    """Per-layer metrics of one span list: self times in raw seconds, exact counts."""
    self_s = [end - start for _, start, end, *_ in spans]
    for _, start, end, parent, _, _ in spans:
        if parent >= 0:
            self_s[parent] -= end - start
    per_name = {}  # name -> [self_s, calls, work]
    for span, s in zip(spans, self_s):
        acc = per_name.setdefault(span[0], [0.0, 0, 0])
        acc[0] += s
        acc[1] += 1
        acc[2] += span[5]
    column = {"self_s": 0, "calls": 1, "work": 2}
    return {
        metric: sum((v[column[kind]] for n, v in per_name.items() if match(n)),
                    0.0 if kind == "self_s" else 0)
        for metric, (kind, match) in METRICS.items()
    }


def merge(summaries):
    """Sum the per-layer metrics of several processes (the CLI children)."""
    out = dict.fromkeys(METRICS, 0)
    for s in summaries:
        for k, v in s.items():
            out[k] += v
    return out
