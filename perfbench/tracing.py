"""Span tracing from outside the package, and the per-layer metrics.

``Tracer.install`` swaps public functions of the ``halfbound`` submodules for
wrappers that record a span per call.  The package calls across modules through
module attributes (``potentials.evaluate``, ``scatter.shoot``, the
``minimize_scalar`` global of ``cli``), so the wrappers see internal calls with
no edit to the package.  Callers must also go through the submodules: the names
``halfbound/__init__.py`` re-exports were bound at import and bypass them.

A span is ``[name, start, end, parent, task, attrs]``: ``parent`` indexes the
enclosing span (-1 at top level), ``task`` is the benchmark task id and
``attrs`` holds counts taken at the boundary.  Spans stay in memory and are
written out when the run ends.  Pool workers inherit the wrappers when forked;
the wrappers pass straight through there, so their spans are never recorded.
"""

from __future__ import annotations

import functools
import gzip
import json
import os
from time import perf_counter

import numpy as np


def _samples(args, kwargs, out):
    x = args[1] if len(args) > 1 else kwargs["x"]
    return {"samples": int(np.size(x))}


def _nfev(args, kwargs, out):
    return {"nfev": int(out.nfev)}


def _roots(args, kwargs, out):
    return {"roots": len(out)}


def _workers(args, kwargs, out):
    argv = list(args[0]) if args else list(kwargs.get("argv") or [])
    workers = argv[argv.index("--workers") + 1] if "--workers" in argv else "1"
    return {"pool": int(workers) != 1}


#: (submodule, attribute, boundary counter) for every wrapped function.
TARGETS = (
    ("potentials", "evaluate", _samples),
    ("potentials", "make_potential", None),
    ("scatter", "integrate_uv", None),
    ("scatter", "shoot", None),
    ("scatter", "reflection_wronskian", None),
    ("scatter", "transfer_matrix_rt", None),
    ("critical", "critical_spectrum", _roots),
    ("critical", "find_critical_q", None),
    ("critical", "hbs_mismatch", None),
    ("analytic", "exp_well_r_exact", None),
    ("specfun", "bessel_j", None),
    ("specfun", "gamma_complex", None),
    ("specfun", "identity_residuals", None),
    ("cli", "minimize_scalar", _nfev),
    ("cli", "main", _workers),
)


class Tracer:
    """Records spans while a task is current; passes calls through otherwise."""

    def __init__(self):
        self.spans: list[list] = []
        self.task: str | None = None
        self._stack: list[int] = []
        self._undo: list[tuple] = []
        self._pid = os.getpid()

    def install(self, package) -> None:
        for modname, attr, counter in TARGETS:
            module = getattr(package, modname)
            orig = getattr(module, attr)
            setattr(module, attr, self._wrap(f"{modname}.{attr}", orig, counter))
            self._undo.append((module, attr, orig))

    def uninstall(self) -> None:
        for module, attr, orig in reversed(self._undo):
            setattr(module, attr, orig)
        self._undo.clear()

    def _wrap(self, name, orig, counter):
        @functools.wraps(orig)
        def wrapper(*args, **kwargs):
            if self.task is None or os.getpid() != self._pid:
                return orig(*args, **kwargs)
            parent = self._stack[-1] if self._stack else -1
            span = [name, perf_counter(), 0.0, parent, self.task, {}]
            self._stack.append(len(self.spans))
            self.spans.append(span)
            try:
                out = orig(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                self._stack.pop()
            if counter is not None:
                span[5] = counter(args, kwargs, out)
            return out

        return wrapper

    def extend(self, spans: list[list], task: str) -> None:
        """Append spans recorded in another process, re-based onto this list."""
        base = len(self.spans)
        for name, start, end, parent, _, attrs in spans:
            self.spans.append([name, start, end, parent + base if parent >= 0 else -1, task, attrs])

    def dump(self, path: str) -> None:
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


def self_times(spans: list[list]) -> list[float]:
    """Each span's duration minus the part of it that its child spans cover."""
    children: dict[int, list[tuple[float, float]]] = {}
    for name, start, end, parent, *_ in spans:
        if parent >= 0:
            children.setdefault(parent, []).append((start, end))
    out = []
    for i, (name, start, end, *_) in enumerate(spans):
        covered = 0.0
        cursor = start
        for c0, c1 in sorted(children.get(i, ())):
            c0, c1 = max(c0, cursor), min(c1, end)
            if c1 > c0:
                covered += c1 - c0
                cursor = c1
        out.append((end - start) - covered)
    return out


def _ns_per(count: float, seconds: float) -> float:
    return 1e9 * seconds / count if count else 0.0


def layer_metrics(spans: list[list]) -> dict[str, float]:
    """Per-layer counts, self times and unit costs from one run's spans.

    Step counts are computed, not counted: one RK4 side integration of n steps
    samples the potential at n + 1 nodes and n midpoints, in two
    ``potentials.evaluate`` calls, so n = (samples - 1) / 2 per side.
    """
    selfs = self_times(spans)
    calls: dict[str, int] = {}
    self_s: dict[str, float] = {}
    for span, st in zip(spans, selfs):
        calls[span[0]] = calls.get(span[0], 0) + 1
        self_s[span[0]] = self_s.get(span[0], 0.0) + st

    # potential samples and evaluate calls attributed to each direct parent
    under: dict[int, list[int]] = {}
    for name, _, _, parent, _, attrs in spans:
        if name == "potentials.evaluate" and parent >= 0:
            acc = under.setdefault(parent, [0, 0])
            acc[0] += attrs["samples"]
            acc[1] += 1

    def work(parent_name: str) -> tuple[int, int]:
        samples = evals = 0
        for i, span in enumerate(spans):
            if span[0] == parent_name and i in under:
                samples += under[i][0]
                evals += under[i][1]
        return samples, evals

    uv_samples, uv_evals = work("scatter.integrate_uv")
    uv_sides = uv_evals // 2
    uv_steps = (uv_samples - uv_sides) // 2
    sh_samples, sh_evals = work("scatter.shoot")
    sh_steps = (sh_samples - sh_evals // 2) // 2
    slices, _ = work("scatter.transfer_matrix_rt")

    spectrum_roots = sum(s[5].get("roots", 0) for s in spans if s[0] == "critical.critical_spectrum")
    inside_spectrum = set()
    for i, span in enumerate(spans):
        if span[0] == "critical.find_critical_q":
            j = span[3]
            while j >= 0 and spans[j][0] != "critical.critical_spectrum":
                j = spans[j][3]
            if j >= 0:
                inside_spectrum.add(i)
    roots = spectrum_roots + calls.get("critical.find_critical_q", 0) - len(inside_spectrum)

    nfev = sum(s[5].get("nfev", 0) for s in spans if s[0] == "cli.minimize_scalar")
    main_serial = main_pool = 0.0
    for span, st in zip(spans, selfs):
        if span[0] == "cli.main":
            if span[5].get("pool"):
                main_pool += st
            else:
                main_serial += st

    samples = sum(s[5].get("samples", 0) for s in spans if s[0] == "potentials.evaluate")
    c = calls.get
    s = self_s.get
    return {
        "potentials.evaluate.samples": samples,
        "potentials.evaluate.self_s": s("potentials.evaluate", 0.0),
        "potentials.evaluate.ns_per_sample": _ns_per(samples, s("potentials.evaluate", 0.0)),
        "potentials.make_potential.calls": c("potentials.make_potential", 0),
        "potentials.make_potential.self_s": s("potentials.make_potential", 0.0),
        "scatter.integrate_uv.calls": c("scatter.integrate_uv", 0),
        "scatter.integrate_uv.self_s": s("scatter.integrate_uv", 0.0),
        "scatter.integrate_uv.steps": uv_steps,
        "scatter.integrate_uv.ns_per_step": _ns_per(uv_steps, s("scatter.integrate_uv", 0.0)),
        "scatter.integrate_uv.halvings": uv_sides - 2 * c("scatter.integrate_uv", 0),
        "scatter.shoot.calls": c("scatter.shoot", 0),
        "scatter.shoot.self_s": s("scatter.shoot", 0.0),
        "scatter.shoot.ns_per_step": _ns_per(sh_steps, s("scatter.shoot", 0.0)),
        "scatter.reflection_wronskian.calls": c("scatter.reflection_wronskian", 0),
        "scatter.reflection_wronskian.self_s": s("scatter.reflection_wronskian", 0.0),
        "scatter.transfer_matrix_rt.calls": c("scatter.transfer_matrix_rt", 0),
        "scatter.transfer_matrix_rt.self_s": s("scatter.transfer_matrix_rt", 0.0),
        "scatter.transfer_matrix_rt.slices": slices,
        "scatter.transfer_matrix_rt.ns_per_slice": _ns_per(slices, s("scatter.transfer_matrix_rt", 0.0)),
        "critical.critical_spectrum.self_s": s("critical.critical_spectrum", 0.0),
        "critical.find_critical_q.calls": c("critical.find_critical_q", 0),
        "critical.find_critical_q.self_s": s("critical.find_critical_q", 0.0),
        "critical.hbs_mismatch.calls": c("critical.hbs_mismatch", 0),
        "critical.evals_per_root": c("critical.hbs_mismatch", 0) / roots if roots else 0.0,
        "critical.roots": roots,
        "analytic.exp_well_r_exact.calls": c("analytic.exp_well_r_exact", 0),
        "analytic.exp_well_r_exact.self_s": s("analytic.exp_well_r_exact", 0.0),
        "specfun.bessel_j.calls": c("specfun.bessel_j", 0),
        "specfun.bessel_j.self_s": s("specfun.bessel_j", 0.0),
        "specfun.gamma_complex.calls": c("specfun.gamma_complex", 0),
        "specfun.gamma_complex.self_s": s("specfun.gamma_complex", 0.0),
        "specfun.identity_residuals.self_s": s("specfun.identity_residuals", 0.0),
        "cli.main.self_s.serial": main_serial,
        "cli.main.self_s.pool": main_pool,
        "cli.minimize_scalar.calls": c("cli.minimize_scalar", 0),
        "cli.minimize_scalar.self_s": s("cli.minimize_scalar", 0.0),
        "cli.evals_per_minimum": nfev / c("cli.minimize_scalar", 1) if nfev else 0.0,
    }
