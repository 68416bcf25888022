"""Benchmark of ``halfbound``: four workloads, oracle-checked, optionally traced.

Usage (from the repository root):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads: energy-scan, strength-scan, critical-search (run in this process
through ``halfbound.cli.main`` or ``halfbound.critical.critical_spectrum``) and
cli-oneshot (one fresh ``python -m halfbound.cli`` process per task).  Tasks run
one after another in whole rounds until the timed wall clock reaches S seconds.
Every output is checked against an oracle outside the timed region.

With ``--trace 0`` the result holds the end-to-end metrics; with ``--trace 1``
the same rounds run untraced and then traced, and the result holds the
per-layer metrics of the traced pass plus the tracing overhead.  Human-readable
lines come first; the last line of standard output is the JSON result.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import itertools
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import threading
from pathlib import Path
from time import perf_counter

import workloads  # this directory; imports nothing from halfbound

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
STATE = ROOT / ".perfbench"

#: Extra fresh-process set-ups per run; setup_s is the median with the run's own.
SETUP_PROBES = 2

#: Seconds a one-shot child may take before it counts as failed and is killed.
CHILD_TIMEOUT = 60.0

END_TO_END_UNITS = {
    "setup_s": "s",
    "tasks_per_s": "1/s",
    "task_ms.p50": "ms",
    "task_ms.tail": "ms",
    "peak_rss_mb": "MB",
}


# -- statistics ---------------------------------------------------------------


def nearest_rank(sorted_values: list[float], pct: float) -> tuple[float, int]:
    """Nearest-rank percentile and the number of samples beyond it."""
    rank = max(1, math.ceil(pct / 100.0 * len(sorted_values)))
    return sorted_values[rank - 1], len(sorted_values) - rank


def tail_percentile(values: list[float]) -> tuple[float, int, int]:
    """(value, percentile, samples beyond) at the highest integer percentile
    from 99 down to 50 that leaves at least ten samples beyond it."""
    ordered = sorted(values)
    for pct in range(99, 49, -1):
        value, beyond = nearest_rank(ordered, pct)
        if beyond >= 10:
            return value, pct, beyond
    value, beyond = nearest_rank(ordered, 50)
    return value, 50, beyond


# -- environment --------------------------------------------------------------


def _git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown (not a git checkout)"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return "unknown"


def _cpu_model() -> str:
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    return platform.processor() or platform.machine()


def environment(seed: int) -> dict:
    import numpy
    import scipy

    return {
        "nproc": os.cpu_count(),
        "cpu": _cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "commit": _git_commit(),
        "seed": seed,
    }


# -- workloads ----------------------------------------------------------------


def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = "src"
    return env


def _run_child(argv: list[str], log: Path) -> tuple[int, str, str, float]:
    """Run a fresh interpreter in the repository root.

    Returns (exit code, stdout, stderr, peak RSS in MB of that child alone).
    """
    with open(log, "wb") as out, open(str(log) + ".err", "wb") as err:
        proc = subprocess.Popen([sys.executable, *argv], cwd=ROOT, env=_child_env(), stdout=out, stderr=err)
    killer = threading.Timer(CHILD_TIMEOUT, proc.kill)
    killer.start()
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        killer.cancel()
    proc.returncode = os.waitstatus_to_exitcode(status)
    stderr = Path(str(log) + ".err").read_text(encoding="utf-8")
    return proc.returncode, log.read_text(encoding="utf-8"), stderr, usage.ru_maxrss / 1024.0


class Workload:
    """Set-up, one timed task, and its oracle check for one workload."""

    def __init__(self, name: str, seed: int, work: Path):
        self.name = name
        self.work = work
        rounds = workloads.rounds(name, seed)
        self.rounds = itertools.chain([next(rounds)], rounds)  # input generation belongs to set-up
        self.tracer = None
        self.first_output: dict[tuple, bytes] = {}
        self.child_rss = 0.0

    # in-process call through the module attribute, so traced runs see it
    def _cli(self, argv: list[str]) -> tuple[int, str, str]:
        import halfbound.cli

        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = halfbound.cli.main(argv)
        return rc, out.getvalue(), err.getvalue()

    def warm_up(self) -> None:
        """One small untimed call of the workload's kind before timing starts."""
        square = '{"kind": "SquareWell", "params": {"V0": 4.0, "a": 1.0}}'
        family = '{"kind": "SquareWell", "params": {"a": 1.0}}'
        if self.name == "energy-scan":
            for workers in ("1", "2"):
                self._cli(["scan-e", "--potential", square, "--e-min", "1e-3", "--e-max", "1", "--points", "4",
                           "--log", "--workers", workers])
        elif self.name == "strength-scan":
            for workers in ("1", "2"):
                self._cli(["scan-q", "--potential", family, "--energy", "0.01", "--q-min", "1.3", "--q-max", "1.8",
                           "--points", "20", "--workers", workers])
        elif self.name == "critical-search":
            import halfbound.critical
            import halfbound.potentials

            halfbound.critical.critical_spectrum(halfbound.potentials.make_family("SquareWell", a=1.0), 1.8, 1.3)
        else:
            rc, _, _, _ = _run_child(["-m", "halfbound.cli", "specfun-check"], self.work / "warm-up.out")
            if rc != 0:
                raise RuntimeError(f"warm-up child exited {rc}")

    def run(self, task: dict, traced: bool) -> tuple[float, object]:
        """Run one task; returns (seconds, outcome for the check)."""
        if self.name == "critical-search":
            import halfbound.critical
            import halfbound.potentials

            family = halfbound.potentials.make_family(task["kind"], **task["fixed"])
            self._enter(task, traced)
            t0 = perf_counter()
            try:
                roots = halfbound.critical.critical_spectrum(family, task["q_max"], task["q_min"])
            finally:
                dt = perf_counter() - t0
                self._leave()
            return dt, roots
        out = str(self.work / task["id"])
        argv = [a.replace("{out}", out) for a in task["argv"]]
        if self.name == "cli-oneshot":
            if traced:
                spans = self.work / f"{task['id']}.spans.json"
                cmd = [str(HERE / "traced_cli.py"), str(spans), *argv]
            else:
                cmd = ["-m", "halfbound.cli", *argv]
            t0 = perf_counter()
            rc, stdout, stderr, rss = _run_child(cmd, self.work / f"{task['id']}.stdout")
            dt = perf_counter() - t0
            self.child_rss = max(self.child_rss, rss)
            if traced and spans.is_file():
                self.tracer.extend(json.loads(spans.read_text(encoding="utf-8")), task["id"])
            return dt, (rc, stdout, stderr, out)
        argv += ["--out", out]
        self._enter(task, traced)
        t0 = perf_counter()
        try:
            rc, stdout, stderr = self._cli(argv)
        finally:
            dt = perf_counter() - t0
            self._leave()
        return dt, (rc, stdout, stderr, out)

    def _enter(self, task: dict, traced: bool) -> None:
        if traced:
            self.tracer.task = task["id"]

    def _leave(self) -> None:
        if self.tracer is not None:
            self.tracer.task = None

    def check(self, task: dict, outcome) -> str | None:
        import oracles

        if self.name == "critical-search":
            return oracles.check_spectrum(task, outcome)
        rc, text, stderr, out = outcome
        if rc != 0:
            return f"exit code {rc}: {stderr.strip()[-200:]}"
        if self.name == "energy-scan":
            _, rows = oracles.parse_csv(Path(out).read_text(encoding="utf-8"))
            points = int(task["argv"][task["argv"].index("--points") + 1])
            return oracles.check_rows_R(task["descriptor"], rows, points)
        if self.name == "strength-scan" or task["cls"] == "scan-q":
            return self._check_strength_scan(task, out)
        cls = task["cls"]
        if cls.startswith("reflect/"):
            return oracles.check_reflect(task, json.loads(text))
        if cls == "table1":
            return oracles.check_table1(Path(out).read_text(encoding="utf-8"))
        if cls == "specfun-check":
            return oracles.check_specfun(text)
        if cls == "find-qc":
            payload = json.loads(text)
            return oracles.check_square_qc(task["n"], payload["q_c"], payload["node_count"])
        if cls == "hbs-profile":
            meta, _ = oracles.parse_csv(Path(out).read_text(encoding="utf-8"))
            return oracles.check_square_qc(task["n"], meta["hbs"]["q_c"], meta["hbs"]["node_count"])
        return f"no check for class {cls}"

    def _check_strength_scan(self, task: dict, out: str) -> str | None:
        import oracles

        csv_bytes = Path(out).read_bytes()
        sidecar = Path(out + ".minima.json").read_bytes()
        minima = json.loads(sidecar)["minima"]
        reason = oracles.check_scan_minima(
            task["family"], task["q_min"], task["q_max"], csv_bytes.decode("utf-8"), minima
        )
        if reason:
            return reason
        argv = task["argv"]
        if "--workers" in argv:
            # every run of the same scan, serial or pooled, must write the same bytes
            key = tuple(argv[: argv.index("--workers")])
            first = self.first_output.setdefault(key, csv_bytes + b"\0" + sidecar)
            if first != csv_bytes + b"\0" + sidecar:
                return "CSV or minima sidecar bytes differ between --workers 1 and --workers 2"
        return None

    def peak_rss_mb(self) -> float:
        if self.name == "cli-oneshot":
            return self.child_rss
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def setup(name: str, seed: int, work: Path) -> tuple[Workload, float]:
    """Import, input generation and warm-up; returns the workload and its seconds."""
    t0 = perf_counter()
    sys.path.insert(0, str(SRC))
    import halfbound.cli  # noqa: F401  (the whole package, as the CLI loads it)

    wl = Workload(name, seed, work)
    wl.warm_up()
    return wl, perf_counter() - t0


def probe_setups(name: str, seed: int) -> list[float]:
    """Set-up seconds of SETUP_PROBES fresh benchmark processes."""
    out = []
    for _ in range(SETUP_PROBES):
        res = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(seed), "--setup-probe"],
            cwd=ROOT, capture_output=True, text=True, timeout=120, check=True,
        )
        out.append(json.loads(res.stdout.strip().splitlines()[-1])["setup_s"])
    return out


# -- runs ---------------------------------------------------------------------


def timed_rounds(wl: Workload, budget: float, modes: tuple[bool, ...], log) -> dict:
    """Run whole rounds until the untraced timed wall clock reaches ``budget``.

    ``modes`` lists, per task, the passes to run back to back: ``(False,)``
    untraced only, ``(False, True)`` untraced then traced, so that drift in
    machine speed affects both passes alike.
    """
    durations, classes, failures, done = [], [], [], []
    timed = {mode: 0.0 for mode in modes}
    for tasks in wl.rounds:
        if done and timed[False] >= budget:
            break
        for task in tasks:
            for traced in modes:
                dt, reason = _one_task(wl, task, traced)
                if reason is None:
                    if not traced:
                        durations.append(dt)
                        classes.append(task["cls"])
                else:
                    failures.append((task["id"], task["cls"], reason))
                    log(f"# failed: task {task['id']} ({task['cls']}): {reason}")
                timed[traced] += dt
        done.append(tasks)
    return {"durations": durations, "classes": classes, "failures": failures, "rounds": len(done),
            "timed": timed, "attempted": len(modes) * sum(len(t) for t in done)}


def _one_task(wl: Workload, task: dict, traced: bool) -> tuple[float, str | None]:
    """(seconds, failure reason or None) of one task and its oracle check."""
    import halfbound

    if traced:
        wl.tracer.install(halfbound)
    t0 = perf_counter()
    try:
        dt, outcome = wl.run(task, traced)
    except Exception as exc:  # a task that raises counts as failed
        return perf_counter() - t0, f"{type(exc).__name__}: {exc}"
    finally:
        if traced:
            wl.tracer.uninstall()
    try:
        return dt, wl.check(task, outcome)
    except Exception as exc:  # so does an output the check cannot read
        return dt, f"check raised {type(exc).__name__}: {exc}"


def end_to_end(pass_: dict, setups: list[float], rss: float) -> tuple[dict, dict]:
    durations = pass_["durations"]
    ms = [1000.0 * d for d in durations]
    tail, pct, beyond = tail_percentile(ms) if ms else (0.0, 50, 0)
    metrics = {
        "setup_s": statistics.median(setups),
        "tasks_per_s": len(durations) / pass_["timed"][False],
        "task_ms.p50": statistics.median(ms) if ms else 0.0,
        "task_ms.tail": tail,
        "peak_rss_mb": rss,
    }
    by_class: dict[str, list[float]] = {}
    for cls, value in zip(pass_["classes"], ms):
        by_class.setdefault(cls, []).append(value)
    classes = sorted((statistics.median(v), len(v), c) for c, v in by_class.items())
    notes = {"tail_percentile": pct, "tail_beyond": beyond, "samples": len(ms), "setups": setups,
             "classes": ", ".join(f"{c} {m:.0f} ms x{n}" for m, n, c in classes)}
    return metrics, notes


def startup_metrics() -> dict[str, float]:
    """Interpreter and import start-up of the CLI, from fresh processes."""

    def wall(argv: list[str]) -> float:
        t0 = perf_counter()
        subprocess.run([sys.executable, *argv], cwd=ROOT, env=_child_env(), check=True,
                       stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL, timeout=120)
        return perf_counter() - t0

    interp = statistics.median(wall(["-c", "pass"]) for _ in range(3))
    imp = statistics.median(wall(["-c", "import halfbound.cli"]) for _ in range(3))
    res = subprocess.run([sys.executable, "-X", "importtime", "-c", "import halfbound.cli"], cwd=ROOT,
                         env=_child_env(), capture_output=True, text=True, check=True, timeout=120)
    cumulative = {}
    for line in res.stderr.splitlines():
        parts = line.split("|")
        if line.startswith("import time:") and len(parts) == 3 and parts[1].strip().isdigit():
            cumulative.setdefault(parts[2].strip(), int(parts[1]) * 1e-6)
    return {
        "cli.interpreter_s": interp,
        "cli.import_s": imp - interp,
        "cli.import.scipy_optimize_s": cumulative.get("scipy.optimize", 0.0),
        "cli.import.numpy_s": cumulative.get("numpy", 0.0),
    }


#: Why a per-layer metric can read zero on a workload.
ABSENT = {
    "energy-scan": "no strength scans, critical searches, table1 or specfun-check here",
    "strength-scan": "the transfer route runs no RK4, closed form or special function",
    "critical-search": "no CLI call: tasks call critical.critical_spectrum directly",
    "cli-oneshot": "only the layers the seven one-shot commands reach",
}


def main(argv: list[str] | None = None) -> int:
    t_start = perf_counter()
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)

    if not (SRC / "halfbound" / "__init__.py").is_file():
        sys.stderr.write(f"error: no halfbound sources under {SRC}; run from a full checkout\n")
        return 2

    work = STATE / f"work-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        wl, setup_s = setup(args.workload, args.seed, work)
        if args.setup_probe:
            print(json.dumps({"setup_s": setup_s}))
            return 0
        return _measure(args, wl, setup_s, t_start)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def _measure(args, wl: Workload, setup_s: float, t_start: float) -> int:
    def log(text: str) -> None:
        print(text, flush=True)

    log(f"# workload {args.workload} seed {args.seed} seconds {args.seconds:g} trace {args.trace}")
    log("# env: " + json.dumps(environment(args.seed), sort_keys=True))

    if args.trace == 0:
        main_pass = timed_rounds(wl, args.seconds, (False,), log)
        rss = wl.peak_rss_mb()
        setups = [setup_s] + probe_setups(args.workload, args.seed)
        metrics, notes = end_to_end(main_pass, setups, rss)
        units = END_TO_END_UNITS
    else:
        from tracing import Tracer, layer_metrics

        wl.tracer = Tracer()
        main_pass = timed_rounds(wl, args.seconds / 2.0, (False, True), log)
        wl.tracer.dump(str(STATE / "spans" / f"{args.workload}-seed{args.seed}.jsonl.gz"))
        metrics = layer_metrics(wl.tracer.spans)
        metrics.update(startup_metrics())
        timed = main_pass["timed"]
        metrics["trace.overhead_frac"] = timed[True] / timed[False] - 1.0
        units = per_layer_units()
        notes = {"spans": len(wl.tracer.spans), "rounds": main_pass["rounds"]}

    attempted = main_pass["attempted"]
    failed = len(main_pass["failures"])
    for name, value in metrics.items():
        log(f"{name:40s} {value:14.6g} {units[name]}")
    if args.trace == 0:
        log(f"# task_ms.tail is p{notes['tail_percentile']} with {notes['tail_beyond']} of "
            f"{notes['samples']} samples beyond it; setup_s is the median of {len(notes['setups'])} set-ups")
        log(f"# class medians, fastest first: {notes['classes']}")
    else:
        zero = [n for n, v in metrics.items() if v == 0]
        if zero:
            log(f"# zero on {args.workload} ({ABSENT[args.workload]}): {', '.join(zero)}")
        log("# cli.main.self_s.pool holds whole --workers 2 pool time: spans inside pool workers are out of reach")
        log(f"# {notes['spans']} spans over {notes['rounds']} rounds; step counts are computed from sample counts")
    log(f"failed_frac {failed / attempted if attempted else 0.0:.6g} ({failed} of {attempted} tasks)")
    log(f"# wall {perf_counter() - t_start:.1f} s")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {n: {"value": float(v), "unit": units[n]} for n, v in metrics.items()},
    }
    print(json.dumps(result), flush=True)
    return 0


def per_layer_units() -> dict[str, str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in spec["per_layer"]}


if __name__ == "__main__":
    sys.exit(main())
