"""Seeded task generator for the four benchmark workloads.

A task is a plain dict: the argv (or call arguments) handed to ``halfbound``
plus the facts its oracle check needs.  Nothing here imports ``halfbound``, so
the program under test receives only the generated descriptors and argv.

Every round of a workload holds the same number of tasks of each class, and a
class fixes everything that sets a task's cost (well kind, point count, slice
count, number of roots in the window, worker count).  The seed only moves
strengths, energies and window ends, so the cost of a run does not depend on
the seed, and ``task_ms.p50`` and ``task_ms.tail`` land inside the same class
on every run (see NOTES.md for the class ranks).
"""

from __future__ import annotations

import json
import random

WORKLOADS = ("energy-scan", "strength-scan", "critical-search", "cli-oneshot")

#: Critical strengths (a = 1; nu for SolitonWell) rounded to 1e-3.  They only
#: place the seeded windows; the oracles recompute exact values independently.
QC = {
    "SquareWell": (1.571, 3.142, 4.712, 6.283),
    "ExponentialWell": (2.405, 3.832, 5.520, 7.016),
    "SolitonWell": (2.0, 3.0, 4.0, 5.0),
    "ParabolicWell/sym": (2.263, 4.287, 6.298, 8.304),
    "ParabolicWell/asym": (2.155, 4.083, 5.998, 7.908),
    "SquareTriangular": (1.840, 3.655, 5.474, 7.295),
    "Sin2Multiwell/1": (2.178, 5.927, 7.260, 10.953),
    "Sin2Multiwell/2": (2.212, 4.357, 6.257, 11.854),
}

#: Fixed (non-strength) parameters of each family key in QC.
FIXED = {
    "SquareWell": {"a": 1.0},
    "ExponentialWell": {"a": 1.0},
    "SolitonWell": {},
    "ParabolicWell/sym": {"a": 1.0, "b": 1.0},
    "ParabolicWell/asym": {"a": 1.0, "b": 1.1},
    "SquareTriangular": {"a": 1.0, "alpha": 0.5},
    "Sin2Multiwell/1": {"a": 1.0, "m": 1},
    "Sin2Multiwell/2": {"a": 1.0, "m": 2},
}


def kind_of(family: str) -> str:
    return family.split("/")[0]


def _rng(workload: str, seed: int) -> random.Random:
    return random.Random(f"{workload}/{seed}")


def _window(rng: random.Random, roots: tuple[float, ...], first: int, count: int) -> tuple[float, float]:
    """Seeded strength window holding roots[first:first+count] and no other.

    Each end sits between 0.15 and 0.4 of the way into the gap to the next
    root outside the window (0.4 of the lower root's value below the first
    root), so no end comes near a critical strength.
    """
    lo_root, hi_root = roots[first], roots[first + count - 1]
    below = lo_root - roots[first - 1] if first > 0 else lo_root
    above = roots[first + count] - hi_root
    return (
        round(lo_root - rng.uniform(0.15, 0.4) * below, 6),
        round(hi_root + rng.uniform(0.15, 0.4) * above, 6),
    )


def _descriptor(family: str, strength: float | None = None) -> dict:
    params = dict(FIXED[family])
    kind = kind_of(family)
    if strength is not None:
        if kind == "SolitonWell":
            params["nu"] = strength
        else:
            params["V0"] = strength * strength / params["a"] ** 2
    return {"kind": kind, "params": params}


def _dump(desc: dict) -> str:
    return json.dumps(desc, sort_keys=True)


# -- energy-scan ------------------------------------------------------------

#: (class, family, strength range, points, workers, tasks per round).  The
#: compact wells are 10 of 14 tasks, so the median is a compact scan; the
#: four long-support scans are the slowest and hold the tail.
ENERGY_CLASSES = (
    ("compact", "SquareWell", (1.0, 5.0), 3, 1, 2),
    ("compact", "ParabolicWell/asym", (1.0, 5.0), 3, 1, 2),
    ("compact", "SquareTriangular", (1.0, 5.0), 3, 1, 2),
    ("compact", "Sin2Multiwell/1", (1.0, 6.0), 3, 1, 2),
    ("compact", "Sin2Multiwell/2", (1.0, 6.0), 3, 1, 2),
    ("long", "ExponentialWell", (1.5, 6.0), 2, 1, 1),
    ("long", "SolitonWell", (1.5, 4.5), 2, 1, 1),
    ("long-pool", "ExponentialWell", (1.5, 6.0), 4, 2, 1),
    ("long-pool", "SolitonWell", (1.5, 4.5), 4, 2, 1),
)


def _energy_round(rng: random.Random) -> list[dict]:
    tasks = []
    for cls, family, (s_lo, s_hi), points, workers, count in ENERGY_CLASSES:
        for _ in range(count):
            strength = round(rng.uniform(s_lo, s_hi), 6)
            e_min = float(f"{10 ** rng.uniform(-5.0, -3.5):.6e}")
            e_max = float(f"{10 ** rng.uniform(-1.5, 0.0):.6e}")
            desc = _descriptor(family, strength)
            argv = [
                "scan-e", "--potential", _dump(desc), "--method", "wronskian",
                "--e-min", repr(e_min), "--e-max", repr(e_max),
                "--points", str(points), "--log", "--workers", str(workers),
            ]
            tasks.append({"cls": f"{cls}/{family}", "argv": argv, "descriptor": desc})
    rng.shuffle(tasks)
    return tasks


# -- strength-scan ----------------------------------------------------------

#: (family, fixed energy, root indices to centre a window on).  The
#: windows follow the paper's R-vs-q figures (acceptance criterion 8).
STRENGTH_FAMILIES = (
    ("SquareWell", 0.01, (0, 1, 2)),
    ("ExponentialWell", 0.01, (0, 1, 2)),
    ("Sin2Multiwell/1", 0.01, (0, 1, 2)),
    ("Sin2Multiwell/2", 0.01, (0, 1, 2)),
    ("ParabolicWell/sym", 0.1, (0,)),
    ("ParabolicWell/asym", 0.1, (0,)),
)

#: Point counts handed out, one per family, in seeded order every round.  Four
#: of the seven tasks of a round are 160-point scans, so the median is one of
#: them; the 300-point scan is the slowest and holds the tail.
STRENGTH_POINTS = (100, 160, 160, 160, 160, 300)

#: The 100-point scan of each round runs again with ``--workers 2``: the pool
#: twin, whose output bytes must equal the serial scan's.
STRENGTH_POOL_POINTS = 100


def _strength_round(rng: random.Random) -> list[dict]:
    points = list(STRENGTH_POINTS)
    rng.shuffle(points)
    tasks = []
    for (family, energy, choices), n in zip(STRENGTH_FAMILIES, points):
        first = rng.choice(choices)
        q_lo, q_hi = _window(rng, QC[family], first, 1)
        desc = {"kind": kind_of(family), "params": dict(FIXED[family])}
        argv = [
            "scan-q", "--potential", _dump(desc), "--energy", repr(energy),
            "--q-min", repr(q_lo), "--q-max", repr(q_hi), "--points", str(n),
        ]
        base = {"family": family, "energy": energy, "q_min": q_lo, "q_max": q_hi}
        tasks.append({"cls": f"serial/{n}", "argv": argv + ["--workers", "1"], **base})
        if n == STRENGTH_POOL_POINTS:
            tasks.append({"cls": f"pool/{n}", "argv": argv + ["--workers", "2"], **base})
    rng.shuffle(tasks)
    return tasks


# -- critical-search --------------------------------------------------------

#: (class, family, roots per window, first-root choices, tasks per round).
#: A compact window always holds the family's first two roots: which pair it
#: holds changes the bracket-scan length, so seeding it would make the
#: median depend on the seed.
CRITICAL_CLASSES = (
    ("compact", "SquareWell", 2, (0,), 2),
    ("compact", "ParabolicWell/asym", 2, (0,), 2),
    ("compact", "SquareTriangular", 2, (0,), 2),
    ("compact", "Sin2Multiwell/1", 2, (0,), 2),
    ("compact", "Sin2Multiwell/2", 2, (0,), 2),
    ("long", "ExponentialWell", 1, (0, 1, 2), 1),
    ("long", "SolitonWell", 1, (0, 1, 2), 1),
)


def _critical_round(rng: random.Random) -> list[dict]:
    tasks = []
    for cls, family, count, choices, per_round in CRITICAL_CLASSES:
        for _ in range(per_round):
            first = rng.choice(choices)
            q_lo, q_hi = _window(rng, QC[family], first, count)
            tasks.append({
                "cls": f"{cls}/{family}", "family": family, "kind": kind_of(family),
                "fixed": dict(FIXED[family]), "q_min": q_lo, "q_max": q_hi, "roots": count,
            })
    rng.shuffle(tasks)
    return tasks


# -- cli-oneshot ------------------------------------------------------------


def _oneshot_round(rng: random.Random) -> list[dict]:
    """Each of the seven one-shot commands twice, with separately seeded inputs.

    Fourteen tasks of about 0.9 s make a round long enough that a 20 s run
    always ends after two rounds, not after three on one run and four on the
    next, which would move the tail percentile between runs.
    """
    tasks = _oneshot_commands(rng) + _oneshot_commands(rng)
    rng.shuffle(tasks)
    return tasks


def _oneshot_commands(rng: random.Random) -> list[dict]:
    q_sq = rng.uniform(1.0, 4.0)
    square = _descriptor("SquareWell", round(q_sq, 6))
    q_exp = rng.uniform(1.5, 6.0)
    expw = _descriptor("ExponentialWell", round(q_exp, 6))
    e_r = float(f"{10 ** rng.uniform(-3.0, 0.0):.6e}")
    e_t = float(f"{10 ** rng.uniform(-3.0, 0.0):.6e}")
    fam_sq = {"kind": "SquareWell", "params": {"a": 1.0}}
    n_find = rng.randint(1, 3)
    n_prof = rng.randint(1, 3)
    n_scan = rng.randint(0, 2)

    def bracket(n: int) -> list[str]:
        qc = QC["SquareWell"][n - 1]
        return [repr(round(qc - rng.uniform(0.05, 0.3), 6)), repr(round(qc + rng.uniform(0.05, 0.3), 6))]

    q_lo, q_hi = _window(rng, QC["SquareWell"], n_scan, 1)
    return [
        {"cls": "reflect/wronskian", "argv": ["reflect", "--potential", _dump(square), "--energy", repr(e_r)],
         "descriptor": square, "energy": e_r, "method": "wronskian"},
        {"cls": "reflect/transfer",
         "argv": ["reflect", "--potential", _dump(expw), "--energy", repr(e_t), "--method", "transfer"],
         "descriptor": expw, "energy": e_t, "method": "transfer"},
        {"cls": "table1", "argv": ["table1", "--out", "{out}"]},
        {"cls": "specfun-check", "argv": ["specfun-check"]},
        {"cls": "find-qc", "argv": ["find-qc", "--potential", _dump(fam_sq), "--bracket", *bracket(n_find)],
         "n": n_find},
        {"cls": "hbs-profile",
         "argv": ["hbs-profile", "--potential", _dump(fam_sq), "--bracket", *bracket(n_prof), "--out", "{out}"],
         "n": n_prof},
        {"cls": "scan-q",
         "argv": ["scan-q", "--potential", _dump(fam_sq), "--energy", "0.01",
                  "--q-min", repr(q_lo), "--q-max", repr(q_hi), "--points", "60", "--out", "{out}"],
         "family": "SquareWell", "energy": 0.01, "q_min": q_lo, "q_max": q_hi},
    ]


_ROUND = {
    "energy-scan": _energy_round,
    "strength-scan": _strength_round,
    "critical-search": _critical_round,
    "cli-oneshot": _oneshot_round,
}


def rounds(workload: str, seed: int):
    """Endless rounds of tasks for ``workload``; the same seed gives the same tasks."""
    rng = _rng(workload, seed)
    make = _ROUND[workload]
    r = 0
    while True:
        tasks = make(rng)
        for i, task in enumerate(tasks):
            task["id"] = f"{r}.{i}"
        yield tasks
        r += 1
