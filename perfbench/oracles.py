"""Oracle checks for the benchmark's tasks.

Each check returns ``None`` when the output is correct and a one-line reason
when it is not.  The checks run outside the timed region and outside any
traced span.  Their reference values come from a route independent of the one
the task used: closed forms where one exists, the transfer-matrix route at
65536 slices for the compact wells without one, and the RK4 shooting search
for the critical strengths that the transfer-route strength scans must track.
"""

from __future__ import annotations

import functools
import json
import math

from halfbound import analytic, critical, potentials, scatter, specfun
from workloads import FIXED, kind_of

#: |delta R| allowed against the oracle (acceptance criterion 3).
R_TOL = 1e-6

#: Slices of the transfer-matrix oracle for compact wells without a closed form.
ORACLE_SLICES = 65536

#: Tolerances on critical strengths against the closed forms.
QC_TOL = {"SquareWell": 1e-8, "ExponentialWell": 1e-5, "SolitonWell": 1e-6}

#: Best R a parabolic strength scan at E = 0.1 must reach near its first
#: critical strength (acceptance criterion 8), by symmetry.
PARABOLIC_BEST_R = {True: 1e-4, False: 1e-3}


def parse_csv(text: str) -> tuple[dict, list[list[float]]]:
    """Metadata and numeric rows of a halfbound CSV file."""
    meta, rows = {}, []
    lines = text.splitlines()
    for line in lines:
        if line.startswith("# "):
            key, _, value = line[2:].partition(": ")
            meta[key] = json.loads(value)
    body = [line for line in lines if not line.startswith("#")]
    for line in body[1:]:
        rows.append([float(v) for v in line.split(",")])
    return meta, rows


def reference_R(desc: dict, E: float) -> float:
    """Oracle R of a catalogued well at energy E."""
    kind, prm = desc["kind"], desc["params"]
    if kind == "SquareWell":
        return analytic.square_well_R(E, prm["V0"], prm["a"])
    if kind == "SolitonWell":
        return analytic.soliton_R(E, prm["nu"])
    if kind == "ExponentialWell" and prm["a"] * math.sqrt(prm["V0"]) <= 6.0:
        return abs(analytic.exp_well_r_exact(E, prm["V0"], prm["a"])) ** 2
    p = potentials.from_descriptor(desc)
    return scatter.transfer_matrix_rt(p, E, n_slices=ORACLE_SLICES).R


def check_rows_R(desc: dict, rows: list[list[float]], expect_rows: int) -> str | None:
    """Every (E, R) row agrees with the oracle to R_TOL."""
    if len(rows) != expect_rows:
        return f"{len(rows)} rows, expected {expect_rows}"
    for E, R in rows:
        ref = reference_R(desc, E)
        if not abs(R - ref) <= R_TOL:
            return f"{desc['kind']} R({E:.3e}) = {R:.9e}, oracle {ref:.9e}"
    return None


@functools.lru_cache(maxsize=None)
def critical_strengths(family: str, q_max: float) -> tuple[float, ...]:
    """Critical strengths of a family up to q_max from independent sources.

    Closed forms for the square (n pi/2), exponential (J0 and J1 zeros) and
    sech^2 (integer nu) wells; the RK4 shooting search otherwise.  Cached per
    run: the benchmark asks for a handful of (family, bound) pairs.
    """
    kind = kind_of(family)
    if kind == "SquareWell":
        return tuple(n * math.pi / 2 for n in range(1, int(2 * q_max / math.pi) + 1))
    if kind == "ExponentialWell":
        zeros = []
        for order in (0, 1):
            n = 1
            while (z := specfun.bessel_zero(order, n)) <= q_max:
                zeros.append(z)
                n += 1
        return tuple(sorted(zeros))
    if kind == "SolitonWell":
        return tuple(float(n) for n in range(2, int(q_max) + 1))
    fam = potentials.make_family(kind, **FIXED[family])
    return tuple(r.q_c for r in critical.critical_spectrum(fam, q_max))


def check_scan_minima(family: str, q_min: float, q_max: float, text: str, minima: list[dict]) -> str | None:
    """Acceptance criterion 8 on one strength scan.

    At E = 0.01 every critical strength inside the grid has a refined minimum
    within 0.02 with R < 1e-2.  The parabolic scans at E = 0.1 must reach
    R <= 1e-4 (symmetric) or 1e-3 (asymmetric) somewhere in the window.
    """
    _, rows = parse_csv(text)
    if not rows or abs(rows[0][0] - q_min) > 1e-9 * max(1.0, q_min) or abs(rows[-1][0] - q_max) > 1e-9 * max(1.0, q_max):
        return f"grid ends {rows[0][0] if rows else None}..{rows[-1][0] if rows else None} != {q_min}..{q_max}"
    qcs = [q for q in critical_strengths(family, math.ceil(q_max) + 1.0) if q_min < q < q_max]
    if not qcs:
        return f"no critical strength inside {q_min}..{q_max}"
    if family.startswith("ParabolicWell"):
        best = min([m["refined_R"] for m in minima] + [R for _, R in rows])
        limit = PARABOLIC_BEST_R[family.endswith("/sym")]
        return None if best <= limit else f"{family} best R {best:.3e} > {limit:g}"
    for qc in qcs:
        near = [m["refined_R"] for m in minima if abs(m["refined_q"] - qc) <= 0.02]
        if not near or min(near) >= 1e-2:
            return f"{family}: no refined minimum with R < 1e-2 within 0.02 of q_c = {qc:.6f}"
    return None


def check_spectrum(task: dict, roots: list) -> str | None:
    """Sturm certificate, consecutive node counts and closed-form q_c."""
    fam = potentials.make_family(task["kind"], **FIXED[task["family"]])
    q_min, q_max = task["q_min"], task["q_max"]
    gained = critical.bound_state_count_at(fam, q_max) - critical.bound_state_count_at(fam, q_min)
    if gained != len(roots):
        return f"Sturm certificate: {gained} bound states gained over [{q_min}, {q_max}], {len(roots)} roots returned"
    if len(roots) != task["roots"]:
        return f"{len(roots)} roots, window built to hold {task['roots']}"
    nodes = [r.node_count for r in roots]
    if any(b != a + 1 for a, b in zip(nodes, nodes[1:])):
        return f"node counts {nodes} not consecutive"
    tol = QC_TOL.get(task["kind"])
    if tol is not None:
        expect = [q for q in critical_strengths(task["family"], math.ceil(q_max) + 1.0) if q_min < q < q_max]
        got = [r.q_c for r in roots]
        if len(expect) != len(got) or any(abs(a - b) > tol for a, b in zip(expect, got)):
            return f"q_c {got} vs closed form {expect} (tol {tol:g})"
    return None


def check_reflect(task: dict, payload: dict) -> str | None:
    """The CLI's R equals the library's result for the same route."""
    p = potentials.from_descriptor(task["descriptor"])
    if task["method"] == "transfer":
        ref = scatter.transfer_matrix_rt(p, task["energy"]).R
    else:
        ref = scatter.reflection_wronskian(scatter.integrate_uv(p, task["energy"])).R
    if abs(payload["R"] - ref) > 1e-12:
        return f"reflect R {payload['R']!r} != library {ref!r}"
    return None


def check_table1(text: str) -> str | None:
    """table1 against the exact amplitude evaluated now (not the reference data)."""
    _, rows = parse_csv(text)
    if len(rows) != 30:
        return f"table1 has {len(rows)} rows, expected 30"
    for q, E, R in rows:
        ref = abs(analytic.exp_well_r_exact(E, q * q, 1.0)) ** 2
        if abs(R - ref) > 1e-9 * ref:
            return f"table1 R(q={q}, E={E}) = {R:.9e}, exact {ref:.9e}"
    return None


def check_specfun(stdout: str) -> str | None:
    for line in stdout.splitlines():
        if line.startswith("worst: "):
            worst = float(line.split()[1])
            return None if worst < 1e-10 else f"specfun-check worst residual {worst:.3e}"
    return "specfun-check printed no 'worst:' line"


def check_square_qc(n: int, q_c: float, node_count: int) -> str | None:
    expect = n * math.pi / 2
    if abs(q_c - expect) > QC_TOL["SquareWell"]:
        return f"square q_c {q_c!r}, closed form {expect!r}"
    if node_count != n:
        return f"square q_c = {n} pi/2 has {node_count} nodes, expected {n}"
    return None
