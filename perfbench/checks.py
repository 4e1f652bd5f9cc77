"""Output checks, run outside the timed region.

Each check returns a list of problems; an empty list means the output
is correct.  Tolerances:

- ``TOL`` = 1e-3, applied as ``|x - ref| <= TOL * (1 + |ref|)`` as in
  acceptance criterion 6.  Powers are compared as fractions of P_max so
  that the same formula applies to them.
- ``SEEDED_TOL`` = 1e-6 for stored seed-0 simulation output, which is
  deterministic under the seed.
"""

from __future__ import annotations

import csv
import io
import math

import numpy as np

TOL = 1e-3
SEEDED_TOL = 1e-6
GRID_N = 240  # simplex grid for the objective lower bound

# Acceptance criterion 5 anchors: value, tolerance.
TAU_L0 = (2.5, 0.5)
ONSET_MCSC = (0.63, 0.05)
ONSET_TS = (0.18, 0.05)
DELAY_MIN_RANGE = (0.30, 0.48)
DELAY_MIN_SEARCH = (0.10, 0.60)


def close(x, ref, tol=TOL) -> bool:
    if isinstance(ref, (str, int)):  # labels, flags and counts match exactly
        return x == ref
    if math.isnan(ref):
        return isinstance(x, float) and math.isnan(x)
    if math.isinf(ref):
        return x == ref
    return isinstance(x, (int, float)) and abs(x - ref) <= tol * (1.0 + abs(ref))


def compare_records(got: list[dict], ref: list[dict], tol=TOL, p_max=None,
                    where="") -> list[str]:
    """Field-by-field comparison of record lists; ``p_*`` fields are
    divided by ``p_max`` first when it is given."""
    if len(got) != len(ref):
        return [f"{where}: {len(got)} records, reference has {len(ref)}"]
    problems = []
    for i, (g, r) in enumerate(zip(got, ref)):
        if set(g) != set(r):
            problems.append(f"{where}[{i}]: columns {sorted(g)} != {sorted(r)}")
            continue
        for key, rv in r.items():
            gv = g[key]
            if p_max and key.startswith("p_") and isinstance(rv, float):
                gv, rv = gv / p_max, rv / p_max
            if not close(gv, rv, tol):
                problems.append(f"{where}[{i}].{key} = {gv!r}, reference {rv!r}")
    return problems


def parse_csv(data: bytes) -> list[dict]:
    """Parse a CSV written by the CLI back into typed records."""
    rows = list(csv.reader(io.StringIO(data.decode("utf-8"))))
    return [{k: _typed(v) for k, v in zip(rows[0], row)} for row in rows[1:]]


def _typed(text: str):
    for conv in (int, float):
        try:
            return conv(text)
        except ValueError:
            pass
    return text


# -- power-allocation checks ------------------------------------------------

def objective(cfg, budget, outage, phd, phr, pld, plr=0.0):
    """True max-min stability gap at power allocations (numpy-vectorised).

    Independent restatement of the model: HC rate at the worst single-
    path blockage state, LC rate on the direct path alone, both at
    half-power threshold fading, weighted by the class fractions.
    """
    c_d = budget.eta_d ** 2 * budget.rho_th_d
    c_r = budget.eta_r ** 2 * budget.rho_th_r
    s2 = budget.sigma_n2
    phd, phr, pld, plr = (np.asarray(v, dtype=float) for v in (phd, phr, pld, plr))
    sinr_h = np.minimum.reduce([
        c_r * phr / (c_r * plr + s2),
        c_d * phd / (c_d * pld + s2),
        (c_d * phd + c_r * phr) / (c_d * pld + c_r * plr + s2),
    ])
    tm = cfg.T / cfg.M
    served_h = (1.0 - outage.P_out_h) * tm * cfg.B * np.log2(1.0 + sinr_h)
    served_l = (1.0 - outage.P_out_l) * tm * cfg.B * np.log2(1.0 + c_d * pld / s2)
    a = cfg.alpha
    d_h = (served_h - a * cfg.A_bar) / a if a > 0 else np.full_like(served_h, np.inf)
    d_l = ((served_l - (1 - a) * cfg.A_bar) / (1 - a) if a < 1
           else np.full_like(served_l, np.inf))
    return np.minimum(d_h, d_l)


def grid_lower_bound(cfg, budget, outage, n=GRID_N) -> float:
    """Best true objective on an n-step grid of the power simplex with the
    budget binding and p_l_r = 0; no optimum can lie below it."""
    i, j = np.meshgrid(np.arange(n + 1), np.arange(n + 1), indexing="ij")
    keep = i + j <= n
    P = cfg.P_max
    phd, phr = i[keep] * (P / n), j[keep] * (P / n)
    return float(np.max(objective(cfg, budget, outage, phd, phr, P - phd - phr)))


def check_solution(cfg, budget, outage, p, reported: float, where="") -> list[str]:
    """A reported optimum must be feasible, equal the true objective at its
    own powers, and not lie below the simplex-grid lower bound."""
    P = cfg.P_max
    powers = [p["p_h_d"], p["p_h_r"], p["p_l_d"], p["p_l_r"]]
    problems = []
    if min(powers) < -1e-12 * P or sum(powers) > P * (1 + 1e-9):
        problems.append(f"{where}: infeasible powers {powers} for P_max {P}")
    actual = float(objective(cfg, budget, outage, *powers))
    if not close(reported, actual):
        problems.append(f"{where}: reported objective {reported!r}, "
                        f"true objective at its powers {actual!r}")
    bound = grid_lower_bound(cfg, budget, outage)
    if reported < bound - TOL * (1.0 + abs(bound)):
        problems.append(f"{where}: objective {reported!r} below grid bound {bound!r}")
    return problems


# -- queueing anchors -------------------------------------------------------

def onset_interval(records: list[dict]) -> tuple[float, float]:
    """(last alpha before the first unstable point, first alpha at which
    either queue is judged unstable); the onset lies in between."""
    last = -math.inf
    for rec in records:
        if not (rec["stable_h"] and rec["stable_l"]):
            return last, rec["alpha"]
        last = rec["alpha"]
    return last, math.nan


def check_queue_anchors(mcsc: list[dict], ts: list[dict]) -> list[str]:
    """Acceptance criterion 5 anchors, evaluated on the workload's grid:
    LC delay at alpha = 0, instability onsets of both schemes, and the
    alpha minimising the mean per-packet delay of MC-SC.

    A grid brackets the onset between its last stable and first unstable
    point; the onset check passes when that bracket meets anchor +- tol.
    """
    problems = []
    tau_l0 = mcsc[0]["tau_l"] if mcsc[0]["alpha"] == 0.0 else math.nan
    if not abs(tau_l0 - TAU_L0[0]) <= TAU_L0[1]:
        problems.append(f"tau_l(0) = {tau_l0!r}, want {TAU_L0[0]} +- {TAU_L0[1]}")
    for name, recs, (want, tol) in (("mcsc", mcsc, ONSET_MCSC),
                                    ("time_sharing", ts, ONSET_TS)):
        last, first = onset_interval(recs)
        if not (last <= want + tol and first >= want - tol):
            problems.append(f"{name} onset in ({last!r}, {first!r}], "
                            f"want {want} +- {tol}")
    lo, hi = DELAY_MIN_SEARCH
    overall = [(r["alpha"] * r["tau_h"] + (1 - r["alpha"]) * r["tau_l"], r["alpha"])
               for r in mcsc if lo <= r["alpha"] <= hi]
    best = min(overall)[1] if overall else math.nan
    if not DELAY_MIN_RANGE[0] <= best <= DELAY_MIN_RANGE[1]:
        problems.append(f"delay minimiser alpha = {best!r}, want in {DELAY_MIN_RANGE}")
    return problems
