"""Per-request correctness checks and the fault injection that proves they can fail.

The references are computed after the timed loop.  The small tolerances
below sit well above the solvers' own tolerances (rel_tol 1e-8 for the
Riccati integrator, 1e-9 for the moment quadrature), so a pass is not luck
and a real disagreement still fails.

    transform   0 < L <= 1; Jensen L >= exp(-mean); L <= 1 - mean + second/2
                (from e^-y <= 1 - y + y^2/2 for y >= 0); variance >= 0.
                These cross-check riccati (L) against moments (mean, second).
    cascade     the cascade's Laplace value agrees with a direct solve of the
                untruncated set within 1e-3 relative.
    montecarlo  |z| <= 5 for the estimate against the analytic moments.laplace.
"""

from __future__ import annotations

import math

from workloads import laplace_value

_REL = 1e-6              # slack for the transform inequalities
CASCADE_REL_TOL = 1e-3
Z_MAX = 5.0
_SOLVER_REL = 1e-6       # floor on the z denominator: paths without jumps give std_error 0


def reference(affinehs, workload, entry, req):
    """Value an output is checked against; None where the checks need none."""
    u = req.scale * entry.u
    if workload == "cascade":
        sol = affinehs.riccati.solve_riccati(entry.params, u, req.T, t_eval=(0.0, req.T))
        return laplace_value(entry.x0, sol)
    if workload == "montecarlo":
        return affinehs.moments.laplace(entry.params, entry.x0, req.T, u)
    return None


def _z(out, ref):
    return (out["estimate"] - ref) / math.hypot(out["std_error"], _SOLVER_REL * ref)


def failures(workload, out, ref):
    """Names of the checks an output fails; empty when it passes."""
    bad = []
    if workload == "transform":
        lap, mean, second = out["laplace"], out["mean"], out["second"]
        if not 0.0 < lap <= 1.0 + 1e-12:
            bad.append("transform.range")
        if lap < math.exp(-mean) * (1.0 - _REL):
            bad.append("transform.jensen")
        if lap > 1.0 - mean + 0.5 * second + _REL:
            bad.append("transform.quadratic")
        if second - mean * mean < -1e-9 * (1.0 + second):
            bad.append("transform.variance")
    elif workload == "cascade":
        if not abs(out["laplace"] - ref) <= CASCADE_REL_TOL * ref:
            bad.append("cascade.direct")
    elif not abs(_z(out, ref)) <= Z_MAX:
        bad.append("montecarlo.z")
    return bad


def _corruptions(workload, out, ref):
    """(check name, corrupted output) pairs, one per check kind."""
    if workload == "transform":
        mean, second = out["mean"], out["second"]
        return [
            ("transform.range", dict(out, laplace=1.5)),
            ("transform.jensen", dict(out, laplace=0.5 * math.exp(-mean))),
            ("transform.quadratic", dict(out, laplace=1.0 - mean + 0.5 * second + 0.1)),
            ("transform.variance", dict(out, second=0.5 * mean * mean - 0.1)),
        ]
    if workload == "cascade":
        return [("cascade.direct", dict(out, laplace=out["laplace"] * 1.01))]
    shift = 10.0 * math.hypot(out["std_error"], _SOLVER_REL * ref)
    return [("montecarlo.z", dict(out, estimate=out["estimate"] + math.copysign(shift, _z(out, ref))))]


def fault_injection(workload, out, ref):
    """{check name: True if the check caught a corrupted copy of out}."""
    return {name: name in failures(workload, bad, ref)
            for name, bad in _corruptions(workload, out, ref)}
