"""Build a jump-measure parameter set, check admissibility, round-trip JSON.

A measure is a tuple of jumps, each built by `atom(xi, weight)` or
`ray(direction, density, weight)`.  A float weight makes a jump of the
state-independent measure m; a PSD matrix weight makes a jump of the
state-dependent measure mu, whose ray densities are in kernel form g(r)
(so the mass density along a ray is r^2 g(r)).

Run:  python3 demos/02_measures_and_admissibility.py
"""

import json

import numpy as np

from affinehs.params import (
    ExponentialDensity,
    OperatorJumpMeasure,
    PowerLawDensity,
    ScalarJumpMeasure,
    atom,
    build_admissible,
    params_to_json,
    params_from_json,
    ray,
    truncate,
    validate_admissibility,
)
from affinehs.symcone import frob_norm

d = 2
unit = (np.eye(d) + 0.3 * np.ones((d, d)))
unit /= frob_norm(unit)

# m: one atom above the cutoff plus an exponential ray reaching r = 0
m = ScalarJumpMeasure(d, (atom(1.5 * unit, 0.8),
                          ray(unit, ExponentialDensity(c=0.5, lam=2.0))))

# mu: a power-law kernel ray with infinite activity (alpha in (0,1), rmin = 0)
mu = OperatorJumpMeasure(d, (
    ray(unit, PowerLawDensity(c=0.5, alpha=0.5, rmin=0.0, rmax=1.0), 0.4 * np.eye(d)),))

# each jump is a unit direction, a radial law and an output weight; the m
# atom's law is a point mass of 0.8 at r0 = ||xi|| = 1.5, its output weight 1
law = m.jumps[0].law
print(f"m atom: mass {law.c} at r0 = {law.r0:.6g}, output weight {m.jumps[0].weight}")

print("m total activity:", m.total_mass())
print("mu kernel activity finite:", mu.is_finite_activity)
print("mu total mass matrix:\n", mu.total_mass_matrix())

# the builder adds the exact compensators, so admissibility holds by construction
p_set = build_admissible(d, beta=-0.5 * np.eye(d), m=m, mu=mu, b_extra=0.4 * np.eye(d))
report = validate_admissibility(p_set, n_pairs=50, seed=1)
print("\nadmissibility:", "all passed" if report.all_passed else "FAILED")
for cond in report.conditions:
    print(f"  ({cond.condition}) {'pass' if cond.passed else 'FAIL'}: {cond.detail}")

# truncation to level k removes jumps of norm <= 1/k and makes activity finite
for k in (2, 8, 32):
    p_k = truncate(p_set, k)
    print(f"k = {k:>2}: finite activity = {p_k.is_finite_activity}, "
          f"kernel mass = {frob_norm(p_k.mu.kernel_total_matrix()):.4f}")

# JSON round trip
blob = json.dumps(params_to_json(p_set), indent=2)
back = params_from_json(json.loads(blob))
print("\nround-trip drift matches:", np.allclose(back.b, p_set.b))
print("parameter file snippet:")
print("\n".join(blob.splitlines()[:12]), "\n  ...")
