"""Solve the transform ODE pair with cone-aware stepping, then run the
small-jump truncation cascade on an infinite-activity set and watch the
levels decrease monotonically onto the limit solution.

Run:  python3 demos/03_riccati_cascade.py
"""

import io

import numpy as np

from affinehs import library
from affinehs.riccati import (
    eval_F,
    eval_R,
    solution_to_csv,
    solve_cascade,
    solve_riccati,
)
from affinehs.symcone import frob_norm

s = library.get("cascade-00")   # d = 2, power-law kernel ray, infinite activity
p, u = s.params, s.u

print("field at the initial condition:")
print("  F(u) =", eval_F(p, u))
print("  ||R(u)|| =", frob_norm(eval_R(p, u)))

# direct solve of the limit equation (the Gauss-Jacobi ray rule holds the singular endpoint)
sol = solve_riccati(p, u, 1.0, t_eval=np.linspace(0, 1, 5))
print("\nlimit solve: phi(T) = %.8f, min eig psi = %.2e, %d steps"
      % (sol.phi_final, sol.min_eig[-1], sol.diagnostics["n_steps"]))

# cascade over the truncation levels k = 1, 2, 4, ..., 64
sol_k, diag = solve_cascade(p, u, 1.0)
print("\ncascade residuals sup_t ||psi_k - psi_{k/2}||:")
for k, res in diag.residuals.items():
    print(f"  k = {k:>2}: {res:.3e}")
print("worst monotonicity violation:", diag.worst_monotonicity)

# the deepest level sits within its own residual of the direct solve
gap = frob_norm(sol_k.psi_final - sol.psi_final)
print("||psi_64(T) - psi_limit(T)|| =", f"{gap:.3e}",
      "(resolution", f"{diag.final_residual:.3e})")

# CSV export (same table the CLI writes)
buf = io.StringIO()
solution_to_csv(sol_k, buf)
print("\nCSV head:")
print("\n".join(buf.getvalue().splitlines()[:3]))
