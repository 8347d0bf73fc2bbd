"""Cross-validate the closed-form transform and moment formulas against
Monte Carlo simulation of the finite-activity jump process.

Run:  python3 demos/04_moments_vs_monte_carlo.py
"""

import numpy as np

from affinehs import library
from affinehs.moments import laplace, mean, second_moment
from affinehs.params import truncate
from affinehs.pdmpsim import mc_summary

s = library.get("mc2-00")
k = 4
p_k = truncate(s.params, k)
v = np.eye(2)
n_paths = 40_000

print(f"set {s.name} truncated at k = {k}; {n_paths} paths, T = {s.T}")

est = mc_summary(p_k, s.x0, s.T, n_paths, seed=123, u=s.u, v=v, workers=2)
rows = [
    ("laplace", laplace(p_k, s.x0, s.T, s.u), est["laplace"]),
    ("mean <X,v>", mean(p_k, s.x0, s.T, v), est["mean"]),
    ("second <X,v>^2", second_moment(p_k, s.x0, s.T, v), est["second_moment"]),
]

print(f"\n{'functional':>16s} {'analytic':>12s} {'monte carlo':>12s} {'std err':>10s} {'z':>6s}")
for name, analytic, e in rows:
    z = (e.estimate - analytic) / e.std_error
    print(f"{name:>16s} {analytic:12.6f} {e.estimate:12.6f} {e.std_error:10.2e} {z:6.2f}")

print("\nmean jumps per path:", est["jump_count"].estimate)

# the generator view: d/dt log-Laplace at t = 0 equals -F(u) - <x, R(u)>
from affinehs.moments import generator_exp
from affinehs.symcone import inner
import math

g = generator_exp(p_k, s.u, s.x0)
h = 1e-4
fd = (laplace(p_k, s.x0, h, s.u) - math.exp(-inner(s.x0, s.u))) / h
print(f"\ngenerator at e^(-<.,u>): exact {g:.8f}, finite difference {fd:.8f}")
