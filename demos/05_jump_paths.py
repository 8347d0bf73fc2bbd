"""Simulate piecewise-deterministic paths: linear flow between jumps,
jump times by inverting the closed-form integrated intensity along the flow,
cone-valued jump sizes.

Run:  python3 demos/05_jump_paths.py
"""

import numpy as np

from affinehs import library
from affinehs.params import truncate
from affinehs.pdmpsim import (
    CounterStream,
    PathSimulator,
    drift_data,
    jump_intensity,
    terminal_statistics,
)
from affinehs.symcone import frob_norm, min_eigenvalue

s = library.get("mc2-01")
p_k = truncate(s.params, 4)

print("jump intensity at x0:", jump_intensity(p_k, s.x0))
print("compensated drift is PSD:", min_eigenvalue(drift_data(p_k).btilde) >= -1e-12)

# one path in detail: path 1 of the counter stream 5, which jumps twice
path = PathSimulator(p_k).run(s.x0, 1.0, CounterStream(5, 1))
print(f"\none path, {path.n_jumps} jumps, each at the root of Lambda(s) = E, E ~ Exp(1):")
print(f"  {'time':>8s} {'||jump||':>10s} {'||state||':>10s} {'min eig':>10s}")
for t, size, state in zip(path.times, path.sizes, path.states):
    print(f"  {t:8.4f} {frob_norm(size):10.4f} {frob_norm(state):10.4f} "
          f"{min_eigenvalue(state):10.2e}")
print(f"  terminal ||X_T|| = {frob_norm(path.terminal):.4f}, "
      f"worst state eig = {path.min_state_eig:.2e}")

# jump-count statistics across many paths
n = 5000
stats = terminal_statistics(p_k, s.x0, 1.0, n, seed=11, workers=2)
counts = stats[:, -1]
print(f"\n{n} paths: mean jumps {counts.mean():.3f}, variance {counts.var(ddof=1):.3f}")

# every uniform of path i is a Philox4x32-10 draw keyed by (seed, i, draw
# index), and terminal_statistics simulates its paths in lockstep on those
# streams: a path run alone repeats its row of the 5000-path run
i = int(np.argmax(counts >= 2))
sim = PathSimulator(p_k)
a = sim.run(s.x0, 1.0, CounterStream(11, i))
b = sim.run(s.x0, 1.0, CounterStream(11, i))
row = sim.basis.unvec(stats[i, :-1])
print(f"path {i} reproducible:", np.array_equal(a.terminal, b.terminal)
      and np.array_equal(a.times, b.times))
print(f"path {i} alone vs row {i}: {a.n_jumps} vs {int(counts[i])} jumps, "
      f"max terminal difference {np.abs(a.terminal - row).max():.1e}")
