"""Pair-potential clusters: dimer wells and small charged shells."""
import math

import numpy as np

import spbench as sb

lj = sb.LennardJonesCluster(2)
morse = sb.MorseCluster(2, rho=6.0)

# 32 dimer separations from [0.8, 2.5), start i drawn by its own generator (4, i)
starts = [np.random.default_rng((4, i)).uniform(0.8, 2.5, 1) for i in range(32)]
for inst in (lj, morse):
    res = sb.multistart(inst, sb.SolverConfig(method="newton", seed=4), starts=starts)
    sp = min(res.solutions.points, key=lambda s: s.energy)
    print("%-14s minimum at r = %.10f, energy %.10f"
          % (inst.label, sp.point[0], sp.energy))

print("well curvature, both potentials:",
      sb.pair_curvature(lj), sb.pair_curvature(morse))

# charges on a sphere: best energy over a seeded multistart, compared with
# the small-N values that are known in closed form
targets = {2: 0.5, 3: math.sqrt(3.0), 4: 6.0 / math.sqrt(8.0 / 3.0)}
for charges in (2, 3, 4, 5, 6):
    inst = sb.ThomsonSphere(charges)
    res = sb.multistart(inst, sb.SolverConfig(method="newton",
                                              starts=150, seed=0))
    best = min(sp.energy for sp in res.solutions.points)
    known = targets.get(charges)
    note = "" if known is None else "  (closed form %.10f)" % known
    print("N=%d  best energy %.10f%s  [%d stationary points seen]"
          % (charges, best, note, len(res.solutions)))
