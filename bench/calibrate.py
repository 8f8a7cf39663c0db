"""A fixed reference program, timed between the benchmark's command lines
to follow the machine's speed. It does the kinds of work gridparams does
(interpreter start, numpy and scipy imports, text parsing in Python,
sorting, ranking and a Nelder-Mead fit) on fixed data, and never imports
gridparams, so no change to the program can move its time."""

import math

import numpy as np
from scipy.optimize import minimize
from scipy.stats import rankdata

rng = np.random.default_rng(12345)
values = rng.gamma(2.0, 3.0, size=10_000)
text = "\n".join(f"b{i},{v:.6g},{v * 2:.6g},{v / 3:.6g}" for i, v in enumerate(values))
rows = []
for line in text.splitlines():
    name, a, b, c = line.split(",")
    if float(a) > 0 and float(b) > 0:
        rows.append((name, float(a), float(b), float(c)))
x = np.array([r[1] for r in rows])
ranks = rankdata(x)


def nll(theta):
    """Gamma negative log-likelihood of x, in log shape and log scale."""
    k, s = np.exp(np.clip(theta, -5.0, 5.0))
    return -np.sum((k - 1) * np.log(x) - x / s) + x.size * (k * np.log(s) + math.lgamma(k))


fit = minimize(nll, np.zeros(2), method="Nelder-Mead", options={"xatol": 1e-9, "fatol": 1e-9})
assert len(rows) == values.size and ranks.max() == values.size and fit.success
