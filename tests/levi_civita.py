"""Generated Levi-Civita pairs for the tests, built from ``MetricField``.

This is the normal form of ``bench/workloads.levi_civita_text`` with
X_i = x_i: g_ii = prod_{j != i} (x_min(i,j) - x_max(i,j)) and
gbar_ii = g_ii / (x_i prod_j x_j).  On disjoint boxes x_1 > x_2 > ... > 0
every factor keeps its sign, so both metrics are Riemannian there.
"""

from benenti.geometry import MetricField
from benenti.projective import ProjectivePair

# the boxes levi_civita_text(n, 42) draws for n = 5, 6 and 7
LC5_BOXES = ((5.762, 6.544), (4.365, 5.253), (3.128, 3.81), (1.767, 2.435),
             (0.352, 1.344))
LC6_BOXES = ((7.05, 7.936), (5.514, 6.415), (4.439, 5.045), (3.174, 3.927),
             (1.812, 2.696), (0.417, 1.117))
LC7_BOXES = ((8.791, 9.527), (7.317, 8.174), (6.059, 6.844), (4.595, 5.264),
             (3.455, 4.083), (1.744, 2.702), (0.456, 1.139))


def levi_civita_pair(boxes, name=None) -> ProjectivePair:
    """The normal form in len(boxes) variables, sampled on the boxes."""
    n = len(boxes)
    names = [f"x{i + 1}" for i in range(n)]
    everything = " * ".join(names)
    g, gbar = [], []
    for i in range(n):
        factors = " * ".join(f"({names[min(i, j)]} - {names[max(i, j)]})"
                             for j in range(n) if j != i)
        zeros = ["0"] * n
        g.append(zeros[:i] + [factors] + zeros[i + 1:])
        gbar.append(zeros[:i] + [f"{factors} / ({names[i]} * {everything})"] + zeros[i + 1:])
    return ProjectivePair(MetricField(names, g), MetricField(names, gbar),
                          dict(zip(names, boxes)), name=name)
