"""A fixed amount of interpreter work, timed next to every pair verification.

The 2-core virtual machine this benchmark was written on shares its cores
with other machines.  The same code ran up to 1.9x slower from one second
to the next, and the time the process spent on the CPU moved with it, so
neither wall nor CPU time of a pass is steady between runs.  Dividing the
time of a pass by the time this loop takes at the same moments cancels most
of that.  How much a neighbour slows code down depends on the code, so the
loop does a bit of everything benenti does: products of 35-term coefficient
vectors by fancy indexing and ``bincount`` (an order-4 jet in 3 variables),
recursive walks of small trees with ``isinstance`` and dict lookups, 3x3
linear algebra and ``einsum``, object arrays, regex tokenizing and YAML
output.  With a narrower loop the ratio spread more between runs.

It must never change.  Its time is the unit of ``wall_ref``, so a change to it
rescales every ``wall_ref`` measured before.
"""

from __future__ import annotations

import math
import re
import time
from dataclasses import dataclass

import numpy as np
import yaml

ITERATIONS = 500
_SIZE = 35
_RNG = np.random.default_rng(0)
_I, _J, _K = (_RNG.integers(0, _SIZE, size=300) for _ in range(3))
_START = _RNG.normal(size=_SIZE)
_MATRIX = _RNG.normal(size=(3, 3)) + 3 * np.eye(3)
_SYMMETRIC = _MATRIX @ _MATRIX.T
_GAMMA = _RNG.normal(size=(3, 3, 3))
_VECTOR = _RNG.normal(size=3)
_TOKEN = re.compile(r"\s*(?:(?P<num>\d+\.\d*|\d+)|(?P<ident>[a-z]+)|(?P<op>[-+*/^()]))")
_TEXT = "sin(x)^2 * (1/y - 1/x) / x"
_DOCUMENT = {
    "pair": "yardstick",
    "records": [
        {"check": "basic", "point": [0.5, 1.25], "residual": 1.5e-12,
         "params": {"t": 0.5}}
        for _ in range(3)
    ],
}


class _Series:
    __slots__ = ("c",)

    def __init__(self, c):
        self.c = c

    def __mul__(self, other):
        return _Series(np.bincount(_K, self.c[_I] * other.c[_J], minlength=_SIZE))

    def __add__(self, other):
        return _Series(self.c + other.c)


@dataclass(frozen=True)
class _Node:
    op: str
    left: object
    right: object


def _tree(depth):
    return ("+", _tree(depth - 1), _tree(depth - 1)) if depth else 1.5


def _walk(node):
    if isinstance(node, tuple):
        return _walk(node[1]) * 0.5 + _walk(node[2])
    return node


def _evaluate(node, env):
    if isinstance(node, _Node):
        left, right = _evaluate(node.left, env), _evaluate(node.right, env)
        return left * right if node.op == "*" else left + right
    if isinstance(node, str):
        return env[node]
    return node


_TREE = _tree(6)
_EXPRESSION = _Node("+", _Node("*", "x", "y"), _Node("*", _Node("+", "x", 1.5), "y"))


def seconds() -> float:
    """Time of one run of the loop, about 50 ms on an idle 2.1 GHz Xeon core."""
    start = time.perf_counter()
    x, y = _Series(_START), _Series(_START * 0.5)
    v = _VECTOR
    for k in range(ITERATIONS):
        z = x * y + x
        y = _Series(z.c * 1e-3)
        _walk(_TREE)
        inverse = np.linalg.inv(_SYMMETRIC)
        step = -np.einsum("ijk,j,k->i", _GAMMA, v, v) * 1e-3
        v = np.concatenate([v, step])[:3] @ inverse * 0.5 + _VECTOR
        cells = np.empty((3, 3), dtype=object)
        for i in range(3):
            for j in range(3):
                cells[i, j] = _Series(_MATRIX[i] * 0.5)
        s = np.linalg.solve(_MATRIX, _VECTOR) + np.linalg.det(_MATRIX) * 1e-3
        w = np.bincount(_K[:70] % 15, s[0] * _VECTOR[_I[:70] % 3], minlength=15)
        _evaluate(_EXPRESSION, {"x": math.sin(s[0]), "y": float(w[0])})
        [m.lastgroup for m in _TOKEN.finditer(_TEXT)]
        if k % 20 == 0:
            yaml.safe_dump(_DOCUMENT, sort_keys=False)
    return time.perf_counter() - start
