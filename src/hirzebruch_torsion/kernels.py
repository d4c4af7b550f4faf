"""The evaluation kernels of radial functions.

kernel turns the float plan of a radial function (radial.Radial.plan) into
its panel evaluator: straight-line Python generated once per shape of plan
and bound to the plan's numbers, doing the float operations of the plan in
its order, each log factor's Horner chain as one expression.  Radial.fn and
the integrands of radial.integrate_halfline run these kernels; this module
imports nothing from the package, and only a process that evaluates a
radial function as a float loads it.
"""

from __future__ import annotations

import math
from functools import lru_cache
from typing import Callable, List, Optional, Sequence, Tuple

# A plan is (bases, groups): the float pole bases a, and per log factor
# log(1+bu) (b = 0.0 for none) a group (b, numerator, simple, higher).  The
# group's value is the Horner sum of numerator in u, times 1/(1+au) for each
# base index in simple, plus, for each (index, coefficients) in higher, a
# Horner sum h in x = 1/(1+au) times x*x; the function is the sum of the
# groups, each times log1p(b u) when b is not 0.  A kernel does these float
# operations in this order, so it returns the floats of the loop that reads
# the plan term by term.  Each partial sum v or h is read once, so the
# kernel writes a group's chain as one nested expression, which rounds the
# same operations on the same operands as the statements it replaces.

Plan = Tuple[tuple, tuple]
Kernel = Callable[[Sequence[float], Optional[Callable[[float], Exception]]], List[float]]

_KERNEL_SHAPES = 64  # sources kept; route 3 needs 8 shapes up to n = 100, the forms 6 more

_KERNEL = '''def bind({params}):
    def kernel(points, bad):
        out = []
        for t in points:
            if bad:
                s = 1.0 - t
                if s <= 0.0:
                    out.append(0.0)
                    continue
                u = t / s
            else:
                u = t
{body}
            if bad:
                if not isfinite(w):
                    raise bad(u)
                w = w / (s * s)
            out.append(w)
        return out
    return kernel
'''


def kernel(plan: Plan) -> Kernel:
    """The panel evaluator kernel(points, bad) -> values of a plan.

    With bad None, the points are values of u and the values are f(u).
    Otherwise the points are t in [0, 1], the compactified variable
    u = t / (1 - t), and the values are f(u) / (1 - t)^2, and 0.0 at t = 1,
    where the half-line integrand carries no weight; the first point whose
    f(u) is not finite raises bad(u)."""
    bases, groups = plan
    shape = (len(bases), tuple((bool(b), len(numerator), simple,
                                tuple((i, len(cs)) for i, cs in higher))
                               for b, numerator, simple, higher in groups))
    values = list(bases)
    for b, numerator, _, higher in groups:
        if b:
            values.append(b)
        values += numerator
        for _, cs in higher:
            values += cs
    return _binder(shape)(*values)


@lru_cache(maxsize=_KERNEL_SHAPES)
def _binder(shape: tuple) -> Callable[..., Kernel]:
    """Compile the kernel source of a plan shape; the plan's numbers are the
    arguments of the returned binder, in the order kernel lists them."""
    nbases, groups = shape
    params: List[str] = []

    def param() -> str:
        params.append(f"k{len(params)}")
        return params[-1]

    lines = [f"x{i} = 1.0 / (1.0 + {param()} * u)" for i in range(nbases)]
    w = "0.0"
    for log, terms, simple, higher in groups:
        b = param() if log else ""
        v = "0.0"
        for _ in range(terms):
            v = f"({v} * u + {param()})"
        for i in simple:
            v = f"({v} * x{i})"
        for i, length in higher:
            h = "0.0"
            for _ in range(length):
                h = f"({h} * x{i} + {param()})"
            v = f"({v} + {h} * x{i} * x{i})"
        lines.append(f"w = {w} + {v} * log1p({b} * u)" if log else f"w = {w} + {v}")
        w = "w"
    if w != "w":
        lines.append(f"w = {w}")
    source = _KERNEL.format(params=", ".join(params),
                            body="\n".join(" " * 12 + line for line in lines))
    namespace = {"isfinite": math.isfinite, "log1p": math.log1p}
    exec(compile(source, "<radial kernel>", "exec"), namespace)
    return namespace["bind"]
