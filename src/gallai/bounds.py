"""Closed-form exponent calculators for sphere packings and coverings.

``kl_exponent`` is the classical Kabatjanskii-Levenstein upper bound on
(1/n) log2 M(n, theta) for spherical codes; ``covering_exponent`` is the
corresponding covering-side rate -log2 cos(theta) for caps of radius
pi/2 - theta. Balancing the two (``solve_alpha``) yields the base of
the cap-body illumination bound.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

GALLAI_UPPER = math.sqrt(1.5)  # base of the piercing-set size bound
GALLAI_LOWER = 2.0 / math.sqrt(3.0)  # base of the lower-bound construction
# Rows of the exponent table, at theta = (pi/2) i / (_TABLE_POINTS + 1).
_TABLE_POINTS = 9
# Width of the bracket ``solve_alpha`` bisects down to.
_ALPHA_TOL = 1e-9


def kl_exponent(theta: float) -> float:
    """Kabatjanskii-Levenstein packing exponent in bits per dimension.

    Defined for theta in (0, pi/2]; the 0*log2(0) term at theta = pi/2
    is taken as 0, giving kl_exponent(pi/2) = 0.
    """
    if not 0.0 < theta <= math.pi / 2:
        raise ValueError(f"theta must lie in (0, pi/2], got {theta}")
    s = math.sin(theta)
    a = (1.0 + s) / (2.0 * s)
    b = (1.0 - s) / (2.0 * s)
    out = a * math.log2(a)
    if b > 0.0:
        out -= b * math.log2(b)
    return out


def covering_exponent(theta: float) -> float:
    """Covering exponent -log2 cos(theta), bits per dimension.

    Rate of the number of caps of angular radius pi/2 - theta needed to
    cover the sphere.
    """
    if not 0.0 < theta < math.pi / 2:
        raise ValueError(f"theta must lie in (0, pi/2), got {theta}")
    return -math.log2(math.cos(theta))


def solve_alpha() -> float:
    """Root of kl_exponent(2x) = covering_exponent(x) on (0, pi/4), to
    within ``_ALPHA_TOL``.

    The difference decreases from +inf at 0+ to -1/2 at pi/4, so plain
    bisection is safe; capped at 200 iterations.
    """

    def h(x: float) -> float:
        return kl_exponent(2.0 * x) - covering_exponent(x)

    lo, hi = 1e-9, math.pi / 4 - 1e-12
    for _ in range(200):
        if hi - lo <= _ALPHA_TOL:
            break
        mid = 0.5 * (lo + hi)
        if h(mid) > 0.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def cap_share(n: int, angle: float) -> float:
    """Share of the unit sphere in R^n covered by one cap of angular
    radius ``angle`` in (0, pi/4]: I_x((n - 1)/2, 1/2) / 2, x = sin^2 angle.

    The regularized incomplete beta function is summed as the
    positive-term series

        I_x(a, b) = x^a (1 - x)^b / (a B(a, b)) * sum_k (a + b)_k / (a + 1)_k x^k,

    whose term ratio stays below x <= 1/2. With b = 1/2 the prefactor
    1 / (a B(a, 1/2)) = Gamma(a + 1/2) / (Gamma(a + 1) sqrt(pi)) follows
    by the recurrence (c + 1/2) / (c + 1) from c = 0 (value 1) or c = 1/2
    (value 2/pi), at most n/2 roundings. So the relative error stays
    within ~n eps wherever the result is a normal double; from n ~ 1000
    at pi/6 it underflows.
    """
    if n < 2:
        raise ValueError("dimension must be at least 2")
    if not 0.0 < angle <= math.pi / 4:
        raise ValueError(f"angle must lie in (0, pi/4], got {angle}")
    a = (n - 1) / 2
    x = math.sin(angle) ** 2
    ratio, c = (1.0, 0.0) if n % 2 else (2.0 / math.pi, 0.5)
    while c < a:
        ratio *= (c + 0.5) / (c + 1.0)
        c += 1.0
    total, term, k = 0.0, 1.0, 0
    while total + term != total:
        total += term
        term *= (a + 0.5 + k) / (a + 1.0 + k) * x
        k += 1
    return 0.5 * math.sqrt(1.0 - x) * ratio * total * x**a


@dataclass(frozen=True)
class ExponentReport:
    """Headline constants plus a sampled table of both exponents."""

    alpha_star: float
    bound_base: float  # 1 / cos(alpha_star)
    gallai_upper: float
    gallai_lower: float
    table: tuple[tuple[float, float, float], ...]  # (theta, packing, covering)

    def to_dict(self) -> dict:
        return {
            "alpha_star": self.alpha_star,
            "alpha_star_doubled_degrees": math.degrees(2.0 * self.alpha_star),
            "bound_base": self.bound_base,
            "gallai_upper": self.gallai_upper,
            "gallai_lower": self.gallai_lower,
            "table": [
                {"theta": t, "packing_bits": p, "covering_bits": c}
                for t, p, c in self.table
            ],
        }


def exponent_report() -> ExponentReport:
    """Assemble the headline constants and a grid of both exponents."""
    alpha = solve_alpha()
    rows = []
    for i in range(1, _TABLE_POINTS + 1):
        theta = (math.pi / 2) * i / (_TABLE_POINTS + 1)
        rows.append((theta, kl_exponent(theta), covering_exponent(theta)))
    return ExponentReport(
        alpha_star=alpha,
        bound_base=1.0 / math.cos(alpha),
        gallai_upper=GALLAI_UPPER,
        gallai_lower=GALLAI_LOWER,
        table=tuple(rows),
    )
