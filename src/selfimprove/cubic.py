"""Invariant intervals of the lower-bound maps via a depressed cubic.

Every map x -> 1 - gamma - c_delta*nu / (c*sqrt(a*x - c_delta_prime*nu)) is
affinely conjugate to g(y) = 1 - sigma/sqrt(y) on (0, 1), whose fixed points
solve y*(1-y)^2 = sigma^2.  That cubic is solved in closed form with the
trigonometric method, which keeps the two real roots in (0,1) separated and
accurate even near the fold at sigma = sqrt(4/27).  The radii come from
``TheoryParams``; the budget ``nu`` is a plain float argument.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import DomainError
from .params import SIGMA_MAX, TheoryParams

# Below this margin from the fold the two roots coalesce and downstream
# monotonicity guarantees degrade; such sigma are reported invalid.
NEAR_DEGENERATE_MARGIN = 1e-8


@dataclass(frozen=True)
class Interval:
    """Open interval with a validity flag; ``reason`` explains invalidity."""

    lo: float
    hi: float
    valid: bool
    reason: str | None = None

    @property
    def length(self) -> float:
        return self.hi - self.lo if self.valid else 0.0


def effective_sigma(a: float, p: TheoryParams, nu: float) -> float:
    """Noise parameter of the conjugated map for scale coefficient ``a``.

    Requires a*(1-gamma) > c_delta_prime*nu so the conjugating affine change
    of variables is orientation preserving, and a finite result.
    """
    if a <= 0.0:
        raise DomainError("scale coefficient a must be positive")
    nu = float(nu)
    inner = a * (1.0 - p.gamma) - p.c_delta_prime * nu
    if inner <= 0.0:
        raise DomainError(
            "radicand a*(1-gamma) - c_delta_prime*nu must be positive "
            f"(got {inner!r} for a={a!r}, nu={nu!r})"
        )
    try:
        sigma = a * p.c_delta * nu / (p.c * inner ** 1.5)
    except OverflowError:
        # inner ** 1.5 overflows for a huge scale, yet sigma ~ nu/sqrt(a) is
        # then tiny: divide a by inner before scaling.
        sigma = (a / inner) * p.c_delta * nu / (p.c * math.sqrt(inner))
    if not math.isfinite(sigma):
        raise DomainError(f"sigma overflows for a={a!r}, nu={nu!r}")
    return sigma


def _check_sigma(sigma: float) -> None:
    if not 0.0 < sigma < SIGMA_MAX:
        raise DomainError(f"sigma must lie in (0, sqrt(4/27)); got {sigma!r}")


def _half_angle(sigma: float) -> float:
    # u = arccos(-1 + 27/2 sigma^2)/3 in (0, pi/3); clamp absorbs float drift
    # at the fold boundary.
    arg = -1.0 + 13.5 * sigma * sigma
    arg = min(1.0, max(-1.0, arg))
    return math.acos(arg) / 3.0


def cubic_roots(sigma: float) -> tuple[float, float]:
    """Two roots in (0,1) of y*(1-y)^2 = sigma^2, smaller first.

    Trigonometric solution of the depressed cubic obtained by y = z + 2/3:
    the branch at 2*pi/3 gives the root in (1/3, 1), the branch at 4*pi/3
    the root in (0, 1/3); the remaining branch exceeds 1.
    """
    _check_sigma(sigma)
    u = _half_angle(sigma)
    y_plus = 2.0 / 3.0 + (2.0 / 3.0) * math.cos(u - 2.0 * math.pi / 3.0)
    y_minus = 2.0 / 3.0 + (2.0 / 3.0) * math.cos(u - 4.0 * math.pi / 3.0)
    return y_minus, y_plus


def exact_root_gap(sigma: float) -> float:
    """Exact distance between the two roots: (2/sqrt(3))*sin(u)."""
    _check_sigma(sigma)
    return 2.0 / math.sqrt(3.0) * math.sin(_half_angle(sigma))


def gap_lower_bound(sigma: float) -> float:
    """Closed-form lower bound 1 - (3*sqrt(3)/2)*sigma on the root gap.

    Accepts the fold boundary itself, where both the bound and the exact gap
    vanish.
    """
    if not 0.0 < sigma <= SIGMA_MAX:
        raise DomainError(f"sigma must lie in (0, sqrt(4/27)]; got {sigma!r}")
    return 1.0 - (3.0 * math.sqrt(3.0) / 2.0) * sigma


def invariant_interval(a: float, p: TheoryParams, nu: float) -> Interval:
    """Open interval between the two fixed points of the scale-``a`` map.

    Iterates started inside increase strictly and stay inside.  Returns an
    invalid ``Interval`` (never raises) when the regime fails: non-positive
    radicand, sigma overflowing, at or beyond the fold, or within the
    near-degenerate margin of it.  At nu = 0 the interval is exactly
    (0, 1-gamma).
    """
    if a <= 0.0:
        return Interval(math.nan, math.nan, False, "scale coefficient a must be positive")
    nu = float(nu)
    if nu == 0.0:
        return Interval(0.0, 1.0 - p.gamma, True)

    try:
        sigma = effective_sigma(a, p, nu)
    except DomainError as exc:
        return Interval(math.nan, math.nan, False, str(exc))
    if sigma >= SIGMA_MAX - NEAR_DEGENERATE_MARGIN:
        reason = ("near-degenerate: sigma within 1e-8 of sqrt(4/27)"
                  if sigma < SIGMA_MAX else "sigma at or beyond sqrt(4/27)")
        return Interval(math.nan, math.nan, False, reason)

    # A budget so small that sigma underflows to 0 has the roots of the
    # nu -> 0 limit, y = 0 and y = 1, to double precision.
    y_minus, y_plus = cubic_roots(sigma) if sigma > 0.0 else (0.0, 1.0)
    offset = p.c_delta_prime * nu / a
    scale = 1.0 - p.gamma - offset
    return Interval(offset + scale * y_minus, offset + scale * y_plus, True)
