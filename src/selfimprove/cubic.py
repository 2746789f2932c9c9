"""Invariant intervals of the lower-bound maps via a depressed cubic.

Every map x -> 1 - gamma - c_delta*nu / (c*sqrt(a*x - c_delta_prime*nu)) is
affinely conjugate to g(y) = 1 - sigma/sqrt(y) on (0, 1), whose fixed points
solve y*(1-y)^2 = sigma^2.  That cubic is solved in closed form with the
trigonometric method, which keeps the two real roots in (0,1) separated and
accurate even near the fold at sigma = sqrt(4/27).  The radii come from
``TheoryParams``.  Every function broadcasts over the scale ``a`` and the
budget ``nu`` (or ``sigma``), follows the domain convention of ``errors``,
and returns Python floats on scalars.  Each operation has libm's bits, so
an array call equals its scalar calls: ``np.float_power`` is C ``pow``, as
``**``, numpy's ``sqrt``, ``cos`` and ``sin`` are libm's, and ``acos`` is
``math.acos``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import masked, verdicts
from .params import SIGMA_MAX, TheoryParams

# Below this margin from the fold the two roots coalesce and downstream
# monotonicity guarantees degrade; such sigma are reported invalid.
NEAR_DEGENERATE_MARGIN = 1e-8

# The scale-``a`` regime in test order (``effective_sigma`` checks the first
# four conditions, ``invariant_interval`` all six), then the roots' domain.
_CONDITIONS = (
    "nu must be non-negative",
    "scale coefficient a must be positive",
    "radicand a*(1-gamma) - c_delta_prime*nu must be positive "
    "(got {inner!r} for a={a!r}, nu={nu!r})",
    "sigma overflows for a={a!r}, nu={nu!r}",
    "sigma at or beyond sqrt(4/27)",
    "near-degenerate: sigma within 1e-8 of sqrt(4/27)",
)
_ROOTS_DOMAIN = "sigma must lie in (0, sqrt(4/27)); got {sigma!r}"

# numpy's arccos is not libm's acos: it differs in the last bit on about 6%
# of the arguments here, which would move the roots and every interval.
_ACOS = np.frompyfunc(math.acos, 1, 1)


@dataclass(frozen=True)
class Interval:
    """Open interval with a validity flag; ``reason`` explains invalidity.
    The fields of many are arrays; ``length`` is for one."""

    lo: float
    hi: float
    valid: bool
    reason: str | None = None

    @property
    def length(self) -> float:
        return self.hi - self.lo if self.valid else 0.0


def _sigma(a, p: TheoryParams, nu):
    """``a`` and ``nu`` as numpy floats (which divide by zero without
    raising), the radicand, sigma and the first four conditions, unmasked;
    a NaN budget fails the first, and a NaN scale (negated comparisons) the
    last, as NaN sigma does."""
    a, nu = np.asarray(a, dtype=float)[()], np.asarray(nu, dtype=float)[()]
    inner = a * (1.0 - p.gamma) - p.c_delta_prime * nu
    power = np.float_power(inner, 1.5)
    # Where inner^(3/2) overflows (inf, where ``**`` raises OverflowError),
    # a is huge and sigma ~ nu/sqrt(a) tiny: divide a by inner before scaling.
    sigma = np.where(np.isinf(power), (a / inner) * p.c_delta * nu / (p.c * np.sqrt(inner)),
                     a * p.c_delta * nu / (p.c * power))
    return a, nu, inner, sigma, (nu >= 0.0, ~(a <= 0.0), ~(inner <= 0.0), np.isfinite(sigma))


def effective_sigma(a, p: TheoryParams, nu):
    """Noise parameter of the conjugated map for scale coefficient ``a``.

    Requires nu >= 0 and a*(1-gamma) > c_delta_prime*nu so the conjugating
    affine change of variables is orientation preserving, and a finite result.
    """
    with np.errstate(all="ignore"):
        a, nu, inner, sigma, holds = _sigma(a, p, nu)
    return masked(_CONDITIONS[:4], holds, sigma, a=a, nu=nu, inner=inner)


def _roots(sigma):
    """The half angle u = arccos(-1 + 27/2 sigma^2)/3 in (0, pi/3) and the two
    roots in (0, 1) of y*(1-y)^2 = sigma^2, smaller first, unmasked; the
    clamp absorbs float drift at the fold boundary."""
    arg = np.minimum(np.maximum(-1.0 + 13.5 * sigma * sigma, -1.0), 1.0)
    u = np.asarray(_ACOS(arg), dtype=float) / 3.0
    return u, (2.0 / 3.0 + (2.0 / 3.0) * np.cos(u - 4.0 * math.pi / 3.0),
               2.0 / 3.0 + (2.0 / 3.0) * np.cos(u - 2.0 * math.pi / 3.0))


def cubic_roots(sigma) -> tuple:
    """Two roots in (0,1) of y*(1-y)^2 = sigma^2, smaller first.

    Trigonometric solution of the depressed cubic obtained by y = z + 2/3:
    the branch at 2*pi/3 gives the root in (1/3, 1), the branch at 4*pi/3
    the root in (0, 1/3); the remaining branch exceeds 1.
    """
    with np.errstate(all="ignore"):
        _, roots = _roots(sigma)
    holds = (np.asarray(0.0 < sigma) & (sigma < SIGMA_MAX),)
    return tuple(masked((_ROOTS_DOMAIN,), holds, y, sigma=sigma) for y in roots)


def exact_root_gap(sigma):
    """Exact distance between the two roots: (2/sqrt(3))*sin(u)."""
    with np.errstate(all="ignore"):
        u, _ = _roots(sigma)
        gap = 2.0 / math.sqrt(3.0) * np.sin(u)
    holds = (np.asarray(0.0 < sigma) & (sigma < SIGMA_MAX),)
    return masked((_ROOTS_DOMAIN,), holds, gap, sigma=sigma)


def gap_lower_bound(sigma):
    """Closed-form lower bound 1 - (3*sqrt(3)/2)*sigma on the root gap.

    Accepts the fold boundary itself, where both the bound and the exact gap
    vanish.
    """
    holds = (np.asarray(0.0 < sigma) & (sigma <= SIGMA_MAX),)
    return masked(("sigma must lie in (0, sqrt(4/27)]; got {sigma!r}",), holds,
                  1.0 - (3.0 * math.sqrt(3.0) / 2.0) * sigma, sigma=sigma)


def invariant_interval(a, p: TheoryParams, nu) -> Interval:
    """Open interval between the two fixed points of the scale-``a`` map.

    Iterates started inside increase strictly and stay inside.  Returns an
    invalid ``Interval`` (never raises) when the regime fails: negative or
    NaN budget, non-positive scale or radicand, sigma overflowing, at or
    beyond the fold, or within the near-degenerate margin of it.  At nu = 0 the interval is exactly
    (0, 1-gamma).  On arrays, an ``Interval`` of arrays, NaN where invalid.
    """
    with np.errstate(all="ignore"):
        a, nu, inner, sigma, holds = _sigma(a, p, nu)
        zero = np.asarray(nu == 0.0)
        holds = (*holds[:2], *(held | zero for held in (
            *holds[2:], sigma < SIGMA_MAX, sigma < SIGMA_MAX - NEAR_DEGENERATE_MARGIN)))
        # A budget so small that sigma underflows to 0 has the roots of the
        # nu -> 0 limit, y = 0 and y = 1, to double precision.
        _, (y_minus, y_plus) = _roots(sigma)
        positive = sigma > 0.0
        offset = p.c_delta_prime * nu / a
        scale = 1.0 - p.gamma - offset
        lo = np.where(zero, 0.0, offset + scale * np.where(positive, y_minus, 0.0))
        hi = np.where(zero, 1.0 - p.gamma, offset + scale * np.where(positive, y_plus, 1.0))
    valid, reason = verdicts(_CONDITIONS, holds, a=a, nu=nu, inner=inner)
    if valid.ndim == 0:
        return (Interval(float(lo), float(hi), True) if valid
                else Interval(math.nan, math.nan, False, reason))
    return Interval(np.where(valid, lo, np.nan), np.where(valid, hi, np.nan), valid, reason)
