"""An exact oracle for the improvement margin of ``regions``: the same terms,
assembled one by one in the standard library's ``decimal`` at 60 digits, and
a bisection to well below double precision; and the flags of ``montecarlo``'s
classifiers from both maps iterated at 60 digits.  Each function works under
a local context, so the caller's ``decimal`` context never changes; floats
convert to ``Decimal`` exactly."""

import math
from decimal import Context, Decimal, localcontext

_CONTEXT = Context(prec=60)
_SERIES_GUARD = Decimal("1e-10")  # rho must stay below 1 - _SERIES_GUARD, as in regions


class ExactMargin:
    """The margin of one parameter set ``p``.  The set's constants are formed
    once: the confidence radii, the level sum, ``first`` and ``final``, and
    the factors 2^(-beta_hi), exp(-beta_hi/L) and L^(-beta_hi)."""

    def __init__(self, p) -> None:
        with localcontext(_CONTEXT):
            L, beta_lo, beta_hi = Decimal(p.L), Decimal(p.beta_lo), Decimal(p.beta_hi)
            self.L, self.c, self.gamma = p.L, Decimal(p.c), Decimal(p.gamma)
            self.cd = (2 * (Decimal(p.pi_size) / Decimal(p.delta)).ln()).sqrt()
            self.cdp = ((1 / Decimal(p.delta_prime)).ln() / 2).sqrt()
            level_sum = sum(Decimal(i) ** -beta_lo for i in range(1, p.L + 1))
            self.first, self.final = L / level_sum, level_sum / L ** (1 - beta_lo)
            self.hard, self.decay = 2 ** -beta_hi, (-beta_hi / L).exp()
            self.hard_weight = L ** -beta_hi

    def evaluate(self, nu, x0=math.inf):
        """``(margin, baseline, rho)`` at budget ``nu`` and initialization
        ``x0`` (``inf`` is the large-initialization limit, where the residual
        term vanishes).  The margin is ``None`` outside its domain: a radicand
        that is not positive, or ``rho >= 1 - 1e-10``.  The baseline is
        infinite, and ``rho`` is ``None``, where their radicands are not."""
        with localcontext(_CONTEXT):
            nu, gamma = Decimal(nu), self.gamma
            scaled = self.cd * nu / self.c
            base_inner = 1 - gamma - self.cdp * nu
            if base_inner <= 0:
                return None, Decimal("Infinity"), None
            q = scaled / (2 * base_inner * base_inner.sqrt())
            baseline = scaled / base_inner.sqrt() * sum(q ** j for j in range(self.L - 1))
            residual = 0
            if x0 != math.inf:
                res_inner = self.first * Decimal(x0) - self.cdp * nu
                if res_inner <= 0:
                    return None, baseline, None
                residual = scaled / res_inner.sqrt()
            ratio_inner = self.hard * (1 - gamma - residual) - self.cdp * nu
            if ratio_inner <= 0:
                return None, baseline, None
            ratio = scaled / (2 * ratio_inner * ratio_inner.sqrt())
            rho = ratio * self.decay
            if rho >= 1 - _SERIES_GUARD:
                return None, baseline, rho
            hard_inner = self.hard * (1 - gamma) - self.cdp * nu  # >= ratio_inner
            tail = scaled / hard_inner.sqrt() / (1 - rho)
            hard_term = ratio ** (self.L - 1) * self.hard_weight * residual
            error = baseline - self.final * (tail + hard_term)
            return -error - (self.final - 1) * (1 - gamma) / 2, baseline, rho


class ExactRuns(ExactMargin):
    """The baseline and easy-to-hard maps of one parameter set ``p``, with
    the margin's constants and the difficulty ratios (1 + 1/t)^(-beta_hi)."""

    def __init__(self, p) -> None:
        super().__init__(p)
        with localcontext(_CONTEXT):
            neg = -Decimal(p.beta_hi)
            self.schedule = (self.first,) + tuple(
                (Decimal(t + 1) / t) ** neg for t in range(1, p.L))

    def run(self, schedule, x0, nu):
        """``x0`` and its images under the maps of ``schedule``, or ``None``
        once a radicand ``a*x - c_delta_prime*nu`` is not positive."""
        with localcontext(_CONTEXT):
            nu = Decimal(nu)
            values = [Decimal(x0)]
            for a in schedule:
                inner = a * values[-1] - self.cdp * nu
                if inner <= 0:
                    return None
                values.append(1 - self.gamma - self.cd * nu / (self.c * inner.sqrt()))
            return values

    def flags(self, x0, nu) -> tuple[bool, bool]:
        """``(feasible, improving)`` at start ``x0`` and budget ``nu``, exactly:
        both runs in-domain, and both never falling (the easy-to-hard run from
        its first image on), or the rescaled easy-to-hard final value above
        the baseline's."""
        base, cur = self.run((1,) * self.L, x0, nu), self.run(self.schedule, x0, nu)
        if base is None or cur is None:
            return False, False
        with localcontext(_CONTEXT):
            never_falls = all(b >= a for run in (base, cur[1:]) for a, b in zip(run, run[1:]))
            return never_falls, self.final * cur[-1] > base[-1]


def bisect(holds, near: float) -> Decimal:
    """The last point of [near/2, 2 near] where ``holds`` is true, after 180
    halvings; ``holds`` must be true at near/2 and false at 2 near."""
    with localcontext(_CONTEXT):
        lo, hi = Decimal(near) / 2, Decimal(near) * 2
        assert holds(lo) and not holds(hi)
        for _ in range(180):
            mid = (lo + hi) / 2
            lo, hi = (mid, hi) if holds(mid) else (lo, mid)
        return lo
