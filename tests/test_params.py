import json
import math
from dataclasses import asdict, replace

import pytest

from selfimprove import (BoundProblem, DomainError, ParameterError, TheoryParams,
                         effective_sigma, invariant_interval, load_config,
                         validate_domain)
from selfimprove.cli import _resolve_params, build_parser
from selfimprove.errors import require
from selfimprove.params import MAX_LEVELS, SIGMA_MAX
from selfimprove.regions import last_true

# sqrt(2*ln(20000)) at high precision
C_DELTA_DEFAULT = 4.450502792390120
FIELDS = ("c", "gamma", "delta", "delta_prime", "pi_size", "tau", "n", "m", "L",
          "beta_lo", "beta_hi")


def radii(p):
    """The closed forms of the two confidence radii."""
    return (math.sqrt(2.0 * math.log(p.pi_size / p.delta)),
            math.sqrt(math.log(1.0 / p.delta_prime) / 2.0))


def test_c_delta_default():
    assert TheoryParams(pi_size=1000, delta=0.05).c_delta == pytest.approx(
        C_DELTA_DEFAULT, abs=1e-12)


def test_delta_prime_one_gives_zero_radius():
    assert TheoryParams(delta_prime=1.0).c_delta_prime == 0.0


def test_single_question_budget():
    assert TheoryParams(n=1).default_nu == 1.0


def test_nu_squared_times_n_is_one():
    for n in (1, 7, 2000, 10_000):
        nu = TheoryParams(n=n).default_nu
        assert nu * nu * n == pytest.approx(1.0, abs=1e-12)


def test_nu_override_wins():
    args = build_parser().parse_args(["intervals", "--nu", "0.125"])
    params, nu_override, nu = _resolve_params(args)
    assert params.n == 2000 and nu_override == 0.125 and nu == 0.125
    args = build_parser().parse_args(["intervals"])
    assert _resolve_params(args) == (TheoryParams(), None, TheoryParams().default_nu)


def test_monotone_in_class_size_and_confidence():
    base = TheoryParams()
    assert TheoryParams(pi_size=100_000).c_delta > base.c_delta
    assert TheoryParams(delta=0.001).c_delta > base.c_delta
    assert TheoryParams(n=100_000).default_nu < base.default_nu


def test_radii_are_attributes_not_fields():
    p = TheoryParams()
    assert tuple(asdict(p)) == FIELDS
    assert (p.c_delta, p.c_delta_prime) == radii(p)
    assert "c_delta" not in repr(p)


def test_radii_follow_replace_and_with_betas():
    p = TheoryParams()
    tighter = replace(p, delta=0.01, delta_prime=0.2)
    assert (tighter.c_delta, tighter.c_delta_prime) == radii(tighter)
    assert tighter.c_delta > p.c_delta and tighter.c_delta_prime < p.c_delta_prime
    moved = tighter.with_betas(0.2, 0.9)
    assert (moved.c_delta, moved.c_delta_prime) == radii(moved) == radii(tighter)


def test_equal_params_stay_equal_and_hash_alike():
    p, q = TheoryParams(), replace(TheoryParams(delta=0.01), delta=0.05)
    assert p == q and hash(p) == hash(q) and len({p, q}) == 1
    assert TheoryParams(delta=0.01) != p


@pytest.mark.parametrize("kwargs,fragment", [
    (dict(c=0.0), "c must"),
    (dict(c=1.0), "c must"),
    (dict(gamma=1.0), "gamma"),
    (dict(gamma=-0.1), "gamma"),
    (dict(delta=0.0), "delta"),
    (dict(pi_size=1), "pi_size"),
    (dict(tau=0.0), "tau"),
    (dict(n=0), "n must"),
    (dict(m=0), "m must"),
    (dict(L=1), "L must"),
    (dict(beta_lo=0.0), "beta_lo"),
    (dict(beta_lo=0.5, beta_hi=0.5), "beta_hi"),
    (dict(beta_hi=1e308), "underflows"),
    (dict(L=MAX_LEVELS + 1), "L must"),
    (dict(n=True), "n must"),
    (dict(m=True), "m must"),
])
def test_invalid_parameters_name_the_invariant(kwargs, fragment):
    with pytest.raises(ParameterError, match=fragment):
        TheoryParams(**kwargs)


def test_validate_domain_noiseless_always_valid():
    p = TheoryParams(beta_lo=1.5, beta_hi=3.0)
    report = validate_domain(p, 0.0)
    assert report == {"invariant_interval_baseline": None,
                      "invariant_interval_hard": None, "error_functional": None}


def test_validate_domain_flags_fold():
    p = TheoryParams()
    report = validate_domain(p, 0.12)
    assert "sqrt(4/27)" in report["invariant_interval_baseline"]


def test_validate_domain_flags_hard_radicand():
    # 2^(-beta_hi)*(1-gamma) <= c_delta_prime*nu breaks the curriculum maps
    p = TheoryParams(beta_hi=6.0, beta_lo=0.1)
    assert 2.0 ** (-p.beta_hi) * (1 - p.gamma) <= p.c_delta_prime * 0.02
    report = validate_domain(p, 0.02)
    assert report["invariant_interval_hard"] is not None
    assert report["error_functional"] is not None


def test_validate_domain_hard_interval_agrees_with_the_error_functional_at_tiny_budget():
    # The hardest level's radicand 2^(-40)*(1-gamma) - c_delta_prime*1e-20 is
    # about 9e-13: positive, so both computations hold.
    report = validate_domain(TheoryParams(beta_hi=40.0), 1e-20)
    assert report == {"invariant_interval_baseline": None,
                      "invariant_interval_hard": None, "error_functional": None}


def test_validate_domain_is_the_computations_verdict():
    """On both sides of the baseline interval's near-fold edge (sigma 1e-10
    below the fold) and of the error functional's series breakdown, each
    entry says what the computation itself does."""
    p = TheoryParams()

    def sigma_below(nu: float) -> bool:
        try:
            sigma = effective_sigma(1.0, p, nu)
        except DomainError:
            return False
        return sigma < SIGMA_MAX - 1e-10

    def functional_defined(nu: float) -> bool:
        try:
            BoundProblem(p).error(nu)
        except DomainError:
            return False
        return True

    for holds in (sigma_below, functional_defined):
        edge, _ = last_true(holds, 0.0, 1.0)
        for nu in (edge, math.nextafter(edge, 1.0)):
            report = validate_domain(p, nu)
            for name, a in (("baseline", 1.0), ("hard", 2.0 ** -p.beta_hi)):
                assert ((report[f"invariant_interval_{name}"] is None)
                        == invariant_interval(a, p, nu).valid), (holds.__name__, nu, name)
            assert (report["error_functional"] is None) == functional_defined(nu)


@pytest.mark.parametrize("nu", [-1.0, -0.01, math.nan])
def test_validate_domain_reports_the_budget_rule_everywhere(nu):
    report = validate_domain(TheoryParams(), nu)
    assert report == dict.fromkeys(("invariant_interval_baseline", "invariant_interval_hard",
                                    "error_functional"), "nu must be non-negative")


def test_load_config_roundtrip(tmp_path):
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"c": 0.8, "beta_lo": 0.2, "beta_hi": 0.9, "n": 500}))
    p, nu, keys = load_config(str(path))
    assert p.c == 0.8 and p.n == 500 and nu is None
    assert keys == {"c", "beta_lo", "beta_hi", "n"}


def test_load_config_rejects_unknown_keys(tmp_path):
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"c": 0.8, "bogus": 1}))
    with pytest.raises(ParameterError, match="bogus"):
        load_config(str(path))


def test_load_config_rejects_both_n_and_nu(tmp_path):
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"n": 100, "nu": 0.25}))
    with pytest.raises(ParameterError, match="config sets both n and nu; set one"):
        load_config(str(path))


def test_load_config_rejects_a_null_nu(tmp_path):
    # JSON null is not a number: it must not read as an absent override.
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"nu": None}))
    with pytest.raises(ParameterError, match="nu must be a number, got None"):
        load_config(str(path))


def test_require_raises_the_message_of_the_first_rule_that_fails():
    require((True, "first"), (1 > 0, "second"))
    with pytest.raises(ParameterError, match="^second$"):
        require((True, "first"), (False, "second"), (False, "third"))
    with pytest.raises(ParameterError, match="^nan$"):
        require((math.nan > 0.0, "nan"))


def test_load_config_rejects_fractional_integers(tmp_path):
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"L": 4.5}))
    with pytest.raises(ParameterError, match="L must be an integer"):
        load_config(str(path))


def test_params_are_immutable():
    p = TheoryParams()
    with pytest.raises(Exception):
        p.c = 0.5


def test_nu_zero_behaves_like_infinite_budget():
    p = TheoryParams()
    assert math.isfinite(p.c_delta)
    iv = invariant_interval(1.0, p, 0.0)
    assert (iv.lo, iv.hi, iv.valid) == (0.0, 1.0 - p.gamma, True)


def test_load_config_rejects_non_object(tmp_path):
    path = tmp_path / "config.json"
    path.write_text(json.dumps([1, 2, 3]))
    with pytest.raises(ParameterError, match="JSON object"):
        load_config(str(path))
