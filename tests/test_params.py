import json
import math

import pytest

from selfimprove import (BoundProblem, DomainError, ParameterError, TheoryParams,
                         derive_constants, effective_sigma, invariant_interval,
                         load_config, validate_domain)
from selfimprove.checks import last_true
from selfimprove.params import SIGMA_MAX

# sqrt(2*ln(20000)) at high precision
C_DELTA_DEFAULT = 4.450502792390120


def test_derive_constants_default():
    d = derive_constants(TheoryParams(pi_size=1000, delta=0.05))
    assert d.c_delta == pytest.approx(C_DELTA_DEFAULT, abs=1e-12)


def test_delta_prime_one_gives_zero_radius():
    d = derive_constants(TheoryParams(delta_prime=1.0))
    assert d.c_delta_prime == 0.0


def test_single_question_budget():
    d = derive_constants(TheoryParams(n=1))
    assert d.nu == 1.0


def test_nu_squared_times_n_is_one():
    for n in (1, 7, 2000, 10_000):
        p = TheoryParams(n=n)
        d = derive_constants(p)
        assert d.nu * d.nu * n == pytest.approx(1.0, abs=1e-12)


def test_nu_override_wins():
    d = derive_constants(TheoryParams(n=2000), nu=0.125)
    assert d.nu == 0.125


def test_monotone_in_class_size_and_confidence():
    base = derive_constants(TheoryParams())
    assert derive_constants(TheoryParams(pi_size=100_000)).c_delta > base.c_delta
    assert derive_constants(TheoryParams(delta=0.001)).c_delta > base.c_delta
    assert derive_constants(TheoryParams(n=100_000)).nu < base.nu


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
])
def test_invalid_parameters_name_the_invariant(kwargs, fragment):
    with pytest.raises(ParameterError, match=fragment):
        TheoryParams(**kwargs)


def test_validate_domain_noiseless_always_valid():
    p = TheoryParams(beta_lo=1.5, beta_hi=3.0)
    report = validate_domain(p, derive_constants(p, nu=0.0))
    assert report.all_valid
    assert report.sigma_degenerate


def test_validate_domain_flags_fold():
    p = TheoryParams()
    report = validate_domain(p, derive_constants(p, nu=0.12))
    entry = report.entry("invariant_interval_baseline")
    assert not entry.valid
    assert "sqrt(4/27)" in entry.first_violation


def test_validate_domain_flags_hard_radicand():
    # 2^(-beta_hi)*(1-gamma) <= c_delta_prime*nu breaks the curriculum maps
    p = TheoryParams(beta_hi=6.0, beta_lo=0.1)
    d = derive_constants(p, nu=0.02)
    assert 2.0 ** (-p.beta_hi) * (1 - p.gamma) <= d.c_delta_prime * d.nu
    report = validate_domain(p, d)
    assert not report.entry("invariant_interval_hard").valid
    assert not report.entry("error_functional").valid


def test_validate_domain_is_the_computations_verdict():
    """On both sides of the baseline interval's near-fold edge (sigma 1e-10
    below the fold) and of the error functional's series breakdown, each
    entry says what the computation itself does."""
    p = TheoryParams()

    def sigma_below(nu: float) -> bool:
        try:
            sigma = effective_sigma(1.0, p, derive_constants(p, nu=nu))
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
        edge = last_true(holds, 0.0, 1.0)
        for nu in (edge, math.nextafter(edge, 1.0)):
            d = derive_constants(p, nu=nu)
            report = validate_domain(p, d)
            for name, a in (("baseline", 1.0), ("hard", 2.0 ** -p.beta_hi)):
                assert (report.entry(f"invariant_interval_{name}").valid
                        == invariant_interval(a, p, d).valid), (holds.__name__, nu, name)
            assert report.entry("error_functional").valid == functional_defined(nu)


def test_load_config_roundtrip(tmp_path):
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"c": 0.8, "beta_lo": 0.2, "beta_hi": 0.9, "n": 500}))
    p, nu = load_config(str(path))
    assert p.c == 0.8 and p.n == 500 and nu is None


def test_load_config_rejects_unknown_keys(tmp_path):
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"c": 0.8, "bogus": 1}))
    with pytest.raises(ParameterError, match="bogus"):
        load_config(str(path))


def test_load_config_nu_wins_with_warning(tmp_path):
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"n": 100, "nu": 0.25}))
    with pytest.warns(UserWarning, match="nu wins"):
        p, nu = load_config(str(path))
    assert nu == 0.25
    assert derive_constants(p, nu=nu).nu == 0.25


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
    d = derive_constants(p, nu=0.0)
    assert d.nu == 0.0
    assert math.isfinite(d.c_delta)


def test_negative_nu_override_rejected():
    with pytest.raises(ParameterError, match="non-negative"):
        derive_constants(TheoryParams(), nu=-0.1)


def test_load_config_rejects_non_object(tmp_path):
    path = tmp_path / "config.json"
    path.write_text(json.dumps([1, 2, 3]))
    with pytest.raises(ParameterError, match="JSON object"):
        load_config(str(path))
