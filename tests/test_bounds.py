"""Coverage-fraction formulas and the symbolic count recursion.

Oracle values, derived by hand before reading any code output:
lam(1, 2) = 1 / (4 * 2 * 27) = 1/216; lam(1/2, 3) = (1/32) / (12 * 81)
= 1/31104; the default beta at alpha = 15/16, d = 1 is the largest
dyadic q with (1 - q)^2 >= 1/16, whose true root is 3/4.
"""

from __future__ import annotations

import pytest

from hellykit.bounds import (
    BETA_DEFAULT_LABEL,
    M,
    Sym,
    beta_default,
    f_prime,
    g_prime,
    gamma,
    lam,
    split_f,
    split_g,
)
from hellykit.errors import InputError
from hellykit.rationals import ONE, rat


def test_lambda_frozen_values():
    assert lam(1, 2) == rat(1, 216)
    assert lam(rat(1, 2), 3) == rat(1, 31104)


def test_lambda_rejects_bad_inputs():
    with pytest.raises(InputError):
        lam(0, 2)
    with pytest.raises(InputError):
        lam(2, 2)
    with pytest.raises(InputError):
        lam(1, 0)


def test_beta_default_is_a_certified_lower_bound():
    for alpha, d in ((rat(15, 16), 1), (rat(1, 2), 2), (rat(1, 216), 2)):
        b = beta_default(alpha, d)
        assert 0 < b < 1
        # certificate: (1 - b)^(d+1) >= 1 - alpha with exact arithmetic
        assert (ONE - b) ** (d + 1) >= ONE - alpha


def test_beta_default_approaches_the_true_root_from_below():
    # true root at alpha = 15/16, d = 1 is exactly 3/4
    b = beta_default(rat(15, 16), 1)
    assert rat(3, 4) - rat(1, 2) ** 40 <= b <= rat(3, 4)


def test_beta_at_one_is_one():
    assert beta_default(1, 3) == 1


def test_gamma_takes_the_binding_minimum():
    g = gamma(1, 2)
    assert g == min(beta_default(2 * lam(1, 2), 2), rat(1, 12))
    assert 0 < g <= rat(1, 12)


def test_beta_label_names_the_dyadic_bound():
    assert "dyadic" in BETA_DEFAULT_LABEL


def test_m_base_cases_are_exact():
    assert M(1, 5) == 1
    assert M(2, 5) == 5
    assert M(1, 2) == 1


def test_m_deeper_levels_are_symbolic():
    m = M(3, 4)
    assert isinstance(m, Sym)
    text = str(m)
    assert "W_hpl" in text and "lambda" in text


def test_m_range_checks():
    with pytest.raises(InputError):
        M(0, 3)
    with pytest.raises(InputError):
        M(4, 3)
    with pytest.raises(InputError):
        M(1, 1)


def test_planar_counts_are_the_known_constants():
    assert f_prime(2) == 1
    assert g_prime(2) == 4


def test_higher_counts_stay_symbolic():
    assert isinstance(f_prime(3), Sym)
    assert isinstance(g_prime(3), Sym)
    improved = g_prime(3, improved=True)
    assert str(improved).endswith("+ 1")


def test_symbolic_values_refuse_arithmetic():
    with pytest.raises(TypeError):
        f_prime(3) + 1


def test_split_forms():
    assert split_g(3, 3) == 1
    assert isinstance(split_f(2, 3), Sym)
    # k = 1 takes all of the other classes down with M(2, 2) = 2 flats
    assert str(split_f(1, 2)) == "W(gamma(1/2, 1), 0, 2)"


def test_split_range_checks():
    with pytest.raises(InputError):
        split_f(0, 2)
    with pytest.raises(InputError):
        split_g(3, 2)
