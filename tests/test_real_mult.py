"""Continued fractions, fixing matrices, real-multiplication Hilbert data."""

import random
from fractions import Fraction

import pytest

from ncproj.fields import QuadExt
from ncproj import real_mult
from ncproj.heart import Charge, euler_pairing
from ncproj.real_mult import (CFExpansion, SL2Matrix, apply_word, cf_expand,
                              cf_value, fixing_matrix, mobius_act, morita_reduce,
                              rm_hilbert)

rng = random.Random(5501)
PHI_CONJ = QuadExt(-1, 1, 2, 5)          # (sqrt(5) - 1)/2


def rand_quad():
    D = rng.choice([2, 3, 5, 6, 7, 10, 11, 13])
    while True:
        x = QuadExt(rng.randint(-30, 30), rng.choice([-3, -2, -1, 1, 2, 3]),
                    rng.randint(1, 12), D)
        if not x.is_rational():
            return x


def test_sl2_validation_and_group_ops():
    with pytest.raises(ValueError):
        SL2Matrix(1, 1, 1, 1)
    g = SL2Matrix(1, 1, 0, 1)
    h = SL2Matrix(0, 1, -1, 0)
    assert (g * g.inverse()).entries() == [[1, 0], [0, 1]]
    assert (g ** 3).entries() == [[1, 3], [0, 1]]
    assert (g ** -2).entries() == [[1, -2], [0, 1]]
    assert (h * h).entries() == [[-1, 0], [0, -1]]
    assert (h * h * h * h).entries() == [[1, 0], [0, 1]]


def test_mobius_action_is_group_action():
    for _ in range(100):
        x = rand_quad()
        g = SL2Matrix(1, 1, 0, 1) ** rng.randint(-3, 3)
        h = SL2Matrix(1, 0, 1, 1) ** rng.randint(-2, 2)
        lhs = mobius_act(g * h, x)
        rhs = mobius_act(g, mobius_act(h, x))
        assert lhs == rhs
    assert mobius_act(SL2Matrix.identity(), PHI_CONJ) == PHI_CONJ


def test_cf_golden_and_sqrt2():
    cf = cf_expand(PHI_CONJ)
    assert cf.preperiod == [0] and cf.period == [1]
    cf2 = cf_expand(QuadExt.sqrt(2))
    assert cf2.preperiod == [1] and cf2.period == [2]
    assert (cf.preperiod + cf.period * 4)[:5] == [0, 1, 1, 1, 1]


def test_cf_rejects_rational():
    with pytest.raises(ValueError):
        cf_expand(QuadExt.from_rational(Fraction(3, 7), 5))


def test_cf_roundtrip_random():
    for _ in range(100):
        x = rand_quad()
        cf = cf_expand(x, max_terms=200)
        assert cf.period, x
        assert cf_value(cf.preperiod, cf.period, x.D) == x


def test_cf_convergents_approach():
    # truncated continued fraction of sqrt(2) gives the Pell convergents
    cf = cf_expand(QuadExt.sqrt(2))
    terms = (cf.preperiod + cf.period * 3)[:4]   # [1, 2, 2, 2]
    val = Fraction(terms[-1])
    for a in reversed(terms[:-1]):
        val = a + 1 / val
    assert val == Fraction(17, 12)


def test_morita_reduce():
    for _ in range(100):
        x = rand_quad()
        reduced, word = morita_reduce(x)
        zero = QuadExt.from_rational(0, x.D)
        one = QuadExt.from_rational(1, x.D)
        assert zero < reduced < one
        assert apply_word(word, x) == reduced
    r, w = morita_reduce(PHI_CONJ)
    assert r == PHI_CONJ and w == []


def test_apply_word_is_one_action_per_letter():
    """(g, e) acts as g^e = [[1, e], [0, 1]] at once, so a huge exponent
    costs one action; small words agree with the group law."""
    x = QuadExt(1, 3, 2, 7)
    assert apply_word([("g", -10**12)], x) == x - 10**12
    g = SL2Matrix(1, 1, 0, 1)
    for word in ([], [("g", 3)], [("g", -2), ("g", 4)], [("g", 0), ("g", -1), ("g", -3)]):
        want = x
        for _, e in word:
            want = mobius_act(g ** e, want)
        assert apply_word(word, x) == want
    with pytest.raises(ValueError, match="unknown generator"):
        apply_word([("h", 1)], x)


def test_fixing_matrix_golden():
    g = fixing_matrix(PHI_CONJ)
    assert g.entries() == [[1, 1], [1, 2]]
    assert g.trace() == 3
    assert mobius_act(g, PHI_CONJ) == PHI_CONJ


def test_fixing_matrix_random():
    for _ in range(40):
        x = rand_quad()
        g = fixing_matrix(x)
        assert g.trace() > 2                 # hyperbolic, positive eigenvalues
        assert mobius_act(g, x) == x


@pytest.mark.parametrize("theta", [QuadExt(0, 1, 1, 9949), QuadExt(0, 1, 1, 1000003),
                                   QuadExt(1, 1, 2, 9949)])
def test_fixing_matrix_long_period(theta):
    # periods 217, 458 and 73: past the 60 terms cf_expand stops at by default
    assert not cf_expand(theta).period
    g = fixing_matrix(theta)
    assert g.trace() > 2
    assert mobius_act(g, theta) == theta


def test_charge_action_matches_mobius_on_slopes():
    g = SL2Matrix(1, 1, 1, 2)
    z = Charge(2, 1)
    z2 = g.charge_action(z)
    # slope transforms by the same fractional-linear rule
    expect = mobius_act(g, QuadExt.from_rational(Fraction(z.deg, z.rank), 5))
    assert QuadExt.from_rational(Fraction(z2.deg, z2.rank), 5) == expect


def test_rm_hilbert_golden():
    F = SL2Matrix(1, 1, 1, 2)
    rep = rm_hilbert(F, Charge(1, 0), PHI_CONJ, 4)
    assert rep.dims == [1, 3, 8, 21]
    assert [s.render() for s in rep.slopes] == ["1/2", "3/5", "8/13", "21/34"]
    assert rep.recurrence_checked
    d = rep.to_dict()
    assert d["dims"] == [1, 3, 8, 21] and d["F"] == [[1, 1], [1, 2]]


@pytest.mark.parametrize("theta, G", [(QuadExt.sqrt(2), Charge(1, 0)),
                                      (QuadExt.sqrt(3), Charge(2, 1)),
                                      (QuadExt(1, 1, 2, 13), Charge(1, -1))])
def test_rm_hilbert_trace_recurrence(theta, G):
    """d_n = chi(G, F^n.G), and Cayley-Hamilton F^2 = tr(F) F - 1 gives
    d_{n+1} = tr(F) d_n - d_{n-1}, with d_0 = chi(G, G) = 0."""
    F = fixing_matrix(theta)
    rep = rm_hilbert(F, G, theta, 9)
    d = [euler_pairing(G, G)] + rep.dims
    for n in range(1, 10):
        assert d[n] == euler_pairing(G, (F ** n).charge_action(G)), n
    for n in range(1, 9):
        assert d[n + 1] == F.trace() * d[n] - d[n - 1], n
    assert rep.recurrence_checked


def test_rm_hilbert_checks_the_recurrence_from_two_dims(monkeypatch):
    """At n_max = 2 the recurrence d_2 = tr(F) d_1 - d_0, with d_0 = 0, is
    still checked: one wrong hom value is caught."""
    F, G = SL2Matrix(1, 1, 1, 2), Charge(1, 0)
    assert rm_hilbert(F, G, PHI_CONJ, 2).recurrence_checked
    z2 = F.charge_action(F.charge_action(G))
    exact = real_mult.hom_dim_stable

    def one_too_many_at_z2(a, b):
        hom, ext1 = exact(a, b)
        return (hom + 1 if b == z2 else hom), ext1

    monkeypatch.setattr(real_mult, "hom_dim_stable", one_too_many_at_z2)
    rep = rm_hilbert(F, G, PHI_CONJ, 2)
    assert rep.dims == [1, 4] and not rep.recurrence_checked


def test_rm_hilbert_validation():
    F = SL2Matrix(1, 1, 1, 2)
    with pytest.raises(ValueError):
        rm_hilbert(F, Charge(2, 4), PHI_CONJ, 3)        # unstable G
    with pytest.raises(ValueError):
        rm_hilbert(F, Charge(1, 0), QuadExt.sqrt(2), 3)  # F does not fix theta
    with pytest.raises(ValueError):
        rm_hilbert(SL2Matrix(1, 1, 0, 1), Charge(1, 0), PHI_CONJ, 3)


def test_cf_expansion_serializes():
    d = CFExpansion([0], [1], 2).to_dict()
    assert d == {"period": [1], "preperiod": [0], "window": 2}
