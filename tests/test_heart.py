"""Charge-level slope calculus: HN, torsion pairs, stable dimension counts."""

import itertools
import random
from fractions import Fraction

import pytest

from ncproj.fields import QuadExt
from ncproj.heart import (CERTAIN_ZERO, EMPTY, UNKNOWN, Charge, SheafClass, Slope,
                          euler_pairing, hn, hom_dim_stable, hom_vanishes, mu_max,
                          mu_min, stable_p, torsion_split)

rng = random.Random(30110)


def all_charges(r_max, d_max):
    out = []
    for r in range(r_max + 1):
        for d in range(-d_max, d_max + 1):
            if r == 0 and d <= 0:
                continue
            out.append(Charge(r, d))
    return out


def rand_charge(r_max=5, d_max=5):
    while True:
        r = rng.randint(0, r_max)
        d = rng.randint(-d_max, d_max)
        if r > 0 or d > 0:
            return Charge(r, d)


def ordered_partitions(items):
    """All ordered partitions of a tuple into nonempty consecutive-free blocks."""
    if not items:
        yield ()
        return
    first, rest = items[0], items[1:]
    for sub in ordered_partitions(rest):
        # put first into its own new block at any position, or join any block
        for i in range(len(sub) + 1):
            yield sub[:i] + ((first,),) + sub[i:]
        for i in range(len(sub)):
            yield sub[:i] + ((first,) + sub[i],) + sub[i + 1:]


def valid_hn(partition):
    slopes = []
    for block in partition:
        vals = {Slope.of(z) for z in block}
        if len(vals) != 1:
            return False
        slopes.append(vals.pop())
    return all(slopes[i] < slopes[i + 1] for i in range(len(slopes) - 1))


def test_charge_validation():
    with pytest.raises(ValueError):
        Charge(-1, 0)
    with pytest.raises(ValueError):
        Charge(0, 0)
    with pytest.raises(ValueError):
        Charge(0, -2)
    assert Charge(0, 3).render() == "0:3"


def test_slope_order_and_exceeds():
    assert Slope.of(Charge(2, 1)).value == Fraction(1, 2)
    assert Slope.of(Charge(0, 1)).is_infinite()
    assert Slope.of(Charge(1, 1)) > Slope.of(Charge(2, 1))
    assert Slope.of(Charge(0, 5)) > Slope.of(Charge(1, 100))
    assert Slope.of(Charge(2, 1)).exceeds(Fraction(1, 3))
    assert not Slope.of(Charge(2, 1)).exceeds(Fraction(1, 2))
    phi = QuadExt(-1, 1, 2, 5)       # ~0.618
    assert Slope.of(Charge(3, 2)).exceeds(phi)
    assert not Slope.of(Charge(2, 1)).exceeds(phi)
    assert Slope.of(Charge(0, 1)).exceeds(phi)


def test_slope_comparisons_match_fractions():
    """Cross-multiplied comparisons agree with the Fraction values, torsion
    read as +infinity, and equal slopes hash alike."""
    def key(z):
        return (1, 0) if z.rank == 0 else (0, Fraction(z.deg, z.rank))

    charges = all_charges(4, 6)
    for a, b in itertools.product(charges, repeat=2):
        sa, sb, ka, kb = Slope.of(a), Slope.of(b), key(a), key(b)
        assert (sa < sb, sa <= sb, sa == sb, sa >= sb, sa > sb) == \
            (ka < kb, ka <= kb, ka == kb, ka >= kb, ka > kb), (a, b)
        assert hash(sa) == hash(sb) or sa != sb
    for theta in (Fraction(-3, 2), Fraction(0), Fraction(2, 3), 1, QuadExt(-1, 1, 2, 5)):
        for z in charges:
            assert Slope.of(z).exceeds(theta) == (z.rank == 0 or theta < Fraction(z.deg, z.rank))


def test_hn_against_brute_force_oracle():
    """hn() is the unique valid filtration on all multisets of <= 3 factors."""
    charges = all_charges(3, 3)
    for size in (1, 2, 3):
        for combo in itertools.combinations_with_replacement(charges, size):
            valid = [p for p in set(ordered_partitions(tuple(combo)))
                     if valid_hn(p)]
            canon = {tuple(sorted(
                (tuple(sorted((z.rank, z.deg) for z in b)) for b in p)))
                for p in valid}
            assert len(canon) == 1, combo
            f = hn(SheafClass(list(combo)))
            got = tuple(tuple(sorted((z.rank, z.deg)
                                     for z, m in facs for _ in range(m)))
                        for _, facs in f.layers)
            only = valid[0]
            want = tuple(tuple(sorted((z.rank, z.deg) for z in b)) for b in only)
            assert got == want, combo


def test_hn_layer_slopes_strict():
    for _ in range(300):
        F = SheafClass([rand_charge() for _ in range(rng.randint(1, 5))])
        f = hn(F)
        slopes = [s for s, _ in f.layers]
        assert all(slopes[i] < slopes[i + 1] for i in range(len(slopes) - 1))
        assert f.mu_min() == slopes[0] and f.mu_max() == slopes[-1]
        # layers repartition the factors exactly
        total = {}
        for _, facs in f.layers:
            for z, m in facs:
                total[z] = total.get(z, 0) + m
        assert total == F.factors


def test_torsion_split_invariants():
    thetas = [Fraction(0), Fraction(1, 2), Fraction(-3), QuadExt(-1, 1, 2, 5)]
    for _ in range(300):
        F = SheafClass([rand_charge() for _ in range(rng.randint(1, 5))])
        for theta in thetas:
            t, q = torsion_split(F, theta)
            parts = {}
            for part in (t, q):
                if part is not EMPTY:
                    for z, m in part.items():
                        parts[z] = parts.get(z, 0) + m
            assert parts == F.factors
            if t is not EMPTY:
                assert mu_min(t).exceeds(theta)
                assert torsion_split(t, theta)[1] is EMPTY
            if q is not EMPTY:
                assert not mu_max(q).exceeds(theta)
                assert torsion_split(q, theta)[0] is EMPTY


def test_torsion_split_exact_at_theta():
    # slope exactly theta goes to the free part (strict > for torsion)
    F = SheafClass([Charge(2, 1)])
    t, q = torsion_split(F, Fraction(1, 2))
    assert t is EMPTY and q == F
    phi = QuadExt(-1, 1, 2, 5)
    t2, q2 = torsion_split(SheafClass([Charge(3, 2), Charge(2, 1)]), phi)
    assert t2 == SheafClass([Charge(3, 2)]) and q2 == SheafClass([Charge(2, 1)])


def test_hom_vanishes_torsion_pair_axiom():
    """1000 randomized (F, G, theta) with mu_min(F) > theta >= mu_max(G)."""
    hits = 0
    while hits < 1000:
        F = SheafClass([rand_charge() for _ in range(rng.randint(1, 4))])
        G = SheafClass([rand_charge() for _ in range(rng.randint(1, 4))])
        if mu_max(G).is_infinite():
            continue
        theta = mu_max(G).value
        if not mu_min(F).exceeds(theta):
            continue
        assert hom_vanishes(F, G) == CERTAIN_ZERO
        hits += 1
    # equal slopes are not certified zero
    assert hom_vanishes(SheafClass([Charge(1, 0)]),
                        SheafClass([Charge(1, 0)])) == UNKNOWN


def test_euler_pairing_identities():
    for _ in range(500):
        z1, z2 = rand_charge(), rand_charge()
        assert euler_pairing(z1, z2) == -euler_pairing(z2, z1)
        assert euler_pairing(Charge(1, 0), z1) == z1.deg
    # bilinearity over the raw components
    a, b, c = Charge(1, 2), Charge(2, 3), Charge(3, 5)
    assert euler_pairing(c, a) + euler_pairing(c, b) == \
        euler_pairing(c, Charge(a.rank + b.rank, a.deg + b.deg))


def test_stability_predicate():
    assert stable_p(Charge(2, 1)) and stable_p(Charge(1, 0))
    assert stable_p(Charge(0, 1))
    assert not stable_p(Charge(2, 4))
    assert not stable_p(Charge(0, 2))


def test_hom_dim_stable_identities():
    charges = [z for z in all_charges(6, 6) if stable_p(z)]
    for z1 in charges:
        for z2 in charges:
            hom, ext1 = hom_dim_stable(z1, z2)
            assert hom >= 0 and ext1 >= 0
            assert hom - ext1 == euler_pairing(z1, z2)
            back_hom, _ = hom_dim_stable(z2, z1)
            assert ext1 == back_hom
    with pytest.raises(ValueError):
        hom_dim_stable(Charge(2, 4), Charge(1, 0))


def _hom_dim_by_slope(z1, z2):
    """Reference rule: hom vanishes when z1 out-slopes z2, ext1 when z2 does."""
    chi = euler_pairing(z1, z2)
    if z1 == z2:
        return (1, 1)
    s1, s2 = Slope.of(z1), Slope.of(z2)
    if s1 < s2:
        return (chi, 0)
    if s1 > s2:
        return (0, -chi)
    return (0, 0)


def test_hom_dim_stable_matches_slope_rule():
    stables = [z for z in all_charges(20, 20) if stable_p(z)]
    assert len(stables) == 512
    for z1 in stables:
        for z2 in stables:
            assert hom_dim_stable(z1, z2) == _hom_dim_by_slope(z1, z2), (z1, z2)


def test_heart_membership_and_degree_two_vanishing():
    phi = QuadExt(-1, 1, 2, 5)
    shifted = SheafClass([Charge(2, 1)])      # slope 1/2 <= phi
    plain = SheafClass([Charge(1, 1)])        # slope 1 > phi
    # a heart object has its shifted part free and its plain part torsion at phi
    assert torsion_split(shifted, phi) == (EMPTY, shifted)
    assert torsion_split(plain, phi) == (plain, EMPTY)
    # the would-be degree-2 pairing is the Hom from plain to shifted parts
    assert hom_vanishes(plain, shifted) == CERTAIN_ZERO
