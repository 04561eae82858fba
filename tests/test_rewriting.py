"""Truncated completion, normal forms, Hilbert functions, growth."""

import itertools
import random
from fractions import Fraction

import pytest

from ncproj.fields import QQ, QQ_Q, RatFunc
from ncproj.rewriting import (INFINITE, CutoffExceededError, RewriteSystem,
                              complete_truncated, confluence_audit,
                              gk_estimate, hilbert_function,
                              ideal_member_truncated, normal_form,
                              normal_words)
from ncproj.words import Alphabet, MonomialOrder, NcPoly

AB = Alphabet(["x", "y"])
ORD = MonomialOrder(AB)
rng = random.Random(9920)


def gens(field):
    return NcPoly.gen(AB, field, 0), NcPoly.gen(AB, field, 1)


def commutator(field):
    x, y = gens(field)
    return y * x - x * y


def quantum_relation():
    x, y = gens(QQ_Q)
    return y * x - (x * y).scale(RatFunc.q())


def test_quantum_plane_single_rule():
    R = complete_truncated([quantum_relation()], 10, ORD)
    assert len(R.rules) == 1
    assert R.rules[0].lead == (1, 0)
    assert confluence_audit(R)
    assert hilbert_function(R, 10) == list(range(1, 12))


def test_polynomial_ring_three_vars():
    abc = Alphabet(["x", "y", "z"])
    order = MonomialOrder(abc)
    g = [NcPoly.gen(abc, QQ, i) for i in range(3)]
    rels = [g[j] * g[i] - g[i] * g[j] for i in range(3) for j in range(i + 1, 3)]
    R = complete_truncated(rels, 8, order)
    assert confluence_audit(R)
    assert hilbert_function(R, 8) == [(d + 1) * (d + 2) // 2 for d in range(9)]


def test_free_algebra_counts():
    R = RewriteSystem([], 12, ORD, QQ)
    assert hilbert_function(R, 12) == [2 ** d for d in range(13)]
    assert len(normal_words(R, 3)) == 8


def test_completion_adds_rules():
    # y^2 -> xy overlaps itself at yyy and spawns higher-degree rules
    x, y = gens(QQ)
    R = complete_truncated([y * y - x * y], 8, ORD)
    assert len(R.rules) >= 2
    assert confluence_audit(R)


def test_normal_form_is_idempotent_and_linear():
    R = complete_truncated([commutator(QQ)], 10, ORD)
    x, y = gens(QQ)
    for _ in range(50):
        f = NcPoly(AB, QQ, [(tuple(rng.randrange(2) for _ in range(rng.randint(0, 5))),
                             Fraction(rng.randint(-4, 4))) for _ in range(4)])
        g = NcPoly(AB, QQ, [(tuple(rng.randrange(2) for _ in range(rng.randint(0, 5))),
                             Fraction(rng.randint(-4, 4))) for _ in range(4)])
        nf = normal_form(f, R)
        assert normal_form(nf, R) == nf
        assert normal_form(f + g, R) == nf + normal_form(g, R)
    assert ideal_member_truncated(y * x * x - x * x * y, R)
    assert not ideal_member_truncated(x * y, R)


def test_normal_words_basis_count_matches_hilbert():
    R = complete_truncated([commutator(QQ)], 9, ORD)
    dims = hilbert_function(R, 9)
    for d in range(10):
        assert len(normal_words(R, d)) == dims[d]


def test_weighted_hilbert():
    w = Alphabet(["x", "y"], [1, 2])
    R = RewriteSystem([], 8, MonomialOrder(w), QQ)
    dims = hilbert_function(R, 8)
    # dims satisfy the free weighted recursion a_d = a_{d-1} + a_{d-2}
    assert dims[0] == 1 and dims[1] == 1
    for d in range(2, 9):
        assert dims[d] == dims[d - 1] + dims[d - 2]


def test_cutoff_enforced():
    R = complete_truncated([commutator(QQ)], 5, ORD)
    with pytest.raises(CutoffExceededError):
        hilbert_function(R, 6)
    with pytest.raises(CutoffExceededError):
        normal_words(R, 6)
    with pytest.raises(ValueError):
        complete_truncated([commutator(QQ)], 1, ORD)


def test_inhomogeneous_rejected():
    x, y = gens(QQ)
    with pytest.raises(ValueError):
        complete_truncated([x * y - x], 5, ORD)


def test_gk_estimates():
    one = Alphabet(["x"])
    line = RewriteSystem([], 60, MonomialOrder(one), QQ)
    est = gk_estimate(line)
    assert abs(float(est.gk_estimate) - 1) < 0.15
    assert not est.low_confidence

    plane = complete_truncated([commutator(QQ)], 60, ORD)
    est2 = gk_estimate(plane)
    assert abs(float(est2.gk_estimate) - 2) < 0.15

    free = RewriteSystem([], 60, ORD, QQ)
    assert gk_estimate(free).gk_estimate == INFINITE


def test_gk_report_serializes():
    one = Alphabet(["x"])
    d = gk_estimate(RewriteSystem([], 20, MonomialOrder(one), QQ)).to_dict()
    assert d["cutoff"] == 20 and d["window"] == [10, 20]
    assert isinstance(d["gk_estimate"], str)


def _all_words(alphabet, d):
    """Every word of weighted degree d, by brute force over lengths."""
    return [w for n in range(d + 1)
            for w in itertools.product(range(len(alphabet)), repeat=n)
            if alphabet.degree(w) == d]


def _is_normal(w, R):
    return not any(w[i:i + len(r.lead)] == r.lead
                   for r in R.rules for i in range(len(w) - len(r.lead) + 1))


def _systems():
    x, y = gens(QQ)
    xyz = Alphabet(["x", "y", "z"])
    X, Y, Z = (NcPoly.gen(xyz, QQ, i) for i in range(3))
    weighted = Alphabet(["x", "y", "z"], [1, 2, 3])
    wx, wy, wz = (NcPoly.gen(weighted, QQ, i) for i in range(3))
    return [
        pytest.param(complete_truncated([commutator(QQ)], 8, ORD), id="plane"),
        pytest.param(complete_truncated([quantum_relation()], 8, ORD), id="quantum plane"),
        pytest.param(complete_truncated([Y * Z - Z * Y, Z * X - X * Z, X * Y - Y * X], 7,
                                        MonomialOrder(xyz)), id="C3"),
        pytest.param(complete_truncated([y * x * x - x * x * y, y * y * x - x * y * y], 9,
                                        ORD), id="braid"),
        pytest.param(complete_truncated([wy * wx - wx * wy, wz * wx - wx * wz], 9,
                                        MonomialOrder(weighted)), id="weighted"),
        pytest.param(RewriteSystem([], 9, MonomialOrder(weighted), QQ), id="weighted free"),
    ]


@pytest.mark.parametrize("R", _systems())
def test_normal_words_match_brute_force(R):
    dims = hilbert_function(R, R.cutoff)
    for d in range(R.cutoff + 1):
        want = sorted((w for w in _all_words(R.alphabet, d) if _is_normal(w, R)),
                      key=R.order.key)
        assert normal_words(R, d) == want, d
        assert dims[d] == len(want), d
