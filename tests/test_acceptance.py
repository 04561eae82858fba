"""Acceptance suite: one pass/fail line per criterion, with time limits.

Each criterion is a separate test; the summary line is written straight to
the real stdout so it survives pytest's capture.
"""

import itertools
import random
import sys
import time
from fractions import Fraction
from math import gcd

from ncproj.coord_rings import (P1Automorphism, section_space_dim,
                                thcr_presentation, two_point_hilbert)
from ncproj.fields import QQ, QQ_Q, QuadExt, RatFunc
from ncproj.heart import (CERTAIN_ZERO, EMPTY, Charge, SheafClass, Slope,
                          euler_pairing, hn, hom_dim_stable, hom_vanishes,
                          mu_max, mu_min, stable_p, torsion_split)
from ncproj.homology import (GradedModulePresentation, cd_estimate,
                             global_dimension, gorenstein_check,
                             minimal_resolution, proj_cohomology, UNSTABLE)
from ncproj.presentations import (NOT_APPLICABLE, AlgebraPresentation, build,
                                  resolution_shape_check, standard_check,
                                  twist)
from ncproj.real_mult import (SL2Matrix, apply_word, cf_expand, cf_value,
                              fixing_matrix, mobius_act, morita_reduce,
                              rm_hilbert)
from ncproj.rewriting import (INFINITE, RewriteSystem, complete_truncated,
                              gk_estimate, hilbert_function)
from ncproj.words import Alphabet, GradedEndomorphism, NcPoly

AB1 = Alphabet(["x"])
AB2 = Alphabet(["x", "y"])
AB3 = Alphabet(["x", "y", "z"])
PHI_CONJ = QuadExt(-1, 1, 2, 5)


def criterion(number, title, limit_s, fn):
    t0 = time.time()
    try:
        fn()
    except Exception:
        print(f"[criterion {number:2d}] FAIL: {title}", file=sys.__stdout__, flush=True)
        raise
    dt = time.time() - t0
    verdict = "PASS" if dt < limit_s else "FAIL"
    print(f"[criterion {number:2d}] {verdict}: {title} ({dt:.2f}s, limit {limit_s}s)",
          file=sys.__stdout__, flush=True)
    assert dt < limit_s, f"time limit exceeded: {dt:.2f}s >= {limit_s}s"


def poly_plane(field=QQ):
    x, y = NcPoly.gen(AB2, field, 0), NcPoly.gen(AB2, field, 1)
    return AlgebraPresentation("P", field, AB2, [y * x - x * y])


def quantum_plane_presentation():
    x, y = NcPoly.gen(AB2, QQ_Q, 0), NcPoly.gen(AB2, QQ_Q, 1)
    return AlgebraPresentation("QP", QQ_Q, AB2,
                               [y * x - (x * y).scale(RatFunc.q())])


def commutative_three():
    x, y, z = (NcPoly.gen(AB3, QQ, i) for i in range(3))
    return AlgebraPresentation("C3", QQ, AB3,
                               [y * z - z * y, z * x - x * z, x * y - y * x])


def test_criterion_1_thcr_example():
    def check():
        sigma = P1Automorphism.scaling(QQ_Q, RatFunc.q())
        p = thcr_presentation(sigma, 8)
        assert len(p.relations) == 1
        rel = p.relations[0]
        assert rel.degree() == 2
        # spans x*y - q*y*x
        assert set(rel.terms) == {(0, 1), (1, 0)}
        assert rel.terms[(0, 1)] / rel.terms[(1, 0)] == -QQ_Q.one / RatFunc.q()
        dims = hilbert_function(build(p, 8), 8)
        assert dims == [n + 1 for n in range(9)]
    criterion(1, "THCR example reproduction", 1, check)


def test_criterion_2_two_point():
    def check():
        for (r1, r2) in [(1, 0), (1, 1), (2, 1)]:
            dims = two_point_hilbert(r1, r2, 10)
            expect = [r1 * r1 + r2 * r2 if n % 2 == 0 else 2 * r1 * r2
                      for n in range(11)]
            assert dims == expect
        # (1, 0) is the polynomial ring on one degree-2 generator
        assert two_point_hilbert(1, 0, 10) == [1, 0] * 5 + [1]
    criterion(2, "Two-point triple parity formula", 0.1, check)


def test_criterion_3_twist_equivalence():
    def check():
        p = poly_plane(QQ_Q)
        q = RatFunc.q()
        sigma = GradedEndomorphism(AB2, QQ_Q,
                                   [[q, QQ_Q.zero], [QQ_Q.zero, QQ_Q.one]])
        t = twist(p, sigma, 10)
        assert len(t.relations) == 1
        rel = t.relations[0]
        assert set(rel.terms) == {(0, 1), (1, 0)}
        assert rel.terms[(0, 1)] / rel.terms[(1, 0)] == -q
        assert hilbert_function(build(t, 10), 10) == \
            hilbert_function(build(p, 10), 10)
    criterion(3, "Twist of the plane is the quantum plane", 1, check)


def test_criterion_4_regularity_suite():
    cases = [
        ("k[x]", RewriteSystem([], 10, AB1, QQ),
         1, [[0], [1]]),
        ("k_q[x,y]", build(quantum_plane_presentation(), 10),
         2, [[0], [1, 1], [2]]),
        ("k[x,y,z]", build(commutative_three(), 9),
         3, [[0], [1, 1, 1], [2, 2, 2], [3]]),
    ]

    def make_check(R, d, betti):
        def check():
            rep = gorenstein_check(R, R.cutoff)
            assert rep == {"passes": True, "d": d}
            res = minimal_resolution(GradedModulePresentation.trivial(R),
                                     d + 2, R.cutoff)
            assert res.betti == betti and res.minimal
        return check

    for i, (name, R, d, betti) in enumerate(cases):
        criterion(4, f"Regularity suite: {name} (d = {d})", 5,
                  make_check(R, d, betti))


def test_criterion_5_standard_check():
    def check():
        rep = standard_check(commutative_three())
        assert rep.status == "OK" and rep.is_standard
        ident = [[Fraction(int(i == j)) for j in range(3)] for i in range(3)]
        assert rep.Q == ident
        assert standard_check(quantum_plane_presentation()).status == \
            NOT_APPLICABLE
    criterion(5, "Standard-algebra check", 1, check)


def test_criterion_6_hilbert_identity():
    def check():
        assert resolution_shape_check(commutative_three(), 3, 2, 10)
        free = AlgebraPresentation("F3", QQ, AB3, [])
        assert not resolution_shape_check(free, 3, 2, 10)
    criterion(6, "Hilbert series identity", 1, check)


def test_criterion_7_proj_cohomology():
    def check():
        for p in (poly_plane(), quantum_plane_presentation()):
            R = build(p, 17)
            A = GradedModulePresentation.algebra(R)
            for d in range(6):
                rep = proj_cohomology(R, A, 0, d, d + 3)
                assert rep.stabilized_dim == d + 1, (p.name, 0, d)
            for d in range(2, 6):
                rep = proj_cohomology(R, A, 1, -d, d + 3)
                assert rep.stabilized_dim == d - 1, (p.name, 1, -d)
                assert rep.stabilized_dim != UNSTABLE
            assert cd_estimate(R, 2, range(-3, 2), 6) == 1
            assert global_dimension(R, 4, 10) - 1 == 1
    criterion(7, "Proj cohomology via truncation colimits", 30, check)


def _hn_oracle_exhaustive():
    charges = [Charge(r, d) for r in range(6) for d in range(-5, 6)
               if r > 0 or d > 0]
    slopes = [Slope.of(z) for z in charges]
    distinct = []
    for s in slopes:
        if all(not (s == t) for t in distinct):
            distinct.append(s)
    distinct.sort()
    ordinal = [next(i for i, t in enumerate(distinct) if s == t)
               for s in slopes]

    def ordered_partitions(k):
        if k == 0:
            yield ()
            return
        for sub in ordered_partitions(k - 1):
            for i in range(len(sub) + 1):
                yield sub[:i] + ((k - 1,),) + sub[i:]
            for i in range(len(sub)):
                yield sub[:i] + (sub[i] + (k - 1,),) + sub[i + 1:]

    partitions_by_size = {k: list(ordered_partitions(k)) for k in range(1, 5)}

    verified = {}

    def verify_pattern(pattern):
        """Exactly one ordered partition is a valid HN filtration."""
        hits = set()
        for part in partitions_by_size[len(pattern)]:
            blocks = [tuple(sorted(pattern[i] for i in b)) for b in part]
            if any(len(set(b)) != 1 for b in blocks):
                continue
            vals = [b[0] for b in blocks]
            if all(vals[i] < vals[i + 1] for i in range(len(vals) - 1)):
                hits.add(tuple(blocks))
        assert len(hits) == 1, pattern
        # and the unique one is grouping by equal slope, ascending
        want = tuple(tuple(g) for _, g in itertools.groupby(sorted(pattern)))
        assert hits == {want}, pattern

    n = len(charges)
    count = 0
    for size in range(1, 5):
        for combo in itertools.combinations_with_replacement(range(n), size):
            sig = sorted(ordinal[i] for i in combo)
            relabel = {}
            pattern = tuple(relabel.setdefault(o, len(relabel)) for o in sig)
            if pattern not in verified:
                verify_pattern(pattern)
                verified[pattern] = True
            count += 1
    assert count > 600000

    # the implementation agrees with the oracle's grouping on a large sample
    rng = random.Random(4408)
    for _ in range(3000):
        combo = [charges[rng.randrange(n)] for _ in range(rng.randint(1, 4))]
        f = hn(SheafClass(combo))
        got = [sorted((z.rank, z.deg) for z, m in facs for _ in range(m))
               for _, facs in f.layers]
        order = sorted(combo, key=lambda z: (Slope.of(z).is_infinite(),
                                             Slope.of(z).value
                                             if not Slope.of(z).is_infinite()
                                             else 0))
        want = [sorted((z.rank, z.deg) for z in g)
                for _, g in itertools.groupby(order, key=Slope.of)]
        assert got == want, combo


def test_criterion_8_heart_property_suite():
    def check():
        _hn_oracle_exhaustive()
        rng = random.Random(917)

        def rand_charge():
            while True:
                r, d = rng.randint(0, 5), rng.randint(-5, 5)
                if r > 0 or d > 0:
                    return Charge(r, d)

        # torsion-split invariants and idempotence
        for _ in range(300):
            F = SheafClass([rand_charge() for _ in range(rng.randint(1, 4))])
            theta = rng.choice([Fraction(0), Fraction(1, 2), Fraction(-2), PHI_CONJ])
            t, q = torsion_split(F, theta)
            total = {}
            for part in (t, q):
                if part is not EMPTY:
                    for z, m in part.items():
                        total[z] = total.get(z, 0) + m
            assert total == F.factors
            if t is not EMPTY:
                assert mu_min(t).exceeds(theta)
                assert torsion_split(t, theta) == (t, EMPTY)
            if q is not EMPTY:
                assert not mu_max(q).exceeds(theta)
                assert torsion_split(q, theta) == (EMPTY, q)

        # hom-vanishing consistent with torsion-pair axiom 1
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

        # euler pairing: antisymmetric, bilinear, chi((1,0), z) = deg z
        for _ in range(500):
            z1, z2 = rand_charge(), rand_charge()
            assert euler_pairing(z1, z2) == -euler_pairing(z2, z1)
            assert euler_pairing(Charge(1, 0), z1) == z1.deg
        for _ in range(200):
            r1, d1 = rng.randint(1, 5), rng.randint(-5, 5)
            r2, d2 = rng.randint(1, 5), rng.randint(-5, 5)
            w = rand_charge()
            assert euler_pairing(Charge(r1 + r2, d1 + d2), w) == \
                euler_pairing(Charge(r1, d1), w) + euler_pairing(Charge(r2, d2), w)

        # stable dimension identities, all stable pairs with entries <= 20
        stables = [Charge(0, 1)] + [Charge(r, d) for r in range(1, 21)
                                    for d in range(-20, 21) if gcd(r, d) == 1]
        for z1 in stables:
            for z2 in stables:
                hom, ext1 = hom_dim_stable(z1, z2)
                assert hom - ext1 == euler_pairing(z1, z2)
                assert ext1 == hom_dim_stable(z2, z1)[0]
    criterion(8, "Heart property suite", 10, check)


def test_criterion_9_real_multiplication():
    def check():
        rng = random.Random(2212)

        def rand_quad():
            D = rng.choice([2, 3, 5, 6, 7, 10, 11, 13])
            while True:
                x = QuadExt(rng.randint(-30, 30), rng.choice([-2, -1, 1, 2]),
                            rng.randint(1, 10), D)
                if not x.is_rational():
                    return x

        for _ in range(100):
            x = rand_quad()
            reduced, word = morita_reduce(x)
            assert QuadExt.from_rational(0, x.D) < reduced
            assert reduced < QuadExt.from_rational(1, x.D)
            assert apply_word(word, x) == reduced
            cf = cf_expand(x, max_terms=200)
            assert cf.period
            assert cf_value(cf.preperiod, cf.period, x.D) == x
        for _ in range(30):
            x = rand_quad()
            g = fixing_matrix(x)
            assert g.trace() > 2 and mobius_act(g, x) == x
        g = fixing_matrix(PHI_CONJ)
        assert g.entries() == [[1, 1], [1, 2]]
        rep = rm_hilbert(g, Charge(1, 0), PHI_CONJ, 4)
        assert rep.dims == [1, 3, 8, 21]
        assert [s.render() for s in rep.slopes] == ["1/2", "3/5", "8/13", "21/34"]
        got = [s.value for s in rep.slopes]
        assert all(got[i] < got[i + 1] for i in range(len(got) - 1))
        assert all(not s.exceeds(PHI_CONJ) for s in rep.slopes)
        assert rep.recurrence_checked and g.trace() == 3
    criterion(9, "Real multiplication", 2, check)


def test_criterion_10_gk_estimator():
    cases = [
        ("k[x]", RewriteSystem([], 60, AB1, QQ), 1),
        ("k[x,y]", build(poly_plane(), 60), 2),
        ("k_q[x,y]", build(quantum_plane_presentation(), 60), 2),
        ("free", RewriteSystem([], 60, AB2, QQ), INFINITE),
    ]

    def make_check(R, want):
        def check():
            est = gk_estimate(R).gk_estimate
            if want == INFINITE:
                assert est == INFINITE
            else:
                assert abs(float(est) - want) < 0.15
        return check

    for name, R, want in cases:
        criterion(10, f"GK estimator: {name}", 5, make_check(R, want))
