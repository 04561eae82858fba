"""The cli-session workload: seeded ncproj commands and their output checks.

Each round sends the same fixed-size list of commands through the click
entry point, in-process.  The seed picks every argument; every command kind
has the same number of commands, so the mix (and hence the per-command
latency distribution) does not depend on the seed.  Six commands of each
round do not depend on the seed and show a known program fault every round:
three `rm fix` commands whose theta has a continued-fraction period beyond
the 60-term cap of `real_mult.fixing_matrix`, and three `thcr multiply`
commands over Q(q) whose product has composite coefficients, which
`UPoly.render` prints without parentheses.  Each is counted as failed only
when it shows exactly the documented symptom.
"""

from __future__ import annotations

import json
import math
from fractions import Fraction

from oracles import (Surd, avoiding_word_counts, cf_expand_surd,
                     cf_value_matches, det3, euler, expect, growth_estimate,
                     pmul, padd, parse_multiset, parse_poly, parse_surd, rank_q,
                     slope_cmp, slope_exceeds, slope_text, two_point_dims)

# q is specialised to this value wherever an output over Q(q) is checked.
Q0 = Fraction(7, 3)

# Commands of each kind per round: one invocation per command group, scaled
# up to a few hundred commands.  For `rm fix` and `thcr multiply` this count
# includes the three known-fault commands below.
PER_KIND = 16

KINDS = ["heart hn", "heart split", "heart hom", "heart euler",
         "rm cf", "rm reduce", "rm fix", "rm hilbert", "gamma two-point",
         "thcr present", "thcr multiply",
         "algebra hilbert", "algebra gk", "algebra standard-check", "algebra twist"]

# Continued-fraction periods 217, 458 and 73 (computed by oracles.cf_expand_surd).
LONG_PERIOD_THETAS = [("sqrt(9949)", (0, 1, 1, 9949)),
                      ("sqrt(1000003)", (0, 1, 1, 1000003)),
                      ("(1+1*sqrt(9949))/2", (1, 1, 2, 9949))]

# Section products over Q(q) with composite coefficients, sigma: u -> q*u + 1,
# as (f, level, g, level, rule, the product as UPoly.render prints it).  The
# true products are q*u^2 + (q+2)*u + 2 for the first two and
# q^2*u^3 + (q+3)*u^2 + q^2*u + (q+3) for the third.
UNPARENTHESIZED_PRODUCTS = [
    ("1+u", 1, "1+u", 1, "thcr", "q*u^2 + q + 2*u + 2"),
    ("1+u", 1, "1+u", 1, "gamma", "q*u^2 + q + 2*u + 2"),
    ("1+u^2", 2, "2+u", 1, "thcr", "q^2*u^3 + q + 3*u^2 + q^2*u + q + 3"),
]

RM_HILBERT_PAIRS = [((1, 1, 1, 2), (-1, 1, 2, 5)),
                    ((3, 4, 2, 3), (0, 1, 1, 2)),
                    ((2, 3, 1, 2), (0, 1, 1, 3))]


class Command:
    """One ncproj command line and the check of its JSON report.

    `fault`, when set, recognises the documented symptom of a known program
    fault from (exit code, stdout, stderr); such a run counts as failed.
    """

    __slots__ = ("kind", "argv", "field", "check", "fault")

    def __init__(self, kind, argv, check, field=None, fault=None):
        self.kind = kind
        self.argv = argv
        self.field = field
        self.check = check
        self.fault = fault


def period_not_detected(code, stdout, stderr):
    """`rm fix` stopped at fixing_matrix's 60-term cap."""
    return code == 1 and "period not detected" in stderr


def unparenthesized(product):
    """`thcr multiply` printed exactly the documented ambiguous product."""
    def fault(code, stdout, stderr):
        if code != 0:
            return False
        try:
            return json.loads(stdout)["product"] == product
        except (ValueError, KeyError, TypeError):
            return False
    return fault


# ---------------------------------------------------------------------------
# literal generators
# ---------------------------------------------------------------------------

def _charge(rng):
    while True:
        r, d = rng.randint(0, 5), rng.randint(-6, 6)
        if r > 0 or d > 0:
            return (r, d)


def _multiset(rng, kmax):
    factors = [(_charge(rng), rng.choice([1, 1, 2, 3]))
               for _ in range(rng.randint(1, kmax))]
    text = "[" + ", ".join(f"{r}:{d}" + (f"*{m}" if m > 1 else "")
                           for (r, d), m in factors) + "]"
    agg = {}
    for z, m in factors:
        agg[z] = agg.get(z, 0) + m
    return text, agg


def _surd_text(P, S, Q, D):
    sign = "+" if S > 0 else "-"
    return f"({P}{sign}{abs(S)}*sqrt({D}))/{Q}"


def _nonsquare(rng, lo, hi):
    while True:
        D = rng.randint(lo, hi)
        if math.isqrt(D) ** 2 != D:
            return D


def _theta(rng, short_period=False):
    """(text, (P, S, Q, D)) for a quadratic irrational; with short_period the
    continued fraction repeats within 45 terms."""
    while True:
        P, S = rng.randint(-9, 9), rng.choice([-3, -2, -1, 1, 2, 3])
        Q, D = rng.randint(1, 7), _nonsquare(rng, 2, 60)
        if not short_period or cf_expand_surd(P, S, Q, D, 45)[1]:
            return _surd_text(P, S, Q, D), (P, S, Q, D)


def _ratio(rng, lo=1, hi=5):
    """A nonzero rational literal like 3, -2 or 5/3."""
    num = rng.choice([-1, 1]) * rng.randint(lo, hi)
    den = rng.randint(1, 3)
    f = Fraction(num, den)
    return str(f), f


def _qpow(k):
    return ("q" if k == 1 else f"q^{k}"), Q0 ** k


def _scalar(rng, over_q):
    """Nonzero scalar literal, c over Q or c*q over Q(q), with its value at q = Q0."""
    c, cv = _ratio(rng)
    return (f"{c}*q", cv * Q0) if over_q else (c, cv)


# ---------------------------------------------------------------------------
# checks of CLI outputs (each takes the parsed JSON report)
# ---------------------------------------------------------------------------

def _check_hn(agg):
    def check(rep):
        seen = {}
        layers = rep["layers"]
        expect(layers, "no HN layers")
        prev = None
        for layer in layers:
            zs = [tuple(int(t) for t in z.split(":")) for z, _ in layer["factors"]]
            for (z, m), zt in zip(layer["factors"], zs):
                seen[zt] = seen.get(zt, 0) + m
                expect(slope_cmp(zt, zs[0]) == 0, "mixed slopes within a layer")
            expect(layer["slope"] == slope_text(zs[0]), "layer slope misreported")
            if prev is not None:
                expect(slope_cmp(prev, zs[0]) < 0, "HN slopes not strictly increasing")
            prev = zs[0]
        expect(seen == agg, "HN layers do not partition the factors")
    return check


def _check_split(agg, theta):
    def check(rep):
        parts = {}
        for key, above in (("torsion", True), ("free", False)):
            if rep[key] == "EMPTY":
                continue
            for z, m in parse_multiset(rep[key]).items():
                expect(slope_exceeds(z, theta) == above,
                       f"{key} part holds {z} on the wrong side of theta")
                parts[z] = parts.get(z, 0) + m
        expect(parts == agg, "split does not partition the factors")
    return check


def _check_hom(aggF, aggG):
    def check(rep):
        lo = min(aggF, key=lambda z: (z[0] == 0, Fraction(z[1], z[0]) if z[0] else 0))
        hi = max(aggG, key=lambda z: (z[0] == 0, Fraction(z[1], z[0]) if z[0] else 0))
        expect(rep["mu_min_source"] == slope_text(lo), "mu_min of the source")
        expect(rep["mu_max_target"] == slope_text(hi), "mu_max of the target")
        want = "CERTAIN_ZERO" if slope_cmp(lo, hi) > 0 else "UNKNOWN"
        expect(rep["certificate"] == want, "Hom-vanishing certificate")
    return check


def _check_euler(z1, z2):
    def check(rep):
        expect(rep["chi"] == euler(z1, z2), "chi != r1*d2 - r2*d1")
    return check


def _check_cf(theta):
    def check(rep):
        pre, per = rep["preperiod"], rep["period"]
        expect(per, "no period detected")
        expect(all(a >= 1 for a in (pre + per)[1:]), "partial quotient < 1")
        expect(cf_value_matches(pre, per, theta), "continued fraction != theta")
    return check


def _check_reduce(theta):
    def check(rep):
        shift = sum(e for s, e in rep["word"] if s == "g")
        expect(len(rep["word"]) <= 1 and all(s == "g" for s, _ in rep["word"]),
               "unexpected reduction word")
        red = parse_surd(rep["reduced"])
        expect(red == theta + Surd(shift, 0, theta.D), "reduced != theta + shift")
        expect(red.positive() and (Surd(1, 0, red.D) - red).positive(),
               "reduced theta outside (0, 1)")
    return check


def fix_matrix_ok(m, P, S, Q, D):
    """[[a,b],[c,d]] in SL(2,Z), trace > 2, c t^2 + (d-a) t - b = 0 at t = theta.

    With t = (P + S sqrt(D))/Q, times Q^2 the rational and sqrt(D) parts are
    c(P^2 + S^2 D) + (d-a)PQ - bQ^2 and 2cPS + (d-a)SQ.
    """
    (a, b), (c, d) = m
    return (a * d - b * c == 1 and a + d > 2
            and c * (P * P + S * S * D) + (d - a) * P * Q - b * Q * Q == 0
            and 2 * c * P * S + (d - a) * S * Q == 0)


def _check_fix(PSQD):
    def check(rep):
        expect(fix_matrix_ok(rep["matrix"], *PSQD), "fixing matrix fails")
        expect(rep["trace"] == rep["matrix"][0][0] + rep["matrix"][1][1], "trace")
    return check


def _orbit(F, G, n):
    a, b, c, d = F
    out = [G]
    for _ in range(n):
        r, g = out[-1]
        out.append((c * g + d * r, a * g + b * r))
    return out


def _rm_hilbert_valid(F, G, theta, n):
    orbit = _orbit(F, G, n)
    if any(r <= 0 for r, _ in orbit) or any(math.gcd(r, d) != 1 for r, d in orbit):
        return False
    if not all(slope_cmp(orbit[i], orbit[i + 1]) < 0 for i in range(n)):
        return False
    return len({slope_exceeds(z, theta) for z in orbit}) == 1 and \
        all(euler(orbit[0], z) > 0 for z in orbit[1:])


def _check_rm_hilbert(F, G, n):
    def check(rep):
        orbit = _orbit(F, G, n)
        dims = rep["dims"]
        expect(dims == [euler(orbit[0], z) for z in orbit[1:]], "dims != chi(z0, zn)")
        t = F[0] + F[3]
        expect(all(dims[k + 1] == t * dims[k] - dims[k - 1]
                   for k in range(1, len(dims) - 1)), "trace recurrence")
        expect(rep["slopes"] == [slope_text(z) for z in orbit[1:]], "orbit slopes")
        expect(rep["recurrence_checked"] is True, "recurrence flag")
    return check


def _check_two_point(r1, r2, n):
    def check(rep):
        expect(rep["dims"] == two_point_dims(r1, r2, n), "two-point parity formula")
    return check


def _mat_pow(m, n):
    a, b, c, d = 1, 0, 0, 1
    for _ in range(n):
        a, b, c, d = (a * m[0] + b * m[2], a * m[1] + b * m[3],
                      c * m[0] + d * m[2], c * m[1] + d * m[3])
    return a, b, c, d


def _upoly_mul(f, g):
    out = [Fraction(0)] * (len(f) + len(g) - 1)
    for i, x in enumerate(f):
        for j, y in enumerate(g):
            out[i + j] += x * y
    return out


def _upoly_add(f, g):
    n = max(len(f), len(g))
    return [(f[i] if i < len(f) else 0) + (g[i] if i < len(g) else 0) for i in range(n)]


def _twist(coeffs, level, sigma):
    """Level-`level` section sum g_j u^j pulled back along u -> (au+b)/(cu+d)."""
    a, b, c, d = sigma
    out = [Fraction(0)]
    for j, g in enumerate(coeffs):
        term = [Fraction(g)]
        for _ in range(j):
            term = _upoly_mul(term, [b, a])
        for _ in range(level - j):
            term = _upoly_mul(term, [d, c])
        out = _upoly_add(out, term)
    return out


def _upoly_from_text(text):
    poly = parse_poly(text, ["u"], Q0)
    out = [Fraction(0)] * (max((len(w) for w in poly), default=0) + 1)
    for w, c in poly.items():
        out[len(w)] += c
    return out


def _same_upoly(f, g):
    n = max(len(f), len(g))
    return all((f[i] if i < len(f) else 0) == (g[i] if i < len(g) else 0) for i in range(n))


def _check_thcr_present(sigma, dmax):
    gens_u = [[Fraction(1)], [Fraction(0), Fraction(1)]]

    def check(rep):
        expect(rep["hilbert"] == [n + 1 for n in range(dmax + 1)], "section dims")
        rels = rep["relations"]
        expect(len(rels) == 1, "P^1 section ring needs exactly one relation")
        rel = parse_poly(rels[0], ["x", "y"], Q0)
        expect(rel and all(len(w) == 2 for w in rel), "relation is not quadratic")
        total = [Fraction(0)]
        for (i, j), c in rel.items():
            prod = _upoly_mul(gens_u[i], _twist(gens_u[j], 1, sigma))
            total = _upoly_add(total, [c * t for t in prod])
        expect(all(t == 0 for t in total), "relation does not vanish on sections")
    return check


def _check_thcr_multiply(sigma, f, n, g, m, rule):
    def check(rep):
        expect(rep["level"] == n + m, "product level")
        if rule == "thcr":
            want = _upoly_mul(f, _twist(g, m, _mat_pow(sigma, n)))
        else:
            want = _upoly_mul(_twist(f, n, _mat_pow(sigma, m)), g)
        expect(_same_upoly(_upoly_from_text(rep["product"]), want),
               "section product")
    return check


def _check_dims(want):
    def check(rep):
        expect(rep["dims"] == want, "Hilbert function")
    return check


def _check_gk(want_dims):
    def check(rep):
        expect(rep["dims"] == want_dims, "Hilbert function")
        est, filt, window = growth_estimate(want_dims)
        expect(rep["filtration_dims"] == filt, "filtration dims")
        if rep["gk_estimate"] == "INFINITE":
            expect(all(want_dims[d + 1] * 2 >= 3 * want_dims[d]
                       for d in range(window[0], window[1])), "growth is not exponential")
            return
        expect(abs(float(Fraction(rep["gk_estimate"])) - est) < 1e-6, "GK estimate")
        expect(rep["low_confidence"] == (1.15 < est < 1.85), "low-confidence flag")
        expect(rep["window"] == list(window), "window")
    return check


def _check_standard(rel_texts, gens):
    r = len(gens)

    def check(rep):
        f = [parse_poly(t, gens, Q0) for t in rel_texts]
        degrees = {len(w) for p in f for w in p}
        if rep["status"] == "NOT_APPLICABLE":
            expect(len(f) != r or len(degrees) != 1 or
                   (r, degrees.pop()) not in {(2, 3), (3, 2)}, "wrongly not applicable")
            expect(rep["is_standard"] is False, "not-applicable must not be standard")
            return
        expect(rep["status"] == "OK", f"status {rep['status']}")
        M = [[parse_poly(e, gens, Q0) for e in row] for row in rep["M"]]
        xs = [{(i,): Fraction(1)} for i in range(r)]
        for j in range(r):
            acc = {}
            for k in range(r):
                acc = padd(acc, pmul(M[j][k], xs[k]))
            expect(acc == f[j], f"f_{j + 1} != sum_k M[{j + 1}][k] x_k")
        g = []
        for j in range(r):
            acc = {}
            for i in range(r):
                acc = padd(acc, pmul(xs[i], M[i][j]))
            g.append(acc)
        words = sorted({w for p in f + g for w in p})
        fv = [[p.get(w, 0) for w in words] for p in f]
        if rep["is_standard"]:
            Qm = [[Fraction(parse_poly(e, gens, Q0).get((), 0)) for e in row]
                  for row in rep["Q"]]
            expect(det3(Qm) != 0, "Q is singular")
            for j in range(r):
                acc = {}
                for l in range(r):
                    acc = padd(acc, {w: Qm[j][l] * c for w, c in f[l].items()})
                expect(acc == g[j], f"g_{j + 1} != (Q f)_{j + 1}")
        else:
            base = rank_q(fv)
            outside = [rank_q(fv + [[gj.get(w, 0) for w in words]]) > base for gj in g]
            expect(any(outside), "every g_j lies in the span of the relations")
    return check


def _check_twist(lam, mu):
    def check(rep):
        rels = rep["relations"]
        expect(len(rels) == 1, "twisted plane needs exactly one relation")
        rel = parse_poly(rels[0], ["x", "y"], Q0)
        expect(rel and all(len(w) == 2 for w in rel), "relation is not quadratic")
        value = {}
        for w, c in rel.items():
            scale = Fraction(1)
            for k, letter in enumerate(w):
                scale *= (lam if letter == 0 else mu) ** k
            key = (w.count(0), w.count(1))
            value[key] = value.get(key, 0) + c * scale
        expect(all(v == 0 for v in value.values()),
               "relation does not vanish in the twisted product")
    return check


# ---------------------------------------------------------------------------
# command makers, one per kind
# ---------------------------------------------------------------------------

def _heart_hn(rng, i):
    text, agg = _multiset(rng, 5)
    return Command("heart hn", ["heart", "hn", "--factors", text], _check_hn(agg))


def _heart_split(rng, i):
    text, agg = _multiset(rng, 5)
    if i % 2:
        ttext, (P, S, Q, D) = _theta(rng)
        theta = Surd.of(P, S, Q, D)
    else:
        num, den = rng.randint(-8, 8), rng.randint(1, 6)
        ttext, theta = f"{num}/{den}", Surd(Fraction(num, den), 0, 1)
    return Command("heart split", ["heart", "split", "--factors", text, "--theta", ttext],
                   _check_split(agg, theta))


def _heart_hom(rng, i):
    ft, fa = _multiset(rng, 4)
    gt, ga = _multiset(rng, 4)
    return Command("heart hom", ["heart", "hom", "-f", ft, "-g", gt], _check_hom(fa, ga))


def _heart_euler(rng, i):
    z1, z2 = _charge(rng), _charge(rng)
    return Command("heart euler", ["heart", "euler", "--z1", f"{z1[0]}:{z1[1]}",
                                   "--z2", f"{z2[0]}:{z2[1]}"], _check_euler(z1, z2))


def _rm_cf(rng, i):
    text, psqd = _theta(rng, short_period=True)
    return Command("rm cf", ["rm", "cf", "--theta", text], _check_cf(Surd.of(*psqd)))


def _rm_reduce(rng, i):
    text, psqd = _theta(rng)
    return Command("rm reduce", ["rm", "reduce", "--theta", text],
                   _check_reduce(Surd.of(*psqd)))


def _rm_fix(rng, i):
    text, psqd = _theta(rng, short_period=True)
    return Command("rm fix", ["rm", "fix", "--theta", text], _check_fix(psqd))


def _rm_hilbert(rng, i):
    F, psqd = RM_HILBERT_PAIRS[i % len(RM_HILBERT_PAIRS)]
    theta = Surd.of(*psqd)
    n = 5
    while True:
        r = rng.randint(1, 4)
        G = (r, rng.randint(-4, 4))
        if _rm_hilbert_valid(F, G, theta, n):
            break
    return Command("rm hilbert",
                   ["rm", "hilbert", "-F", ",".join(map(str, F)), "-G", f"{G[0]}:{G[1]}",
                    "--theta", _surd_text(*psqd), "-n", str(n)],
                   _check_rm_hilbert(F, G, n))


def _gamma(rng, i):
    r1, r2 = rng.randint(0, 5), rng.randint(1, 5)
    if rng.random() < 0.5:
        r1, r2 = r2, r1
    n = rng.randint(4, 10)
    return Command("gamma two-point", ["gamma", "two-point", "--r1", str(r1),
                                       "--r2", str(r2), "-n", str(n)],
                   _check_two_point(r1, r2, n))


def _sigma_q(k, b):
    """u -> q^k u + b."""
    return f"{_qpow(k)[0]},{b},0,1", (Q0 ** k, Fraction(b), Fraction(0), Fraction(1))


def _sigma_rational(rng):
    while True:
        m = [rng.randint(-3, 3) for _ in range(4)]
        if m[0] * m[3] - m[1] * m[2] != 0:
            return ",".join(map(str, m)), tuple(Fraction(x) for x in m)


def _thcr_present(rng, i):
    over_q = i % 2 == 1
    text, sigma = _sigma_q(1 + (i // 2) % 2, (i // 4) % 2) if over_q else _sigma_rational(rng)
    dmax = 3
    return Command("thcr present", ["thcr", "present", "--sigma", text, "--dmax", str(dmax)],
                   _check_thcr_present(sigma, dmax), field="Q(q)" if over_q else "Q")


def _section(rng, level, monomial):
    if monomial:
        j = rng.randint(0, level)
        coeffs = [0] * j + [rng.choice([-3, -2, -1, 1, 2, 3])]
    else:
        coeffs = [rng.randint(-3, 3) for _ in range(level + 1)]
        if not any(coeffs):
            coeffs[0] = 1
    text = " + ".join(f"{c}*u^{j}" if j else str(c) for j, c in enumerate(coeffs) if c)
    return text.replace("+ -", "- "), [Fraction(c) for c in coeffs], level


def _thcr_multiply(rng, i):
    over_q = i % 2 == 1
    rule = "gamma" if (i // 2) % 2 else "thcr"
    if over_q:
        # diagonal sigma with one monomial factor keeps every coefficient of
        # the product a monomial in q; composite coefficients are printed
        # ambiguously and are covered by UNPARENTHESIZED_PRODUCTS
        text, sigma = _sigma_q(1 + (i // 4) % 2, 0)
        ft, f, n = _section(rng, i % 3, rule == "thcr")
        gt, g, m = _section(rng, (i // 3) % 3, rule == "gamma")
    else:
        text, sigma = _sigma_rational(rng)
        ft, f, n = _section(rng, i % 3, False)
        gt, g, m = _section(rng, (i // 3) % 3, False)
    return Command("thcr multiply",
                   ["thcr", "multiply", "--sigma", text, "-f", f"{n}:{ft}",
                    "-g", f"{m}:{gt}", "--rule", rule],
                   _check_thcr_multiply(sigma, f, n, g, m, rule),
                   field="Q(q)" if over_q else "Q")


def _composite_multiply(ft, n, gt, m, rule, printed):
    sigma = (Q0, Fraction(1), Fraction(0), Fraction(1))
    return Command("thcr multiply",
                   ["thcr", "multiply", "--sigma", "q,1,0,1", "-f", f"{n}:{ft}",
                    "-g", f"{m}:{gt}", "--rule", rule],
                   _check_thcr_multiply(sigma, _upoly_from_text(ft), n,
                                        _upoly_from_text(gt), m, rule),
                   field="Q(q)", fault=unparenthesized(printed))


def _skew3(rng, over_q, equal=False):
    if equal:
        c = _scalar(rng, over_q)[0]
        cs = [c, c, c]
    else:
        cs = [_scalar(rng, over_q)[0] for _ in range(3)]
    return [f"y*z - {cs[0]}*z*y", f"z*x - {cs[1]}*x*z", f"x*y - {cs[2]}*y*x"]


def _presentation(name, over_q, gens, rels):
    field = "Q(q)" if over_q else "Q"
    body = "".join(f" {r};" for r in rels)
    return f"algebra {name} over {field} {{ gens: {', '.join(gens)}; rels:{body} }}"


def _algebra_hilbert(rng, i):
    over_q = i % 2 == 1
    kind = (i // 2) % 2
    gens3 = ["x", "y", "z"]
    if kind == 0:
        rels = [f"y*x - {_scalar(rng, over_q)[0]}*x*y",
                f"z*x - {_scalar(rng, over_q)[0]}*x*z", f"z*y - {_scalar(rng, over_q)[0]}*y*z"]
        N, want = 7, [math.comb(d + 2, 2) for d in range(8)]
        text = _presentation("S", over_q, gens3, rels)
    elif not over_q:
        words = set()
        while len(words) < 2:
            words.add(tuple(rng.randint(0, 2) for _ in range(rng.randint(2, 3))))
        rels = ["*".join(gens3[a] for a in w) for w in sorted(words)]
        N, want = 7, avoiding_word_counts(3, sorted(words), 7)
        text = _presentation("M", over_q, gens3, rels)
    else:
        rels = [f"y*x - {_scalar(rng, True)[0]}*x*y"]
        N, want = 10, [d + 1 for d in range(11)]
        text = _presentation("QP", over_q, ["x", "y"], rels)
    return Command("algebra hilbert", ["algebra", "hilbert", "--input", text, "-N", str(N)],
                   _check_dims(want), field="Q(q)" if over_q else "Q")


def _algebra_gk(rng, i):
    over_q = i % 2 == 1
    if not over_q and i % 4 == 2:
        text = "algebra F over Q { gens: x, y; rels: }"
        N, want = 12, [2 ** d for d in range(13)]
    else:
        text = _presentation("P", over_q, ["x", "y"],
                             [f"y*x - {_scalar(rng, over_q)[0]}*x*y"])
        N, want = 20, [d + 1 for d in range(21)]
    return Command("algebra gk", ["algebra", "gk", "--input", text, "-N", str(N)],
                   _check_gk(want), field="Q(q)" if over_q else "Q")


def _algebra_standard(rng, i):
    over_q = i % 2 == 1
    kind = (i // 2) % 3
    if kind == 0:
        gens, rels = ["x", "y", "z"], _skew3(rng, over_q, equal=True)
    elif kind == 1:
        gens, rels = ["x", "y", "z"], _skew3(rng, over_q)
    else:
        if over_q:
            gens, rels = ["x", "y"], [f"y*x - {_scalar(rng, True)[0]}*x*y"]
        else:
            a, b, c = (_ratio(rng)[0] for _ in range(3))
            gens = ["x", "y", "z"]
            rels = [f"{a}*y*z + {b}*z*y + {c}*x*x", f"{a}*z*x + {b}*x*z + {c}*y*y",
                    f"{a}*x*y + {b}*y*x + {c}*z*z"]
    text = _presentation("A", over_q, gens, rels)
    return Command("algebra standard-check",
                   ["algebra", "standard-check", "--input", text],
                   _check_standard(rels, gens), field="Q(q)" if over_q else "Q")


def _algebra_twist(rng, i):
    over_q = i % 2 == 1
    c = _ratio(rng)[0]
    text = _presentation("C", over_q, ["x", "y"], [f"{c}*y*x - {c}*x*y"])
    if over_q:
        lt, lam = _qpow(1 + (i // 2) % 2)
    else:
        lt, lam = _ratio(rng)
    mt, mu = _ratio(rng)
    return Command("algebra twist",
                   ["algebra", "twist", "--input", text, "--sigma", f"{lt},0,0,{mt}",
                    "-N", "6"],
                   _check_twist(lam, mu), field="Q(q)" if over_q else "Q")


MAKERS = {
    "heart hn": _heart_hn, "heart split": _heart_split, "heart hom": _heart_hom,
    "heart euler": _heart_euler, "rm cf": _rm_cf, "rm reduce": _rm_reduce,
    "rm fix": _rm_fix, "rm hilbert": _rm_hilbert, "gamma two-point": _gamma,
    "thcr present": _thcr_present, "thcr multiply": _thcr_multiply,
    "algebra hilbert": _algebra_hilbert, "algebra gk": _algebra_gk,
    "algebra standard-check": _algebra_standard, "algebra twist": _algebra_twist,
}


def generate(rng):
    """The seeded command list of one round (the same list every round).

    Choices that set a command's cost (powers of q, section levels, which
    algebra family) follow the command's slot, not the seed, so every seed
    gets the same mix of costs.
    """
    faulty = {
        "rm fix": [Command("rm fix", ["rm", "fix", "--theta", text], _check_fix(psqd),
                           fault=period_not_detected)
                   for text, psqd in LONG_PERIOD_THETAS],
        "thcr multiply": [_composite_multiply(*spec) for spec in UNPARENTHESIZED_PRODUCTS],
    }
    cmds = []
    for kind in KINDS:
        extra = faulty.get(kind, [])
        cmds.extend(MAKERS[kind](rng, i) for i in range(PER_KIND - len(extra)))
        cmds.extend(extra)
    rng.shuffle(cmds)
    return cmds
