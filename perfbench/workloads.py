"""Workload definitions: seeded inputs, the job list of one round, checks.

A workload has three parts.  `generate(rng)` makes the inputs as text from
the seed.  `parse(ncproj, inputs)` turns them into program objects (part of
set-up).  `round_jobs(ncproj, parsed)` returns the jobs of one round; jobs of
a round run in order and may share state (a round of proj-colimit builds its
rewrite systems once and every later job of that round reuses their caches).
A job's `check` receives the job's output and raises oracles.CheckFailed.

Seeds change how an input is written (generator names, scalar multiples,
invertible recombinations of the relations, coefficients of x and y) but not
the algebra, so the work done and the expected answers stay fixed while the
program still receives different text on every seed.
"""

from __future__ import annotations

import io
import json
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction

import session
from oracles import (KnownFault, braid_dims, det3, expect, gaussian_binomial,
                     koszul_betti, poly_scale, sklyanin_dims, trimmed)

Q_FIELD, QQ_FIELD = "Q", "Q(q)"


class Job:
    """One operation of a round.  `run` raises oracles.KnownFault when the
    operation shows the documented symptom of a known program fault."""

    __slots__ = ("name", "field", "run", "check")

    def __init__(self, name, field, run, check):
        self.name = name
        self.field = field
        self.run = run
        self.check = check


# ---------------------------------------------------------------------------
# text helpers
# ---------------------------------------------------------------------------

NAME_PAIRS = [("x", "y"), ("a", "b"), ("s", "t"), ("u", "v"), ("e", "f")]
NAME_TRIPLES = [("x", "y", "z"), ("a", "b", "c"), ("r", "s", "t"), ("u", "v", "w")]


def _scale(rng):
    num = rng.choice([-1, 1]) * rng.randint(1, 9)
    return Fraction(num, rng.randint(1, 5))


def _invertible3(rng):
    while True:
        T = [[rng.randint(-2, 2) for _ in range(3)] for _ in range(3)]
        if det3(T) != 0:
            return T


def _combine(T, polys):
    """Relations sum_j T[i][j] * polys[j], written out as DSL text."""
    out = []
    for row in T:
        terms = [f"{c}*({p})" for c, p in zip(row, polys) if c]
        out.append(" + ".join(terms).replace("+ -", "- "))
    return out


def _subst(text, names):
    """Rename the generators x, y, z of a template to the chosen names."""
    return "".join(names["xyz".index(ch)] if ch in "xyz" else ch for ch in text)


def _algebra(name, field, gens, rels):
    return (f"algebra {name} over {field} {{ gens: {', '.join(gens)}; rels: "
            + " ".join(f"{r};" for r in rels) + " }")


def _scaled_relation(rng, lhs, rhs):
    """c*(lhs - rhs), written in one of four equivalent ways."""
    c = _scale(rng)
    variants = [f"{c}*({lhs}) - {c}*({rhs})", f"{-c}*({rhs}) + {c}*({lhs})",
                f"({c})*({lhs} - {rhs})", f"{-c}*({rhs} - {lhs})"]
    return rng.choice(variants)


# ---------------------------------------------------------------------------
# proj-colimit
# ---------------------------------------------------------------------------

PROJ_CUTOFF = 17


class ProjColimit:
    """Criterion-7 Proj cohomology of P^1 and quantum P^1, plus regularity jobs."""

    name = "proj-colimit"
    trace_rounds = 1

    @staticmethod
    def generate(rng):
        a, b = rng.choice(NAME_PAIRS)
        c, d = rng.choice(NAME_PAIRS)
        names3 = rng.choice(NAME_TRIPLES)
        comms = [_subst(t, names3) for t in ("y*z - z*y", "z*x - x*z", "x*y - y*x")]
        e, f = rng.choice(NAME_PAIRS)
        return {
            "P1": _algebra("P1", "Q", [a, b], [_scaled_relation(rng, f"{b}*{a}", f"{a}*{b}")]),
            "QP1": _algebra("QP1", "Q(q)", [c, d],
                            [_scaled_relation(rng, f"{d}*{c}", f"q*{c}*{d}")]),
            "C3": _algebra("C3", "Q", list(names3), _combine(_invertible3(rng), comms)),
            "QP": _algebra("QP", "Q(q)", [e, f],
                           [_scaled_relation(rng, f"{f}*{e}", f"q*{e}*{f}")]),
        }

    @staticmethod
    def parse(nc, inputs):
        return {k: nc.dsl.parse_presentation(v) for k, v in inputs.items()}

    @staticmethod
    def round_jobs(nc, parsed):
        jobs = []
        for key, field in (("P1", Q_FIELD), ("QP1", QQ_FIELD)):
            jobs.extend(_proj_jobs(nc, parsed[key], key, field))
        for key, field, ngens, cutoff in (("C3", Q_FIELD, 3, 9), ("QP", QQ_FIELD, 2, 10)):
            jobs.extend(_regularity_jobs(nc, parsed[key], key, field, ngens, cutoff))
        return jobs


def _proj_jobs(nc, pres, key, field):
    st = {}

    def complete():
        st["R"] = nc.presentations.build(pres, PROJ_CUTOFF)
        st["A"] = nc.homology.GradedModulePresentation.algebra(st["R"])
        return len(st["R"].rules)

    def h0(d):
        return lambda: nc.homology.proj_cohomology(st["R"], st["A"], 0, d, d + 3)

    def h1(d):
        return lambda: nc.homology.proj_cohomology(st["R"], st["A"], 1, -d, d + 3)

    def dim_is(want, what):
        def check(rep):
            expect(rep.stabilized_dim == want, f"{key} {what} = {rep.stabilized_dim}, want {want}")
        return check

    def equals(want, what):
        def check(got):
            expect(got == want, f"{key} {what} = {got!r}, want {want!r}")
        return check

    jobs = [Job(f"{key} complete", field, complete, equals(1, "rule count"))]
    # P^1: H^0(O(d)) = d + 1; by Serre duality H^1(O(-d)) = dim H^0(O(d-2)) = d - 1
    jobs += [Job(f"{key} H0({d})", field, h0(d), dim_is(d + 1, f"H^0(O({d}))"))
             for d in range(6)]
    jobs += [Job(f"{key} H1({-d})", field, h1(d), dim_is(d - 1, f"H^1(O({-d}))"))
             for d in range(2, 6)]
    jobs.append(Job(f"{key} cd", field,
                    lambda: nc.homology.cd_estimate(st["R"], 2, range(-3, 2), 6),
                    equals(1, "cd")))
    jobs.append(Job(f"{key} gldim", field,
                    lambda: nc.homology.global_dimension(st["R"], 4, 10),
                    equals(2, "global dimension")))
    return jobs


def _regularity_jobs(nc, pres, key, field, ngens, cutoff):
    st = {}

    def complete():
        st["R"] = nc.presentations.build(pres, cutoff)
        return len(st["R"].rules)

    def resolution():
        k = nc.homology.GradedModulePresentation.trivial(st["R"])
        return nc.homology.minimal_resolution(k, ngens + 2, cutoff)

    def check_rules(n):
        expect(n == ngens * (ngens - 1) // 2, f"{key} rule count {n}")

    def check_gorenstein(rep):
        expect(rep == {"passes": True, "d": ngens}, f"{key} Gorenstein report {rep}")

    def check_resolution(rep):
        expect(rep.betti == koszul_betti(ngens), f"{key} Betti shifts {rep.betti}")
        expect(rep.minimal and rep.terminated and rep.length == ngens,
               f"{key} resolution not minimal or of the wrong length")

    return [Job(f"{key} complete", field, complete, check_rules),
            Job(f"{key} gorenstein", field,
                lambda: nc.homology.gorenstein_check(st["R"], cutoff), check_gorenstein),
            Job(f"{key} resolution", field, resolution, check_resolution)]


# ---------------------------------------------------------------------------
# rewrite-cold
# ---------------------------------------------------------------------------

SKLYANIN = ["y*z + 2*z*y + 3*x*x", "z*x + 2*x*z + 3*y*y", "x*y + 2*y*x + 3*z*z"]
CYCLIC = ["y*z - q*z*y + x*x", "z*x - q*x*z + y*y", "x*y - q*y*x + z*z"]
SKLYANIN_CUTOFF, CYCLIC_CUTOFF, BRAID_CUTOFF = 9, 7, 40
NF_DEGREES = range(6, 12)
NF_COEFFS = [Fraction(1), Fraction(-1), Fraction(2), Fraction(-2), Fraction(1, 2),
             Fraction(-1, 2), Fraction(3), Fraction(-3)]


class RewriteCold:
    """Completion, Hilbert/GK data and normal forms, each job on a fresh system."""

    name = "rewrite-cold"
    trace_rounds = 1

    @staticmethod
    def generate(rng):
        n3 = rng.choice(NAME_TRIPLES)
        m3 = rng.choice(NAME_TRIPLES)
        bx, by = rng.choice(NAME_PAIRS)
        return {
            "sklyanin": _algebra("S", "Q", list(n3),
                                 _combine(_invertible3(rng), [_subst(t, n3) for t in SKLYANIN])),
            "cyclic": _algebra("C", "Q(q)", list(m3),
                               _combine(_invertible3(rng), [_subst(t, m3) for t in CYCLIC])),
            "braid": _algebra("B", "Q", [bx, by],
                              [_scaled_relation(rng, f"{bx}*{by}*{bx}", f"{by}*{bx}*{by}")]),
            "qplane": _algebra("QP", "Q(q)", ["x", "y"],
                               [_scaled_relation(rng, "y*x", "q*x*y")]),
            "nf_coeffs": [(rng.choice(NF_COEFFS), rng.choice(NF_COEFFS)) for _ in NF_DEGREES],
        }

    @staticmethod
    def parse(nc, inputs):
        for key in ("sklyanin", "cyclic", "braid", "qplane"):
            nc.dsl.parse_presentation(inputs[key])
        return inputs

    @staticmethod
    def round_jobs(nc, texts):
        def complete_then(key, cutoff, after):
            def run():
                R = nc.presentations.build(nc.dsl.parse_presentation(texts[key]), cutoff)
                return after(R)
            return run

        def normal_form(n, alpha, beta):
            def run():
                p = nc.dsl.parse_presentation(texts["qplane"])
                R = nc.presentations.build(p, n)
                W = nc.words.NcPoly
                s = (W.gen(p.alphabet, p.field, 0).scale(p.field.coerce(alpha))
                     + W.gen(p.alphabet, p.field, 1).scale(p.field.coerce(beta)))
                power = s
                for _ in range(n - 1):
                    power = power * s
                return nc.rewriting.normal_form(power, R)
            return run

        def dims_are(want, what):
            def check(dims):
                expect(dims == want, f"{what} dims {dims}")
            return check

        def check_braid(rep):
            expect(rep.dims == braid_dims(BRAID_CUTOFF), f"braid dims {rep.dims}")
            expect(rep.gk_estimate == "INFINITE", f"braid GK {rep.gk_estimate}")

        jobs = [
            Job("sklyanin complete+hilbert", Q_FIELD,
                complete_then("sklyanin", SKLYANIN_CUTOFF,
                              lambda R: nc.rewriting.hilbert_function(R, SKLYANIN_CUTOFF)),
                dims_are(sklyanin_dims(SKLYANIN_CUTOFF), "Sklyanin")),
            Job("cyclic complete+hilbert", QQ_FIELD,
                complete_then("cyclic", CYCLIC_CUTOFF,
                              lambda R: nc.rewriting.hilbert_function(R, CYCLIC_CUTOFF)),
                dims_are(sklyanin_dims(CYCLIC_CUTOFF), "cyclic")),
            Job("braid complete+gk", Q_FIELD,
                complete_then("braid", BRAID_CUTOFF, nc.rewriting.gk_estimate),
                check_braid),
        ]
        for n, (alpha, beta) in zip(NF_DEGREES, texts["nf_coeffs"]):
            jobs.append(Job(f"normal_form (ax+by)^{n}", QQ_FIELD, normal_form(n, alpha, beta),
                            _check_q_binomial(n, alpha, beta)))
        return jobs


def _check_q_binomial(n, alpha, beta):
    """(a x + b y)^n = sum_k a^k b^(n-k) [n choose k]_q x^k y^(n-k) when yx = q xy."""
    def check(nf):
        want_words = {(0,) * k + (1,) * (n - k) for k in range(n + 1)}
        expect(set(nf.terms) == want_words, f"normal form of degree {n} has stray words")
        for k in range(n + 1):
            c = nf.terms[(0,) * k + (1,) * (n - k)]
            want = poly_scale(gaussian_binomial(n, k), alpha ** k * beta ** (n - k))
            expect(trimmed(c.den.coeffs) == [1] and trimmed(c.num.coeffs) == trimmed(want),
                   f"coefficient of x^{k} y^{n - k} in (ax+by)^{n}")
    return check


# ---------------------------------------------------------------------------
# cli-session
# ---------------------------------------------------------------------------

class CommandFailed(RuntimeError):
    """An ncproj command exited with a nonzero code."""


def invoke_cli(main, argv, out, err):
    """Run one ncproj command in-process; returns (exit code, stdout, stderr).

    out and err are StringIO buffers reused from command to command: click
    caches a wrapper per stream in a WeakKeyDictionary whose value is the
    stream itself, so a fresh buffer per command would never be freed.
    """
    for buf in (out, err):
        buf.seek(0)
        buf.truncate()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            main.main(args=argv, prog_name="ncproj", standalone_mode=True)
            code = 0
        except SystemExit as e:
            code = e.code if isinstance(e.code, int) else (0 if e.code is None else 1)
    return code, out.getvalue(), err.getvalue()


class CliSession:
    """A few hundred seeded ncproj commands sent through the click entry point."""

    name = "cli-session"
    trace_rounds = 5

    @staticmethod
    def generate(rng):
        return session.generate(rng)

    @staticmethod
    def parse(nc, commands):
        for cmd in commands:
            if "--input" in cmd.argv:
                nc.dsl.parse_presentation(cmd.argv[cmd.argv.index("--input") + 1])
        return commands

    @staticmethod
    def round_jobs(nc, commands):
        out, err = io.StringIO(), io.StringIO()

        def run(cmd):
            def inner():
                code, stdout, stderr = invoke_cli(nc.cli.main, cmd.argv, out, err)
                if cmd.fault is not None and cmd.fault(code, stdout, stderr):
                    raise KnownFault(f"exit {code}: {(stderr or stdout).strip()}")
                if code != 0:
                    raise CommandFailed(f"exit {code}: {stderr.strip()}")
                return stdout
            return inner

        def check(cmd):
            return lambda stdout: cmd.check(json.loads(stdout))

        return [Job(cmd.kind, cmd.field, run(cmd), check(cmd)) for cmd in commands]


WORKLOADS = {w.name: w for w in (ProjColimit, RewriteCold, CliSession)}
