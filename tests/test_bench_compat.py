"""The benchmark in perfbench/ still fits the program; perfbench/ is only read.

One seed-1 round of each workload runs here, so a changed signature that a
workload calls fails this suite, not only the benchmark run.

perfbench/tracer.py wraps `RatFunc.__init__`, the static `RatFunc._raw`,
`UPoly.gcd` and every public ncproj function through `vars()`, and
perfbench/workloads.py checks the normal form of (a x + b y)^n in the
quantum plane through the `num` and `den` of its Q(q) coefficients.  A
change of representation that breaks `--trace 1` or those checks fails here.
"""

import importlib
import random
import sys
from fractions import Fraction
from pathlib import Path
from time import perf_counter
from types import SimpleNamespace

import pytest

from ncproj.dsl import parse_presentation
from ncproj.fields import QQ, RatFunc, UPoly
from ncproj.homology import GradedModulePresentation, minimal_resolution
from ncproj.presentations import build
from ncproj.rewriting import normal_form
from ncproj.words import NcPoly

PERFBENCH = str(Path(__file__).resolve().parents[1] / "perfbench")
QPLANE = "algebra QP over Q(q) { gens: x, y; rels: y*x - q*x*y; }"


@pytest.fixture(scope="module")
def bench():
    """perfbench's modules, imported by name as run.py imports them."""
    sys.path.insert(0, PERFBENCH)
    try:
        yield SimpleNamespace(**{m: importlib.import_module(m)
                                 for m in ("run", "tracer", "workloads", "oracles")})
    finally:
        sys.path.remove(PERFBENCH)


def qplane(cutoff):
    return build(parse_presentation(QPLANE), cutoff)


def power_normal_form(n, alpha, beta):
    R = qplane(n)
    x, y = (NcPoly.gen(R.alphabet, R.field, i) for i in range(2))
    s = x.scale(R.field.coerce(alpha)) + y.scale(R.field.coerce(beta))
    power = s
    for _ in range(n - 1):
        power = power * s
    return normal_form(power, R)


def q_work():
    """Q(q) arithmetic on both paths (one general gcd) and a resolution."""
    q = RatFunc.q()
    general = (q + 1) / (q * q - 1) + q / (q + 2)
    R = qplane(6)
    rep = minimal_resolution(GradedModulePresentation.trivial(R), 3, 6)
    return str(general), rep.betti, str(power_normal_form(3, Fraction(2), Fraction(-1, 3)))


def test_tracer_installs_counts_and_uninstalls(bench):
    modules = {m: importlib.import_module(f"ncproj.{m}") for m in bench.run.MODULES}
    fields = modules["fields"]
    before = {(cls, meth): vars(getattr(fields, cls))[meth]
              for cls, meth in (("RatFunc", "__init__"), ("RatFunc", "_raw"),
                                ("UPoly", "gcd"))}
    want = q_work()
    tr = bench.tracer.Tracer()
    tr.install(modules, bench.workloads)
    try:
        assert q_work() == want
    finally:
        tr.uninstall()
    assert all(vars(getattr(fields, cls))[meth] is fn for (cls, meth), fn in before.items())
    assert isinstance(vars(fields.RatFunc)["_raw"], staticmethod)
    assert modules["rewriting"].normal_form is normal_form
    metrics = tr.metrics(0.0)
    assert metrics["fields.ratfunc_new"][0] > 0
    assert metrics["fields.upoly_gcd"][0] >= 1
    assert metrics["rewriting.normal_form.calls"][0] > 0
    assert q_work() == want


def test_the_tracer_counts_each_public_eliminator_call_once(bench):
    """add, residue and contains share one private reduction, so `--trace 1`
    counts one linalg.span call per public call and times none twice."""
    modules = {m: importlib.import_module(f"ncproj.{m}") for m in bench.run.MODULES}
    tr = bench.tracer.Tracer()
    tr.install(modules, bench.workloads)
    try:
        span = modules["linalg"].SpanTracker(3, QQ)
        assert span.add({0: Fraction(1), 1: Fraction(2)})
        assert span.add({1: Fraction(1), 2: Fraction(1)})
        assert not span.add({0: Fraction(1), 1: Fraction(3), 2: Fraction(1)})
        assert span.residue({2: Fraction(5)}) == {2: Fraction(5)}
        assert span.contains({0: Fraction(2), 1: Fraction(5), 2: Fraction(1)})
    finally:
        tr.uninstall()
    assert tr.calls["linalg.span"] == 5
    assert tr.metrics(0.0)["linalg.span.useful_ratio"][0] == 2 / 3


SKLYANIN = ("algebra S over Q { gens: x, y, z; "
            "rels: y*z + 2*z*y + 3*x*x; z*x + 2*x*z + 3*y*y; x*y + 2*y*x + 3*z*z; }")


def test_the_tracer_sees_every_insertion_of_a_completion_over_Q(bench):
    """Completing the (1,2,3) Sklyanin algebra to cutoff 9 inserts 92 rows
    into its degree spans, 26 of them new (its 26 rules): the counts taken
    with the spans over Fraction rows, which integer rows must neither skip
    nor add to, seen through the tracer's wrapper of SpanTracker.add."""
    modules = {m: importlib.import_module(f"ncproj.{m}") for m in bench.run.MODULES}
    p = parse_presentation(SKLYANIN)
    tr = bench.tracer.Tracer()
    tr.install(modules, bench.workloads)
    try:
        R = modules["rewriting"].complete_truncated_over(p.relations, 9, p.alphabet, p.field)
    finally:
        tr.uninstall()
    assert len(R.rules) == 26
    assert (tr.counts["span.adds"], tr.counts["span.useful"]) == (92, 26)
    assert tr.calls["linalg.span"] == 92


def test_the_tracer_sees_the_resolution_the_gorenstein_check_reads(bench):
    """gorenstein_check reads k's resolution through the public
    minimal_resolution, so `--trace 1` times it and counts its Betti
    numbers."""
    modules = {m: importlib.import_module(f"ncproj.{m}") for m in bench.run.MODULES}
    tr = bench.tracer.Tracer()
    tr.install(modules, bench.workloads)
    try:
        R = build(parse_presentation("algebra P over Q { gens: x, y; rels: y*x - x*y; }"), 6)
        assert modules["homology"].gorenstein_check(R, 6) == {"passes": True, "d": 2}
    finally:
        tr.uninstall()
    assert tr.calls["homology.minimal_resolution"] >= 1
    assert tr.metrics(0.0)["homology.betti_total"][0] > 0


@pytest.mark.parametrize("n", range(2, 7))
def test_q_binomial_check_of_the_rewrite_workload(bench, n):
    alpha, beta = [(Fraction(1), Fraction(1)), (Fraction(-2), Fraction(1, 2)),
                   (Fraction(3), Fraction(-1)), (Fraction(1, 3), Fraction(2)),
                   (Fraction(-1, 2), Fraction(-3))][n - 2]
    bench.workloads._check_q_binomial(n, alpha, beta)(power_normal_form(n, alpha, beta))


def test_q_binomial_check_rejects_a_wrong_coefficient(bench):
    nf = power_normal_form(3, Fraction(1), Fraction(1))
    word = (0, 1, 1)
    nf.terms[word] = nf.terms[word] + RatFunc(UPoly((Fraction(0), Fraction(1))))
    with pytest.raises(bench.oracles.CheckFailed, match="coefficient"):
        bench.workloads._check_q_binomial(3, Fraction(1), Fraction(1))(nf)


@pytest.mark.parametrize("workload", ["ProjColimit", "RewriteCold", "CliSession"])
def test_one_round_of_each_workload_passes_its_checks(bench, workload):
    nc = SimpleNamespace(**{m: importlib.import_module(f"ncproj.{m}") for m in bench.run.MODULES})
    w = getattr(bench.workloads, workload)
    parsed = w.parse(nc, w.generate(random.Random(1)))
    clock = SimpleNamespace(mark=perf_counter, since=lambda mark: perf_counter() - mark)
    tally = bench.run.Tally()
    tally.round(nc, w, parsed, clock)
    assert tally.errors == []
    assert tally.failed == 0 and tally.attempted > 0
