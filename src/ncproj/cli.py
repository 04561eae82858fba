"""Command-line front end.

One command per process; reports go to standard output (JSON with sorted
keys, or an aligned table), diagnostics to standard error.  Exit codes:
0 ok, 1 domain error, 2 usage or parse error.
"""

from __future__ import annotations

import functools
import json
import sys

import click

from .coord_rings import (P1Automorphism, Section, gamma_multiply,
                          section_space_dim, thcr_multiply, thcr_presentation,
                          two_point_hilbert)
from .dsl import (ParseError, parse_charge, parse_int_matrix, parse_multiset,
                  parse_presentation, parse_scalar_matrix, parse_theta,
                  parse_upoly)
from .fields import QQ, QQ_Q, FieldMismatchError, QuadExt
from .heart import EMPTY, euler_pairing, hn, hom_vanishes, mu_max, mu_min, torsion_split
from .homology import (GradedModulePresentation, cd_estimate, gorenstein_check,
                       proj_cohomology, proj_cutoff)
from .presentations import build, resolution_shape_check, standard_check, twist
from .real_mult import (SL2Matrix, cf_expand, fixing_matrix, morita_reduce,
                        rm_hilbert)
from .rewriting import gk_estimate, hilbert_function
from .words import GradedEndomorphism


def _emit(report, fmt):
    if fmt == "json":
        click.echo(json.dumps(report, sort_keys=True, indent=2))
        return
    width = max((len(k) for k in report), default=0)
    for k in sorted(report):
        v = report[k]
        text = v if isinstance(v, str) else json.dumps(v, sort_keys=True)
        click.echo(f"{k.ljust(width)}  {text}")


def _guard(fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        try:
            return fn(*args, **kwargs)
        except ParseError as e:
            click.echo(f"error: {e}", err=True)
            sys.exit(2)
        except (ValueError, ZeroDivisionError, OverflowError, FieldMismatchError) as e:
            click.echo(f"error: {e}", err=True)
            sys.exit(1)
    return wrapper


def _load_presentation(inline, path):
    if (inline is None) == (path is None):
        raise click.UsageError("provide exactly one of --input or --file")
    if inline is not None:
        return parse_presentation(inline)
    with open(path) as f:
        return parse_presentation(f.read())


_format_opt = click.option("--format", "fmt", type=click.Choice(["json", "table"]),
                           default="json", show_default=True, help="Output format.")
_input_opts = [
    click.option("--input", "inline", default=None,
                 help="Inline presentation in the DSL."),
    click.option("--file", "path", default=None,
                 type=click.Path(exists=True, dir_okay=False, readable=True),
                 help="File containing a presentation."),
]


def _with(opts):
    def deco(fn):
        for opt in reversed(opts):
            fn = opt(fn)
        return fn
    return deco


@click.group()
def main():
    """Exact computations with graded algebra presentations."""


# ---------------------------------------------------------------------------
# algebra
# ---------------------------------------------------------------------------

@main.group()
def algebra():
    """Hilbert functions, growth, twists and regularity checks."""


@algebra.command("hilbert")
@_with(_input_opts)
@click.option("-N", "cutoff", type=click.IntRange(min=1), default=12,
              show_default=True, help="Degree cutoff.")
@_format_opt
@_guard
def algebra_hilbert(inline, path, cutoff, fmt):
    """Dimensions of the graded pieces up to degree N."""
    p = _load_presentation(inline, path)
    R = build(p, cutoff)
    _emit({"N": cutoff, "algebra": p.name,
           "dims": hilbert_function(R, cutoff)}, fmt)


@algebra.command("gk")
@_with(_input_opts)
@click.option("-N", "cutoff", type=click.IntRange(min=2), default=12,
              show_default=True, help="Degree cutoff (60 recommended).")
@_format_opt
@_guard
def algebra_gk(inline, path, cutoff, fmt):
    """Windowed GK-dimension estimate from the Hilbert function."""
    p = _load_presentation(inline, path)
    R = build(p, cutoff)
    report = gk_estimate(R).to_dict()
    report["algebra"] = p.name
    _emit(report, fmt)


@algebra.command("twist")
@_with(_input_opts)
@click.option("--sigma", required=True,
              help="Row-major matrix entries of the twisting automorphism.")
@click.option("-N", "cutoff", type=click.IntRange(min=2), default=12,
              show_default=True, help="Degree cutoff for normal forms.")
@click.option("--smax", type=click.IntRange(min=2), default=None,
              help="Highest relation degree to search (default: max+1).")
@_format_opt
@_guard
def algebra_twist(inline, path, sigma, cutoff, smax, fmt):
    """Presentation of the twisted algebra A^sigma."""
    p = _load_presentation(inline, path)
    m = parse_scalar_matrix(sigma, p.field)
    if len(m) != len(p.alphabet):
        raise click.UsageError("sigma must be square of size = generator count")
    endo = GradedEndomorphism(p.alphabet, p.field, m)
    if smax is None:
        smax = p.max_relation_degree() + 1
    q = twist(p, endo, cutoff, smax)
    _emit({"N": cutoff, "presentation": q.render(),
           "relations": [r.render(q.order) for r in q.relations], "s_max": smax}, fmt)


@algebra.command("gorenstein")
@_with(_input_opts)
@click.option("-N", "cutoff", type=click.IntRange(min=2), default=12,
              show_default=True, help="Degree cutoff.")
@click.option("--pmax", type=click.IntRange(min=1), default=6,
              show_default=True, help="Homological degree cutoff.")
@_format_opt
@_guard
def algebra_gorenstein(inline, path, cutoff, pmax, fmt):
    """Gorenstein condition on the trivial module's Ext algebra."""
    p = _load_presentation(inline, path)
    R = build(p, cutoff)
    report = dict(gorenstein_check(R, cutoff, pmax))
    report.update({"N": cutoff, "algebra": p.name, "p_max": pmax})
    _emit(report, fmt)


@algebra.command("standard-check")
@_with(_input_opts)
@_format_opt
@_guard
def algebra_standard_check(inline, path, fmt):
    """Exact (r,s)-standard-algebra test: solve for the matrix Q."""
    p = _load_presentation(inline, path)
    _emit(standard_check(p).to_dict(p.order), fmt)


@algebra.command("resolution-check")
@_with(_input_opts)
@click.option("-r", "r", type=click.IntRange(min=1), required=True,
              help="Expected generator count.")
@click.option("-s", "s", type=click.IntRange(min=2), required=True,
              help="Expected relation degree.")
@click.option("-N", "cutoff", type=click.IntRange(min=2), default=12,
              show_default=True, help="Degree cutoff for the series identity.")
@_format_opt
@_guard
def algebra_resolution_check(inline, path, r, s, cutoff, fmt):
    """Series identity H(t)(1 - r t + r t^s - t^(s+1)) = 1 mod t^(N+1)."""
    p = _load_presentation(inline, path)
    _emit({"N": cutoff, "algebra": p.name, "r": r, "s": s,
           "holds": resolution_shape_check(p, r, s, cutoff)}, fmt)


# ---------------------------------------------------------------------------
# proj
# ---------------------------------------------------------------------------

@main.group()
def proj():
    """Cohomology of the noncommutative Proj via truncation colimits."""


@proj.command("cohomology")
@_with(_input_opts)
@click.option("-j", "j", type=click.IntRange(min=0), required=True,
              help="Cohomological degree.")
@click.option("-d", "d", type=int, default=0, show_default=True,
              help="Internal twist.")
@click.option("--nmax", type=click.IntRange(min=3), default=12,
              show_default=True, help="Largest truncation index.")
@_format_opt
@_guard
def proj_cohomology_cmd(inline, path, j, d, nmax, fmt):
    """Stabilized dimension of H^j(R[d])."""
    p = _load_presentation(inline, path)
    cutoff = max(12, proj_cutoff(nmax, j, d))
    R = build(p, cutoff)
    M = GradedModulePresentation.algebra(R)
    report = proj_cohomology(R, M, j, d, nmax).to_dict()
    report.update({"algebra": p.name, "n_max": nmax})
    _emit(report, fmt)


@proj.command("cd")
@_with(_input_opts)
@click.option("--jmax", type=click.IntRange(min=0), default=2,
              show_default=True, help="Largest cohomological degree scanned.")
@click.option("--dmin", type=int, default=-3, show_default=True)
@click.option("--dmax", type=int, default=2, show_default=True)
@click.option("--nmax", type=click.IntRange(min=3), default=12,
              show_default=True, help="Largest truncation index.")
@_format_opt
@_guard
def proj_cd(inline, path, jmax, dmin, dmax, nmax, fmt):
    """Cohomological-dimension estimate over a window of twists."""
    if dmin > dmax:
        raise click.UsageError(f"--dmin {dmin} exceeds --dmax {dmax}: no twist to scan")
    p = _load_presentation(inline, path)
    cutoff = max(12, proj_cutoff(nmax, jmax, dmin, dmax))
    R = build(p, cutoff)
    cd = cd_estimate(R, jmax, range(dmin, dmax + 1), nmax)
    _emit({"algebra": p.name, "cd": cd, "d_range": [dmin, dmax],
           "j_max": jmax, "n_max": nmax}, fmt)


# ---------------------------------------------------------------------------
# thcr
# ---------------------------------------------------------------------------

def _parse_sigma_p1(text):
    has_q = "q" in text
    field = QQ_Q if has_q else QQ
    m = parse_scalar_matrix(text, field)
    if len(m) != 2:
        raise click.UsageError("sigma needs four entries a,b,c,d")
    return P1Automorphism(field, m[0][0], m[0][1], m[1][0], m[1][1])


def _parse_section(text, field):
    if ":" not in text:
        raise click.UsageError("sections are written level:polynomial, e.g. 1:u")
    level, poly = text.split(":", 1)
    try:
        level = int(level)
    except ValueError:
        raise ParseError(f"section level {level!r} is not an integer", 1, 1) from None
    return Section(parse_upoly(poly, field), level)


@main.group()
def thcr():
    """Twisted homogeneous coordinate rings of the projective line."""


@thcr.command("present")
@click.option("--sigma", required=True,
              help="Entries a,b,c,d of the fractional-linear automorphism.")
@click.option("--dmax", type=click.IntRange(min=2), default=8,
              show_default=True, help="Highest relation degree searched.")
@_format_opt
@_guard
def thcr_present(sigma, dmax, fmt):
    """Presentation of the section ring on the level-1 generators."""
    s = _parse_sigma_p1(sigma)
    p = thcr_presentation(s, dmax)
    _emit({"d_max": dmax,
           "hilbert": [section_space_dim(n) for n in range(dmax + 1)],
           "presentation": p.render(),
           "relations": [r.render(p.order) for r in p.relations]}, fmt)


@thcr.command("multiply")
@click.option("--sigma", required=True,
              help="Entries a,b,c,d of the fractional-linear automorphism.")
@click.option("-f", "f_text", required=True, help="Left section, level:poly.")
@click.option("-g", "g_text", required=True, help="Right section, level:poly.")
@click.option("--rule", type=click.Choice(["thcr", "gamma"]), default="thcr",
              show_default=True, help="Which side gets twisted.")
@_format_opt
@_guard
def thcr_mult(sigma, f_text, g_text, rule, fmt):
    """Product of two sections under the twisted multiplication."""
    s = _parse_sigma_p1(sigma)
    f = _parse_section(f_text, s.field)
    g = _parse_section(g_text, s.field)
    prod = thcr_multiply(f, g, s) if rule == "thcr" else gamma_multiply(f, g, s)
    _emit({"level": prod.level, "product": prod.render(), "rule": rule}, fmt)


# ---------------------------------------------------------------------------
# gamma
# ---------------------------------------------------------------------------

@main.group()
def gamma():
    """Section rings of finite triples."""


@gamma.command("two-point")
@click.option("--r1", type=click.IntRange(min=0), required=True)
@click.option("--r2", type=click.IntRange(min=0), required=True)
@click.option("-n", "n_max", type=click.IntRange(min=0), default=10,
              show_default=True, help="Highest degree.")
@_format_opt
@_guard
def gamma_two_point(r1, r2, n_max, fmt):
    """Hilbert function of the two-point triple with multiplicities r1, r2."""
    _emit({"dims": two_point_hilbert(r1, r2, n_max), "n_max": n_max,
           "r1": r1, "r2": r2}, fmt)


# ---------------------------------------------------------------------------
# heart
# ---------------------------------------------------------------------------

@main.group()
def heart():
    """Slope calculus for charge multisets."""


@heart.command("hn")
@click.option("--factors", required=True, help="Multiset, e.g. [1:0, 2:1*3].")
@_format_opt
@_guard
def heart_hn(factors, fmt):
    """Harder-Narasimhan layers grouped by slope."""
    F = parse_multiset(factors)
    _emit(hn(F).to_dict(), fmt)


@heart.command("split")
@click.option("--factors", required=True, help="Multiset, e.g. [1:0, 2:1*3].")
@click.option("--theta", required=True, help="Rational or quadratic theta.")
@_format_opt
@_guard
def heart_split(factors, theta, fmt):
    """Torsion pair split at theta."""
    F = parse_multiset(factors)
    th = parse_theta(theta)
    t, q = torsion_split(F, th)
    _emit({"free": EMPTY if q is EMPTY else q.render(),
           "theta": str(th),
           "torsion": EMPTY if t is EMPTY else t.render()}, fmt)


@heart.command("hom")
@click.option("-f", "f_text", required=True, help="Source multiset.")
@click.option("-g", "g_text", required=True, help="Target multiset.")
@_format_opt
@_guard
def heart_hom(f_text, g_text, fmt):
    """Slope-based Hom-vanishing certificate."""
    F = parse_multiset(f_text)
    G = parse_multiset(g_text)
    _emit({"certificate": hom_vanishes(F, G),
           "mu_max_target": mu_max(G).render(),
           "mu_min_source": mu_min(F).render()}, fmt)


@heart.command("euler")
@click.option("--z1", required=True, help="Charge r:d.")
@click.option("--z2", required=True, help="Charge r:d.")
@_format_opt
@_guard
def heart_euler(z1, z2, fmt):
    """Euler pairing of two charges."""
    a, b = parse_charge(z1), parse_charge(z2)
    _emit({"chi": euler_pairing(a, b), "z1": a.render(), "z2": b.render()}, fmt)


# ---------------------------------------------------------------------------
# rm
# ---------------------------------------------------------------------------

@main.group()
def rm():
    """Quadratic irrationals and real-multiplication Hilbert data."""


@rm.command("reduce")
@click.option("--theta", required=True, help="Quadratic irrational literal.")
@_format_opt
@_guard
def rm_reduce(theta, fmt):
    """Translate theta into the unit interval."""
    th = _require_quadratic(parse_theta(theta))
    reduced, word = morita_reduce(th)
    _emit({"reduced": str(reduced), "theta": str(th),
           "word": [[s, e] for s, e in word]}, fmt)


@rm.command("cf")
@click.option("--theta", required=True, help="Quadratic irrational literal.")
@click.option("--max-terms", type=click.IntRange(min=1), default=60,
              show_default=True)
@_format_opt
@_guard
def rm_cf(theta, max_terms, fmt):
    """Periodic continued-fraction expansion."""
    th = _require_quadratic(parse_theta(theta))
    report = cf_expand(th, max_terms).to_dict()
    report["theta"] = str(th)
    _emit(report, fmt)


@rm.command("fix")
@click.option("--theta", required=True, help="Quadratic irrational literal.")
@_format_opt
@_guard
def rm_fix(theta, fmt):
    """Hyperbolic fixing matrix with trace > 2."""
    th = _require_quadratic(parse_theta(theta))
    g = fixing_matrix(th)
    _emit({"matrix": g.entries(), "theta": str(th), "trace": g.trace()}, fmt)


@rm.command("hilbert")
@click.option("-F", "f_text", required=True,
              help="Fixing matrix entries a,b,c,d.")
@click.option("-G", "g_text", required=True, help="Starting charge r:d.")
@click.option("--theta", required=True, help="Quadratic irrational literal.")
@click.option("-n", "n_max", type=click.IntRange(min=2), default=4,
              show_default=True, help="Orbit length.")
@_format_opt
@_guard
def rm_hilbert_cmd(f_text, g_text, theta, n_max, fmt):
    """Hilbert data of the real-multiplication algebra A_{F,G}."""
    m = parse_int_matrix(f_text)
    if len(m) != 2:
        raise click.UsageError("F needs four integer entries a,b,c,d")
    F = SL2Matrix(m[0][0], m[0][1], m[1][0], m[1][1])
    G = parse_charge(g_text)
    th = _require_quadratic(parse_theta(theta))
    report = rm_hilbert(F, G, th, n_max).to_dict()
    report["n_max"] = n_max
    _emit(report, fmt)


def _require_quadratic(th):
    if not isinstance(th, QuadExt) or th.is_rational():
        raise ValueError("theta must be a quadratic irrational")
    return th


if __name__ == "__main__":
    main()
