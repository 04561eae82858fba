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
                       proj_cohomology, proj_depth)
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


def _command(group, name):
    """Register fn as the command `name` of `group`.

    fn returns its report; the command prints it in the format of --format,
    its last option.  A ParseError exits 2 and a domain error exits 1, each
    with one "error: ..." line on standard error.
    """
    def deco(fn):
        @functools.wraps(fn)
        def run(fmt, **kwargs):
            try:
                report = fn(**kwargs)
            except ParseError as e:
                click.echo(f"error: {e}", err=True)
                sys.exit(2)
            except (ValueError, ZeroDivisionError, OverflowError, FieldMismatchError) as e:
                click.echo(f"error: {e}", err=True)
                sys.exit(1)
            _emit(report, fmt)

        cmd = group.command(name)(run)
        cmd.params.append(click.Option(["--format", "fmt"], type=click.Choice(["json", "table"]),
                                       default="json", show_default=True,
                                       help="Output format."))
        return cmd
    return deco


def _algebra_input(fn):
    """Lead fn's options with --input/--file; fn gets the parsed presentation as p."""
    @functools.wraps(fn)
    def run(inline, path, **kwargs):
        if (inline is None) == (path is None):
            raise click.UsageError("provide exactly one of --input or --file")
        if path is not None:
            with open(path) as f:
                inline = f.read()
        return fn(parse_presentation(inline), **kwargs)

    run = click.option("--file", "path", default=None,
                       type=click.Path(exists=True, dir_okay=False, readable=True),
                       help="File containing a presentation.")(run)
    return click.option("--input", "inline", default=None,
                        help="Inline presentation in the DSL.")(run)


@click.group()
def main():
    """Exact computations with graded algebra presentations."""
    # reports hold exact integers of any size (a fixing matrix of a large
    # radicand has entries of tens of thousands of digits)
    if hasattr(sys, "set_int_max_str_digits"):
        sys.set_int_max_str_digits(0)


# ---------------------------------------------------------------------------
# algebra
# ---------------------------------------------------------------------------

@main.group()
def algebra():
    """Hilbert functions, growth, twists and regularity checks."""


@_command(algebra, "hilbert")
@_algebra_input
@click.option("-N", "cutoff", type=click.IntRange(min=1), default=12,
              show_default=True, help="Degree cutoff.")
def algebra_hilbert(p, cutoff):
    """Dimensions of the graded pieces up to degree N."""
    R = build(p, cutoff)
    return {"N": cutoff, "algebra": p.name, "dims": hilbert_function(R, cutoff)}


@_command(algebra, "gk")
@_algebra_input
@click.option("-N", "cutoff", type=click.IntRange(min=2), default=12,
              show_default=True, help="Degree cutoff (60 recommended).")
def algebra_gk(p, cutoff):
    """Windowed GK-dimension estimate from the Hilbert function."""
    R = build(p, cutoff)
    report = gk_estimate(R).to_dict()
    report["algebra"] = p.name
    return report


@_command(algebra, "twist")
@_algebra_input
@click.option("--sigma", required=True,
              help="Row-major matrix entries of the twisting automorphism.")
@click.option("-N", "cutoff", type=click.IntRange(min=2), default=12,
              show_default=True, help="Degree cutoff for normal forms.")
@click.option("--smax", type=click.IntRange(min=2), default=None,
              help="Highest relation degree to search (default: max+1).")
def algebra_twist(p, sigma, cutoff, smax):
    """Presentation of the twisted algebra A^sigma."""
    m = parse_scalar_matrix(sigma, p.field)
    if len(m) != len(p.alphabet):
        raise click.UsageError("sigma must be square of size = generator count")
    endo = GradedEndomorphism(p.alphabet, p.field, m)
    if smax is None:
        smax = p.max_relation_degree() + 1
    q = twist(p, endo, cutoff, smax)
    return {"N": cutoff, "presentation": q.render(),
            "relations": [r.render() for r in q.relations], "s_max": smax}


@_command(algebra, "gorenstein")
@_algebra_input
@click.option("-N", "cutoff", type=click.IntRange(min=2), default=12,
              show_default=True, help="Degree cutoff.")
@click.option("--pmax", type=click.IntRange(min=1), default=6,
              show_default=True, help="Homological degree cutoff.")
def algebra_gorenstein(p, cutoff, pmax):
    """Gorenstein condition on the trivial module's Ext algebra."""
    R = build(p, cutoff)
    report = dict(gorenstein_check(R, cutoff, pmax))
    report.update({"N": cutoff, "algebra": p.name, "p_max": pmax})
    return report


@_command(algebra, "standard-check")
@_algebra_input
def algebra_standard_check(p):
    """Exact (r,s)-standard-algebra test: solve for the matrix Q."""
    return standard_check(p).to_dict()


@_command(algebra, "resolution-check")
@_algebra_input
@click.option("-r", "r", type=click.IntRange(min=1), required=True,
              help="Expected generator count.")
@click.option("-s", "s", type=click.IntRange(min=2), required=True,
              help="Expected relation degree.")
@click.option("-N", "cutoff", type=click.IntRange(min=2), default=12,
              show_default=True, help="Degree cutoff for the series identity.")
def algebra_resolution_check(p, r, s, cutoff):
    """Series identity H(t)(1 - r t + r t^s - t^(s+1)) = 1 mod t^(N+1)."""
    return {"N": cutoff, "algebra": p.name, "r": r, "s": s,
            "holds": resolution_shape_check(p, r, s, cutoff)}


# ---------------------------------------------------------------------------
# proj
# ---------------------------------------------------------------------------

@main.group()
def proj():
    """Cohomology of the noncommutative Proj via truncation colimits."""


def _built_for_proj(p, nmax, js, dmax):
    """p completed for H^j, j in js, at twists up to dmax: afresh while k's
    resolution asks for more (proj_depth, which only grows), a loop that ends
    whenever k's P^j..P^{j+2} are finitely generated."""
    R = build(p, max(p.max_relation_degree(), nmax + max(js) + 1) + max(dmax, 0))
    while (depth := max(proj_depth(R, nmax, j, dmax) for j in js)) > R.cutoff:
        R = build(p, depth)
    return R


@_command(proj, "cohomology")
@_algebra_input
@click.option("-j", "j", type=click.IntRange(min=0), required=True,
              help="Cohomological degree.")
@click.option("-d", "d", type=int, default=0, show_default=True,
              help="Internal twist.")
@click.option("--nmax", type=click.IntRange(min=3), default=12,
              show_default=True, help="Largest truncation index.")
def proj_cohomology_cmd(p, j, d, nmax):
    """Stabilized dimension of H^j(R[d])."""
    R = _built_for_proj(p, nmax, [j], d)
    M = GradedModulePresentation.algebra(R)
    report = proj_cohomology(R, M, j, d, nmax).to_dict()
    report.update({"algebra": p.name, "n_max": nmax})
    return report


@_command(proj, "cd")
@_algebra_input
@click.option("--jmax", type=click.IntRange(min=0), default=2,
              show_default=True, help="Largest cohomological degree scanned.")
@click.option("--dmin", type=int, default=-3, show_default=True)
@click.option("--dmax", type=int, default=2, show_default=True)
@click.option("--nmax", type=click.IntRange(min=3), default=12,
              show_default=True, help="Largest truncation index.")
def proj_cd(p, jmax, dmin, dmax, nmax):
    """Cohomological-dimension estimate over a window of twists."""
    if dmin > dmax:
        raise click.UsageError(f"--dmin {dmin} exceeds --dmax {dmax}: no twist to scan")
    R = _built_for_proj(p, nmax, range(jmax + 1), dmax)
    cd = cd_estimate(R, jmax, range(dmin, dmax + 1), nmax)
    return {"algebra": p.name, "cd": cd, "d_range": [dmin, dmax],
            "j_max": jmax, "n_max": nmax}


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


@_command(thcr, "present")
@click.option("--sigma", required=True,
              help="Entries a,b,c,d of the fractional-linear automorphism.")
@click.option("--dmax", type=click.IntRange(min=2), default=8,
              show_default=True, help="Highest relation degree searched.")
def thcr_present(sigma, dmax):
    """Presentation of the section ring on the level-1 generators."""
    s = _parse_sigma_p1(sigma)
    p = thcr_presentation(s, dmax)
    return {"d_max": dmax,
            "hilbert": [section_space_dim(n) for n in range(dmax + 1)],
            "presentation": p.render(),
            "relations": [r.render() for r in p.relations]}


@_command(thcr, "multiply")
@click.option("--sigma", required=True,
              help="Entries a,b,c,d of the fractional-linear automorphism.")
@click.option("-f", "f_text", required=True, help="Left section, level:poly.")
@click.option("-g", "g_text", required=True, help="Right section, level:poly.")
@click.option("--rule", type=click.Choice(["thcr", "gamma"]), default="thcr",
              show_default=True, help="Which side gets twisted.")
def thcr_mult(sigma, f_text, g_text, rule):
    """Product of two sections under the twisted multiplication."""
    s = _parse_sigma_p1(sigma)
    f = _parse_section(f_text, s.field)
    g = _parse_section(g_text, s.field)
    prod = thcr_multiply(f, g, s) if rule == "thcr" else gamma_multiply(f, g, s)
    return {"level": prod.level, "product": prod.render(), "rule": rule}


# ---------------------------------------------------------------------------
# gamma
# ---------------------------------------------------------------------------

@main.group()
def gamma():
    """Section rings of finite triples."""


@_command(gamma, "two-point")
@click.option("--r1", type=click.IntRange(min=0), required=True)
@click.option("--r2", type=click.IntRange(min=0), required=True)
@click.option("-n", "n_max", type=click.IntRange(min=0), default=10,
              show_default=True, help="Highest degree.")
def gamma_two_point(r1, r2, n_max):
    """Hilbert function of the two-point triple with multiplicities r1, r2."""
    return {"dims": two_point_hilbert(r1, r2, n_max), "n_max": n_max,
            "r1": r1, "r2": r2}


# ---------------------------------------------------------------------------
# heart
# ---------------------------------------------------------------------------

@main.group()
def heart():
    """Slope calculus for charge multisets."""


@_command(heart, "hn")
@click.option("--factors", required=True, help="Multiset, e.g. [1:0, 2:1*3].")
def heart_hn(factors):
    """Harder-Narasimhan layers grouped by slope."""
    return hn(parse_multiset(factors)).to_dict()


@_command(heart, "split")
@click.option("--factors", required=True, help="Multiset, e.g. [1:0, 2:1*3].")
@click.option("--theta", required=True, help="Rational or quadratic theta.")
def heart_split(factors, theta):
    """Torsion pair split at theta."""
    F = parse_multiset(factors)
    th = parse_theta(theta)
    t, q = torsion_split(F, th)
    return {"free": EMPTY if q is EMPTY else q.render(),
            "theta": str(th),
            "torsion": EMPTY if t is EMPTY else t.render()}


@_command(heart, "hom")
@click.option("-f", "f_text", required=True, help="Source multiset.")
@click.option("-g", "g_text", required=True, help="Target multiset.")
def heart_hom(f_text, g_text):
    """Slope-based Hom-vanishing certificate."""
    F = parse_multiset(f_text)
    G = parse_multiset(g_text)
    return {"certificate": hom_vanishes(F, G),
            "mu_max_target": mu_max(G).render(),
            "mu_min_source": mu_min(F).render()}


@_command(heart, "euler")
@click.option("--z1", required=True, help="Charge r:d.")
@click.option("--z2", required=True, help="Charge r:d.")
def heart_euler(z1, z2):
    """Euler pairing of two charges."""
    a, b = parse_charge(z1), parse_charge(z2)
    return {"chi": euler_pairing(a, b), "z1": a.render(), "z2": b.render()}


# ---------------------------------------------------------------------------
# rm
# ---------------------------------------------------------------------------

@main.group()
def rm():
    """Quadratic irrationals and real-multiplication Hilbert data."""


@_command(rm, "reduce")
@click.option("--theta", required=True, help="Quadratic irrational literal.")
def rm_reduce(theta):
    """Translate theta into the unit interval."""
    th = _require_quadratic(parse_theta(theta))
    reduced, word = morita_reduce(th)
    return {"reduced": str(reduced), "theta": str(th),
            "word": [[s, e] for s, e in word]}


@_command(rm, "cf")
@click.option("--theta", required=True, help="Quadratic irrational literal.")
@click.option("--max-terms", type=click.IntRange(min=1), default=60,
              show_default=True)
def rm_cf(theta, max_terms):
    """Periodic continued-fraction expansion."""
    th = _require_quadratic(parse_theta(theta))
    report = cf_expand(th, max_terms).to_dict()
    report["theta"] = str(th)
    return report


@_command(rm, "fix")
@click.option("--theta", required=True, help="Quadratic irrational literal.")
def rm_fix(theta):
    """Hyperbolic fixing matrix with trace > 2."""
    th = _require_quadratic(parse_theta(theta))
    g = fixing_matrix(th)
    return {"matrix": g.entries(), "theta": str(th), "trace": g.trace()}


@_command(rm, "hilbert")
@click.option("-F", "f_text", required=True,
              help="Fixing matrix entries a,b,c,d.")
@click.option("-G", "g_text", required=True, help="Starting charge r:d.")
@click.option("--theta", required=True, help="Quadratic irrational literal.")
@click.option("-n", "n_max", type=click.IntRange(min=2), default=4,
              show_default=True, help="Orbit length.")
def rm_hilbert_cmd(f_text, g_text, theta, n_max):
    """Hilbert data of the real-multiplication algebra A_{F,G}."""
    m = parse_int_matrix(f_text)
    if len(m) != 2:
        raise click.UsageError("F needs four integer entries a,b,c,d")
    F = SL2Matrix(m[0][0], m[0][1], m[1][0], m[1][1])
    G = parse_charge(g_text)
    th = _require_quadratic(parse_theta(theta))
    report = rm_hilbert(F, G, th, n_max).to_dict()
    report["n_max"] = n_max
    return report


def _require_quadratic(th):
    if not isinstance(th, QuadExt) or th.is_rational():
        raise ValueError("theta must be a quadratic irrational")
    return th


if __name__ == "__main__":
    main()
