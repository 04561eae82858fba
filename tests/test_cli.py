"""Golden-output tests for every CLI subcommand."""

import json
import sys
import time

import click
import pytest
from click.testing import CliRunner
from hypothesis import given, settings, strategies as st

from ncproj.cli import main
from ncproj.dsl import parse_presentation, parse_upoly
from ncproj.fields import QQ_Q, RatFunc, UPoly
from ncproj.homology import (GradedModulePresentation, cd_estimate, proj_cohomology,
                             proj_depth)
from ncproj.presentations import build
import test_golden

QP = "algebra QP over Q(q) { gens: x:1, y:1; rels: y*x - q*x*y; }"
PLANE = "algebra P over Q { gens: x, y; rels: y*x - x*y; }"
C3 = ("algebra C3 over Q { gens: x, y, z; "
      "rels: y*z - z*y; z*x - x*z; x*y - y*x; }")


def run(*args):
    return CliRunner().invoke(main, list(args))


def run_json(*args):
    res = run(*args)
    assert res.exit_code == 0, res.output + str(res.exception)
    return json.loads(res.output)


def test_algebra_hilbert():
    d = run_json("algebra", "hilbert", "--input", QP, "-N", "6")
    assert d == {"N": 6, "algebra": "QP", "dims": [1, 2, 3, 4, 5, 6, 7]}


def test_algebra_hilbert_from_file(tmp_path):
    f = tmp_path / "p.alg"
    f.write_text(PLANE)
    d = run_json("algebra", "hilbert", "--file", str(f), "-N", "4")
    assert d["dims"] == [1, 2, 3, 4, 5]


def test_algebra_gk():
    d = run_json("algebra", "gk", "--input", PLANE, "-N", "40")
    num, den = d["gk_estimate"].split("/")
    assert abs(int(num) / int(den) - 2) < 0.15
    assert d["cutoff"] == 40 and d["window"] == [20, 40]


FREE = "algebra F over Q { gens: x, y; rels: }"


def test_algebra_free_gk_and_hilbert():
    d = run_json("algebra", "gk", "--input", FREE, "-N", "10")
    assert d == {"algebra": "F", "cutoff": 10,
                 "dims": [2 ** n for n in range(11)],
                 "filtration_dims": [2 ** (n + 1) - 1 for n in range(11)],
                 "gk_estimate": "INFINITE", "low_confidence": False,
                 "window": [5, 10]}
    d = run_json("algebra", "hilbert", "--input", FREE, "-N", "10")
    assert d == {"N": 10, "algebra": "F", "dims": [2 ** n for n in range(11)]}
    d = run_json("algebra", "hilbert", "--input",
                 "algebra F over Q { gens: x, y:3; rels: }", "-N", "10")
    assert d == {"N": 10, "algebra": "F", "dims": [1, 1, 1, 2, 3, 4, 6, 9, 13, 19, 28]}


def test_algebra_twist():
    d = run_json("algebra", "twist", "--input",
                 "algebra C over Q(q) { gens: x, y; rels: y*x - x*y; }",
                 "--sigma", "q,0,0,1")
    assert d["relations"] == ["y*x - q*x*y"]
    assert d["s_max"] == 3
    # a search depth below the relation degree finds nothing, and says how deep it looked
    d = run_json("algebra", "twist", "--input",
                 "algebra Cu over Q { gens: x, y; rels: y*x*x - x*x*y; y*y*x - x*y*y; }",
                 "--sigma", "2,0,0,1", "--smax", "2")
    assert d["relations"] == [] and d["s_max"] == 2


@pytest.mark.parametrize("text, cutoff, need", [
    (PLANE, 2, 3), ("algebra X5 over Q { gens: x, y; rels: x*x*x*x*x - y*y*y*y*y; }", 3, 5)],
    ids=["below-smax", "below-a-relation"])
def test_twist_refuses_a_cutoff_below_smax_before_completing(monkeypatch, text, cutoff, need):
    """-N below --smax or below the top relation degree is refused with a
    message naming N, --smax and the cutoff needed, and nothing is
    completed first."""
    import ncproj.presentations

    def build(*args):
        raise AssertionError("completed before the refusal")

    monkeypatch.setattr(ncproj.presentations, "build", build)
    res = run("algebra", "twist", "--input", text, "--sigma", "1,0,0,1",
              "-N", str(cutoff), "--smax", "3")
    assert res.exit_code == 1
    assert res.stderr == f"error: cutoff {cutoff} insufficient for s_max=3; need {need}\n"


def test_algebra_gorenstein():
    d = run_json("algebra", "gorenstein", "--input", PLANE, "-N", "10",
                 "--pmax", "4")
    assert d["passes"] is True and d["d"] == 2
    assert d["N"] == 10 and d["p_max"] == 4


def test_algebra_standard_check():
    d = run_json("algebra", "standard-check", "--input", C3)
    assert d["is_standard"] is True and d["status"] == "OK"
    assert d["Q"] == [["1", "0", "0"], ["0", "1", "0"], ["0", "0", "1"]]
    d2 = run_json("algebra", "standard-check", "--input", QP)
    assert d2["status"] == "NOT_APPLICABLE"


def test_algebra_resolution_check():
    d = run_json("algebra", "resolution-check", "--input", C3,
                 "-r", "3", "-s", "2", "-N", "10")
    assert d["holds"] is True


def test_proj_cohomology():
    d = run_json("proj", "cohomology", "--input", PLANE, "-j", "1",
                 "-d", "-2", "--nmax", "6")
    assert d["dim"] == 1 and d["j"] == 1 and d["d"] == -2


def test_proj_cd():
    d = run_json("proj", "cd", "--input", PLANE, "--nmax", "6",
                 "--dmin", "-2", "--dmax", "0")
    assert d["cd"] == 1


def _leaf_commands(group, path=()):
    for name, cmd in sorted(group.commands.items()):
        if isinstance(cmd, click.Group):
            yield from _leaf_commands(cmd, path + (name,))
        else:
            yield " ".join(path + (name,)), cmd


def test_every_command_has_one_shape():
    """--format closes every command; --input, --file open the ones that
    read a presentation, which are exactly the algebra and proj commands."""
    leaves = dict(_leaf_commands(main))
    assert len(leaves) == 19
    for name, cmd in leaves.items():
        opts = [param.opts[0] for param in cmd.params]
        assert opts[-1] == "--format" and opts.count("--format") == 1, name
        reads_input = name.split()[0] in ("algebra", "proj")
        assert (opts[:2] == ["--input", "--file"]) == reads_input, name
        assert ("--input" in opts) == reads_input, name


X5 = "algebra X5 over Q { gens: x, y; rels: x*x*x*x*x - y*y*y*y*y; }"
Y4 = "algebra Y4 over Q { gens: x, y:4; rels: y*x - x*y; }"
# (presentation, j, d, n_max, the degrees the command completes to): small
# cases of every shape of algebra, of both signs of d, and one whose
# relation degree (8) is deeper than its first completion's look-ahead
_PROJ_SAMPLE = [
    (PLANE, 0, 3, 4, [8]), (PLANE, 1, -4, 3, [5]), (QP, 0, 1, 4, [6]), (QP, 1, -2, 3, [5]),
    (C3, 2, -3, 3, [6]), ("algebra W over Q { gens: x:1, y:2; rels: y*x - x*y; }", 0, 2, 4, [7, 8]),
    ("algebra T over Q { gens: x, z, y:3; rels: z*x - x*z; x*y; }", 1, -2, 3, [5, 6]),
    (Y4, 0, 0, 3, [5, 7]), ("algebra D over Q { gens: x; rels: x*x; }", 1, -1, 3, [5]),
    ("algebra K over Q { gens: x; rels: }", 0, 3, 8, [12]), (X5, 0, -1, 3, [5, 7]),
    ("algebra E over Q { gens: x; rels: x^8; }", 0, 0, 3, [8, 10]),
]


def _recording_build(monkeypatch):
    """Record the degree each CLI command completes its algebra to."""
    depths = []

    def build_and_record(p, cutoff):
        depths.append(cutoff)
        return build(p, cutoff)

    monkeypatch.setattr("ncproj.cli.build", build_and_record)
    return depths


@pytest.mark.parametrize("text, j, d, nmax, completions", _PROJ_SAMPLE,
                         ids=[f"{t.split()[1]}-j{j}-d{d}-n{n}" for t, j, d, n, _ in _PROJ_SAMPLE])
def test_proj_cohomology_builds_to_the_depth_it_reads(monkeypatch, text, j, d, nmax,
                                                      completions):
    """The algebra is completed first to max(top relation degree, n_max +
    j + 1) + max(d, 0), then again while k's resolution asks for more, and
    the last system is completed exactly to proj_depth, n_max - 1 + T +
    max(d, 0); the report is the one on a system completed 3 degrees
    deeper."""
    depths = _recording_build(monkeypatch)
    got = run_json("proj", "cohomology", "--input", text, "-j", str(j), "-d", str(d),
                   "--nmax", str(nmax))
    p = parse_presentation(text)
    assert depths == completions
    assert depths[0] == max(p.max_relation_degree(), nmax + j + 1) + max(d, 0)
    assert proj_depth(build(p, depths[-1]), nmax, j, d) == depths[-1]
    R = build(p, depths[-1] + 3)
    want = proj_cohomology(R, GradedModulePresentation.algebra(R), j, d, nmax).to_dict()
    assert got == {**want, "algebra": p.name, "n_max": nmax}


def test_proj_cd_builds_to_the_depth_it_reads(monkeypatch):
    """cd reads H^j for every j <= jmax at twists up to dmax: over the
    plane T = j + 2, so the one completion is to 4 - 1 + 3 + 1."""
    depths = _recording_build(monkeypatch)
    got = run_json("proj", "cd", "--input", PLANE, "--jmax", "1", "--dmin", "-2",
                   "--dmax", "1", "--nmax", "4")
    assert depths == [4 - 1 + 3 + 1]
    R = build(parse_presentation(PLANE), 12)
    assert got["cd"] == cd_estimate(R, 1, range(-2, 2), 4) == 1


@pytest.mark.parametrize("text, j, d, nmax, dim", [(Y4, 1, 3, 7, 0), (X5, 0, 2, 8, 4)],
                         ids=["Y4", "X5"])
def test_proj_cohomology_reads_past_the_former_depth(text, j, d, nmax, dim):
    """These queries read A in the Hom step past the degree their values
    resolve to, and once failed with "degree ... exceeds cutoff"."""
    got = run_json("proj", "cohomology", "--input", text, "-j", str(j), "-d", str(d),
                   "--nmax", str(nmax))
    assert got["dim"] == dim and got["values"] == [dim] * (nmax + 1)


def test_a_proj_command_completes_once_or_twice(monkeypatch):
    """Over the golden proj cases, and X5's, a Koszul algebra (the plane,
    QP, C3, Sklyanin) is completed once, since its T is j + 2 and its first
    completion already reaches n_max - 1 + T + max(d, 0); every other one,
    Y4 and X5 among them, at most twice."""
    koszul = {test_golden.PLANE, test_golden.QP, test_golden.C3, test_golden.SKLYANIN}
    cases = [args for args in test_golden.CASES if args[0] == "proj"] + \
        [["proj", "cohomology", "--input", X5, "-j", str(j), "-d", str(d), "--nmax", "5"]
         for j, d in ((0, -1), (0, 1), (1, 0))]
    assert {args[3] for args in cases} >= koszul | {Y4, X5}
    depths = _recording_build(monkeypatch)
    for args in cases:
        del depths[:]
        if run(*args).exit_code != 0:
            assert depths == [], args          # a usage or parse error completes nothing
        elif args[3] in koszul:
            assert len(depths) == 1, args
        else:
            assert 1 <= len(depths) <= 2, args


def test_thcr_present():
    d = run_json("thcr", "present", "--sigma", "q,0,0,1", "--dmax", "3")
    assert d["relations"] == ["y*x + (-1/q)*x*y"]
    assert d["hilbert"] == [1, 2, 3, 4]


def test_thcr_multiply():
    d = run_json("thcr", "multiply", "--sigma", "q,0,0,1",
                 "-f", "1:1", "-g", "1:u")
    assert d == {"level": 2, "product": "q*u", "rule": "thcr"}
    d2 = run_json("thcr", "multiply", "--sigma", "q,0,0,1",
                  "-f", "1:1", "-g", "1:u", "--rule", "gamma")
    assert d2["product"] == "u"


def test_thcr_multiply_composite_coefficients_parse_back():
    for rule in ("thcr", "gamma"):
        d = run_json("thcr", "multiply", "--sigma", "q,1,0,1",
                     "-f", "1:1+u", "-g", "1:1+u", "--rule", rule)
        assert d["product"] == "q*u^2 + (q + 2)*u + 2"
        q = RatFunc.q()
        assert parse_upoly(d["product"], QQ_Q) == UPoly((RatFunc(2), q + 2, q))


def test_gamma_two_point():
    d = run_json("gamma", "two-point", "--r1", "1", "--r2", "0", "-n", "6")
    assert d["dims"] == [1, 0, 1, 0, 1, 0, 1]


def test_heart_hn():
    d = run_json("heart", "hn", "--factors", "[1:0, 2:1*3, 0:1]")
    assert [layer["slope"] for layer in d["layers"]] == ["0", "1/2", "inf"]


def test_heart_split():
    d = run_json("heart", "split", "--factors", "[1:0, 2:1]",
                 "--theta", "1/3")
    assert d["torsion"] == "[2:1]" and d["free"] == "[1:0]"


def test_heart_split_with_a_thirty_digit_prime_radicand():
    start = time.perf_counter()
    d = run_json("heart", "split", "--factors", "[1:0]",
                 "--theta", "sqrt(100000000000000000000000000319)")
    assert time.perf_counter() - start < 1
    assert d["free"] == "[1:0]" and d["torsion"] == "EMPTY"


def test_heart_hom():
    d = run_json("heart", "hom", "-f", "[1:1]", "-g", "[2:1]")
    assert d["certificate"] == "CERTAIN_ZERO"


def test_heart_euler():
    d = run_json("heart", "euler", "--z1", "1:0", "--z2", "2:5")
    assert d["chi"] == 5


def test_rm_reduce():
    d = run_json("rm", "reduce", "--theta", "(7+1*sqrt(5))/2")
    assert d["word"] == [["g", -4]]
    assert d["reduced"] == "(-1 + 1*sqrt(5))/2"


def test_rm_cf():
    d = run_json("rm", "cf", "--theta", "sqrt(2)")
    assert d["preperiod"] == [1] and d["period"] == [2]


def test_rm_fix():
    d = run_json("rm", "fix", "--theta", "(-1+1*sqrt(5))/2")
    assert d["matrix"] == [[1, 1], [1, 2]] and d["trace"] == 3


@pytest.fixture
def int_digit_cap():
    """CPython's default cap on the digits of an int turned into text, put
    back as it was afterwards (Pythons before 3.10.7 have no cap)."""
    if not hasattr(sys, "set_int_max_str_digits"):
        yield
        return
    before = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    yield
    sys.set_int_max_str_digits(before)


def test_rm_fix_prints_integers_of_any_size(int_digit_cap):
    """The fixing matrix of sqrt(1000000007) has entries of more than 4300
    digits, the interpreter's default cap, which the command lifts."""
    res = run("rm", "fix", "--theta", "sqrt(1000000007)")
    assert res.exit_code == 0, res.output + str(res.exception)
    if hasattr(sys, "set_int_max_str_digits"):
        sys.set_int_max_str_digits(0)
    d = json.loads(res.output)
    (a, b), (c, e) = d["matrix"]
    assert len(str(b)) > 4300
    assert a * e - b * c == 1 and d["trace"] == a + e > 2
    # the matrix fixes sqrt(D): (a t + b) / (c t + e) = t with t^2 = D
    assert c * 1000000007 == b and a == e


def test_rm_hilbert():
    d = run_json("rm", "hilbert", "-F", "1,1,1,2", "-G", "1:0",
                 "--theta", "(-1+1*sqrt(5))/2", "-n", "4")
    assert d["dims"] == [1, 3, 8, 21]
    assert d["slopes"] == ["1/2", "3/5", "8/13", "21/34"]
    assert d["recurrence_checked"] is True


def test_table_format():
    res = run("gamma", "two-point", "--r1", "1", "--r2", "1", "-n", "3",
              "--format", "table")
    assert res.exit_code == 0
    assert "dims" in res.output and "[2, 2, 2, 2]" in res.output


def test_determinism():
    a = run("algebra", "hilbert", "--input", QP, "-N", "8").output
    b = run("algebra", "hilbert", "--input", QP, "-N", "8").output
    assert a == b


def test_exit_code_parse_error():
    res = run("algebra", "hilbert", "--input", "algebra broken {")
    assert res.exit_code == 2
    assert "line 1" in res.stderr


def test_exit_code_bad_section_level():
    for bad in ("x:1", "1.5:u", ":u"):
        res = run("thcr", "multiply", "--sigma", "1,1,0,1", "-f", bad, "-g", "1:u")
        assert res.exit_code == 2, bad
        assert res.stderr.count("\n") == 1 and "section level" in res.stderr


def test_exit_code_negative_section_level():
    for rule, f, g in (("thcr", "-1:0", "1:u"), ("gamma", "-3:0", "1:u"),
                       ("thcr", "1:1", "-2:u")):
        res = run("thcr", "multiply", "--sigma", "2,0,0,1", "-f", f, "-g", g, "--rule", rule)
        assert res.exit_code == 1, (rule, f, g)
        assert res.stderr.count("\n") == 1 and "negative" in res.stderr


def test_rm_fix_long_period():
    d = run_json("rm", "fix", "--theta", "sqrt(9949)")
    assert d["trace"] > 2


def test_exit_code_domain_error():
    res = run("rm", "fix", "--theta", "1/2")
    assert res.exit_code == 1
    assert "quadratic irrational" in res.stderr


def test_exit_code_usage_error():
    res = run("algebra", "hilbert", "--input", QP, "--no-such-flag")
    assert res.exit_code == 2
    res2 = run("algebra", "hilbert")
    assert res2.exit_code == 2
    res3 = run("algebra", "hilbert", "--input", QP, "-N", "0")
    assert res3.exit_code == 2


def test_file_naming_a_directory_is_a_usage_error(tmp_path):
    res = run("algebra", "hilbert", "--file", str(tmp_path))
    assert res.exit_code == 2 and "is a directory" in res.output
    assert isinstance(res.exception, SystemExit)


def test_json_keys_sorted():
    res = run("rm", "fix", "--theta", "(-1+1*sqrt(5))/2")
    d = json.loads(res.output)
    assert list(d) == sorted(d)


def test_exit_code_field_mismatch_and_failed_fixing_matrix(monkeypatch):
    import ncproj.cli
    import ncproj.real_mult
    from ncproj.fields import FieldMismatchError

    def mismatch(theta):
        raise FieldMismatchError("cannot mix 2 with Q(q) scalar")

    monkeypatch.setattr(ncproj.cli, "fixing_matrix", mismatch)
    res = run("rm", "fix", "--theta", "sqrt(2)")
    assert res.exit_code == 1
    assert res.stderr == "error: cannot mix 2 with Q(q) scalar\n"
    monkeypatch.undo()

    # the final check of fixing_matrix fails when the action is wrong
    monkeypatch.setattr(ncproj.real_mult, "mobius_act", lambda g, theta: theta + 1)
    res = run("rm", "fix", "--theta", "sqrt(2)")
    assert res.exit_code == 1
    assert res.stderr == "error: fixing-matrix construction failed to fix theta\n"
    assert "Traceback" not in res.output


_DEEP = "(" * 3000 + "1" + ")" * 3000


@pytest.mark.parametrize("args", [
    ["algebra", "hilbert", "--input", "algebra A over Q { gens: x; rels: %s*x; }" % _DEEP],
    ["thcr", "multiply", "--sigma", "1,1,0,1", "-f", "1:" + _DEEP, "-g", "1:u"],
    ["heart", "split", "--factors", "[1:0]", "--theta", "-" * 5000 + "1"],
])
def test_deep_nesting_exits_2(args):
    res = run(*args)
    assert res.exit_code == 2
    assert res.stderr.count("\n") == 1 and "nested too deeply" in res.stderr


# Zero and singular sigmas, degenerate radicands, 1/0, an out-of-range
# option, an empty twist window, a missing input, a digit that int() does
# not read (²), a constant relation, which would make the algebra zero, and
# a zero weight or a repeated generator: each exits cleanly with one message
# line,
# "error: ..." from the program or click's one "Error: ..." usage line.
@pytest.mark.parametrize("args, code, usage", [
    (["algebra", "twist", "--input", PLANE, "--sigma", "0,0,0,0"], 1, False),
    (["algebra", "twist", "--input", PLANE, "--sigma", "1,1,1,1"], 1, False),
    (["thcr", "present", "--sigma", "0,0,0,0"], 1, False),
    (["thcr", "present", "--sigma", "1,1,1,1"], 1, False),
    (["rm", "cf", "--theta", "sqrt(0)"], 2, False),
    (["rm", "cf", "--theta", "sqrt(4)"], 1, False),
    (["rm", "fix", "--theta", "1/0"], 2, False),
    (["proj", "cohomology", "--input", PLANE, "-j", "0", "-d", "0", "--nmax", "2"], 2, True),
    (["proj", "cohomology", "-j", "0", "-d", "0"], 2, True),
    (["proj", "cd", "--input", PLANE, "--dmin", "2", "--dmax", "-2"], 2, True),
    (["algebra", "hilbert", "--input", "algebra A over Q { gens: x; rels: x^²; }"], 2, False),
    (["heart", "euler", "--z1", "1:²", "--z2", "1:0"], 2, False),
    (["rm", "cf", "--theta", "sqrt(²)"], 2, False),
    (["algebra", "hilbert", "-N", "3", "--input", "algebra S over Q { gens: x; rels: 1; }"],
     2, False),
    (["algebra", "hilbert", "-N", "3", "--input", "algebra A over Q { gens: x:0; rels: x*x; }"],
     2, False),
    (["algebra", "hilbert", "-N", "3", "--input", "algebra A over Q { gens: x, x; rels: x*x; }"],
     2, False),
], ids=["twist-zero", "twist-singular", "thcr-zero", "thcr-singular", "cf-sqrt0",
        "cf-sqrt4", "fix-1/0", "cohomology-nmax2", "cohomology-no-input", "cd-empty-window",
        "superscript-relation", "superscript-charge", "superscript-theta", "constant-relation",
        "zero-weight", "repeated-generator"])
def test_cli_edge_exits_cleanly(args, code, usage):
    res = run(*args)
    assert res.exit_code == code
    assert isinstance(res.exception, SystemExit)
    assert "Traceback" not in res.output and not res.stdout
    if usage:
        assert sum(line.startswith("Error:") for line in res.stderr.splitlines()) == 1
    else:
        assert res.stderr.count("\n") == 1 and res.stderr.startswith("error: ")


# Each literal is a few tokens of the shared alphabet, or long runs of an
# opening token, joined by spaces: so every integer, and so every exponent,
# is one digit, and a literal holds at most one ^.  (x+y)^e has 2^e words
# and nested powers multiply their exponents: an answer that large is the
# size of the value asked for, not a fault.
_LITERAL_TOKENS = ["x", "y", "u", "q", "sqrt", "0", "1", "2", "3", "5", "9",
                   "+", "-", "*", "/", "^", "(", ")", ",", ":", "[", "]", ";"]
_RUNS = st.builds(lambda t, k: " ".join([t] * k), st.sampled_from(["(", "-"]),
                  st.integers(1, 3000))
_LITERALS = (st.lists(st.one_of(st.sampled_from(_LITERAL_TOKENS), _RUNS), max_size=12)
             .map(" ".join).filter(lambda t: t.count("^") <= 1))

# "@" marks where the generated literal goes
_FUZZED_COMMANDS = [
    ["algebra", "hilbert", "-N", "4", "--input", "@"],
    ["algebra", "hilbert", "-N", "4", "--input", "algebra A over Q { gens: x, y; rels: @; }"],
    ["algebra", "hilbert", "-N", "4", "--input",
     "algebra A over Q(q) { gens: x, y:2; rels: @; }"],
    ["algebra", "twist", "-N", "4", "--input", PLANE, "--sigma", "@"],
    ["algebra", "twist", "-N", "4", "--input", QP, "--sigma", "1,@,0,q"],
    ["thcr", "present", "--dmax", "3", "--sigma", "@"],
    ["thcr", "multiply", "--sigma", "@", "-f", "1:u", "-g", "0:1"],
    ["thcr", "multiply", "--sigma", "q,1,0,1", "-f", "1:@", "-g", "@"],
    ["thcr", "multiply", "--sigma", "1,1,0,1", "-f", "@", "-g", "2:@", "--rule", "gamma"],
    ["heart", "hom", "-f", "[@]", "-g", "@"],
    ["heart", "hn", "--factors", "[@]"],
    ["heart", "split", "--factors", "@", "--theta", "1/3"],
    ["heart", "split", "--factors", "[1:0, 2:1*3]", "--theta", "@"],
    ["heart", "euler", "--z1", "@", "--z2", "1:@"],
    ["rm", "cf", "--theta", "@"],
    ["rm", "fix", "--theta", "@"],
    ["rm", "reduce", "--theta", "@"],
    ["rm", "hilbert", "-F", "@", "-G", "@", "--theta", "sqrt(2)"],
    ["rm", "hilbert", "-F", "2,1,1,1", "-G", "1:@", "--theta", "@"],
]


@pytest.mark.parametrize("template", _FUZZED_COMMANDS, ids=lambda t: " ".join(t[:2]))
# derandomized: the same examples on every run, so the suite's time is stable
@settings(max_examples=25, deadline=None, database=None, derandomize=True)
@given(literal=_LITERALS)
def test_literal_grammar_fuzz(template, literal):
    res = run(*[a.replace("@", literal) for a in template])
    assert res.exit_code in (0, 1, 2), (literal, res.output)
    assert res.exception is None or isinstance(res.exception, SystemExit), \
        (literal, repr(res.exception))
