"""Byte-identity of the homology, twist, presentation and literal commands.

Each case runs one command through the click entry point and compares its
exit code and standard output with tests/golden_cli.json.  To rewrite that
file after an intended change of output, run

    PYTHONPATH=src python tests/test_golden.py > tests/golden_cli.json

and review the diff of the JSON file.
"""

import functools
import json
import os
import sys

import pytest
from click.testing import CliRunner

from ncproj.cli import main

GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden_cli.json")

PLANE = "algebra P over Q { gens: x, y; rels: y*x - x*y; }"
QP = "algebra QP over Q(q) { gens: x, y; rels: y*x - q*x*y; }"
C3 = ("algebra C3 over Q { gens: x, y, z; "
      "rels: y*z - z*y; z*x - x*z; x*y - y*x; }")
SKLYANIN = ("algebra S over Q { gens: x, y, z; "
            "rels: y*z + 2*z*y + 3*x*x; z*x + 2*x*z + 3*y*y; x*y + 2*y*x + 3*z*z; }")
CUBIC = "algebra Cu over Q { gens: x, y; rels: y*x*x - x*x*y; y*y*x - x*y*y; }"
WEIGHTED = "algebra W over Q { gens: x:1, y:2; rels: y*x - x*y; }"
# A_{d-1}.A_1 is not all of A_d here: the word y has no suffix of degree 1
WEIGHTED3 = "algebra T over Q { gens: x, z, y:2; rels: z*x - x*z; x*y; }"
DUAL = "algebra D over Q { gens: x; rels: x*x; }"
FREE = "algebra F over Q { gens: x, y; rels: }"
# rule denominators q + 3 and 1 + q, which a normal form carries as polynomials
POLYDEN = ("algebra R over Q(q) { gens: x, y; "
           "rels: (1+q)*y*x - x*y; y*y - (q^2-2)/(q+3)*x*y; }")
# y of weight 4: k's P^2 is A(-5), above the degree a value's step reads
Y4 = "algebra Y4 over Q { gens: x, y:4; rels: y*x - x*y; }"

CASES = [
    ["proj", "cohomology", "--input", PLANE, "-j", "0", "-d", "2", "--nmax", "5"],
    ["proj", "cohomology", "--input", PLANE, "-j", "1", "-d", "-3", "--nmax", "5"],
    ["proj", "cohomology", "--input", PLANE, "-j", "1", "-d", "0", "--nmax", "4",
     "--format", "table"],
    ["proj", "cohomology", "--input", QP, "-j", "0", "-d", "1", "--nmax", "4"],
    ["proj", "cohomology", "--input", QP, "-j", "1", "-d", "-2", "--nmax", "4"],
    ["proj", "cohomology", "--input", C3, "-j", "0", "-d", "1", "--nmax", "3"],
    ["proj", "cohomology", "--input", WEIGHTED, "-j", "0", "-d", "2", "--nmax", "4"],
    ["proj", "cohomology", "--input", WEIGHTED3, "-j", "0", "-d", "1", "--nmax", "3"],
    ["proj", "cohomology", "--input", DUAL, "-j", "1", "-d", "-1", "--nmax", "3"],
    ["proj", "cohomology", "--input", C3, "-j", "2", "-d", "-3", "--nmax", "3"],
    ["proj", "cohomology", "--input", PLANE, "-j", "1", "-d", "-4", "--nmax", "7"],
    ["proj", "cohomology", "--input", WEIGHTED, "-j", "1", "-d", "-3", "--nmax", "4"],
    ["proj", "cohomology", "--input", CUBIC, "-j", "1", "-d", "-2", "--nmax", "3"],
    ["proj", "cohomology", "--input", FREE, "-j", "0", "-d", "1", "--nmax", "3"],
    ["proj", "cohomology", "--input", PLANE, "-j", "0", "--nmax", "2"],
    ["proj", "cohomology", "--input", "algebra P over Q { gens: x; rels: x*; }",
     "-j", "0"],
    ["proj", "cd", "--input", PLANE, "--jmax", "1", "--dmin", "-2", "--dmax", "1",
     "--nmax", "4"],
    ["proj", "cd", "--input", QP, "--jmax", "1", "--dmin", "-2", "--dmax", "0",
     "--nmax", "3", "--format", "table"],
    ["proj", "cd", "--input", C3, "--jmax", "2", "--dmin", "-3", "--dmax", "0",
     "--nmax", "3"],
    ["algebra", "gorenstein", "--input", PLANE, "-N", "8"],
    ["algebra", "gorenstein", "--input", QP, "-N", "8", "--format", "table"],
    ["algebra", "gorenstein", "--input", C3, "-N", "7"],
    ["algebra", "gorenstein", "--input", SKLYANIN, "-N", "6"],
    ["algebra", "gorenstein", "--input", CUBIC, "-N", "9"],
    ["algebra", "gorenstein", "--input", WEIGHTED, "-N", "8"],
    ["algebra", "gorenstein", "--input", DUAL, "-N", "6", "--pmax", "3"],
    ["algebra", "gorenstein", "--input", FREE, "-N", "5", "--pmax", "3"],
    ["algebra", "resolution-check", "--input", C3, "-r", "3", "-s", "2", "-N", "8"],
    ["algebra", "resolution-check", "--input", SKLYANIN, "-r", "3", "-s", "2", "-N", "7"],
    ["algebra", "resolution-check", "--input", CUBIC, "-r", "2", "-s", "3", "-N", "10"],
    ["algebra", "resolution-check", "--input", PLANE, "-r", "3", "-s", "2",
     "--format", "table"],
    ["algebra", "twist", "--input", PLANE, "--sigma", "1,0,0,2"],
    ["algebra", "twist", "--input", PLANE, "--sigma", "0,1,1,0", "--smax", "4"],
    ["algebra", "twist", "--input", QP, "--sigma", "1,0,0,q", "--format", "table"],
    ["algebra", "twist", "--input", C3, "--sigma", "1,0,0,0,2,0,0,0,3"],
    ["algebra", "twist", "--input", CUBIC, "--sigma", "1,0,0,2", "--smax", "4"],
    ["algebra", "twist", "--input", WEIGHTED, "--sigma", "1,0,0,3"],
    ["algebra", "twist", "--input", SKLYANIN, "--sigma", "0,1,0,0,0,1,1,0,0", "-N", "6"],
    ["algebra", "twist", "--input", PLANE, "--sigma", "1,1,0,0"],
    ["thcr", "present", "--sigma", "1,1,0,1", "--dmax", "4"],
    ["thcr", "present", "--sigma", "q,0,0,1", "--dmax", "4"],
    ["thcr", "present", "--sigma", "2,0,0,1", "--dmax", "3", "--format", "table"],
    ["thcr", "present", "--sigma", "0,1,1,0", "--dmax", "4"],
    ["thcr", "present", "--sigma", "1,0,0,0"],
    # literal commands: section polynomials, thetas and Q(q) matrix entries
    ["thcr", "multiply", "--sigma", "1,1,0,1", "-f", "1:(1+u)/2", "-g", "2:u^2 - 3*u"],
    ["thcr", "multiply", "--sigma", "q,1,0,1", "-f", "1:(1+u)/2", "-g", "2:u^2 - q*u",
     "--rule", "gamma"],
    ["thcr", "multiply", "--sigma", "q,0,0,1", "-f", "2:q^2/(1+q)*u - -1",
     "-g", "2:(u - q)*(u + 1/q)"],
    ["thcr", "multiply", "--sigma", "2,0,0,1", "-f", "0:-(3/4)", "-g", "1:u-1/2*u",
     "--rule", "gamma", "--format", "table"],
    ["heart", "split", "--factors", "[1:0, 2:1*3, 1:-1]", "--theta", "1/3"],
    ["heart", "split", "--factors", "[1:0, 2:1*3, 1:-1]", "--theta", "(-1+1*sqrt(5))/2"],
    ["heart", "split", "--factors", "[1:0, 2:1*3, 3:2]", "--theta", "1/sqrt(2)"],
    ["heart", "split", "--factors", "[1:0, 2:1*3, 3:-1]", "--theta", "2 - sqrt(8)"],
    ["rm", "cf", "--theta", "(1+sqrt(5))/2"],
    ["rm", "fix", "--theta", "sqrt(2)/3 + 1/7"],
    ["rm", "reduce", "--theta", "-7/2 + 2*sqrt(3)*-1"],
    ["algebra", "twist", "--input", QP, "--sigma", "1,0,0,q^2/(1+q)"],
    ["thcr", "multiply", "--sigma", "1,1,0,1", "-f", "1:u/u", "-g", "1:u"],
    ["heart", "split", "--factors", "[1:0]", "--theta", "1/0"],
    # H^0 at the default --nmax, and at a positive twist that the cutoff covers
    ["proj", "cohomology", "--input", PLANE, "-j", "0", "-d", "1"],
    ["proj", "cohomology", "--input", PLANE, "-j", "0", "-d", "3", "--nmax", "9"],
    # Q(q) scalars with polynomial denominators and negative powers of q
    ["thcr", "multiply", "--sigma", "q,1,0,1", "-f", "1:u/(q+1)", "-g", "2:u^2/(1-q^2)"],
    ["thcr", "multiply", "--sigma", "1/q,0,0,1", "-f", "2:(u - 1/q)/(q^2+1)",
     "-g", "1:q*u/(q-1)", "--rule", "gamma"],
    ["thcr", "present", "--sigma", "1/q,1,q,1", "--dmax", "3"],
    ["thcr", "present", "--sigma", "q,1,0,1/(q+1)", "--dmax", "3"],
    ["algebra", "twist", "--input", QP, "--sigma", "1/q,0,0,(q-1)/(q^2+1)"],
    ["algebra", "hilbert", "--input", POLYDEN],
    ["algebra", "gorenstein", "--input", POLYDEN],
    ["proj", "cohomology", "--input", POLYDEN, "-j", "0", "-d", "1", "--nmax", "3"],
    # Proj values decided by the exact sequence of k: steps past k's length
    # where Ext^{j+1}(k, A[n-1+d]) is nonzero, Y4, whose k's P^2 is A(-5)
    # and whose H^0(O(-1)) is dim A_{-1} = 0, and a cd scan
    ["proj", "cohomology", "--input", C3, "-j", "2", "-d", "-3", "--nmax", "4"],
    ["proj", "cohomology", "--input", QP, "-j", "1", "-d", "-4", "--nmax", "5"],
    ["proj", "cohomology", "--input", Y4, "-j", "0", "-d", "-1", "--nmax", "5"],
    ["proj", "cd", "--input", C3, "--jmax", "2", "--dmin", "-4", "--dmax", "1",
     "--nmax", "4"],
    # Sklyanin's H^2 at negative twists: by Serre duality H^2(O(-3-m)) =
    # dim A_m, 6 for m = 2 and 10 for m = 3
    ["proj", "cohomology", "--input", SKLYANIN, "-j", "2", "-d", "-5", "--nmax", "4"],
    ["proj", "cohomology", "--input", SKLYANIN, "-j", "2", "-d", "-6", "--nmax", "5"],
]


def run(args):
    res = CliRunner().invoke(main, args)
    return {"args": args, "exit_code": res.exit_code, "stdout": res.stdout}


@functools.lru_cache(maxsize=None)
def _golden():
    with open(GOLDEN) as f:
        return json.load(f)


@pytest.mark.parametrize("k", range(len(CASES)))
def test_cli_output_matches_golden(k):
    want = _golden()[k]
    assert want["args"] == CASES[k]
    assert run(CASES[k]) == want


if __name__ == "__main__":
    json.dump([run(args) for args in CASES], sys.stdout, indent=1, sort_keys=True)
    sys.stdout.write("\n")
