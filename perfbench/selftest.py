"""Show that every output check accepts a right answer and rejects a wrong one.

    python3 perfbench/selftest.py

For each job kind of each workload, the check is fed (a) a right answer,
computed by the program where that is cheap and otherwise built from the
closed formula, and (b) one or more deliberately perturbed copies.  Exits 1
if a right answer is rejected or a perturbed one accepted.  Takes about
ten seconds.
"""

from __future__ import annotations

import copy
import dataclasses
import io
import json
import os
import sys
from types import SimpleNamespace

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import run  # noqa: E402
import session  # noqa: E402
import workloads  # noqa: E402
from calibrate import Calibrator  # noqa: E402
from oracles import CheckFailed, braid_dims, parse_multiset, sklyanin_dims  # noqa: E402
from session import fix_matrix_ok  # noqa: E402

# jobs too slow to run here; their right answers come from the formulas
SLOW = ("H1(", " cd", "C3 gorenstein", "sklyanin", "braid", "cyclic", "^10", "^11")

failures = []


def verdict(name, check, good, bads):
    try:
        check(good)
    except CheckFailed as e:
        failures.append(f"{name}: right answer rejected ({e})")
        return
    for label, bad in bads:
        try:
            check(bad)
        except CheckFailed:
            continue
        failures.append(f"{name}: perturbed answer accepted ({label})")
    print(f"ok  {name}: accepts the right answer, rejects {len(bads)} perturbed")


def bump_dims(dims):
    out = list(dims)
    out[-1] += 1
    return out


# ---------------------------------------------------------------------------
# proj-colimit and rewrite-cold
# ---------------------------------------------------------------------------

def library_answer(nc, job):
    """The job's right answer: run it if cheap, else build it from the formula."""
    if not any(s in job.name for s in SLOW):
        return job.run()
    n = job.name
    if "H1(" in n:
        d = -int(n[n.index("(") + 1:n.index(")")])
        return SimpleNamespace(stabilized_dim=d - 1)
    if n.endswith(" cd"):
        return 1
    if "gorenstein" in n:
        return {"passes": True, "d": 3}
    if "sklyanin" in n:
        return sklyanin_dims(workloads.SKLYANIN_CUTOFF)
    if "cyclic" in n:
        return sklyanin_dims(workloads.CYCLIC_CUTOFF)
    if "braid" in n:
        return SimpleNamespace(dims=braid_dims(workloads.BRAID_CUTOFF), gk_estimate="INFINITE")
    return None     # the large normal forms: the smaller ones exercise the same check


def library_perturbations(nc, job, good):
    if isinstance(good, int):
        return [("off by one", good + 1)]
    if isinstance(good, list):
        return [("last dimension + 1", bump_dims(good))]
    if isinstance(good, dict):
        return [("wrong d", dict(good, d=good["d"] + 1)), ("fails", dict(good, passes=False))]
    if hasattr(good, "stabilized_dim"):
        return [("dimension + 1", SimpleNamespace(stabilized_dim=good.stabilized_dim + 1))]
    if hasattr(good, "betti"):
        betti = copy.deepcopy(good.betti)
        betti[1][0] += 1
        return [("shifted Betti number", dataclasses.replace(good, betti=betti)),
                ("not minimal", dataclasses.replace(good, minimal=False))]
    if hasattr(good, "gk_estimate"):
        return [("dims", SimpleNamespace(dims=bump_dims(good.dims), gk_estimate="INFINITE")),
                ("finite GK", SimpleNamespace(dims=good.dims, gk_estimate=2))]
    if hasattr(good, "terms"):
        W = nc.words.NcPoly
        w = max(good.terms)
        one = W.word(good.alphabet, good.field, w, good.field.one)
        stray = W.word(good.alphabet, good.field, tuple(reversed(w)), good.field.one)
        return [("coefficient + 1", good + one), ("stray word", good + stray)]
    raise TypeError(f"no perturbation for {job.name}")


def library_checks():
    for wl in (workloads.ProjColimit, workloads.RewriteCold):
        with Calibrator() as cal:
            nc, parsed, _ = run.setup(wl, 1, cal)
        for job in wl.round_jobs(nc, parsed):
            good = library_answer(nc, job)
            if good is None:
                continue
            verdict(f"{wl.name} / {job.name}", job.check, good,
                    library_perturbations(nc, job, good))


# ---------------------------------------------------------------------------
# cli-session
# ---------------------------------------------------------------------------

def _m(text, r, d, by):
    """Re-render a multiset with the multiplicity of r:d raised by `by`."""
    agg = parse_multiset(text)
    agg[(r, d)] = agg.get((r, d), 0) + by
    return "[" + ", ".join(f"{a}:{b}*{m}" for (a, b), m in agg.items()) + "]"


def cli_perturbations(kind, rep):
    p = []

    def with_(**kw):
        out = copy.deepcopy(rep)
        out.update(kw)
        return out

    if kind == "heart hn":
        layers = copy.deepcopy(rep["layers"])
        layers[0]["factors"][0][1] += 1
        p.append(("multiplicity", with_(layers=layers)))
        if len(rep["layers"]) > 1:
            p.append(("layer order", with_(layers=list(reversed(rep["layers"])))))
        layers = copy.deepcopy(rep["layers"])
        layers[0]["slope"] = "17/3"
        p.append(("slope text", with_(layers=layers)))
    elif kind == "heart split":
        if rep["torsion"] != "EMPTY" and rep["free"] != "EMPTY":
            p.append(("sides swapped", with_(torsion=rep["free"], free=rep["torsion"])))
        key = "torsion" if rep["torsion"] != "EMPTY" else "free"
        r, d = next(iter(parse_multiset(rep[key])))
        p.append(("multiplicity", with_(**{key: _m(rep[key], r, d, 1)})))
    elif kind == "heart hom":
        flip = "UNKNOWN" if rep["certificate"] == "CERTAIN_ZERO" else "CERTAIN_ZERO"
        p.append(("certificate", with_(certificate=flip)))
        p.append(("mu_min", with_(mu_min_source="17/3")))
    elif kind == "heart euler":
        p.append(("chi + 1", with_(chi=rep["chi"] + 1)))
    elif kind == "rm cf":
        p.append(("period", with_(period=rep["period"][:-1] + [rep["period"][-1] + 1])))
        p.append(("preperiod", with_(preperiod=[7] + rep["preperiod"])))
    elif kind == "rm reduce":
        word = [["g", (rep["word"][0][1] if rep["word"] else 0) - 1]]
        p.append(("shift", with_(word=word)))
    elif kind == "rm fix":
        (a, b), (c, d) = rep["matrix"]
        p.append(("determinant", with_(matrix=[[a, b + 1], [c, d]])))
        p.append(("identity", with_(matrix=[[1, 0], [0, 1]], trace=2)))
        p.append(("fixes another theta", with_(matrix=[[2, 1], [1, 1]], trace=3)))
    elif kind == "rm hilbert":
        p.append(("dims", with_(dims=bump_dims(rep["dims"]))))
        p.append(("slopes", with_(slopes=rep["slopes"][::-1])))
    elif kind == "gamma two-point":
        dims = list(rep["dims"])
        dims[1] += 1
        p.append(("parity formula", with_(dims=dims)))
    elif kind == "thcr present":
        p.append(("relation", with_(relations=[rep["relations"][0] + " + x*x"])))
        p.append(("hilbert", with_(hilbert=bump_dims(rep["hilbert"]))))
    elif kind == "thcr multiply":
        p.append(("product", with_(product=rep["product"] + " + 1")))
        p.append(("level", with_(level=rep["level"] + 1)))
    elif kind == "algebra hilbert":
        p.append(("dims", with_(dims=bump_dims(rep["dims"]))))
    elif kind == "algebra gk":
        if rep["gk_estimate"] == "INFINITE":
            p.append(("finite estimate", with_(gk_estimate="2")))
        else:
            p.append(("estimate", with_(gk_estimate="2")))
            p.append(("flag", with_(low_confidence=not rep["low_confidence"])))
    elif kind == "algebra standard-check":
        if rep["status"] == "NOT_APPLICABLE":
            p.append(("claims standard", with_(is_standard=True)))
        elif rep["is_standard"]:
            Q = copy.deepcopy(rep["Q"])
            Q[0][0] = "2"
            p.append(("Q", with_(Q=Q)))
        else:
            p.append(("claims standard",
                      with_(is_standard=True, Q=[["1", "0", "0"], ["0", "1", "0"],
                                                 ["0", "0", "1"]])))
        if rep["status"] != "NOT_APPLICABLE":
            M = copy.deepcopy(rep["M"])
            M[0][0] = M[0][0] + " + x"
            p.append(("M", with_(M=M)))
    elif kind == "algebra twist":
        p.append(("relation", with_(relations=[rep["relations"][0] + " + x*y"])))
    return p


def cli_checks():
    wl = workloads.CliSession
    with Calibrator() as cal:
        nc, commands, _ = run.setup(wl, 1, cal)
    covered = {}
    for cmd in commands:
        if cmd.fault is not None:
            continue
        if covered.get(cmd.kind, 0) >= 3:
            continue
        covered[cmd.kind] = covered.get(cmd.kind, 0) + 1
        code, stdout, stderr = workloads.invoke_cli(nc.cli.main, cmd.argv,
                                                    io.StringIO(), io.StringIO())
        if code:
            failures.append(f"{cmd.kind}: command failed: {stderr.strip()}")
            continue
        rep = json.loads(stdout)
        verdict(f"cli-session / {' '.join(cmd.argv)[:70]}", cmd.check, rep,
                cli_perturbations(cmd.kind, rep))
    # the long-period thetas: the check itself accepts a true fixing matrix
    for text, psqd in [("sqrt(2)", (0, 1, 1, 2))]:
        if not fix_matrix_ok([[3, 4], [2, 3]], *psqd):
            failures.append(f"fix_matrix_ok rejects the fixing matrix of {text}")
    known_fault_checks([c for c in commands if c.fault is not None])


def known_fault_checks(commands):
    """A known fault is recognised only by its documented symptom, and the
    output check of those commands would accept a mended program."""
    def report(name, ok, what):
        if ok:
            print(f"ok  {name}: {what}")
        else:
            failures.append(f"{name}: {what} does not hold")

    for cmd in commands:
        name = f"known fault / {' '.join(cmd.argv)[:60]}"
        if cmd.kind == "rm fix":
            report(name, cmd.fault(1, "", "error: period not detected; increase max_terms")
                   and not cmd.fault(1, "", "error: invalid theta")
                   and not cmd.fault(2, "", "error: period not detected")
                   and not cmd.fault(0, '{"matrix": [[1, 0], [0, 1]]}', ""),
                   "only exit 1 with 'period not detected' is the known fault")
            continue
        printed = next(p for *_, p in session.UNPARENTHESIZED_PRODUCTS
                       if cmd.fault(0, json.dumps({"product": p}), ""))
        mended = printed_with_parentheses(printed)
        report(name, not cmd.fault(0, json.dumps({"product": mended}), "")
               and not cmd.fault(1, json.dumps({"product": printed}), ""),
               "only the documented ambiguous product is the known fault")
        level = int(cmd.argv[cmd.argv.index("-f") + 1].split(":")[0]) + \
            int(cmd.argv[cmd.argv.index("-g") + 1].split(":")[0])
        verdict(name, cmd.check, {"level": level, "product": mended},
                [("the documented ambiguous product", {"level": level, "product": printed})])


def printed_with_parentheses(printed):
    """The true product of a documented ambiguous rendering, written with
    parentheses around each composite coefficient."""
    return {
        "q*u^2 + q + 2*u + 2": "q*u^2 + (q + 2)*u + 2",
        "q^2*u^3 + q + 3*u^2 + q^2*u + q + 3": "q^2*u^3 + (q + 3)*u^2 + q^2*u + (q + 3)",
    }[printed]


def main():
    library_checks()
    cli_checks()
    for f in failures:
        print(f"FAIL {f}")
    print(f"{'FAILED' if failures else 'passed'}: {len(failures)} problem(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
