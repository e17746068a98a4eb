"""Workload inputs and the checks that decide whether an operation is right.

verify-all and exact-wide run the ``enumtc verify`` command line; their
operations are the computational claim records of the report, each
compared with a reference captured from the program (see
capture_reference.py).  generic-quartic calls the quartic layer directly
on one integer quartic generated from the seed; its two operations are
checked against the classical counts for a smooth plane quartic (24
flexes with multiplicity, 28 bitangents) and against residuals computed
here from the integer coefficients.

Nothing here imports enumtc at module level, so a child process can time
the program's own import first.
"""

import json
import random
from pathlib import Path

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"

# The computational claims whose dependency closure avoids the Klein
# numeric claims (klein-flexes, klein-bitangents and what builds on them).
EXACT_WIDE_CLAIMS = (
    "em-poincare-pu3h", "em-poincare-pu4k", "fermat-lines", "genus-pu3h",
    "genus-pu4k", "k-faithful", "klein-equivalence", "nabla-generators-n3",
    "nabla-generators-n4", "regseq-permutations", "regseq-pu3h",
    "regseq-pu4k", "thm-sg-line", "tor-concentration")

# Command lines after the program name.  Neither depends on the seed: the
# claim set is the input, and the program's own retries use fixed seeds.
VERIFY_ARGV = {
    "verify-all": ["verify", "--all"],
    "exact-wide": ["verify", "--max-degree", "28", *EXACT_WIDE_CLAIMS],
}

QUARTIC = "generic-quartic"
WORKLOADS = (*VERIFY_ARGV, QUARTIC)

LITERATURE = "assumed-from-literature"


# ---------------------------------------------------------------------------
# verify workloads: reference comparison

def strip_floats(value):
    """The value with every float replaced by the marker "<float>".

    Residuals and deviations may move in their last digits with a numpy
    or BLAS change; statuses, counts, strings and integer evidence may not.
    """
    if isinstance(value, float):
        return "<float>"
    if isinstance(value, dict):
        return {k: strip_floats(v) for k, v in value.items()}
    if isinstance(value, list):
        return [strip_floats(v) for v in value]
    return value


def reference_from_report(workload, exit_code, report):
    """The reference record kept for a workload: statuses, non-float
    evidence and the exit code of the command."""
    return {
        "workload": workload,
        "argv": VERIFY_ARGV[workload],
        "exit_code": exit_code,
        "claims": {rec["id"]: {"status": rec["status"],
                               "evidence": strip_floats(rec["evidence"])}
                   for rec in report["claims"]},
    }


def load_reference(workload):
    with open(REFERENCE_DIR / f"{workload}.json") as handle:
        return json.load(handle)


def compare_report(reference, exit_code, report):
    """Check one verify run against its reference.

    Returns (attempted, mismatched claim ids, correct).  An operation is
    a computational claim record of the reference; a literature record,
    an extra record or a different exit code makes the run incorrect
    without being an operation.
    """
    got = reference_from_report(reference["workload"], exit_code, report)
    expected = reference["claims"]
    operations = [cid for cid, rec in expected.items()
                  if rec["status"] != LITERATURE]
    mismatched = [cid for cid in operations
                  if got["claims"].get(cid) != expected[cid]]
    correct = (not mismatched and got["claims"] == expected
               and got["exit_code"] == reference["exit_code"])
    return len(operations), mismatched, correct


# ---------------------------------------------------------------------------
# generic-quartic: generator and checks

# x^i y^j z^k with i + j + k = 4, x-degree first
QUARTIC_EXPONENTS = tuple((i, j, 4 - i - j) for i in range(4, -1, -1)
                          for j in range(4 - i, -1, -1))
NONZERO = tuple(v for v in range(-9, 10) if v)

# relative residual a returned point or line must meet
CHECK_TOL = 1e-6


def quartic_coefficients(seed):
    """The 15 coefficients for a seed, each a nonzero integer in [-9, 9],
    in QUARTIC_EXPONENTS order.  No draw is rejected or redrawn."""
    rng = random.Random(seed)
    return [rng.choice(NONZERO) for _ in QUARTIC_EXPONENTS]


def _eval(coeffs, point, partials=()):
    """Value at point of the quartic, after differentiating in the listed
    variable indices."""
    total = 0j
    for c, exps in zip(coeffs, QUARTIC_EXPONENTS):
        e = list(exps)
        factor = c
        for var in partials:
            factor *= e[var]
            e[var] -= 1
        if factor:
            total += factor * point[0] ** e[0] * point[1] ** e[1] \
                * point[2] ** e[2]
    return total


def _hessian_det(coeffs, point):
    h = [[_eval(coeffs, point, (a, b)) for b in range(3)] for a in range(3)]
    return (h[0][0] * (h[1][1] * h[2][2] - h[1][2] * h[2][1])
            - h[0][1] * (h[1][0] * h[2][2] - h[1][2] * h[2][0])
            + h[0][2] * (h[1][0] * h[2][1] - h[1][1] * h[2][0]))


def check_flexes(coeffs, points):
    """None when the points are 24 flexes with multiplicity, else why not.

    Points carry a largest coordinate of modulus 1, so |F(p)| is bounded
    by the coefficient 1-norm and every Hessian entry by 12 times it.
    """
    norm = sum(abs(c) for c in coeffs)
    mults = [p.multiplicity for p in points]
    if sum(mults) != 24 or min(mults, default=0) < 1:
        return f"multiplicities {sorted(mults)} do not give 24 flexes"
    for p in points:
        if abs(_eval(coeffs, p.coords)) > CHECK_TOL * norm:
            return f"point {p.coords} is off the curve"
        if abs(_hessian_det(coeffs, p.coords)) > CHECK_TOL * (12 * norm) ** 3:
            return f"point {p.coords} is off the Hessian"
    return None


def check_scan(coeffs, scan):
    """None when the scan lists 28 bitangents and 24 flex contacts of
    lines tangent to the curve at their listed points, else why not."""
    norm = sum(abs(c) for c in coeffs)
    hyper = sum(1 for t in scan.flex_tangents if t.kind == "hyperflex")
    flexes = len(scan.flex_tangents) - hyper
    if len(scan.bitangents) + hyper != 28 or flexes + 2 * hyper != 24:
        return (f"{len(scan.bitangents)} bitangents, {flexes} flex tangents,"
                f" {hyper} hyperflexes")
    for t in (*scan.bitangents, *scan.flex_tangents):
        line = t.line.coords
        for p in t.tangencies:
            on_line = sum(a * b for a, b in zip(line, p.coords))
            if abs(on_line) > CHECK_TOL * 3:
                return f"tangency {p.coords} is off its line {line}"
            if abs(_eval(coeffs, p.coords)) > CHECK_TOL * norm:
                return f"tangency {p.coords} is off the curve"
    return None


def run_quartic(seed):
    """flex_points then bitangent_scan on the seed's quartic.

    Every exception an operation raises counts as that operation failing
    and is recorded with its message, next to the seed and coefficients
    that reproduce it.
    """
    from enumtc.fields import QQ
    from enumtc.poly import Polynomial, make_table
    from enumtc import quartic

    coeffs = quartic_coefficients(seed)
    F = Polynomial(make_table(("x", "y", "z")), QQ,
                   {e: QQ.from_int(c)
                    for e, c in zip(QUARTIC_EXPONENTS, coeffs)})
    operations = []
    for name, call, check in (("flex_points", quartic.flex_points,
                               check_flexes),
                              ("bitangent_scan", quartic.bitangent_scan,
                               check_scan)):
        try:
            problem = check(coeffs, call(F))
        except Exception as exc:  # the operation failed; record and go on
            problem = f"{type(exc).__name__}: {exc}"
        operations.append({"op": name, "ok": problem is None,
                           "error": problem})
    return {"seed": seed, "coefficients": coeffs,
            "operations": operations}
