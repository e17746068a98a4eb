"""Tests of the benchmark itself: python3 -m pytest perfbench -q"""

import copy
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import spans  # noqa: E402
import workloads  # noqa: E402

COUNT_SNIPPET = """
import json, child, spans
tracer = spans.Tracer().install()
child.run_verify(["verify", "klein-flexes", "regseq-pu4k"])
tracer.uninstall()
calls = {n: r["calls"] for n, r in tracer.summary().items()}
print(json.dumps({"calls": calls, "counters": tracer.counters}))
"""


def _traced_counts():
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONHASHSEED="0")
    out = subprocess.run([sys.executable, "-c", COUNT_SNIPPET], cwd=HERE,
                         env=env, capture_output=True, text=True, timeout=120,
                         check=True)
    return json.loads(out.stdout)


def test_two_traced_runs_give_identical_counts():
    first, second = _traced_counts(), _traced_counts()
    assert first == second
    assert first["calls"]["quartic.flex_points"] == 1
    assert first["calls"]["koszul.macaulay_rank"] > 0
    assert first["counters"]["linalg.Matrix.rref.entries"] > 0


def _report_from(reference):
    return {"claims": [{"id": cid, "status": rec["status"],
                        "evidence": copy.deepcopy(rec["evidence"])}
                       for cid, rec in reference["claims"].items()]}


def test_reference_check_flags_one_changed_status_or_integer():
    reference = workloads.load_reference("exact-wide")
    exit_code = reference["exit_code"]
    report = _report_from(reference)
    assert workloads.compare_report(reference, exit_code, report) == \
        (14, [], True)

    by_id = {rec["id"]: rec for rec in report["claims"]}
    by_id["klein-equivalence"]["evidence"]["interpretations"][0][
        "max_abs_deviation"] = 2.5  # floats are not compared
    assert workloads.compare_report(reference, exit_code, report) == \
        (14, [], True)

    by_id["genus-pu4k"]["evidence"]["genus"] += 1
    assert workloads.compare_report(reference, exit_code, report) == \
        (14, ["genus-pu4k"], False)

    report = _report_from(reference)
    report["claims"][0]["status"] = "failed"
    attempted, mismatched, correct = workloads.compare_report(
        reference, exit_code, report)
    assert (attempted, mismatched, correct) == \
        (14, [report["claims"][0]["id"]], False)

    report = _report_from(reference)
    assert not workloads.compare_report(reference, 0, report)[2]


def test_rebinding_counts_cluster_points_called_inside_quartic():
    from enumtc import numroots, quartic

    original = quartic.cluster_points
    with spans.Tracer() as tracer:
        assert quartic.cluster_points is not original
        quartic.flex_points(quartic.klein_quartic())
    assert quartic.cluster_points is original
    assert numroots.cluster_points is original

    by_name = tracer.summary()
    assert by_name["numroots.cluster_points"]["calls"] >= 1
    assert tracer.calls_within("numroots.cluster_points",
                               "quartic.flex_points") == \
        by_name["numroots.cluster_points"]["calls"]
    assert tracer.counters["numroots.cluster_points.points"] >= \
        tracer.counters["numroots.cluster_points.clusters"] > 0


def test_self_time_subtracts_child_spans():
    tracer = spans.Tracer()
    tracer.spans = [["a", 0.0, 10.0, -1], ["b", 1.0, 4.0, 0],
                    ["c", 5.0, 6.0, 0], ["a", 2.0, 3.0, 1]]
    summary = tracer.summary()
    assert summary["a"] == {"calls": 2, "total_s": 11.0, "self_s": 7.0}
    assert summary["b"]["self_s"] == 2.0
    assert tracer.calls_within("a", "b") == 1


def test_quartic_generator_and_checks():
    assert workloads.quartic_coefficients(7) == \
        workloads.quartic_coefficients(7)
    coeffs = workloads.quartic_coefficients(7)
    assert len(coeffs) == 15 and all(1 <= abs(c) <= 9 for c in coeffs)

    class Point:
        def __init__(self, multiplicity):
            self.coords, self.multiplicity = (1, 0, 0), multiplicity

    problem = workloads.check_flexes(coeffs, [Point(1)] * 22 + [Point(0)] * 2)
    assert problem.startswith("multiplicities")
