"""The benchmark's verify workloads still match their captured references.

perfbench/run.py counts a sample correct only when its report matches
perfbench/reference/<workload>.json (statuses, non-float evidence and
the exit code).  This runs both command lines in-process and applies
the same comparison, so an evidence change shows here before it reaches
the benchmark.  perfbench is only read: workloads.py is compiled from
its source, which writes no bytecode cache there.
"""

import json
import types
from pathlib import Path

import pytest

from enumtc import cli

WORKLOADS_PY = Path(__file__).resolve().parents[1] / "perfbench" / \
    "workloads.py"


def _workloads():
    module = types.ModuleType("perfbench_workloads")
    module.__file__ = str(WORKLOADS_PY)
    exec(compile(WORKLOADS_PY.read_text(), str(WORKLOADS_PY), "exec"),
         module.__dict__)
    return module


@pytest.mark.parametrize("workload", ["verify-all", "exact-wide"])
def test_verify_workload_matches_its_reference(workload, tmp_path, capsys):
    workloads = _workloads()
    target = tmp_path / "report.json"
    exit_code = cli.main([*workloads.VERIFY_ARGV[workload],
                          "--json", str(target)])
    capsys.readouterr()
    report = json.loads(target.read_text())
    attempted, mismatched, correct = workloads.compare_report(
        workloads.load_reference(workload), exit_code, report)
    assert attempted > 0
    assert mismatched == []
    assert correct
