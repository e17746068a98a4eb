"""One benchmark sample in a fresh interpreter; run.py starts it.

usage: python3 perfbench/child.py ROOT SPEC

ROOT is the checkout whose ``src`` holds enumtc; SPEC is a JSON object
with ``workload`` (a name from workloads.WORKLOADS, or null to time the
import alone), ``seed``, ``trace`` (bool) and ``spans_path`` (where a
traced sample writes its spans).  The sample prints one JSON object on
stdout: ``setup_s``, the time to import enumtc.cli and enumtc.claims,
then the workload's outcome and, when traced, its per-span summary.
"""

import contextlib
import io
import json
import sys
from pathlib import Path
from time import perf_counter


def run_verify(argv):
    """enumtc's command line, with the report it built kept for checking."""
    import enumtc.cli

    reports = []
    build = enumtc.cli.run_claims

    def keep(*args, **kwargs):
        reports.append(build(*args, **kwargs))
        return reports[-1]

    enumtc.cli.run_claims = keep
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            exit_code = enumtc.cli.main(argv)
    finally:
        enumtc.cli.run_claims = build
    return {"exit_code": exit_code, "report": reports[0].to_json()}


def main():
    root, spec = Path(sys.argv[1]).resolve(), json.loads(sys.argv[2])
    start = perf_counter()
    import enumtc.claims
    import enumtc.cli  # noqa: F401
    setup_s = perf_counter() - start
    if Path(enumtc.claims.__file__).resolve().parents[1] != root / "src":
        sys.exit(f"enumtc was imported from {enumtc.claims.__file__}, "
                 f"not from {root / 'src'}")
    out = {"setup_s": setup_s}
    workload = spec["workload"]
    if workload is not None:
        import spans
        import workloads

        tracer = spans.Tracer().install() if spec["trace"] else None
        if workload == workloads.QUARTIC:
            out["quartic"] = workloads.run_quartic(spec["seed"])
        else:
            out.update(run_verify(workloads.VERIFY_ARGV[workload]))
        if tracer is not None:
            tracer.uninstall()
            out["layers"] = tracer.summary()
            out["counters"] = tracer.counters
            lines = tracer.counters.get("quartic.bitangent_scan.lines", 0)
            newton = tracer.calls_within("numroots.damped_newton",
                                         "quartic.bitangent_scan")
            out["fit_yield"] = lines / newton if newton else 0.0
            tracer.write(spec["spans_path"])
    json.dump(out, sys.stdout)


if __name__ == "__main__":
    main()
