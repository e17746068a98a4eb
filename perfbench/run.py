"""enumtc benchmark: fresh-process workloads, end-to-end and per-layer metrics.

usage: python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; enumtc is imported from its ``src``.
Each sample is a fresh ``python3 perfbench/child.py`` process, run one
at a time.  Samples repeat while another fits in S seconds (at least one).

--trace 0 reports the end-to-end metrics listed in BENCHMARK.json:
  wall_s       median child wall time, spawn to exit
  cpu_s        median child user+sys time (os.wait4)
  setup_s      median time inside a child to import enumtc.cli and
               enumtc.claims, over the workload samples and SETUP_SAMPLES
               import-only children
  peak_rss_mb  median child maximum resident set size
  ok_ratio     operations matching their reference / operations attempted
--trace 1 runs one untraced sample, then traced samples (see spans.py),
and reports the per-layer metrics: self time and calls per wrapped
function, self time per module, work counters, per-claim time from the
report, and trace.overhead_ratio (median traced over untraced wall_s).

Every sample's output is checked (see workloads.py).  The last stdout
line is {"correct", "attempted", "failed", "metrics"}; the lines before it
name each metric with its unit and record the environment.  The run is
also saved with its spans under .perfbench_out/ in the checkout.
"""

import argparse
import importlib.metadata
import importlib.util
import json
import os
import platform
import statistics
import subprocess
import sys
import threading
from pathlib import Path
from time import perf_counter

import workloads

HERE = Path(__file__).resolve().parent
SETUP_SAMPLES = 9
# a child still running after this many seconds is killed and its
# operations count as failed
CHILD_TIMEOUT = 150.0
OUT_DIR = ".perfbench_out"


class Sample:
    """One finished child: its measurements and its JSON output."""

    def __init__(self, wall_s, usage, status, output):
        self.wall_s = wall_s
        self.cpu_s = usage.ru_utime + usage.ru_stime
        self.peak_rss_mb = usage.ru_maxrss / 1024.0  # ru_maxrss is in KiB
        self.exit_code = os.waitstatus_to_exitcode(status)
        self.output = output


def spawn(root, spec):
    """Run child.py with spec in a fresh interpreter and wait for it."""
    # a fixed hash seed keeps set order, and so the traced counts, the same
    # from sample to sample
    env = dict(os.environ, PYTHONPATH=str(root / "src"), PYTHONHASHSEED="0")
    cmd = [sys.executable, str(HERE / "child.py"), str(root),
           json.dumps(spec)]
    start = perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, cwd=root, env=env)
    killer = threading.Timer(CHILD_TIMEOUT, proc.kill)
    killer.start()
    try:
        raw = proc.stdout.read()
        proc.stdout.close()
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        killer.cancel()
    wall_s = perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    try:
        output = json.loads(raw) if proc.returncode == 0 else None
    except ValueError:
        output = None
    return Sample(wall_s, usage, status, output)


def cpu_model():
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def environment():
    env = {"nproc": len(os.sched_getaffinity(0)), "cpu_model": cpu_model(),
           "python": platform.python_version()}
    for package in ("numpy", "scipy", "mpmath"):
        try:
            env[package] = importlib.metadata.version(package)
        except importlib.metadata.PackageNotFoundError:
            env[package] = None
    for module in ("gmpy2", "flint"):
        env[module] = importlib.util.find_spec(module) is not None
    env["loadavg_start"] = os.getloadavg()
    return env


def check(workload, sample):
    """(attempted, failed, correct, details) for one workload sample."""
    if workload == workloads.QUARTIC:
        attempted = 2
        if sample.output is None:
            return attempted, attempted, False, {"crashed": sample.exit_code}
        record = sample.output["quartic"]
        failed = sum(not op["ok"] for op in record["operations"])
        # a failed operation is counted, not hidden; correct stays true
        # because nothing returned a wrong answer unnoticed
        return attempted, failed, True, record
    reference = workloads.load_reference(workload)
    if sample.output is None:
        attempted = sum(rec["status"] != workloads.LITERATURE
                        for rec in reference["claims"].values())
        return attempted, attempted, False, {"crashed": sample.exit_code}
    attempted, mismatched, correct = workloads.compare_report(
        reference, sample.output["exit_code"], sample.output["report"])
    return attempted, len(mismatched), correct, {"mismatched": mismatched}


def layer_values(sample):
    """Flat per-layer values of one traced sample (absent means zero)."""
    values = {}
    for name, row in sample.output["layers"].items():
        values[f"{name}.s"] = row["self_s"]
        values[f"{name}.calls"] = row["calls"]
        layer = f"{name.split('.')[0]}.self_s"
        values[layer] = values.get(layer, 0.0) + row["self_s"]
    values.update(sample.output["counters"])
    values["quartic.bitangent_scan.fit_yield"] = sample.output["fit_yield"]
    for rec in sample.output.get("report", {}).get("claims", []):
        values[f"claim.{rec['id']}.s"] = rec["elapsed_ms"] / 1e3
    return values


def end_to_end(samples, setup_samples, attempted, failed):
    return {
        "wall_s": statistics.median(s.wall_s for s in samples),
        "cpu_s": statistics.median(s.cpu_s for s in samples),
        "setup_s": statistics.median(
            [s.output["setup_s"] for s in samples + setup_samples
             if s.output is not None]),
        "peak_rss_mb": statistics.median(s.peak_rss_mb for s in samples),
        "ok_ratio": (attempted - failed) / attempted,
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)

    root = Path.cwd().resolve()
    if not (root / "src" / "enumtc" / "claims.py").is_file():
        sys.exit(f"no enumtc sources under {root / 'src'}: run from the "
                 "root of an enumtc checkout")
    with open(root / "BENCHMARK.json") as handle:
        declared = json.load(handle)
    out_dir = root / OUT_DIR
    out_dir.mkdir(exist_ok=True)
    env = environment()
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"

    def sample_spec(trace, index=0):
        return {"workload": args.workload, "seed": args.seed, "trace": trace,
                "spans_path": str(out_dir / f"spans-{tag}-{index}.json")}

    # untimed: compiles bytecode and warms the file cache
    warm = spawn(root, {"workload": None})
    if warm.output is None:
        sys.exit("the import-only child failed; no result")

    untraced = [spawn(root, sample_spec(False))] if args.trace else []
    samples = []
    start = perf_counter()
    # another sample starts only if one as long as the last still fits
    while not samples or \
            perf_counter() - start + samples[-1].wall_s <= args.seconds:
        samples.append(spawn(root, sample_spec(bool(args.trace),
                                               len(samples))))
    setup_samples = [] if args.trace else [
        spawn(root, {"workload": None}) for _ in range(SETUP_SAMPLES)]

    attempted = failed = 0
    correct = True
    details = []
    for sample in untraced + samples:
        a, f, ok, detail = check(args.workload, sample)
        attempted, failed, correct = attempted + a, failed + f, correct and ok
        details.append(detail)

    if args.trace:
        declared_metrics = declared["per_layer"]
        per_sample = [layer_values(s) if s.output else {} for s in samples]
        values = {m["name"]: statistics.median(v.get(m["name"], 0)
                                               for v in per_sample)
                  for m in declared_metrics}
        values["trace.overhead_ratio"] = (
            statistics.median(s.wall_s for s in samples)
            / statistics.median(s.wall_s for s in untraced))
        counts = [{m["name"]: v.get(m["name"], 0) for m in declared_metrics
                   if m["unit"] == "count"} for v in per_sample]
        if any(c != counts[0] for c in counts):
            print("warning: traced counts differ between samples")
        for name, value in end_to_end(untraced, [], attempted,
                                      failed).items():
            print(f"untraced {name} = {value:.6g}")
    else:
        declared_metrics = declared["end_to_end"]
        values = end_to_end(samples, setup_samples, attempted, failed)

    env["loadavg_end"] = os.getloadavg()
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in declared_metrics}
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: "
          f"{len(samples)} sample(s), {attempted} operations, "
          f"{failed} failed")
    for name, metric in metrics.items():
        print(f"  {name:42s} {metric['value']:14.6g} {metric['unit']}")
    for detail in details:
        if detail.get("mismatched") or detail.get("crashed") is not None \
                or any(not op["ok"] for op in detail.get("operations", [])):
            print(f"  check: {json.dumps(detail)}")
    print(f"env {json.dumps(env)}")
    result = {"correct": correct, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    with open(out_dir / f"result-{tag}.json", "w") as handle:
        json.dump({**result, "workload": args.workload, "seed": args.seed,
                   "trace": args.trace, "environment": env,
                   "samples": [{"wall_s": s.wall_s, "cpu_s": s.cpu_s,
                                "peak_rss_mb": s.peak_rss_mb,
                                "setup_s": (s.output or {}).get("setup_s")}
                               for s in untraced + samples + setup_samples],
                   "checks": details}, handle, indent=1)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
