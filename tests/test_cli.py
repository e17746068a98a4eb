import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from enumtc import cli
from enumtc.cli import build_parser, main
from enumtc.errors import InconsistentEvidence


def test_list_prints_every_id(capsys):
    assert main(["verify", "--list"]) == 0
    out = capsys.readouterr().out.split()
    assert "thm-tc-all" in out
    assert "lit-smale-reduction" in out
    assert len(out) == 28


def test_no_claims_is_usage_error(capsys):
    assert main(["verify"]) == 2
    assert "nothing to verify" in capsys.readouterr().err


def test_unknown_id_is_reported(capsys):
    assert main(["verify", "bogus-claim"]) == 2
    assert "bogus-claim" in capsys.readouterr().err


def test_small_chain_exits_zero(capsys):
    assert main(["verify", "genus-pu3h"]) == 0
    out = capsys.readouterr().out
    assert "genus-pu3h" in out
    assert "verified" in out and "assumed from literature" in out


def test_failing_claim_exits_one(capsys):
    assert main(["verify", "klein-equivalence"]) == 1
    out = capsys.readouterr().out
    assert "klein-equivalence" in out and "FAIL" in out


def test_json_report_written_and_stable(tmp_path, capsys):
    target = tmp_path / "report.json"
    assert main(["verify", "regseq-pu3h", "--json", str(target)]) == 0
    first = target.read_bytes()
    data = json.loads(first)
    assert set(data) == {"config", "claims", "summary"}
    assert data["summary"]["requested"] == 1
    assert main(["verify", "regseq-pu3h", "--json", str(target)]) == 0
    assert target.read_bytes() == first
    capsys.readouterr()


def test_unwritable_json_path_is_usage_error(tmp_path, capsys):
    target = tmp_path / "missing" / "report.json"
    assert main(["verify", "fermat-lines", "--json", str(target)]) == 2
    captured = capsys.readouterr()
    assert "fermat-lines" in captured.out
    err = captured.err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: cannot write --json")
    assert str(target) in err[0]
    assert not target.exists()


def test_library_error_is_reported_without_traceback(monkeypatch, capsys):
    def inconsistent(ids, config):
        raise InconsistentEvidence("klein-bitangents marked verified over "
                                   "bad dependency klein-flexes")

    monkeypatch.setattr(cli, "run_claims", inconsistent)
    assert main(["verify", "klein-bitangents"]) == 1
    assert capsys.readouterr().err == (
        "error: klein-bitangents marked verified over bad dependency "
        "klein-flexes\n")


def test_composite_prime_is_usage_error(monkeypatch, capsys):
    ran = []
    monkeypatch.setattr(cli, "run_claims", lambda *a: ran.append(a))
    with pytest.raises(SystemExit) as exc:
        main(["verify", "nabla-generators-n3", "--prime", "4"])
    assert exc.value.code == 2
    assert "--prime: 4 is not prime" in capsys.readouterr().err
    assert ran == []


def test_prime_past_the_primality_bound_is_usage_error(monkeypatch, capsys):
    ran = []
    monkeypatch.setattr(cli, "run_claims", lambda *a: ran.append(a))
    with pytest.raises(SystemExit) as exc:
        main(["verify", "nabla-generators-n3", "--prime",
              "618970019642690137449562111"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert [line for line in err.splitlines() if "error" in line] == [
        "enumtc verify: error: argument --prime: primality is decided only "
        "below 3317044064679887385961981"]
    assert ran == []


def test_negative_max_degree_is_usage_error(monkeypatch, capsys):
    ran = []
    monkeypatch.setattr(cli, "run_claims", lambda *a: ran.append(a))
    with pytest.raises(SystemExit) as exc:
        main(["verify", "nabla-generators-n3", "--max-degree", "-2"])
    assert exc.value.code == 2
    assert "--max-degree: -2 is negative" in capsys.readouterr().err
    assert ran == []
    args = build_parser().parse_args(["verify", "--max-degree", "0"])
    assert args.max_degree == 0


def test_parser_defaults():
    args = build_parser().parse_args(["verify", "--all"])
    assert args.prime == 7 and args.max_degree == 12
    assert args.all and not hasattr(args, "tol")


def test_tol_option_is_gone(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["verify", "klein-flexes", "--tol", "1e-9"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --tol" in capsys.readouterr().err


def test_verify_does_not_import_scipy():
    code = ("import sys, enumtc.cli, enumtc.claims; "
            "enumtc.claims.run_claims(['klein-bitangents']); "
            "print('scipy' in sys.modules)")
    proc = subprocess.run([sys.executable, "-c", code],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


def test_import_loads_no_dataclasses_or_introspection_modules():
    """Importing the CLI and the claims adds none of dataclasses and the
    modules it pulls in (inspect, ast, dis) to a fresh interpreter."""
    code = ("import sys; before = set(sys.modules); "
            "import enumtc.claims, enumtc.cli; "
            "added = set(sys.modules) - before; "
            "print(sorted(added & {'dataclasses', 'inspect', 'ast', 'dis'}), "
            "'enumtc.cli' in added)")
    proc = subprocess.run([sys.executable, "-c", code],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[] True"


def test_cli_and_claims_run_without_numpy():
    """Neither numpy nor mpmath is loaded, even by the four claims that
    embed Q(zeta_p) into C."""
    code = ("import sys, enumtc.cli, enumtc.claims; "
            "mods = ('numpy', 'mpmath'); "
            "loaded = [m in sys.modules for m in mods]; "
            "enumtc.claims.run_claims(['h-free-on-flexes', "
            "'h-free-on-bitangents', 'k-faithful', 'klein-equivalence']); "
            "print(loaded, [m in sys.modules for m in mods])")
    proc = subprocess.run([sys.executable, "-c", code],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[False, False] [False, False]"


def test_console_entry_point_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "enumtc.cli", "verify", "--list"],
        capture_output=True, text=True)
    assert proc.returncode == 0
    assert "klein-bitangents" in proc.stdout


def _reports_under_two_hash_seeds(argv, tmp_path):
    """The --json bytes of `enumtc <argv>` from two interpreters with
    different string hashing, run side by side."""
    src = str(Path(cli.__file__).resolve().parents[1])
    runs = []
    for seed in ("1", "2"):
        env = dict(os.environ, PYTHONHASHSEED=seed,
                   PYTHONPATH=os.pathsep.join(
                       filter(None, (src, os.environ.get("PYTHONPATH")))))
        target = tmp_path / f"seed{seed}.json"
        proc = subprocess.Popen(
            [sys.executable, "-m", "enumtc.cli", *argv, "--json",
             str(target)],
            env=env, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE)
        runs.append((proc, target))
    for proc, _ in runs:
        _, err = proc.communicate(timeout=300)
        # klein-equivalence fails by design, so the run exits 1
        assert proc.returncode == 1, err
    return [target.read_bytes() for _, target in runs]


def test_verify_all_report_does_not_depend_on_hash_seed(tmp_path):
    """Two interpreters with different string hashing write the same
    bytes; one process building the report twice cannot see set order."""
    first, second = _reports_under_two_hash_seeds(["verify", "--all"],
                                                  tmp_path)
    assert first and first == second


def test_exact_wide_report_does_not_depend_on_hash_seed(tmp_path):
    """The benchmark's exact-wide command line, read from
    perfbench/workloads.py (only read): 14 claims at --max-degree 28, the
    widest Koszul and Macaulay ranks of the two benchmark commands."""
    workloads = Path(__file__).resolve().parents[1] / "perfbench" / \
        "workloads.py"
    namespace = {"__file__": str(workloads)}
    exec(compile(workloads.read_text(), str(workloads), "exec"), namespace)
    argv = namespace["VERIFY_ARGV"]["exact-wide"]
    assert argv[:3] == ["verify", "--max-degree", "28"] and len(argv) == 17
    first, second = _reports_under_two_hash_seeds(argv, tmp_path)
    assert first and first == second
