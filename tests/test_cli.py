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


def test_verify_all_report_does_not_depend_on_hash_seed(tmp_path):
    """Two interpreters with different string hashing write the same
    bytes; one process building the report twice cannot see set order."""
    src = str(Path(cli.__file__).resolve().parents[1])
    runs = []
    for seed in ("1", "2"):
        env = dict(os.environ, PYTHONHASHSEED=seed,
                   PYTHONPATH=os.pathsep.join(
                       filter(None, (src, os.environ.get("PYTHONPATH")))))
        target = tmp_path / f"seed{seed}.json"
        proc = subprocess.Popen(
            [sys.executable, "-m", "enumtc.cli", "verify", "--all",
             "--json", str(target)],
            env=env, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE)
        runs.append((proc, target))
    for proc, _ in runs:
        _, err = proc.communicate(timeout=300)
        # klein-equivalence fails by design, so the run exits 1
        assert proc.returncode == 1, err
    first, second = (target.read_bytes() for _, target in runs)
    assert first and first == second
