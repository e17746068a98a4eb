"""Command line front end: enumtc verify <claim-id>... [options]."""

import argparse
import sys

from .claims import Config, all_claim_ids, claim_ids, run_claims
from .errors import EnumTCError, InvalidInput, UnknownClaim
from .fields import is_prime


def prime(text: str) -> int:
    """Argument type for --prime: an integer that is prime, below
    fields.PRIMALITY_BOUND."""
    p = int(text)
    try:
        prime_p = is_prime(p)
    except InvalidInput as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None
    if not prime_p:
        raise argparse.ArgumentTypeError(f"{p} is not prime")
    return p


def degree(text: str) -> int:
    """Argument type for --max-degree: an integer that is not negative."""
    d = int(text)
    if d < 0:
        raise argparse.ArgumentTypeError(f"{d} is negative")
    return d


def build_parser() -> argparse.ArgumentParser:
    defaults = Config()
    parser = argparse.ArgumentParser(
        prog="enumtc",
        description="Verify the registered computational claims.")
    sub = parser.add_subparsers(dest="command", required=True)
    verify = sub.add_parser(
        "verify", help="run claims and print one status line per claim")
    verify.add_argument("claims", nargs="*", metavar="claim-id",
                        help="ids to verify (see --list)")
    verify.add_argument("--all", action="store_true",
                        help="verify every registered computational claim")
    verify.add_argument("--list", action="store_true",
                        help="print the known claim ids and exit")
    verify.add_argument("--prime", type=prime, default=defaults.prime,
                        help="extra cross-check prime (default %(default)s)")
    verify.add_argument("--max-degree", type=degree,
                        default=defaults.max_degree,
                        help="degree window for generator and Tor checks "
                             "(>= 0, default %(default)s)")
    verify.add_argument("--json", metavar="PATH",
                        help="write the canonical JSON report to PATH")
    return parser


def _format_line(rec) -> str:
    mark = {"verified": "ok", "assumed-from-literature": "lit",
            "failed": "FAIL", "out-of-scope": "skip"}[rec.status]
    return (f"[{mark:>4}] {rec.id:<22} {rec.status:<24} "
            f"{rec.elapsed_ms:9.1f} ms")


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if args.list:
        for cid in all_claim_ids():
            print(cid)
        return 0
    ids = claim_ids() if args.all else list(args.claims)
    if not ids and not args.all:
        print("nothing to verify: pass claim ids, --all, or --list",
              file=sys.stderr)
        return 2
    config = Config(prime=args.prime, max_degree=args.max_degree)
    try:
        report = run_claims(ids, config)
    except EnumTCError as exc:
        # an unknown id is a usage error; anything else failed the run
        print(f"error: {exc}", file=sys.stderr)
        return 2 if isinstance(exc, UnknownClaim) else 1
    for rec in report.records:
        print(_format_line(rec))
    summary = report.summary()
    print(f"verified {summary['verified']}, "
          f"assumed from literature {summary['assumed_from_literature']}, "
          f"failed {summary['failed']} "
          f"(of {summary['total']} run, {summary['requested']} requested)")
    if args.json:
        try:
            with open(args.json, "w") as handle:
                handle.write(report.canonical_json())
                handle.write("\n")
        except OSError as exc:
            print(f"error: cannot write --json report: {exc}", file=sys.stderr)
            return 2
    return 0 if report.ok() else 1


if __name__ == "__main__":
    sys.exit(main())
