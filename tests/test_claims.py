import json

import pytest

from enumtc import claims, cli, errors, geometry, koszul, quartic
from enumtc.claims import (
    Config,
    VerificationReport,
    all_claim_ids,
    claim_ids,
    genus_bounds,
    run_claims,
    tc_lower,
)
from enumtc.errors import InconsistentEvidence, InvalidInput, UnknownClaim
from enumtc.fields import NumberFieldElement, cyclotomic_field
from enumtc.fields import PRIMALITY_BOUND
from enumtc.geometry import (common_fixed_check, fermat_lines,
                             make_group_action)
from enumtc.koszul import HilbertSeries, is_regular_maximal
from enumtc.linalg import Matrix
from enumtc.restriction import SubgroupDatum, k_datum


def test_genus_bounds_windows():
    pu4k = HilbertSeries([1, 3, 7, 13, 20, 26, 29, 29, 26, 20, 13, 7, 3, 1])
    # exact series not needed for the arithmetic: only the top degree
    series15 = HilbertSeries([1] * 16)
    assert genus_bounds(series15, 15, True) == (16, 16)
    series8 = HilbertSeries([1, 2, 3, 4, 4, 4, 3, 2, 1])
    assert genus_bounds(series8, 8, True) == (9, 9)
    assert genus_bounds(series8, 8, False) == (1, 9)
    assert genus_bounds(pu4k, 20, False) == (1, 21)
    with pytest.raises(InconsistentEvidence):
        genus_bounds(series8, 10, True)
    with pytest.raises(InvalidInput):
        genus_bounds(series8, -1, True)


def test_tc_lower_values():
    assert tc_lower(16) == 15
    assert tc_lower(9) == 8
    assert tc_lower(1) == 0
    with pytest.raises(InvalidInput):
        tc_lower(0)


def test_registry_ids_cover_the_interface():
    expected = {
        "regseq-pu4k", "regseq-pu3h", "regseq-permutations",
        "nabla-generators-n3", "nabla-generators-n4", "em-poincare-pu4k",
        "em-poincare-pu3h", "tor-concentration", "fermat-lines",
        "k-faithful", "klein-flexes", "klein-bitangents",
        "klein-equivalence", "h-free-on-flexes", "h-free-on-bitangents",
        "genus-pu4k", "genus-pu3h", "thm-sg-line", "thm-sg-btg",
        "thm-sg-flex", "thm-tc-all",
    }
    assert set(claim_ids()) == expected
    lits = set(all_claim_ids()) - expected
    assert len(lits) == 7
    assert all(cid.startswith("lit-") for cid in lits)


def test_dependency_graph_is_acyclic_and_closed():
    seen = {}

    def depth(cid, trail=()):
        assert cid not in trail, f"cycle through {cid}"
        if cid in seen:
            return seen[cid]
        spec = claims._REGISTRY[cid]
        d = 1 + max([depth(dep, trail + (cid,))
                     for dep in spec.dependencies], default=0)
        seen[cid] = d
        return d

    for cid in all_claim_ids():
        depth(cid)
        for dep in claims._REGISTRY[cid].dependencies:
            assert dep in claims._REGISTRY


def test_unknown_claim_rejected_before_running():
    with pytest.raises(UnknownClaim):
        run_claims(["no-such-claim"])


def test_duplicate_ids_are_requested_once():
    report = run_claims(["genus-pu3h", "regseq-pu3h", "genus-pu3h"])
    assert report.requested == ["genus-pu3h", "regseq-pu3h"]
    assert report.summary()["requested"] == 2
    once = run_claims(["genus-pu3h", "regseq-pu3h"])
    assert report.canonical_json() == once.canonical_json()


def test_composite_cross_check_prime_fails_nabla_claim():
    # the Config refuses a p that is not prime before any claim runs; for
    # n = 4 a p dividing 4 was once dropped and the claim reported verified
    for p in (4, 9, 1, 0):
        for claim_id in ("nabla-generators-n3", "nabla-generators-n4"):
            with pytest.raises(InvalidInput,
                               match=f"Config.prime: {p} is not prime"):
                run_claims([claim_id], Config(prime=p))


@pytest.mark.parametrize("degree", [-2, -1, 2.5, 12.0, True, False, "12",
                                    None])
def test_config_refuses_a_max_degree_that_is_no_nonnegative_int(degree):
    # once ran: -2 failed both nabla claims and blocked regseq and tor, and
    # 2.5 failed them with a TypeError
    with pytest.raises(InvalidInput, match="Config.max_degree"):
        Config(max_degree=degree)
    assert Config(max_degree=0).max_degree == 0


def test_empty_run_is_empty_and_ok():
    report = run_claims([])
    assert report.records == []
    assert report.ok()
    summary = report.summary()
    assert summary["total"] == 0 and summary["requested"] == 0
    data = json.loads(report.canonical_json())
    assert data["claims"] == []


def test_chain_pulls_dependencies_and_verifies():
    report = run_claims(["genus-pu3h"])
    ids = [rec.id for rec in report.records]
    assert ids == sorted(ids)
    for needed in ("regseq-pu3h", "em-poincare-pu3h", "nabla-generators-n3",
                   "lit-quotient-collapse", "genus-pu3h"):
        assert needed in ids
    rec = report.claim("genus-pu3h")
    assert rec.status == "verified"
    assert rec.evidence["genus"] == 9
    lit = report.claim("lit-quotient-collapse")
    assert lit.status == "assumed-from-literature"
    assert report.ok()


def test_no_verified_claim_over_bad_dependency():
    report = run_claims(["thm-tc-all"])
    by_id = {rec.id: rec for rec in report.records}
    for rec in report.records:
        if rec.status == "verified":
            for dep in rec.dependencies:
                assert by_id[dep].status in (
                    "verified", "assumed-from-literature")
    assert report.claim("thm-tc-all").evidence["tc_lower_bounds"] == {
        "lines": 15, "bitangents": 8, "flexes": 8}


def test_blocked_propagation(monkeypatch):
    def boom(config, deps):
        raise InvalidInput("synthetic defect")

    monkeypatch.setitem(claims._REGISTRY, "tmp-broken",
                        claims._Claim("always fails", (), boom))
    monkeypatch.setitem(claims._REGISTRY, "tmp-downstream",
                        claims._Claim("depends on the broken one",
                                      ("tmp-broken",),
                                      lambda c, d: ("verified", {}, None)))
    report = run_claims(["tmp-downstream"])
    broken = report.claim("tmp-broken")
    assert broken.status == "failed"
    assert "synthetic defect" in broken.evidence["error"]
    downstream = report.claim("tmp-downstream")
    assert downstream.status == "failed"
    assert downstream.evidence == {"blocked_by": ["tmp-broken"]}
    assert not report.ok()


LIBRARY_ERRORS = sorted(errors.EnumTCError.__subclasses__(),
                        key=lambda cls: cls.__name__)


@pytest.mark.parametrize("error", LIBRARY_ERRORS,
                         ids=[cls.__name__ for cls in LIBRARY_ERRORS])
def test_injected_error_fails_its_claim_and_blocks_dependents(
        error, monkeypatch, tmp_path, capsys):
    def broken_stage(seq, exterior_count):
        raise error("injected fault")

    monkeypatch.setattr(claims, "em_poincare", broken_stage)
    target = tmp_path / "report.json"
    assert cli.main(["verify", "genus-pu4k", "--json", str(target)]) == 1
    assert "Traceback" not in capsys.readouterr().err
    report = json.loads(target.read_text())
    records = {rec["id"]: rec for rec in report["claims"]}
    em = records["em-poincare-pu4k"]
    assert em["status"] == "failed"
    assert em["evidence"] == {"error": f"{error.__name__}: injected fault"}
    genus = records["genus-pu4k"]
    assert genus["status"] == "failed"
    assert genus["evidence"] == {"blocked_by": ["em-poincare-pu4k"]}
    assert records["regseq-pu4k"]["status"] == "verified"


def test_deps_hold_exactly_the_declared_dependencies(monkeypatch):
    seen = {}

    def record(cid, value):
        def run(config, deps):
            seen[cid] = dict(deps)
            return "verified", {}, value
        return run

    for cid, deps, value in (("tmp-a", (), "a"), ("tmp-b", (), "b"),
                             ("tmp-c", ("tmp-a", "lit-coho-dim"), "c"),
                             ("tmp-d", ("tmp-b", "tmp-c"), "d")):
        monkeypatch.setitem(claims._REGISTRY, cid,
                            claims._Claim(cid, deps, record(cid, value)))
    report = run_claims(["tmp-d"])
    assert report.ok()
    assert seen == {"tmp-a": {}, "tmp-b": {},
                    "tmp-c": {"tmp-a": "a", "lit-coho-dim": None},
                    "tmp-d": {"tmp-b": "b", "tmp-c": "c"}}


def test_dependencies_results_are_reused(monkeypatch):
    calls = {"em_poincare": 0, "fermat_lines": 0}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(claims, "em_poincare",
                        counted("em_poincare", claims.em_poincare))
    monkeypatch.setattr(claims, "fermat_lines",
                        counted("fermat_lines", claims.fermat_lines))
    report = run_claims(["thm-sg-line"])
    assert report.claim("thm-sg-line").status == "verified"
    assert calls == {"em_poincare": 1, "fermat_lines": 1}


def test_em_poincare_reads_the_regseq_certificate(monkeypatch):
    certified = []

    def counted(seq):
        certified.append(seq)
        return is_regular_maximal(seq)

    monkeypatch.setattr(claims, "is_regular_maximal", counted)
    monkeypatch.setattr(koszul, "is_regular_maximal", counted)
    report = run_claims(["em-poincare-pu4k", "em-poincare-pu3h"])
    assert report.ok()
    assert len(certified) == 2


def test_k_faithful_verdict_matches_common_fixed_check():
    evidence = run_claims(["k-faithful"]).claim("k-faithful").evidence
    datum = k_datum()
    check = common_fixed_check(make_group_action(datum.generator_matrices(),
                                                 datum.p, fermat_lines()))
    assert evidence["verdict"] == check["verdict"] == "PASS"
    assert evidence["moved_per_element"] == \
        [row["moved"] for row in check["rows"]]


def test_k_faithful_fails_when_a_scalar_matrix_joins_k(monkeypatch):
    # z*I fixes every line, so the group of order 81 acts unfaithfully
    datum = k_datum()
    scaled = SubgroupDatum(datum.n, datum.p, datum.grid + ((1, 1, 1, 1),),
                           datum.name)
    monkeypatch.setattr(claims, "k_datum", lambda: scaled)
    record = run_claims(["k-faithful"]).claim("k-faithful")
    assert record.status == "failed"
    assert record.evidence["verdict"] == "FAIL"
    assert record.evidence["group_order"] == 81
    assert record.evidence["moved_per_element"].count(0) == 2


def test_k_faithful_records_a_broken_relation_as_failed(monkeypatch):
    # read as order 2, K's first generator diag(z, 1, 1, 1) breaks g^2 = 1
    monkeypatch.setattr(claims, "make_group_action",
                        lambda gens, p, objects:
                        make_group_action(gens, 2, objects))
    report = run_claims(["thm-sg-line"])
    record = report.claim("k-faithful")
    assert record.status == "failed"
    assert record.evidence == {"error": "CheckFailed: generator 1: "
                                        "permutation order does not divide 2"}
    assert report.claim("thm-sg-line").evidence == {
        "blocked_by": ["k-faithful"]}


def test_config_refuses_a_prime_past_the_primality_bound():
    with pytest.raises(InvalidInput, match="primality is decided only "
                                           "below"):
        Config(prime=2**89 - 1)
    assert 2**89 - 1 >= PRIMALITY_BOUND


def test_klein_equivalence_fails_with_complete_evidence():
    report = run_claims(["klein-equivalence"])
    rec = report.claim("klein-equivalence")
    assert rec.status == "failed"
    combos = rec.evidence["interpretations"]
    assert len(combos) == 8
    assert all(row["exact"] is False for row in combos)
    assert rec.evidence["exact_matches"] == 0
    assert 2.5 < rec.evidence["min_max_abs_deviation"] < 2.65
    assert not report.ok()


def test_klein_equivalence_composes_the_classical_quartic_once_per_matrix(
        monkeypatch):
    composed = []
    compose = geometry.compose_with_matrix

    def counted(F, m_rows):
        composed.append(F)
        return compose(F, m_rows)

    monkeypatch.setattr(geometry, "compose_with_matrix", counted)
    monkeypatch.setattr(claims, "compose_with_matrix", counted)
    combos = run_claims(["klein-equivalence"]).claim(
        "klein-equivalence").evidence["interpretations"]
    # 4 quartic-to-classical readings, and C(M y) once for each matrix
    assert len(composed) == 6
    assert sum(F == quartic.classical_klein_quartic() for F in composed) == 2
    names = list(claims._ALPHA_NAMES.values())
    assert [(r["quartic_alpha"], r["matrix_alpha"], r["direction"])
            for r in combos] == [
        (q, m, d) for q in names for m in names
        for d in ("quartic-to-classical", "classical-to-quartic")]


def test_report_is_byte_stable():
    ids = ["genus-pu3h", "regseq-permutations", "tor-concentration"]
    one = run_claims(ids).canonical_json()
    two = run_claims(ids).canonical_json()
    assert one == two
    data = json.loads(one)
    assert set(data) == {"config", "claims", "summary"}
    assert all(c["elapsed_ms"] == 0.0 for c in data["claims"])
    for c in data["claims"]:
        assert set(c) == {"id", "status", "statement", "paper_ref",
                          "dependencies", "evidence", "elapsed_ms"}


def test_config_snapshot_lands_in_report():
    cfg = Config(prime=5, max_degree=10)
    report = run_claims(["nabla-generators-n3"], cfg)
    data = json.loads(report.canonical_json())
    assert data["config"] == {"prime": 5, "max_degree": 10}
    rows = report.claim("nabla-generators-n3").evidence["fields"]
    assert [t["p"] for t in rows] == [None, 2, 5, 7]
    assert all(r["degree"] <= 10 for t in rows for r in t["rows"])


@pytest.mark.parametrize("n, listed, left_out", [(3, [2, 5, 7], 3),
                                                  (4, [3, 5, 7], 2)])
def test_nabla_statement_names_every_prime_checked(n, listed, left_out):
    """The statement lists the fixed primes and --prime unless it divides
    n; the tables checked are exactly those."""
    claim_id = f"nabla-generators-n{n}"
    for prime, primes in ((11, [*listed, 11]), (left_out, listed),
                          (listed[-1], listed)):
        record = run_claims([claim_id], Config(prime=prime, max_degree=4)) \
            .claim(claim_id)
        assert [t["p"] for t in record.evidence["fields"]] == [None, *primes]
        assert f"modulo {', '.join(map(str, listed))} and --prime (unless " \
            f"--prime is {left_out})" in record.statement


def test_summary_counts_match_statuses():
    report = run_claims(["thm-sg-flex"])
    summary = report.summary()
    statuses = [rec.status for rec in report.records]
    assert summary["verified"] == statuses.count("verified")
    assert summary["assumed_from_literature"] == \
        statuses.count("assumed-from-literature")
    assert summary["failed"] == statuses.count("failed")
    assert summary["total"] == len(statuses)
    assert isinstance(report, VerificationReport)


def test_klein_claims_keep_their_evidence_schema():
    report = run_claims(["h-free-on-bitangents", "h-free-on-flexes"])
    flexes = report.claim("klein-flexes").evidence
    assert flexes == {"count": 24, "multiplicities": [1], "max_residual": 0.0}
    bits = report.claim("klein-bitangents").evidence
    assert bits == {"bitangents": 28, "flex_tangents": 24,
                    "max_bitangent_residual": 0.0,
                    "tangencies_matching_flexes": 24,
                    "worst_flex_match_distance": 0.0,
                    "coordinate_change": None}
    # the reference check of the benchmark tells floats from ints
    for value in (flexes["max_residual"], bits["max_bitangent_residual"],
                  bits["worst_flex_match_distance"]):
        assert type(value) is float
    for cid, fixed in (("h-free-on-flexes", [0, 0, 0]),
                       ("h-free-on-bitangents", [4, 4, 4])):
        rec = report.claim(cid)
        assert rec.status == "verified"
        assert rec.evidence["fixed_per_element"] == fixed
        assert all(type(r["min_displacement"]) is float and
                   r["min_displacement"] > 1e-3 for r in rec.evidence["rows"])


def test_moved_klein_seed_fails_its_claim_with_the_check_named(
        monkeypatch, tmp_path, capsys):
    # (1 : 1 : 0) is off the classical model: C(1, 1, 0) = 1
    monkeypatch.setattr(claims, "KLEIN_FLEX", (1, 1, 0))
    target = tmp_path / "report.json"
    assert cli.main(["verify", "h-free-on-bitangents", "--json",
                     str(target)]) == 1
    assert "Traceback" not in capsys.readouterr().err
    records = {rec["id"]: rec for rec in
               json.loads(target.read_text())["claims"]}
    assert records["klein-flexes"]["status"] == "failed"
    assert records["klein-flexes"]["evidence"] == {
        "error": "CheckFailed: flex equations: F = Hess F = 0 fails at the "
                 "seed"}
    assert records["klein-bitangents"]["evidence"] == {
        "blocked_by": ["klein-flexes"]}


def test_dropped_generator_fails_the_bitangent_orbit_check(monkeypatch):
    # S and T alone generate a group of order 21, under which the line
    # x + y + z = 0 has 7 images
    run_flexes = claims._run_klein_flexes

    def without_r():
        status, evidence, value = run_flexes()
        return status, evidence, dict(value,
                                      generators=value["generators"][:2])

    monkeypatch.setattr(claims, "_run_klein_flexes", without_r)
    rec = run_claims(["klein-bitangents"]).claim("klein-bitangents")
    assert rec.status == "failed"
    assert rec.evidence == {"error": "CheckFailed: bitangent orbit: 7 "
                                     "found, need 28"}


def test_klein_bitangents_reuse_the_checked_group(monkeypatch):
    # the generators are checked once, in klein-flexes, and the only
    # contact gcds are those of the bitangent and flex tangent seeds
    checks, contacts = [], []
    symmetries, contact_gcd = claims.klein_symmetries, quartic._contact_gcd

    def counted_symmetries(F):
        checks.append(F)
        return symmetries(F)

    def counted_contact_gcd(*args):
        contacts.append(args[2])
        return contact_gcd(*args)

    monkeypatch.setattr(claims, "klein_symmetries", counted_symmetries)
    monkeypatch.setattr(quartic, "_contact_gcd", counted_contact_gcd)
    report = run_claims(["klein-bitangents"])
    assert report.claim("klein-bitangents").status == "verified"
    assert len(checks) == 1
    assert contacts == ["bitangent contact", "flex tangent contact"]


def test_group_actions_never_row_reduce(monkeypatch):
    """No claim builds or reduces a field-element Matrix: every rank of
    the claim path is taken on int rows, and the group actions use none."""
    def statuses():
        report = run_claims(all_claim_ids())
        return {rec.id: rec.status for rec in report.records
                if not rec.id.startswith("lit-")}

    expected = statuses()

    def refuse(self, *args):
        raise AssertionError("field-element Matrix used")

    monkeypatch.setattr(Matrix, "__init__", refuse)
    monkeypatch.setattr(Matrix, "rref", refuse)
    monkeypatch.setattr(Matrix, "kernel_basis", refuse)
    assert statuses() == expected
    assert {"fermat-lines", "thm-sg-line", "regseq-pu4k", "tor-concentration",
            "nabla-generators-n4"} <= set(expected)
    assert all(status == "verified" for cid, status in expected.items()
               if cid != "klein-equivalence"), expected


def test_each_number_field_inverse_is_eliminated_once(monkeypatch):
    for p in (3, 7):
        monkeypatch.setattr(cyclotomic_field(p), "_inverses", {})
    asked, eliminated = [], []
    inverse, invert = NumberFieldElement.inverse, NumberFieldElement._invert

    def counted_inverse(self):
        asked.append((self.field.tag, self.num, self.den))
        return inverse(self)

    def counted_invert(self):
        eliminated.append((self.field.tag, self.num, self.den))
        return invert(self)

    monkeypatch.setattr(NumberFieldElement, "inverse", counted_inverse)
    monkeypatch.setattr(NumberFieldElement, "_invert", counted_invert)
    report = run_claims(["klein-flexes", "klein-bitangents", "k-faithful"])
    assert all(rec.status == "verified" for rec in report.records
               if not rec.id.startswith("lit-"))
    assert sorted(eliminated) == sorted(set(asked))
    # k-faithful normalises the 81 images of the 27 lines under K's 3
    # generators, where moving them by all 27 elements took 729: 648
    # asks fewer, and one element only a non-generator's image needed
    assert (len(asked), len(eliminated)) == (477, 135)
