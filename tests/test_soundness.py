"""Soundness rows: a corrupted intermediate that no verified claim passes.

Each row corrupts one value the program computes or states (a rank, a
line, a bitangent seed, a stated generator, a restricted image, the
prime of the Q ranks), runs the claims that read it, and expects every
claim that reads the value to end failed with the check that caught it
in its evidence.  No source is edited: each row patches one attribute
for the length of the test.
"""

import pytest

from enumtc import claims, nabla
from enumtc.claims import Config, run_claims
from enumtc.koszul import KoszulComplex
from enumtc.poly import Polynomial


def _understate_d1_rank(monkeypatch, p, t):
    """Every Koszul complex over F_p is built with rank d_1 in internal
    degree t already memoised, one too low; returns the list of them."""
    corrupted = []
    build = KoszulComplex.__init__

    def build_corrupted(self, elements):
        build(self, elements)
        if self.p == p:
            self._ranks[1, t] = self.rank(1, t) - 1
            corrupted.append(self)

    monkeypatch.setattr(KoszulComplex, "__init__", build_corrupted)
    return corrupted


@pytest.mark.parametrize("p, t, name, coefficients", [
    # (1+t)^3 carries the extra quotient class at t = 10 to 13: 192 + 8
    (3, 10, "pu4k", [1, 3, 6, 10, 14, 18, 21, 23, 23, 21, 19, 17, 13, 7, 3,
                     1]),
    (2, 6, "pu3h", [1, 2, 3, 4, 4, 4, 4, 2, 1]),
], ids=["K-p3-t10", "H-p2-t6"])
def test_an_understated_shared_d1_rank_fails_its_readers(
        monkeypatch, p, t, name, coefficients):
    corrupted = _understate_d1_rank(monkeypatch, p, t)
    report = run_claims([f"em-poincare-{name}", "tor-concentration"])
    # one complex over F_p carries the rank to all three claims
    assert len(corrupted) == 1
    # the corrupted degree t <= s lies below the Artinian window, so the
    # certificate itself still holds
    regseq = report.claim(f"regseq-{name}")
    assert regseq.status == "verified"
    assert t <= regseq.evidence["certificate"]["s"]
    em = report.claim(f"em-poincare-{name}").to_json()
    assert em["status"] == "failed"
    assert em["evidence"]["coefficients"] == coefficients
    assert em["evidence"]["total"] == sum(coefficients)
    tor = report.claim("tor-concentration")
    assert tor.status == "failed"
    assert tor.evidence[name]["failures"] == [{"i": 1, "t": t, "dim": 1}]
    other = "pu3h" if name == "pu4k" else "pu4k"
    assert tor.evidence[other]["ok"]
    assert not report.ok()


def test_a_repeated_line_fails_fermat_lines_and_blocks_k_faithful(
        monkeypatch):
    lines = claims.fermat_lines
    monkeypatch.setattr(claims, "fermat_lines",
                        lambda: lines()[:-1] + lines()[:1])
    report = run_claims(["k-faithful"])
    fermat = report.claim("fermat-lines")
    assert fermat.status == "failed"
    assert fermat.evidence == {"count": 27, "all_on_surface": True,
                               "pairwise_distinct": False, "exact": True}
    assert report.claim("k-faithful").evidence == {
        "blocked_by": ["fermat-lines"]}


def test_the_flex_tangent_as_bitangent_seed_fails_klein_bitangents(
        monkeypatch):
    # y = 0 is the flex tangent at (1 : 0 : 0): one triple contact and a
    # simple one, so gcd(f, f') is a square and not two distinct roots
    monkeypatch.setattr(claims, "KLEIN_BITANGENT", (0, 1, 0))
    report = run_claims(["h-free-on-flexes", "thm-sg-btg"])
    assert report.claim("klein-bitangents").evidence == {
        "error": "CheckFailed: bitangent contact: gcd(f, f') = (1)*t^2, "
                 "need two distinct roots"}
    assert report.claim("h-free-on-bitangents").evidence == {
        "blocked_by": ["klein-bitangents"]}
    assert report.claim("thm-sg-btg").evidence == {
        "blocked_by": ["h-free-on-bitangents", "klein-bitangents"]}
    # the flexes and their tangents do not read the bitangent seed
    for cid in ("klein-flexes", "h-free-on-flexes"):
        assert report.claim(cid).status == "verified"


def _add_c1_power(monkeypatch, index, power):
    """The stated generator at `index` gets c1**power added, for both n."""
    stated = claims.stated_image_generators

    def corrupted(n, field):
        ctx, gens = stated(n, field)
        c1 = Polynomial.variable("c1", ctx.table, ctx.field)
        gens[index] = gens[index] + c1 ** power
        return ctx, gens

    monkeypatch.setattr(claims, "stated_image_generators", corrupted)


def _assert_off_the_kernel_blocks(report, n, reader):
    error = report.claim(f"nabla-generators-n{n}").evidence["error"]
    assert error.startswith("GeneratorCheckFailure: claimed generator ")
    assert error.endswith(" is not in the kernel")
    assert report.claim(reader).evidence == {
        "blocked_by": [f"nabla-generators-n{n}"]}


def test_a_stated_generator_off_the_kernel_fails_nabla_n3(monkeypatch):
    _add_c1_power(monkeypatch, 0, 2)
    _assert_off_the_kernel_blocks(run_claims(["regseq-pu3h"]), 3,
                                  "regseq-pu3h")


def test_a_stated_generator_off_the_kernel_fails_nabla_n4(monkeypatch):
    _add_c1_power(monkeypatch, 2, 4)
    _assert_off_the_kernel_blocks(run_claims(["regseq-pu4k"]), 4,
                                  "regseq-pu4k")


@pytest.mark.parametrize("n", [3, 4])
def test_a_small_q_prime_fails_the_nabla_claim_closed(monkeypatch, n):
    """Modulo 7 the Q ranks are strict bounds from degree 14 on: the
    kernel modulo 7 outgrows the generated span, and the claim fails
    rather than verifying on them."""
    monkeypatch.setattr(nabla, "Q_PRIME", 7)
    report = run_claims([f"nabla-generators-n{n}"], Config(max_degree=16))
    record = report.claim(f"nabla-generators-n{n}")
    assert record.status == "failed"
    error = record.evidence["error"]
    assert error.startswith("GeneratorCheckFailure: QQ, degree 14: ")
    assert error.endswith(" (kernel and generated are ranks modulo 7, "
                          "bounds on the Q values)")


def test_a_squared_restricted_image_fails_regseq_pu3h(monkeypatch):
    restricted = claims.phi_star_generators

    def second_is_first_squared(datum):
        first = restricted(datum)[0]
        return [first, first ** 2]

    monkeypatch.setattr(claims, "phi_star_generators",
                        second_is_first_squared)
    report = run_claims(["em-poincare-pu3h", "thm-sg-btg"])
    regseq = report.claim("regseq-pu3h")
    assert regseq.status == "failed"
    assert regseq.evidence["certificate"]["verdict"] == "NotRegular"
    assert report.claim("em-poincare-pu3h").evidence == {
        "blocked_by": ["regseq-pu3h"]}
    # the bitangent cover's bound stands on the genus the sequence gives
    assert report.claim("thm-sg-btg").evidence == {
        "blocked_by": ["genus-pu3h"]}


def test_understated_window_ranks_fail_every_other_ordering(monkeypatch):
    """Each complex over F_3 whose elements are not in the certified
    order is built with rank d_1 understated at the window degree s + 1."""
    certified = {}
    build = KoszulComplex.__init__

    def build_corrupted(self, elements):
        build(self, elements)
        # the first complex over each field is its regseq certificate's
        first = certified.setdefault(self.p, self)
        if self.p == 3 and self.elements != first.elements:
            s = sum(self.degrees) - sum(self.table.weights)
            self._ranks[1, s + 1] = self.rank(1, s + 1) - 1

    monkeypatch.setattr(KoszulComplex, "__init__", build_corrupted)
    report = run_claims(["regseq-permutations"])
    assert report.claim("regseq-pu4k").status == "verified"
    permutations = report.claim("regseq-permutations")
    assert permutations.status == "failed"
    verdicts = {tuple(row["order"]): row["verdict"]
                for row in permutations.evidence["pu4k"]}
    assert verdicts.pop((0, 1, 2)) == "Regular"
    assert list(verdicts.values()) == ["NotRegular"] * 5
    assert all(row["verdict"] == "Regular"
               for row in permutations.evidence["pu3h"])
