"""Soundness rows: a corrupted intermediate that no verified claim passes.

Each row corrupts one value the program computes or states (a rank, a
line, a stated generator, a restricted image), runs the claims that read
it, and expects every claim that reads the value to end failed with the
check that caught it in its evidence.  No source is edited: each row
patches one attribute for the length of the test.
"""

import pytest

from enumtc import claims
from enumtc.claims import run_claims
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


def test_a_stated_generator_off_the_kernel_fails_nabla_n3(monkeypatch):
    stated = claims.stated_image_generators

    def first_plus_c1_squared(n, field):
        ctx, gens = stated(n, field)
        c1 = Polynomial.variable("c1", ctx.table, ctx.field)
        return ctx, [gens[0] + c1 ** 2, *gens[1:]]

    monkeypatch.setattr(claims, "stated_image_generators",
                        first_plus_c1_squared)
    report = run_claims(["regseq-pu3h"])
    error = report.claim("nabla-generators-n3").evidence["error"]
    assert error.startswith("GeneratorCheckFailure: claimed generator ")
    assert error.endswith(" is not in the kernel")
    assert report.claim("regseq-pu3h").evidence == {
        "blocked_by": ["nabla-generators-n3"]}


def test_a_squared_restricted_image_fails_regseq_pu3h(monkeypatch):
    restricted = claims.phi_star_generators

    def second_is_first_squared(datum):
        first = restricted(datum)[0]
        return [first, first ** 2]

    monkeypatch.setattr(claims, "phi_star_generators",
                        second_is_first_squared)
    report = run_claims(["em-poincare-pu3h"])
    regseq = report.claim("regseq-pu3h")
    assert regseq.status == "failed"
    assert regseq.evidence["certificate"]["verdict"] == "NotRegular"
    assert report.claim("em-poincare-pu3h").evidence == {
        "blocked_by": ["regseq-pu3h"]}


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
