"""Weierstrass gap data at the cusp at infinity, and the verification suite.

The gap space of S_k(N) is spanned by forms vanishing to order greater
than the dimension; in an integral echelon basis it is exactly the span of
the rows whose pivot exceeds the dimension, so its size is read off the
pivot list.  The verifiers below certify, in exact arithmetic:

  * the p-adic order bound on the subspace S (verify_order_bound),
  * dim W_k(pN) <= dim S_k(N) (verify_gap_dimension_bound),
  * W_k(pN) = 0 whenever S_k(N) = 0 (verify_vanishing_analogue),
  * the weight-2 statement that infinity is not a Weierstrass point on
    X_0(pN) when X_0(N) has genus 0 (verify_weight2_nonweierstrass, Ogg),

and reproduce the three reference examples end to end.  Verification of
the order bound runs over a basis of S, where the p-adic hypotheses
provably hold; the universal statement over all forms is not finitely
enumerable.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .arith import is_prime
from .heckeops import build_operator_stack, coefficient_valuation, normalize_p
from .invariants import (
    check_level,
    check_triple,
    check_weight,
    cusp_dim,
    genus,
    sturm_bound,
    valence_bound,
    vanishing_order_bound,
)
from .linalg import Echelonizer, mat_mul
from .msengine import qexpansion_basis


@dataclass(frozen=True)
class GapData:
    level: int
    weight: int
    dimension: int
    pivots: tuple[int, ...]
    w_dim: int  # number of pivots exceeding the dimension

    def as_dict(self) -> dict:
        return {
            "level": self.level,
            "weight": self.weight,
            "dim": self.dimension,
            "pivots": list(self.pivots),
            "wdim": self.w_dim,
        }


def gap_data(level: int, weight: int) -> GapData:
    """Pivot structure of the echelon basis at the Sturm bound + 10;
    w_dim = dim W_k(N), since the rows with pivot > dim span exactly the
    forms of order > dim."""
    check_level(level)
    check_weight(weight)
    basis = qexpansion_basis(level, weight, sturm_bound(level, weight) + 10)
    w_dim = sum(1 for c in basis.pivots if c > basis.dimension)
    return GapData(level, weight, basis.dimension, basis.pivots, w_dim)


@dataclass(frozen=True)
class Check:
    name: str
    passed: bool
    witness: dict
    informational: bool = False

    def as_dict(self) -> dict:
        out = {"name": self.name, "pass": self.passed, "witness": self.witness}
        if self.informational:
            out["informational"] = True
        return out


@dataclass(frozen=True)
class VerificationReport:
    kind: str
    triple: dict
    dims: dict
    pivots: list
    wdim: int | None
    bounds: dict
    checks: tuple[Check, ...] = field(default_factory=tuple)

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks if not c.informational)

    def as_dict(self) -> dict:
        return {
            "kind": self.kind,
            "triple": self.triple,
            "dims": self.dims,
            "pivots": self.pivots,
            "wdim": self.wdim,
            "bounds": self.bounds,
            "checks": [c.as_dict() for c in self.checks],
            "pass": self.passed,
        }


def verify_order_bound(level: int, weight: int, p: int) -> VerificationReport:
    """Certify the order bound on a basis of the subspace S inside
    S_k(pN): after clearing denominators each basis form satisfies
    v_p(f) = 0 and v_p(f|W_p) >= 1 - k/2, and the largest order of
    vanishing attained on S is at most the sharp bound, which is at most
    dim S_k(pN).  Also certifies S intersect W_k(pN) = 0."""
    check_triple(level, weight, p)
    stack = build_operator_stack(level, weight, p)
    dim_pn = stack.ambient.dimension
    bound = vanishing_order_bound(level, weight, p)
    checks = []

    # the S forms and their W_p images, each by one product on S's own
    # coordinates; normalizing f divides it by its content c, and
    # v_p(c) = v_p(f), so the normalized form has
    # v_p((f/c)|W_p) = v_p(f|W_p) - v_p(f)
    s_coords = list(zip(*stack.s_basis))
    raw = stack.ambient.linear_combinations(s_coords)
    forms = [normalize_p(f) for f in raw]
    vals = [coefficient_valuation(f, p) for f in forms]
    checks.append(
        Check("normalized_v_p_zero", all(v == 0 for v in vals), {"valuations": [str(v) for v in vals]})
    )
    w_raw = stack.ambient.linear_combinations(mat_mul(stack.atkin_lehner, s_coords))
    hyp = [coefficient_valuation(fw, p) - coefficient_valuation(f, p) for f, fw in zip(raw, w_raw)]
    need = 1 - weight // 2
    checks.append(
        Check(
            "hypothesis_v_p_after_atkin_lehner",
            all(v >= need for v in hyp),
            {"valuations": [str(v) for v in hyp], "required_at_least": need},
        )
    )
    # one echelon of S gives its pivots here and, with the gap rows added
    # below, the rank of S + W_k(pN)
    ech = Echelonizer(stack.ambient.precision)
    for f in forms:
        ech.add(list(f.coeffs))
    max_ord = max((c + 1 for c in ech.pivots()), default=0)
    checks.append(
        Check(
            "order_bound",
            max_ord <= bound <= dim_pn,
            {"maxOrderOnS": max_ord, "sharpBound": str(bound), "dim": dim_pn},
        )
    )
    checks.append(
        Check(
            "s_dimension",
            len(forms) == dim_pn - stack.lower.dimension,
            {"dimS": len(forms), "expected": dim_pn - stack.lower.dimension},
        )
    )
    # S and the gap space intersect trivially: their echelon ranks add up
    gap_rows = [row for row, c in zip(stack.ambient.rows, stack.ambient.pivots) if c > dim_pn]
    for g in gap_rows:
        ech.add(list(g.coeffs))
    checks.append(
        Check(
            "s_meets_gap_space_trivially",
            ech.rank == len(forms) + len(gap_rows),
            {"dimS": len(forms), "dimGapSpace": len(gap_rows), "dimSum": ech.rank},
        )
    )
    return VerificationReport(
        kind="order-bound",
        triple={"level": level, "weight": weight, "prime": p},
        dims={"ambient": dim_pn, "lower": stack.lower.dimension, "S": len(forms)},
        pivots=list(stack.ambient.pivots),
        wdim=sum(1 for c in stack.ambient.pivots if c > dim_pn),
        bounds={"sharpBound": str(bound), "dim": dim_pn, "maxOrderOnS": max_ord},
        checks=tuple(checks),
    )


def _gap_report(kind: str, level: int, weight: int, p: int, data: GapData, lower: int,
                check: Check, bounds: dict) -> VerificationReport:
    """The one-check report on the gap data of S_k(pN) that the corollaries
    and Ogg's statement share."""
    return VerificationReport(
        kind=kind,
        triple={"level": level, "weight": weight, "prime": p},
        dims={"ambient": data.dimension, "lower": lower},
        pivots=list(data.pivots),
        wdim=data.w_dim,
        bounds=bounds,
        checks=(check,),
    )


def verify_gap_dimension_bound(level: int, weight: int, p: int) -> VerificationReport:
    """Certify dim W_k(pN) <= dim S_k(N), reporting sharpness."""
    check_triple(level, weight, p)
    data = gap_data(p * level, weight)
    lower_dim = cusp_dim(level, weight)
    check = Check(
        "gap_dimension_bound",
        data.w_dim <= lower_dim,
        {"wdim": data.w_dim, "lowerDim": lower_dim, "sharp": data.w_dim == lower_dim},
    )
    return _gap_report("gap-dimension-bound", level, weight, p, data, lower_dim, check,
                       {"wdim": data.w_dim, "lowerDim": lower_dim})


def verify_vanishing_analogue(level: int, weight: int, p: int) -> VerificationReport:
    """When S_k(N) = 0, every pivot of S_k(pN) is at most the dimension."""
    check_triple(level, weight, p)
    if cusp_dim(level, weight) != 0:
        raise ValueError(
            f"dim S_{weight}(Gamma_0({level})) = {cusp_dim(level, weight)} != 0; "
            "the vanishing analogue does not apply"
        )
    data = gap_data(p * level, weight)
    check = Check(
        "no_gap_forms",
        data.w_dim == 0,
        {"wdim": data.w_dim, "pivots": list(data.pivots), "dim": data.dimension},
    )
    return _gap_report("vanishing-analogue", level, weight, p, data, 0, check, {"dim": data.dimension})


def verify_weight2_nonweierstrass(level: int, p: int) -> VerificationReport:
    """Ogg's statement in weight 2: if X_0(N) has genus 0 and p does not
    divide N, then infinity is not a Weierstrass point on X_0(pN)."""
    check_level(level)
    if not isinstance(p, int) or p < 2:
        raise ValueError(f"p must be a prime, got {p!r}")
    if not is_prime(p) or level % p == 0:
        raise ValueError(f"p = {p} must be a prime not dividing {level}")
    if genus(level) != 0:
        raise ValueError(f"genus of X_0({level}) is {genus(level)} != 0")
    data = gap_data(p * level, 2)
    check = Check(
        "infinity_not_weierstrass",
        data.w_dim == 0,
        {"wdim": data.w_dim, "genus": data.dimension, "pivots": list(data.pivots)},
    )
    return _gap_report("weight2-weierstrass", level, 2, p, data, 0, check, {"genus": data.dimension})


# Reference gap examples reproduced end to end by `verify examples`.  The
# stated values come with the examples; where a stated value disagrees with
# the dimension formula the verifier flags the discrepancy and checks the
# substantive claims against the computed value.
REFERENCE_EXAMPLES = (
    {
        "lower_level": 1,
        "prime": 19,
        "weight": 16,
        "stated_ambient_dim": 24,
        "stated_lower_dim": 1,
        "gap_pivots": (25,),
        "sharp": True,
    },
    {
        "lower_level": 2,
        "prime": 23,
        "weight": 12,
        "stated_ambient_dim": 64,
        "stated_lower_dim": 2,
        "gap_pivots": (67, 68),
        "sharp": True,
    },
    {
        "lower_level": 1,
        "prime": 29,
        "weight": 28,
        "stated_ambient_dim": 67,
        "stated_lower_dim": 3,
        "gap_pivots": (),
        "sharp": False,
    },
)


def verify_reference_examples() -> list[VerificationReport]:
    """Reproduce the three reference examples: dimensions, gap pivots, and
    the gap dimension bound, flagging stated values that disagree with the
    dimension formula (the weight-28 lower dimension is such a case)."""
    reports = []
    for ex in REFERENCE_EXAMPLES:
        n, p, k = ex["lower_level"], ex["prime"], ex["weight"]
        pn = p * n
        data = gap_data(pn, k)
        lower_dim = cusp_dim(n, k)
        checks = [
            Check(
                "ambient_dimension",
                data.dimension == ex["stated_ambient_dim"],
                {"computed": data.dimension, "stated": ex["stated_ambient_dim"]},
            ),
            Check(
                "stated_lower_dimension_matches_formula",
                lower_dim == ex["stated_lower_dim"],
                {
                    "computed": lower_dim,
                    "stated": ex["stated_lower_dim"],
                    "note": "bound checks use the computed value",
                },
                informational=True,
            ),
            Check(
                "gap_pivots_present",
                all(c in data.pivots for c in ex["gap_pivots"])
                and data.w_dim == len(ex["gap_pivots"]),
                {"expected": list(ex["gap_pivots"]), "pivots": list(data.pivots), "wdim": data.w_dim},
            ),
            Check(
                "gap_dimension_bound",
                data.w_dim <= lower_dim,
                {"wdim": data.w_dim, "lowerDim": lower_dim},
            ),
            Check(
                "sharpness",
                (data.w_dim == lower_dim) == ex["sharp"],
                {"wdim": data.w_dim, "lowerDim": lower_dim, "expectedSharp": ex["sharp"]},
            ),
        ]
        reports.append(
            VerificationReport(
                kind="reference-example",
                triple={"level": n, "weight": k, "prime": p},
                dims={"ambient": data.dimension, "lower": lower_dim, "statedLower": ex["stated_lower_dim"]},
                pivots=list(data.pivots),
                wdim=data.w_dim,
                bounds={"lowerDim": lower_dim, "valence": valence_bound(pn, k)},
                checks=tuple(checks),
            )
        )
    return reports
