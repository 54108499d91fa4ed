"""The layer boundaries of cuspgaps and the per-layer metrics read off them.

Each boundary is patched where its callers look it up, so the same
function may be patched in several namespaces under one boundary name.
"""

from __future__ import annotations

from pathlib import Path

from tracer import COUNT, HOT, SPAN, Tracer
from workloads import REFGAP_SPACES

LAYERS = (
    "invariants",
    "msengine.p1",
    "msengine.presentation",
    "msengine.action",
    "msengine.basis",
    "linalg",
    "heckeops",
    "gaps",
    "cache",
)


def _boundaries():
    """(owner, attribute, boundary name, layer, kind) for every wrapped call."""
    from cuspgaps import cache, gaps, heckeops, invariants, linalg
    from cuspgaps.msengine import action, basis, p1, presentation

    out = [
        (invariants, "classify_triple", "invariants.classify_triple", "invariants", HOT),
        (p1.P1, "__init__", "msengine.p1.build", "msengine.p1", SPAN),
        (p1.P1, "normalize", "msengine.p1.normalize", "msengine.p1", HOT),
        (basis, "build_presentation", "msengine.presentation.build", "msengine.presentation", SPAN),
        (presentation.MSPresentation, "act_symbol_raw", "msengine.presentation.act_symbol_raw",
         "msengine.presentation", HOT),
        (presentation.MSPresentation, "raw_to_quotient", "msengine.presentation.raw_to_quotient",
         "msengine.presentation", HOT),
        (presentation, "act_path", "msengine.action.act_path", "msengine.action", HOT),
        (presentation, "expand_monomial", "msengine.action.expand_monomial", "msengine.action", COUNT),
        (action, "expand_monomial", "msengine.action.expand_monomial", "msengine.action", COUNT),
        (basis, "hecke_cosets", "msengine.basis.hecke_images", "msengine.basis", COUNT),
        (presentation, "hecke_cosets", "msengine.basis.hecke_images", "msengine.basis", COUNT),
        (gaps, "qexpansion_basis", "msengine.basis.qexpansion_basis", "msengine.basis", SPAN),
        (basis, "cuspidal_functionals", "msengine.basis.functionals", "msengine.basis", SPAN),
        (basis, "hecke_stability_certificate", "msengine.basis.certificate", "msengine.basis", SPAN),
        (basis.SpaceBasis, "coordinates", "msengine.basis.coordinates", "msengine.basis", HOT),
        (basis.SpaceBasis, "linear_combination", "msengine.basis.linear_combination", "msengine.basis", HOT),
        (linalg.Echelonizer, "add", "linalg.echelon_add", "linalg", HOT),
        (linalg.Echelonizer, "contains", "linalg.echelon_contains", "linalg", HOT),
        (linalg.Echelonizer, "reduced_rows", "linalg.reduced_rows", "linalg", HOT),
        (presentation, "kernel_basis", "linalg.kernel_basis", "linalg", SPAN),
        (heckeops, "kernel_basis", "linalg.kernel_basis", "linalg", SPAN),
        (linalg, "mat_inverse", "linalg.mat_inverse", "linalg", SPAN),
        (heckeops, "mat_inverse", "linalg.mat_inverse", "linalg", SPAN),
        (gaps, "build_operator_stack", "heckeops.build_operator_stack", "heckeops", SPAN),
        (heckeops, "old_new_split", "heckeops.split", "heckeops", SPAN),
        (heckeops, "hecke_matrix_on_basis", "heckeops.split.hecke_ells", "heckeops", SPAN),
        (heckeops, "up_matrix", "heckeops.up", "heckeops", SPAN),
        (heckeops, "atkin_lehner", "heckeops.atkin_lehner", "heckeops", SPAN),
        (heckeops, "trace_matrix", "heckeops.trace", "heckeops", SPAN),
        (heckeops, "subspace_s_basis", "heckeops.s_basis", "heckeops", SPAN),
        (gaps, "gap_data", lambda level, weight, *rest: f"gaps.gap_data.{level}-{weight}", "gaps", SPAN),
        (gaps, "verify_order_bound", "gaps.verify_order_bound", "gaps", SPAN),
        (cache, "write_basis", "cache.write", "cache", SPAN),
        (cache, "find_cached", "cache.read", "cache", SPAN),
        (cache, "read_basis", "cache.read_basis", "cache", SPAN),
    ]
    for fn in ("mat_mul", "rank", "solve", "charpoly", "poly_eval_matrix", "mat_vec"):
        for owner in (linalg, basis, heckeops):
            if hasattr(owner, fn):
                out.append((owner, fn, f"linalg.{fn}", "linalg", HOT))
    return out


def install(tracer: Tracer) -> None:
    """Patch every boundary, plus the observers that read figures off the
    results (sizes, bit lengths, hits and misses)."""
    from cuspgaps import heckeops

    values = tracer.values
    for key in ("presentation_gens", "max_coeff_bits", "ambient_precision", "echelon_rejected",
                "cache_bytes", "cache_hits", "cache_misses"):
        values[key] = 0
    built: dict[int, int] = {}
    ambient_key: list[tuple] = []

    def on_presentation(args, pres):
        built[id(pres)] = pres.dimension
        values["presentation_gens"] = sum(built.values())

    def on_basis(args, basis):
        bits = max((abs(int(c)).bit_length() for row in basis.rows for c in row.coeffs), default=0)
        values["max_coeff_bits"] = max(values["max_coeff_bits"], bits)

    def on_add(args, pivot):
        if pivot is None:
            values["echelon_rejected"] += 1

    def on_ambient_precision(args, precision):
        level, weight, p = args
        ambient_key.append((p * level, weight, precision))
        values["ambient_precision"] = max(values["ambient_precision"], precision)

    def stack_basis_name(level, weight, precision):
        return "heckeops.ambient_basis" if (level, weight, precision) in ambient_key else "heckeops.lower_basis"

    def on_write(args, path):
        values["cache_bytes"] += Path(path).stat().st_size + Path(str(path) + ".meta.json").stat().st_size

    def on_find(args, found):
        values["cache_hits" if found is not None else "cache_misses"] += 1

    observers = {
        "msengine.presentation.build": on_presentation,
        "msengine.basis.qexpansion_basis": on_basis,
        "linalg.echelon_add": on_add,
        "cache.write": on_write,
        "cache.read": on_find,
    }
    for owner, attr, name, layer, kind in _boundaries():
        tracer.patch(owner, attr, name, layer, kind, observers.get(name))
    tracer.patch(heckeops, "required_ambient_precision", "heckeops.required_ambient_precision",
                 "heckeops", HOT, on_ambient_precision)
    # the ambient and lower bases are msengine work, timed here as the
    # heckeops stages that request them
    tracer.patch(heckeops, "qexpansion_basis", stack_basis_name, "msengine.basis", SPAN, on_basis)


def metrics(tracer: Tracer) -> dict[str, tuple[float, str]]:
    """Per-layer metrics as {name: (value, unit)}; zero where a workload
    bypasses the layer."""
    t, v = tracer, tracer.values
    out = {
        "invariants.classify_triple.calls": (t.calls("invariants.classify_triple"), "count"),
        "invariants.classify_triple.busy_s": (t.busy("invariants.classify_triple"), "s"),
        "msengine.p1.build_s": (t.busy("msengine.p1.build"), "s"),
        "msengine.p1.normalize.calls": (t.calls("msengine.p1.normalize"), "count"),
        "msengine.p1.normalize.busy_s": (t.busy("msengine.p1.normalize"), "s"),
        "msengine.presentation.build_s": (t.busy("msengine.presentation.build"), "s"),
        "msengine.presentation.gens": (v["presentation_gens"], "count"),
    }
    for fn in ("act_symbol_raw", "raw_to_quotient"):
        out[f"msengine.presentation.{fn}.calls"] = (t.calls(f"msengine.presentation.{fn}"), "count")
        out[f"msengine.presentation.{fn}.busy_s"] = (t.busy(f"msengine.presentation.{fn}"), "s")
    basis_busy = sum(t.busy(n) for n in ("msengine.basis.qexpansion_basis", "heckeops.ambient_basis",
                                         "heckeops.lower_basis"))
    echelon_calls = t.calls("linalg.echelon_add")
    out.update({
        "msengine.action.act_path.calls": (t.calls("msengine.action.act_path"), "count"),
        "msengine.action.act_path.busy_s": (t.busy("msengine.action.act_path"), "s"),
        "msengine.action.expand_monomial.calls": (t.calls("msengine.action.expand_monomial"), "count"),
        "msengine.basis.qexpansion_basis.busy_s": (basis_busy, "s"),
        "msengine.basis.functionals.busy_s": (t.busy("msengine.basis.functionals"), "s"),
        "msengine.basis.hecke_images": (t.calls("msengine.basis.hecke_images"), "count"),
        "msengine.basis.certificate.busy_s": (t.busy("msengine.basis.certificate"), "s"),
        "msengine.basis.max_coeff_bits": (v["max_coeff_bits"], "bits"),
        "linalg.echelon_add.calls": (echelon_calls, "count"),
        "linalg.echelon_add.rejected": (v["echelon_rejected"], "count"),
        "linalg.echelon_add.useful_ratio": (
            1 - v["echelon_rejected"] / echelon_calls if echelon_calls else 0.0, "ratio"),
        "linalg.echelon_add.busy_s": (t.busy("linalg.echelon_add"), "s"),
        "linalg.mat_mul.calls": (t.calls("linalg.mat_mul"), "count"),
        "linalg.mat_mul.busy_s": (t.busy("linalg.mat_mul"), "s"),
        "linalg.kernel_basis.busy_s": (t.busy("linalg.kernel_basis"), "s"),
        "linalg.mat_inverse.busy_s": (t.busy("linalg.mat_inverse"), "s"),
        "heckeops.ambient_precision": (v["ambient_precision"], "coeffs"),
        "heckeops.ambient_basis_s": (t.busy("heckeops.ambient_basis"), "s"),
        "heckeops.lower_basis_s": (t.busy("heckeops.lower_basis"), "s"),
        "heckeops.split_s": (t.busy("heckeops.split"), "s"),
        "heckeops.split.hecke_ells": (t.calls("heckeops.split.hecke_ells"), "count"),
        "heckeops.up_s": (t.busy("heckeops.up"), "s"),
        "heckeops.atkin_lehner_s": (t.busy("heckeops.atkin_lehner"), "s"),
        "heckeops.trace_s": (t.busy("heckeops.trace"), "s"),
        "heckeops.s_basis_s": (t.busy("heckeops.s_basis"), "s"),
    })
    for level, weight in REFGAP_SPACES:
        out[f"gaps.gap_data.{level}-{weight}_s"] = (t.busy(f"gaps.gap_data.{level}-{weight}"), "s")
    vob_self = sum((span[7] for span in t.spans if span[3] == "gaps.verify_order_bound"), 0.0)
    out.update({
        "gaps.verify_order_bound.self_s": (vob_self, "s"),
        "cache.write_s": (t.busy("cache.write"), "s"),
        "cache.read_s": (t.busy("cache.read"), "s"),
        "cache.bytes": (v["cache_bytes"], "B"),
        "cache.hits": (v["cache_hits"], "count"),
        "cache.misses": (v["cache_misses"], "count"),
    })
    for layer in LAYERS:
        out[f"{layer}.self_s"] = (t.layer_self(layer), "s")
    return out
