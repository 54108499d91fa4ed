"""The benchmark under bench/ patches program functions by name and
requires some lru_caches to exist; these tests fail when a deletion or a
rename would break it."""

from pathlib import Path

from cuspgaps import heckeops
from cuspgaps.msengine import basis

BENCH = str(Path(__file__).resolve().parent.parent / "bench")

COLD_STATE_CACHES = (
    "msengine.basis.qexpansion_basis",
    "msengine.presentation.build_presentation",
    "msengine.p1.p1_space",
    "msengine.basis._cuspidal_solver",
    "heckeops.build_operator_stack",
)


def test_every_layer_boundary_exists(monkeypatch):
    monkeypatch.syspath_prepend(BENCH)
    import layers

    missing = [f"{getattr(owner, '__name__', owner)}.{attr}"
               for owner, attr, *_ in layers._boundaries() if not hasattr(owner, attr)]
    assert missing == []


def test_stack_patch_points_exist():
    assert callable(heckeops.required_ambient_precision)
    assert callable(heckeops.qexpansion_basis)


def test_cold_state_caches_exist(monkeypatch):
    monkeypatch.syspath_prepend(BENCH)
    import child

    names = {name for name, _ in child.lru_caches()}
    for required in COLD_STATE_CACHES:
        assert f"cuspgaps.{required}" in names
    assert hasattr(basis._cuspidal_solver, "cache_clear")
