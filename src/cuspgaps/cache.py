"""On-disk basis cache: bit-exact decimal integers plus a JSON sidecar.

Format (one file per basis):

    MFBASIS v1 <level> <weight> <precision> <dim>
    <row 1: precision space-separated integers>
    ...
    <row dim>

with metadata {engineVersion, sturmBound, pivots} in <file>.meta.json.
A file is read back, or truncated, only through the engine's echelon
contract (msengine.echelon_basis), and a sidecar, when present, must carry
the file's pivots, this engine's version and the space's Sturm bound;
Hecke stability is not certified here.
Each file is written to a temporary file beside it and moved into place
with os.replace, so a reader never sees a partly written file.
"""

from __future__ import annotations

import json
import os
import secrets
from pathlib import Path

from . import __version__
from .errors import EngineError
from .invariants import check_precision, sturm_bound
from .msengine import SpaceBasis, echelon_basis

MAGIC = "MFBASIS"
FORMAT_VERSION = "v1"
ENGINE_VERSION = __version__


def cache_filename(level: int, weight: int, precision: int) -> str:
    return f"basis_N{level}_k{weight}_B{precision}.mfb"


def _write_atomic(path: Path, text: str) -> None:
    """Write text to path through a temporary file in the same directory
    and os.replace, so a failed write leaves any earlier file intact."""
    tmp = path.with_name(f".{path.name}.{os.getpid()}.{secrets.token_hex(4)}.tmp")
    try:
        with open(tmp, "x") as fh:
            fh.write(text)
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)


def basis_text(basis: SpaceBasis) -> str:
    """The basis in the file format above, as written to the cache and as
    `cuspgaps basis` prints it."""
    lines = [f"{MAGIC} {FORMAT_VERSION} {basis.level} {basis.weight} {basis.precision} {basis.dimension}"]
    lines.extend(" ".join(str(int(c)) for c in row.coeffs) for row in basis.rows)
    return "\n".join(lines) + "\n"


def write_basis(basis: SpaceBasis, directory: str | Path) -> Path:
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    path = directory / cache_filename(basis.level, basis.weight, basis.precision)
    _write_atomic(path, basis_text(basis))
    meta = {
        "engineVersion": ENGINE_VERSION,
        "sturmBound": sturm_bound(basis.level, basis.weight),
        "pivots": list(basis.pivots),
    }
    _write_atomic(Path(str(path) + ".meta.json"), json.dumps(meta, sort_keys=True) + "\n")
    return path


def read_basis(path: str | Path) -> SpaceBasis:
    """The basis in a cache file and its sidecar.  Anything in them that
    does not parse or fails the echelon contract raises EngineError; an
    OSError (a missing or unreadable file) passes through."""
    path = Path(path)
    try:
        return _parse_basis(path)
    except ValueError as exc:  # also bad UTF-8 and bad JSON
        raise EngineError(f"corrupt cache file {path}: {exc}") from exc


def _parse_basis(path: Path) -> SpaceBasis:
    lines = path.read_text().splitlines()
    if not lines:
        raise EngineError(f"empty cache file {path}")
    header = lines[0].split()
    if len(header) != 6 or header[0] != MAGIC or header[1] != FORMAT_VERSION:
        raise EngineError(f"bad cache header in {path}: {lines[0]!r}")
    level, weight, precision, dim = (int(x) for x in header[2:])
    body = lines[1:]
    if len(body) != dim:
        raise EngineError(f"cache body has {len(body)} rows, header says {dim}")
    rows = [tuple(int(x) for x in line.split()) for line in body]
    for row in rows:
        if len(row) != precision:
            raise EngineError(f"cache row has {len(row)} coefficients, header says {precision}")
    basis = echelon_basis(level, weight, precision, rows)
    meta_path = Path(str(path) + ".meta.json")
    if meta_path.exists():
        meta = json.loads(meta_path.read_text())
        if not isinstance(meta, dict):
            raise EngineError(f"sidecar of {path} is not a JSON object")
        want = {"pivots": list(basis.pivots), "engineVersion": ENGINE_VERSION,
                "sturmBound": sturm_bound(level, weight)}
        for key, value in want.items():
            if meta.get(key) != value:
                raise EngineError(f"sidecar of {path} has {key} {meta.get(key)!r}, not {value!r}")
    return basis


def find_cached(directory: str | Path, level: int, weight: int, min_precision: int) -> SpaceBasis | None:
    """Best cached basis for (N, k) with precision >= min_precision,
    truncated to exactly min_precision (truncation of the canonical basis
    is the canonical basis at the lower precision, if min_precision is at
    least the Sturm bound), which the echelon contract certifies again.
    The file is chosen by the precision in its name; only it is read."""
    check_precision(level, weight, min_precision)
    directory = Path(directory)
    if not directory.is_dir():
        return None
    candidates = []
    for path in directory.glob(f"basis_N{level}_k{weight}_B*.mfb"):
        try:
            precision = int(path.stem.rsplit("_B", 1)[1])
        except (IndexError, ValueError):
            continue
        if precision >= min_precision:
            candidates.append((precision, path))
    if not candidates:
        return None
    precision, path = min(candidates)
    best = read_basis(path)
    if (best.level, best.weight, best.precision) != (level, weight, precision):
        raise EngineError(f"cache header of {path} does not match its name")
    if best.precision == min_precision:
        return best
    return echelon_basis(level, weight, min_precision, (r.coeffs[:min_precision] for r in best.rows))
