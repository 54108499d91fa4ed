"""CLI surface, exit codes, and the basis cache file format."""

import dataclasses
import hashlib
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cuspgaps import cache as cache_mod
from cuspgaps import invariants as inv_mod
from cuspgaps.cache import cache_filename, find_cached, read_basis, write_basis
from cuspgaps.cli import main
from cuspgaps.errors import EngineError
from cuspgaps.invariants import CSV_HEADER, cusp_dim, sturm_bound
from cuspgaps.msengine import qexpansion_basis


def run_cli(capsys, *args, env=None):
    old = {}
    if env:
        for key, value in env.items():
            old[key] = os.environ.get(key)
            os.environ[key] = value
    try:
        code = main(list(args))
    finally:
        for key, value in old.items():
            if value is None:
                os.environ.pop(key, None)
            else:
                os.environ[key] = value
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_invariants_command(capsys):
    code, out, _ = run_cli(capsys, "invariants", "46")
    assert code == 0
    payload = json.loads(out)
    assert payload == {"level": 46, "index": 72, "eps2": 0, "eps3": 0, "epsInf": 4, "genus": 5}


def test_invariants_rejects_zero(capsys):
    code, _, err = run_cli(capsys, "invariants", "0")
    assert code == 2 and "level" in err


def test_dim_command(capsys):
    code, out, _ = run_cli(capsys, "dim", "19", "16")
    assert code == 0 and out.strip() == "24"


def test_scan_guard(capsys):
    code, _, err = run_cli(capsys, "scan", "--kmax", "3")
    assert code == 2


def test_scan_small_box(capsys):
    code, out, _ = run_cli(capsys, "scan", "--kmax", "6", "--nmax", "15", "--pmax", "20")
    assert code == 0
    assert json.loads(out)["violations"] == 0


def test_scan_csv(capsys):
    code, out, err = run_cli(capsys, "scan", "--kmax", "4", "--nmax", "6", "--pmax", "7", "--csv")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0].startswith("k,N,p,")
    assert len(lines) > 1


def test_scan_csv_pinned(capsys):
    """The CSV of a 3408-triple box, byte for byte as the Fraction-based
    case analysis printed it."""
    code, out, _ = run_cli(capsys, "scan", "--kmax", "10", "--nmax", "60", "--pmax", "61", "--csv")
    assert code == 0
    assert len(out.splitlines()) == 3409
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "1224c66e1c366e7178b8b6ef2d21500883a4e679ae9939acac2d21b502e2cdef"
    )


def test_scan_json_pinned(capsys):
    """The JSON lines of a 1620-triple box, byte for byte as json.dumps
    printed them before the encoder was shared."""
    code, out, _ = run_cli(capsys, "scan", "--json", "--kmax", "8", "--nmax", "40", "--pmax", "60")
    assert code == 0
    assert len(out.splitlines()) == 1620
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "e8d0cca429815aa59b7d892bb5155e9b197b6b765f6063be1db9007b0a20ac2d"
    )


def test_scan_json_full_box_pinned(capsys):
    """Every field of every report of the default box, the five the CSV
    leaves out included, byte for byte."""
    code, out, _ = run_cli(capsys, "scan", "--json")
    assert code == 0
    assert len(out.splitlines()) == 131199
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "6f8cf75c14c79aa1de2c71746c561adefb35533ac4798f979337e05c97dc858f"
    )


@pytest.mark.parametrize("fmt, rows", [(None, 0), ("--csv", 13), ("--json", 12)])
def test_scan_witnesses_stay_out_of_the_row_stream(capsys, monkeypatch, fmt, rows):
    """With p = 13 made to fail, the 3 witnesses follow the summary: on
    stdout for a plain scan, on stderr where stdout holds the CSV or JSON
    rows of the 12 triples and nothing else."""
    monkeypatch.setattr(inv_mod.CaseReport, "verified", property(lambda rep: rep.prime != 13))
    code, out, err = run_cli(capsys, "scan", "--kmax", "4", "--nmax", "3", "--pmax", "13", *filter(None, [fmt]))
    assert code == 1
    lines = out.splitlines()
    assert len(lines) == rows + (0 if fmt else 4)
    if fmt == "--csv":
        assert lines[0] == CSV_HEADER and not any(line.startswith("{") for line in lines)
    tail = (err if fmt else out).splitlines()[-4:]
    assert json.loads(tail[0]) == {"triples": 12, "violations": 3}
    assert [json.loads(line)["prime"] for line in tail[1:]] == [13, 13, 13]


def test_gaps_and_wdim(capsys):
    code, out, _ = run_cli(capsys, "gaps", "5", "12")
    assert code == 0 and json.loads(out)["wdim"] == 0
    code, out, _ = run_cli(capsys, "wdim", "5", "12")
    assert code == 0 and out.strip() == "0"


def test_basis_roundtrip(tmp_path):
    basis = qexpansion_basis(1, 12, 25)
    path = write_basis(basis, tmp_path)
    loaded = read_basis(path)
    assert loaded == basis
    meta = json.loads((tmp_path / (path.name + ".meta.json")).read_text())
    assert meta["pivots"] == [1]
    assert meta["sturmBound"] == 2


def test_failed_cache_write_keeps_earlier_file(tmp_path, monkeypatch):
    from cuspgaps import cache

    basis = qexpansion_basis(1, 12, 25)
    path = write_basis(basis, tmp_path)
    before = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
    doubled = tuple(dataclasses.replace(r, coeffs=tuple(2 * c for c in r.coeffs)) for r in basis.rows)

    def fail(*args):
        raise OSError("disk full")

    monkeypatch.setattr(cache.os, "replace", fail)
    with pytest.raises(OSError, match="disk full"):
        write_basis(dataclasses.replace(basis, rows=doubled), tmp_path)
    assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == before
    assert read_basis(path) == basis


def test_engine_error_exits_3(capsys, monkeypatch):
    import cuspgaps.cli
    from cuspgaps.errors import EngineError

    def broken(*args):
        raise EngineError("series rank stalled")

    monkeypatch.setattr(cuspgaps.cli, "qexpansion_basis", broken)
    code, out, err = run_cli(capsys, "basis", "11", "2")
    assert code == 3 and out == ""
    assert "engine error: series rank stalled" in err


def test_closed_stdout_exits_141_quietly():
    """`scan --csv | head -1`: once the reader closes the pipe, the CLI
    exits 141, as a tool killed by SIGPIPE would, not 2 with "Broken pipe"."""
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parent.parent / "src")}
    proc = subprocess.Popen([sys.executable, "-m", "cuspgaps.cli", "scan", "--csv"], env=env,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    assert proc.stdout.readline().startswith(b"k,N,p,")
    proc.stdout.close()
    _, err = proc.communicate(timeout=120)
    assert (proc.returncode, err) == (141, b"")


def test_find_cached_truncates(tmp_path):
    basis = qexpansion_basis(11, 2, 30)
    write_basis(basis, tmp_path)
    got = find_cached(tmp_path, 11, 2, 20)
    assert got is not None and got.precision == 20
    assert got.rows[0].coeffs == basis.rows[0].coeffs[:20]
    assert find_cached(tmp_path, 11, 2, 40) is None


SMALL_SPACES = [(n, k) for n in range(1, 16) for k in (2, 4, 6, 8) if cusp_dim(n, k) <= 3]


@given(st.sampled_from(SMALL_SPACES), st.integers(min_value=0, max_value=12), st.data())
@settings(max_examples=40, deadline=None)
def test_cache_round_trip_and_prefix_stability(space, extra, data):
    """A written basis reads back identical, and find_cached at any
    precision from the Sturm bound to the written one is the engine's
    basis at that precision."""
    level, weight = space
    bound = sturm_bound(level, weight)
    basis = qexpansion_basis(level, weight, bound + extra)
    with tempfile.TemporaryDirectory() as directory:
        assert read_basis(write_basis(basis, directory)) == basis
        assert find_cached(directory, level, weight, bound + extra) == basis
        precision = data.draw(st.integers(min_value=bound, max_value=bound + extra))
        assert find_cached(directory, level, weight, precision) == qexpansion_basis(level, weight, precision)


def test_find_cached_reads_only_the_file_it_returns(tmp_path, capsys):
    """The least qualifying precision is picked from the file names, so a
    corrupt B100 beside a good B40 is never read; the chosen file is."""
    write_basis(qexpansion_basis(11, 2, 40), tmp_path)
    (tmp_path / cache_filename(11, 2, 100)).write_text("garbage\n")
    code, out, _ = run_cli(capsys, "basis", "11", "2", "--prec", "40", "--cache", str(tmp_path))
    assert code == 0 and out.startswith("MFBASIS v1 11 2 40 1\n")
    with pytest.raises(EngineError, match="bad cache header in .*basis_N11_k2_B100.mfb: 'garbage'"):
        find_cached(tmp_path, 11, 2, 41)


def test_find_cached_checks_the_header_against_the_name(tmp_path):
    path = write_basis(qexpansion_basis(11, 2, 40), tmp_path)
    path.rename(tmp_path / cache_filename(11, 2, 50))
    with pytest.raises(EngineError, match="does not match its name"):
        find_cached(tmp_path, 11, 2, 45)


def test_find_cached_and_basis_reject_an_odd_weight(tmp_path, capsys):
    """An odd weight is refused by the Sturm bound that find_cached and
    the basis command read, before any file is looked at."""
    with pytest.raises(ValueError, match=r"^weight must be an even integer >= 2, got 3$"):
        find_cached(tmp_path, 11, 3, 5)
    code, out, err = run_cli(capsys, "basis", "1", "3")
    assert code == 2 and out == ""
    assert "weight must be an even integer >= 2, got 3" in err


def test_find_cached_rejects_precision_below_the_sturm_bound(tmp_path, capsys):
    """Truncating below the Sturm bound (13 for (11, 12)) can leave rows
    that are zero and pivots past the precision, so it is refused as
    qexpansion_basis refuses it, and the CLI exits 2."""
    write_basis(qexpansion_basis(11, 12, 40), tmp_path)
    with pytest.raises(ValueError, match="precision 5 is below the Sturm bound 13"):
        find_cached(tmp_path, 11, 12, 5)
    assert find_cached(tmp_path, 11, 12, 13) == qexpansion_basis(11, 12, 13)
    code, out, err = run_cli(capsys, "basis", "11", "12", "--prec", "5", "--cache", str(tmp_path))
    assert code == 2 and out == ""
    assert "precision 5 is below the Sturm bound 13" in err


def test_find_cached_rejects_a_float_precision(tmp_path):
    """find_cached checks its precision as qexpansion_basis does, whether
    or not a file could serve it."""
    write_basis(qexpansion_basis(11, 2, 50), tmp_path)
    for precision in (40.0, 50.0, True):
        with pytest.raises(ValueError, match=f"^precision must be an integer, got {precision!r}$"):
            find_cached(tmp_path, 11, 2, precision)


@pytest.mark.parametrize(
    "corrupt, message",
    [
        (lambda r1, r2: ([2 * c for c in r1], r2), "row 1 is not primitive"),
        (lambda r1, r2: ([-c for c in r1], r2), "row 1 has a negative lead"),
        (lambda r1, r2: (r2, r1), "not strictly increasing"),
        (lambda r1, r2: ([a + b for a, b in zip(r1, r2)], r2), "row 1 is non-zero in another row's pivot"),
    ],
    ids=["doubled", "negated", "swapped", "combined"],
)
def test_cache_rejects_rows_that_are_not_the_echelon_basis(tmp_path, capsys, corrupt, message):
    """A well-formed file whose rows are not the integral echelon basis is
    corrupt: the rows are checked for its shape, and the CLI exits 3."""
    path = write_basis(qexpansion_basis(1, 24, 20), tmp_path)
    header, *rows = path.read_text().splitlines()
    r1, r2 = corrupt(*([int(x) for x in row.split()] for row in rows))
    path.write_text("\n".join([header, " ".join(map(str, r1)), " ".join(map(str, r2))]) + "\n")
    with pytest.raises(EngineError, match=message):
        read_basis(path)
    code, out, err = run_cli(capsys, "basis", "1", "24", "--prec", "20", "--cache", str(tmp_path))
    assert code == 3 and out == ""
    assert message in err


def _token(path):
    header, row = path.read_text().splitlines()
    path.write_text(f"{header}\n1x {row}\n")


def _byte(path):
    path.write_bytes(path.read_bytes() + b"\xff\n")


def _meta(path):
    path.with_name(path.name + ".meta.json").write_text('{"pivots": [1,')


def _meta_list(path):
    path.with_name(path.name + ".meta.json").write_text("[1]\n")


@pytest.mark.parametrize(
    "corrupt, code, message",
    [
        (_token, 3, "invalid literal for int()"),
        (_byte, 3, "can't decode byte 0xff"),
        (_meta, 3, "Expecting value"),
        (_meta_list, 3, "is not a JSON object"),
        (None, 2, "File exists"),
    ],
    ids=["non-integer-token", "non-utf8-byte", "malformed-meta", "meta-not-an-object", "cache-is-a-file"],
)
def test_cache_failures_exit_with_their_code(tmp_path, capsys, corrupt, code, message):
    """A cache file that does not parse is corrupt (exit 3, an engine
    error); a cache path that is a regular file cannot be used (exit 2).
    Neither ends in a traceback."""
    cache_dir = tmp_path / "cache"
    if corrupt is None:
        cache_dir.write_text("not a directory\n")
    else:
        corrupt(write_basis(qexpansion_basis(1, 12, 20), cache_dir))
    code_got, out, err = run_cli(capsys, "basis", "1", "12", "--prec", "20", "--cache", str(cache_dir))
    assert code_got == code and out == ""
    assert err.startswith("engine error: " if code == 3 else "error: ")
    assert message in err


def test_basis_rejects_precision_zero(capsys):
    code, out, err = run_cli(capsys, "basis", "11", "2", "--prec", "0")
    assert code == 2 and out == ""
    assert "below the Sturm bound" in err


def test_basis_command_with_cache(tmp_path, capsys):
    code, out, _ = run_cli(capsys, "basis", "1", "12", "--prec", "20", "--cache", str(tmp_path))
    assert code == 0
    assert out.splitlines()[0] == "MFBASIS v1 1 12 20 1"
    assert (tmp_path / "basis_N1_k12_B20.mfb").exists()
    code2, out2, _ = run_cli(capsys, "basis", "1", "12", "--prec", "20", "--cache", str(tmp_path))
    assert code2 == 0 and out2 == out


def test_basis_prints_the_text_it_caches(tmp_path, capsys, monkeypatch):
    """`cuspgaps basis` prints the bytes of the file it caches, and the
    printed header follows the cache's format version."""
    code, out, _ = run_cli(capsys, "basis", "19", "16", "--prec", "40", "--cache", str(tmp_path))
    assert code == 0
    assert out.encode() == (tmp_path / cache_filename(19, 16, 40)).read_bytes()
    monkeypatch.setattr(cache_mod, "FORMAT_VERSION", "v9")
    code, out, _ = run_cli(capsys, "basis", "1", "12", "--prec", "20")
    assert code == 0 and out.startswith("MFBASIS v9 1 12 20 1\n")


@pytest.mark.parametrize("level,weight,digest", [
    pytest.param(46, 12, "df511ffed53d3607364d00bf1aa28bd75759fa9f6daecac6af473e0d42f8843a", id="46-12"),
    pytest.param(29, 28, "4838e34a99bf2a89c3b529077d7e7f5b931d69cf4097ceaa2c061f9f50bb7506", id="29-28",
                 marks=pytest.mark.slow),
    pytest.param(37, 2, "dbf3af0cba7f3ae8e3ffa046dbc6c00bb0435d921cf6a4a344173e0300946e82", id="37-2"),
    pytest.param(14, 4, "3cc47266067474356c8eb39d76a0bb849fd7fd3034b0e10f921d74b2959cc17b", id="14-4"),
])
def test_heavy_basis_output_is_pinned(capsys, level, weight, digest):
    """`cuspgaps basis` at the Sturm bound of two heavy spaces, byte for
    byte as the coset-by-coset series pass printed them: (46, 12), the
    widest basis of the gap tables (d = 64), and (29, 28).  Also (37, 2)
    and (14, 4): weights 2 and 4 have no Merel symbols, so every series
    there comes from a cuspidal kernel vector, coset by coset."""
    code, out, _ = run_cli(capsys, "basis", str(level), str(weight))
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_mfcache_env_overrides_flag(tmp_path, capsys):
    flagged = tmp_path / "flag"
    forced = tmp_path / "env"
    code, _, _ = run_cli(
        capsys, "basis", "1", "12", "--prec", "20", "--cache", str(flagged), env={"MFCACHE": str(forced)}
    )
    assert code == 0
    assert forced.is_dir() and not flagged.exists()


def test_verify_commands(capsys):
    code, out, _ = run_cli(capsys, "verify", "cor-analogue", "2", "6", "7")
    assert code == 0
    assert json.loads(out.strip().splitlines()[0])["pass"]
    code, _, err = run_cli(capsys, "verify", "cor-analogue", "1", "12", "5")
    assert code == 2  # dim S_12(1) != 0
    code, _, _ = run_cli(capsys, "verify", "ogg", "2", "11")
    assert code == 0
    code, _, _ = run_cli(capsys, "verify", "ogg", "11", "7")
    assert code == 2


@pytest.mark.slow
def test_verify_examples_output_is_pinned(capsys):
    """`cuspgaps verify examples`, the one way to reproduce the three
    reference examples, byte for byte: its three report lines, exit 0, and
    the note on the weight-28 example's stated lower dimension."""
    code, out, err = run_cli(capsys, "verify", "examples")
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "674a9bd0b0476fbcc111829a3039c9bc178dad0a24241f56949a59caac910d0d"
    )
    assert err.startswith("note: stated_lower_dimension_matches_formula: ")


def test_verify_theorem_small(capsys):
    code, out, _ = run_cli(capsys, "verify", "theorem", "1", "12", "5")
    assert code == 0
    report = json.loads(out.strip().splitlines()[0])
    assert report["pass"] and report["dims"]["S"] == 4
