"""CLI tests: every subcommand, both output formats, the documented exit
codes, and cache round-trips. Every invocation runs in-process except
the one test of the ``python -m hilb2gw`` entry point."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from hilb2gw import (
    Engine,
    QSeries,
    UnderdeterminedStage,
    cli,
    hilb_datum,
    invert_counts,
)
from hilb2gw.quantum import ProductCheck, ProductReport, RelationReport


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ----------------------------------------------------------------------
# invariant
# ----------------------------------------------------------------------


def test_invariant_examples(capsys):
    code, out, _ = run(capsys, "invariant", "--class", "1,4", "--insertions", "4x13")
    assert code == 0 and out.strip() == "27"
    code, out, _ = run(capsys, "invariant", "--class", "3,1", "--insertions", "3,8")
    assert code == 0 and out.strip() == "0"
    code, out, _ = run(capsys, "invariant", "--class", "1,1", "--insertions", "6,7")
    assert code == 0 and out.strip() == "2"


def test_invariant_prints_values_past_the_int_conversion_limit(capsys):
    """2^15000 has 4,516 digits, past CPython's default cap of 4,300 on
    int-to-str conversion; the value still prints in full."""
    code, out, _ = run(
        capsys, "invariant", "--class", "2,1", "--insertions", "3,8,1x15000"
    )
    value = 2**15000
    digits = []
    while value:
        value, r = divmod(value, 10**1000)
        digits.append(r)
    want = str(digits[-1]) + "".join(str(r).zfill(1000) for r in digits[-2::-1])
    assert code == 0 and len(want) == 4516 and out.strip() == want


def test_invariant_accepts_multiplication_sign(capsys):
    code, out, _ = run(capsys, "invariant", "--class", "1,2", "--insertions", "4×7")
    assert code == 0 and out.strip() == "0"


def test_invariant_fractional_value(capsys):
    code, out, _ = run(capsys, "invariant", "--class", "3,0", "--insertions", "3")
    assert code == 0 and out.strip() == "1/3"


def test_invariant_json_schema(capsys):
    code, out, _ = run(
        capsys, "invariant", "--class", "1,1", "--insertions", "3,8", "--json"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["schema"] == "hilb2gw/1"
    assert payload["value"] == "1"
    assert payload["class"] == [1, 1]


def test_invariant_usage_errors(capsys):
    code, _, err = run(capsys, "invariant", "--class", "0,0", "--insertions", "3")
    assert code == 2 and "class" in err
    code, _, err = run(capsys, "invariant", "--class", "1,1", "--insertions", "9")
    assert code == 2 and "range" in err
    code, _, err = run(capsys, "invariant", "--class", "1,1", "--insertions", "3,-1")
    assert code == 2 and "range" in err
    code, _, err = run(capsys, "invariant", "--class", "1,1", "--insertions", "x3")
    assert code == 2
    code, _, err = run(capsys, "invariant", "--class", "1", "--insertions", "3")
    assert code == 2


def test_unmapped_engine_error_is_an_internal_error(capsys, monkeypatch):
    """An EngineError that no other exit code claims (here the solver's
    UnderdeterminedStage) exits 1 with one ``internal error:`` line on
    stderr, not a traceback."""

    def fail(self, cls, insertions):
        raise UnderdeterminedStage("stage (1, 1) left unsolved")

    monkeypatch.setattr(Engine, "invariant", fail)
    code, out, err = run(capsys, "invariant", "--class", "1,1", "--insertions", "3,8")
    assert code == 1 and out == ""
    assert err == "internal error: stage (1, 1) left unsolved\n"


@pytest.mark.parametrize(
    "cls, insertions",
    [("a,4", "4"), ("1,1", "4,,8"), ("1,1", "4x-1"), ("1,1", "abc")],
)
def test_invariant_malformed_arguments_are_usage_errors(capsys, cls, insertions):
    code, out, err = run(
        capsys, "invariant", "--class", cls, "--insertions", insertions
    )
    assert code == 2 and out == "" and err.startswith("error:")


def test_invariant_bounds_the_insertion_total(capsys):
    """The total is checked before any repeat is expanded, so a huge repeat
    count is a usage error, not a list of that many elements."""
    for spec in ("4x1000000000000000000", "4x100001", "4x60000,8x40001"):
        code, out, err = run(capsys, "invariant", "--class", "1,1", "--insertions", spec)
        assert code == 2 and not out and "at most 100000" in err, spec
    code, out, _ = run(
        capsys, "invariant", "--class", "1,1", "--insertions", "1x99998,3,8"
    )
    assert code == 0 and out.strip() == "1"


# ----------------------------------------------------------------------
# hyperelliptic
# ----------------------------------------------------------------------


def test_hyperelliptic_table(capsys):
    code, out, _ = run(capsys, "hyperelliptic", "--degree", "4")
    assert code == 0
    assert "g=2" in out and "E=27" in out


def test_hyperelliptic_csv(capsys):
    code, out, _ = run(capsys, "hyperelliptic", "--degree", "2", "--pairs", "2", "--csv")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "g,invariant,count"
    assert lines[1] == "0,1,1"  # I = 1, E^2(2,0) = 1


def test_hyperelliptic_json(capsys):
    code, out, _ = run(capsys, "hyperelliptic", "--degree", "3", "--pairs", "1", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["rows"][1]["count"] == "1"  # E^1(3,1) = 1
    assert payload["degree"] == 3 and payload["pairs"] == 1


def test_hyperelliptic_csv_and_json_are_exclusive(capsys):
    """``--csv`` with ``--json`` is a usage error, not JSON with the CSV
    request dropped."""
    with pytest.raises(SystemExit) as exc:
        cli.main(["hyperelliptic", "--degree", "3", "--csv", "--json"])
    assert exc.value.code == 2
    out, err = capsys.readouterr()
    assert out == "" and "not allowed with argument --csv" in err


def test_hyperelliptic_range_errors(capsys):
    code, _, _ = run(capsys, "hyperelliptic", "--degree", "1")
    assert code == 2
    code, _, _ = run(capsys, "hyperelliptic", "--degree", "3", "--pairs", "4")
    assert code == 2


def test_hyperelliptic_rejects_three_or_more_pairs(capsys):
    """No fixture or oracle covers l >= 3, so the CLI refuses it up front."""
    code, out, err = run(capsys, "hyperelliptic", "--degree", "5", "--pairs", "3")
    assert code == 2 and out == ""
    assert "--pairs must lie in 0..min(2, degree)" in err


def test_hyperelliptic_poisoned_cache_is_sanity_failure(capsys, tmp_path):
    path = tmp_path / "poison.json"
    path.write_text(
        json.dumps(
            {
                "target": "hilb2p2",
                "entries": [
                    {
                        "a": 1,
                        "b": 2,
                        "ins": [4, 4, 4, 4, 4, 4, 4],
                        "num": "1",
                        "den": "3",
                    }
                ],
            }
        )
    )
    code, _, err = run(
        capsys, "hyperelliptic", "--degree", "2", "--cache", str(path)
    )
    assert code == 3
    assert "sanity" in err


# ----------------------------------------------------------------------
# tables
# ----------------------------------------------------------------------


def test_tables_small_degree(capsys):
    code, out, _ = run(capsys, "tables", "--max-degree", "2")
    assert code == 0
    assert out.count("PASS") == 6
    assert "all tables match" in out


def test_tables_rejects_bad_degree(capsys):
    code, _, _ = run(capsys, "tables", "--max-degree", "8")
    assert code == 2
    code, _, _ = run(capsys, "tables", "--max-degree", "1")
    assert code == 2


def test_tables_tamper_detection(capsys, monkeypatch):
    monkeypatch.setitem(cli.COUNT_TABLES[0], (2, 0), 12345)
    code, out, err = run(capsys, "tables", "--max-degree", "2", "--json")
    assert code == 4
    payload = json.loads(out)
    cell = payload["mismatch"]
    assert (cell["table"], cell["pairs"], cell["d"], cell["g"]) == ("count", 0, 2, 0)
    assert cell["expected"] == "12345" and cell["computed"] == "0"


@pytest.mark.parametrize(
    "value, code_want, out_want, err_want",
    [
        (
            "0",
            4,
            "invariant table (pairs=0): FAIL (1 cells)\n",
            "MISMATCH invariant table pairs=0 d=2 g=0: computed 6 expected 0\n",
        ),
        (
            "2",
            3,
            "",
            "count sanity failure: E^0(2,0) = -6 is negative\n",
        ),
    ],
    ids=["0", "2"],
)
def test_tables_text_mismatch_from_a_poisoned_cache(
    capsys, tmp_path, value, code_want, out_want, err_want
):
    """I_(1,1)(T4,T4,T6) is 1.  No base case pins it, only the WDVV solve,
    so a cache giving it another value loads and the tables catch the lie.
    The wrong value reaches the d = 2 cells through split terms of the lead
    equations below it, so what the tables read depends on which lead
    frames the engine takes: with 0 the l = 0 invariant cell at g = 0 reads
    6 where the fixture says 0 (exit 4); with 2 the inverted count
    E^0(2,0) turns negative before any cell is compared (exit 3)."""
    path = tmp_path / "poison.json"
    entry = {"a": 1, "b": 1, "ins": [4, 4, 6], "num": value, "den": "1"}
    path.write_text(json.dumps({"target": "hilb2p2", "entries": [entry]}))
    code, out, err = run(
        capsys, "tables", "--max-degree", "3", "--cache", str(path)
    )
    assert code == code_want
    assert out == out_want
    assert err == err_want


# ----------------------------------------------------------------------
# qcoh
# ----------------------------------------------------------------------


def test_qcoh_passes(capsys):
    code, out, _ = run(capsys, "qcoh", "--n1", "2", "--n2", "1")
    assert code == 0
    assert out.count("PASS") == 10  # nine products + the summary line
    assert "relation 1: residual 0" in out
    assert "relation 2: residual 0" in out


def test_qcoh_json(capsys):
    code, out, _ = run(capsys, "qcoh", "--n1", "2", "--n2", "1", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["status"] == "PASS"
    assert len(payload["products"]) == 9
    assert all(p["status"] == "PASS" for p in payload["products"])
    assert all(r["residual_zero"] for r in payload["relations"])


def test_qcoh_rejects_negative_bounds(capsys):
    code, _, _ = run(capsys, "qcoh", "--n1", "-1")
    assert code == 2


def _failing_qcoh(monkeypatch):
    """Make ``qcoh`` see one wrong product and one nonzero residual."""
    datum = hilb_datum()
    good = QSeries.from_vector(datum, 2, 1, 3)
    bad = good + QSeries(datum, 2, 1, {(2, 0): datum.basis_vector(7)})
    table = ProductReport(
        2,
        1,
        [
            ProductCheck(1, 1, False, (2, 0), bad, good),
            ProductCheck(1, 2, True, None, good, good),
        ],
    )
    residual = QSeries(datum, 2, 1, {(1, 1): (0,) * 8 + (-2,)})
    relations = RelationReport(2, 1, [QSeries(datum, 2, 1), residual])
    monkeypatch.setattr(cli, "verify_product_table", lambda *a: table)
    monkeypatch.setattr(cli, "verify_relations", lambda *a: relations)


def test_qcoh_failure_text(capsys, monkeypatch):
    _failing_qcoh(monkeypatch)
    code, out, _ = run(capsys, "qcoh", "--n1", "2", "--n2", "1")
    assert code == 4
    lines = out.splitlines()
    assert lines[:4] == [
        "T1*T1: FAIL (first mismatch at q1^2q2^0)",
        "T1*T2: PASS",
        "relation 1: residual 0",
        "relation 2: residual QSeries(q1^1q2^1*(-2*T8))",
    ]
    assert lines[4].startswith("FAIL (") and len(lines) == 5


def test_qcoh_failure_json(capsys, monkeypatch):
    _failing_qcoh(monkeypatch)
    code, out, _ = run(capsys, "qcoh", "--n1", "2", "--n2", "1", "--json")
    assert code == 4
    payload = json.loads(out)
    assert payload["status"] == "FAIL"
    products = [
        (p["name"], p["status"], p["first_mismatch"]) for p in payload["products"]
    ]
    assert products == [("T1*T1", "FAIL", [2, 0]), ("T1*T2", "PASS", None)]
    assert [r["residual_zero"] for r in payload["relations"]] == [True, False]


# ----------------------------------------------------------------------
# oracle
# ----------------------------------------------------------------------


def test_oracle_value(capsys):
    code, out, _ = run(capsys, "oracle", "--nd", "6")
    assert code == 0 and out.strip() == "26312976"


def test_oracle_engine_check(capsys):
    code, out, _ = run(capsys, "oracle", "--nd", "3", "--check-engine", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["value"] == "12" and payload["engine_agrees"] is True


def test_oracle_engine_disagreement_exits_4(capsys, monkeypatch):
    """When the engine's N_d differs from the closed recursion, ``oracle
    --check-engine`` reports it and exits 4, in both output formats."""
    monkeypatch.setattr(cli, "engine_nd", lambda d: 13)
    code, out, _ = run(capsys, "oracle", "--nd", "3", "--check-engine", "--json")
    payload = json.loads(out)
    assert code == 4
    assert payload["value"] == "12" and payload["engine_agrees"] is False
    code, out, _ = run(capsys, "oracle", "--nd", "3", "--check-engine")
    assert code == 4 and out.split("\n")[:2] == ["12", "engine agrees: False"]


def test_oracle_rejects_nonpositive(capsys):
    code, _, _ = run(capsys, "oracle", "--nd", "0")
    assert code == 2


def _module_env(**extra):
    """The environment for ``python -m hilb2gw`` run from this checkout."""
    src = str(Path(__file__).resolve().parent.parent / "src")
    path = os.environ.get("PYTHONPATH")
    return dict(
        os.environ, PYTHONPATH=src + (os.pathsep + path if path else ""), **extra
    )


def test_module_entry_point_runs_the_cli():
    """``python -m hilb2gw`` runs the same CLI in a fresh interpreter."""
    proc = subprocess.run(
        [sys.executable, "-m", "hilb2gw", "oracle", "--nd", "3"],
        capture_output=True, text=True, env=_module_env(), timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "12\n"


@pytest.mark.parametrize("unbuffered", ["", "1"], ids=["buffered", "unbuffered"])
def test_closed_stdout_ends_silently_with_141(unbuffered):
    """A pipe whose read end is closed before the CLI writes ends the run
    with 141 (128 + SIGPIPE), an empty stderr and no "Exception ignored"
    at interpreter exit.  Buffered, the write fails at ``main``'s flush;
    unbuffered, inside the command."""
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "hilb2gw", "oracle", "--nd", "3", "--json"],
            stdout=write_end, stderr=subprocess.PIPE, timeout=120,
            env=_module_env(PYTHONUNBUFFERED=unbuffered),
        )
    finally:
        os.close(write_end)
    assert (proc.returncode, proc.stderr) == (141, b"")


def test_unwritable_cache_path_stays_a_usage_error(capsys, tmp_path):
    """Only a closed stdout exits 141; any other OSError is exit 2."""
    path = str(tmp_path / "absent" / "out.json")
    code, out, err = run(capsys, "cache", "export", path, "--degree", "2")
    assert code == 2 and out == "" and err.startswith("error:") and "absent" in err


_INTEGER_SLOTS = {
    "class": lambda v: ["invariant", "--class", f"1,{v}", "--insertions", "3,8"],
    "index": lambda v: ["invariant", "--class", "1,1", "--insertions", f"3,{v}"],
    "repeat": lambda v: ["invariant", "--class", "1,1", "--insertions", f"8x{v}"],
    "degree": lambda v: ["hyperelliptic", "--degree", v],
    "pairs": lambda v: ["hyperelliptic", "--degree", "4", "--pairs", v],
    "max-degree": lambda v: ["tables", "--max-degree", v],
    "n1": lambda v: ["qcoh", "--n1", v],
    "n2": lambda v: ["qcoh", "--n2", v],
    "nd": lambda v: ["oracle", "--nd", v],
    "cache-degree": lambda v: ["cache", "export", "unused.json", "--degree", v],
}


@pytest.mark.parametrize("slot", sorted(_INTEGER_SLOTS))
@pytest.mark.parametrize(
    "text",
    ["\uff13", "\u0664", " 4", "+4", "4_0"],
    ids=["fullwidth-3", "arabic-indic-4", "space-4", "plus-4", "4-underscore-0"],
)
def test_integers_are_ascii_digits_only(capsys, slot, text):
    """``int`` takes each of these; every integer the CLI reads is ASCII
    ``-?[0-9]+`` (``rationals.ascii_int``), so each is a usage error."""
    try:
        code = cli.main(_INTEGER_SLOTS[slot](text))
    except SystemExit as exc:  # argparse rejects an option's value
        code = exc.code
    out, err = capsys.readouterr()
    assert code == 2 and out == "" and "ASCII decimal integer" in err


def test_import_loads_no_heavy_stdlib_modules():
    """``import hilb2gw`` in a bare interpreter loads none of dataclasses,
    inspect, typing, ast, dis or tokenize: every CLI call and bench
    repetition pays its import."""
    src = str(Path(__file__).resolve().parent.parent / "src")
    heavy = ("dataclasses", "inspect", "typing", "ast", "dis", "tokenize")
    code = (
        f"import sys; sys.path.insert(0, {src!r}); import hilb2gw; "
        f"print(' '.join(m for m in {heavy!r} if m in sys.modules))"
    )
    proc = subprocess.run(
        [sys.executable, "-I", "-S", "-c", code],
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == []


# ----------------------------------------------------------------------
# cache
# ----------------------------------------------------------------------


@pytest.mark.parametrize("degree", [2, 6])
def test_cache_export_import_roundtrip(capsys, tmp_path, degree):
    """Export, import and re-export give the same bytes; at d <= 6, the
    size the benchmark's cache round trip loads, the file has 609 entries."""
    first = tmp_path / "first.json"
    second = tmp_path / "second.json"
    code, out, _ = run(
        capsys, "cache", "export", str(first), "--degree", str(degree)
    )
    assert code == 0 and first.exists()
    entries = json.loads(first.read_text())["entries"]
    assert len(entries) == {2: 43, 6: 609}[degree]
    code, out, _ = run(capsys, "cache", "import", str(first), "--out", str(second))
    assert code == 0
    assert first.read_bytes() == second.read_bytes()


def test_cache_import_reexports_a_legacy_file_without_killed_keys(capsys, tmp_path):
    """A file that holds the keys the projection to the base plane kills as
    0, as exports once did, still imports, and ``--out`` writes it as a new
    export, without those keys."""
    new = tmp_path / "new.json"
    code, _, _ = run(capsys, "cache", "export", str(new), "--degree", "2")
    assert code == 0
    engine = Engine()
    for l in (0, 1, 2):
        invert_counts(engine, 2, l)
    killed = [k for k, v in engine.memo.items() if engine.datum.vanishes(*k)]
    assert killed and all(engine.memo.get(k) == 0 for k in killed)
    legacy = tmp_path / "legacy.json"
    legacy.write_text(
        json.dumps(
            {
                "target": "hilb2p2",
                "entries": [
                    {"a": a, "b": b, "ins": list(ins), "num": str(v.numerator),
                     "den": str(v.denominator)}
                    for ((a, b), ins), v in engine.memo.items()
                ],
            }
        )
    )
    again = tmp_path / "again.json"
    code, out, _ = run(capsys, "cache", "import", str(legacy), "--out", str(again))
    assert code == 0 and f"loaded {len(engine.memo)} entries" in out
    assert again.read_bytes() == new.read_bytes()
    assert len(json.loads(new.read_text())["entries"]) == len(engine.memo) - len(killed)


@pytest.mark.parametrize("degree", ["1", "0", "-4"])
def test_cache_export_rejects_degree_below_two(capsys, tmp_path, degree):
    path = tmp_path / "none.json"
    code, out, err = run(capsys, "cache", "export", str(path), "--degree", degree)
    assert code == 2 and err.startswith("error:") and "--degree" in err
    assert out == "" and not path.exists()


def test_cache_import_schema_violation(capsys, tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('{"target": "hilb2p2"}')
    code, _, err = run(capsys, "cache", "import", str(path))
    assert code == 2 and "cache" in err


def test_cache_import_rejects_unknown_schema_tag(capsys, tmp_path):
    path = tmp_path / "future.json"
    path.write_text('{"schema": "hilb2gw-cache/2", "target": "hilb2p2", "entries": []}')
    code, _, err = run(capsys, "cache", "import", str(path))
    assert code == 2 and "cache format error" in err and "schema" in err


@pytest.mark.parametrize(
    "argv",
    [
        ["invariant", "--class", "1,1", "--insertions", "6,7"],
        ["hyperelliptic", "--degree", "3"],
        ["tables", "--max-degree", "2"],
        ["qcoh"],
        ["oracle", "--nd", "3"],
        ["cache", "export", "out.json"],
    ],
    ids=lambda argv: "-".join(argv[:2] if argv[0] == "cache" else argv[:1]),
)
def test_threads_option_is_an_unknown_option(capsys, argv):
    """The engine is single-threaded and takes no thread count, so
    ``--threads`` is a usage error like any unknown option."""
    with pytest.raises(SystemExit) as exc:
        cli.main(argv + ["--threads", "4"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --threads" in capsys.readouterr().err


def test_cache_import_rejects_oversized_numbers(capsys, tmp_path):
    """Parsing keeps CPython's cap on int conversion: a 5,000-digit
    numerator is a malformed entry."""
    path = tmp_path / "huge.json"
    entry = {"a": 1, "b": 1, "ins": [3, 8], "num": "1" * 5000, "den": "1"}
    path.write_text(json.dumps({"target": "hilb2p2", "entries": [entry]}))
    code, _, err = run(capsys, "cache", "import", str(path))
    assert code == 2 and "cache format error" in err


@pytest.mark.parametrize(
    "num, den",
    [("\uff11", "1"), (" 1", "1"), ("+1", "1"), ("-1", "-1"), ("1_0", "1")],
)
def test_cache_import_rejects_values_that_are_not_decimal_strings(
    capsys, tmp_path, num, den
):
    """``int`` would read each of these as a number; as a cache value it is
    a malformed entry, exit 2, and nothing is re-exported."""
    path = tmp_path / "odd.json"
    out = tmp_path / "out.json"
    entry = {"a": 1, "b": 1, "ins": [3, 8], "num": num, "den": den}
    path.write_text(json.dumps({"target": "hilb2p2", "entries": [entry]}))
    code, _, err = run(capsys, "cache", "import", str(path), "--out", str(out))
    assert code == 2 and "cache format error" in err and not out.exists()


def test_cache_import_rejects_a_number_as_value(capsys, tmp_path):
    """``Infinity`` is valid input to ``json.load``; as a numerator it is
    a malformed entry, not a traceback."""
    path = tmp_path / "inf.json"
    entry = {"a": 1, "b": 1, "ins": [3, 8], "num": float("inf"), "den": "1"}
    path.write_text(json.dumps({"target": "hilb2p2", "entries": [entry]}))
    code, _, err = run(capsys, "cache", "import", str(path))
    assert code == 2 and "cache format error" in err


@pytest.mark.parametrize("text", ["[1,2]", "42", "null"])
def test_cache_import_rejects_non_object(capsys, tmp_path, text):
    path = tmp_path / "list.json"
    path.write_text(text)
    code, _, err = run(capsys, "cache", "import", str(path))
    assert code == 2 and "cache format error" in err


@pytest.mark.parametrize(
    "raw",
    [b"[" * 200000, b"\xff\xfe{}", b'{"entries": ' + b"9" * 5000 + b"}"],
    ids=["nested-too-deep", "not-utf-8", "huge-int-literal"],
)
def test_cache_import_rejects_unparsable_bytes(capsys, tmp_path, raw):
    path = tmp_path / "unparsable.json"
    path.write_bytes(raw)
    code, _, err = run(capsys, "cache", "import", str(path))
    assert code == 2 and err.startswith("cache format error:")


def test_unreadable_cache_path_is_usage_error(capsys, tmp_path):
    missing = str(tmp_path / "absent.json")
    code, _, err = run(capsys, "cache", "import", missing)
    assert code == 2 and err.startswith("error:") and "absent.json" in err
    code, _, err = run(
        capsys, "invariant", "--class", "1,1", "--insertions", "3,8",
        "--cache", missing,
    )
    assert code == 2 and err.startswith("error:")
    code, _, err = run(capsys, "cache", "import", str(tmp_path))  # a directory
    assert code == 2 and err.startswith("error:")


def test_cache_import_value_contradiction(capsys, tmp_path):
    path = tmp_path / "lie.json"
    path.write_text(
        json.dumps(
            {
                "target": "hilb2p2",
                "entries": [
                    {"a": 1, "b": 1, "ins": [3, 8], "num": "5", "den": "1"}
                ],
            }
        )
    )
    code, _, err = run(capsys, "cache", "import", str(path))
    assert code == 4 and "contradiction" in err


def test_cache_import_rejects_nonzero_value_of_a_killed_key(capsys, tmp_path):
    """I_(0,2)(T3^7) is 0 by the projection to the dual plane."""
    path = tmp_path / "killed.json"
    entry = {"a": 0, "b": 2, "ins": [3] * 7, "num": "1", "den": "1"}
    path.write_text(json.dumps({"target": "hilb2p2", "entries": [entry]}))
    code, _, err = run(capsys, "cache", "import", str(path))
    assert code == 4 and "base plane" in err


def test_cache_json_reports(capsys, tmp_path):
    first = tmp_path / "first.json"
    second = tmp_path / "second.json"
    code, out, _ = run(
        capsys, "cache", "export", str(first), "--degree", "2", "--json"
    )
    payload = json.loads(out)
    assert code == 0 and payload["command"] == "cache-export"
    assert payload["path"] == str(first) and payload["entries"] > 0
    code, out, _ = run(
        capsys, "cache", "import", str(first), "--json", "--out", str(second)
    )
    imported = json.loads(out)
    assert code == 0 and imported["command"] == "cache-import"
    assert imported["entries"] == payload["entries"]
    assert imported["out"] == str(second)
    assert first.read_bytes() == second.read_bytes()


def test_warm_cache_gives_the_same_hyperelliptic_and_qcoh_output(capsys, tmp_path):
    path = tmp_path / "warm.json"
    code, _, _ = run(capsys, "cache", "export", str(path), "--degree", "3")
    assert code == 0
    for argv in (
        ("hyperelliptic", "--degree", "3", "--pairs", "1", "--csv"),
        ("qcoh", "--n1", "2", "--n2", "1", "--json"),
    ):
        code, cold, _ = run(capsys, *argv)
        assert code == 0
        code, warm, _ = run(capsys, *argv, "--cache", str(path))
        assert code == 0
        if argv[0] == "qcoh":
            cold, warm = json.loads(cold), json.loads(warm)
            del cold["seconds"], warm["seconds"]
        assert warm == cold, argv


def test_cache_speeds_up_invariant(capsys, tmp_path):
    path = tmp_path / "warm.json"
    code, _, _ = run(capsys, "cache", "export", str(path), "--degree", "2")
    assert code == 0
    code, out, _ = run(
        capsys,
        "invariant",
        "--class",
        "1,2",
        "--insertions",
        "4x7",
        "--cache",
        str(path),
        "--json",
    )
    assert code == 0
    assert json.loads(out)["value"] == "0"
