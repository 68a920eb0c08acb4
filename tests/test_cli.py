"""CLI tests: every subcommand, both output formats, the documented exit
codes, and cache round-trips. All invocations run in-process."""

import json

import pytest

from hilb2gw import cli


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


def test_hyperelliptic_range_errors(capsys):
    code, _, _ = run(capsys, "hyperelliptic", "--degree", "1")
    assert code == 2
    code, _, _ = run(capsys, "hyperelliptic", "--degree", "3", "--pairs", "4")
    assert code == 2


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


def test_oracle_rejects_nonpositive(capsys):
    code, _, _ = run(capsys, "oracle", "--nd", "0")
    assert code == 2


# ----------------------------------------------------------------------
# cache
# ----------------------------------------------------------------------


def test_cache_export_import_roundtrip(capsys, tmp_path):
    first = tmp_path / "first.json"
    second = tmp_path / "second.json"
    code, out, _ = run(capsys, "cache", "export", str(first), "--degree", "2")
    assert code == 0 and first.exists()
    code, out, _ = run(capsys, "cache", "import", str(first), "--out", str(second))
    assert code == 0
    assert first.read_bytes() == second.read_bytes()


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


def test_threads_option_is_an_accepted_no_op(capsys):
    for threads in ("1", "4"):
        code, out, _ = run(
            capsys, "invariant", "--class", "1,1", "--insertions", "6,7",
            "--threads", threads,
        )
        assert code == 0 and out.strip() == "2"


@pytest.mark.parametrize("text", ["[1,2]", "42", "null"])
def test_cache_import_rejects_non_object(capsys, tmp_path, text):
    path = tmp_path / "list.json"
    path.write_text(text)
    code, _, err = run(capsys, "cache", "import", str(path))
    assert code == 2 and "cache format error" in err


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
