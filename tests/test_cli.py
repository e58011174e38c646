"""Command-line interface: output shapes, determinism, exit codes."""

import csv
import io
import json

import pytest

from fusionq.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_ring_su2(capsys):
    code, out, _ = run_cli(
        capsys, "ring", "--family", "A", "--rank", "1", "--level", "2"
    )
    assert code == 0
    obj = json.loads(out)
    assert obj["family"] == "A" and obj["rank"] == 1 and obj["level"] == 2
    assert obj["basis"] == [[2, 0], [1, 1], [0, 2]]
    assert len(obj["products"]) == 9
    # the unit row reproduces the basis
    for entry in obj["products"][:3]:
        assert entry["i"] == 0
        assert entry["terms"] == [{"w": obj["basis"][entry["j"]], "c": 1}]


def test_ring_deterministic(capsys):
    args = ("ring", "--family", "B", "--rank", "2", "--level", "2")
    _, first, _ = run_cli(capsys, *args)
    _, second, _ = run_cli(capsys, *args)
    assert first == second


def test_ring_out_file(tmp_path, capsys):
    target = tmp_path / "ring.json"
    code, out, _ = run_cli(
        capsys, "ring", "--family", "A", "--rank", "2", "--level", "2",
        "--out", str(target),
    )
    assert code == 0
    assert out == ""
    obj = json.loads(target.read_text())
    assert len(obj["basis"]) == 6


def test_verify_passes(capsys):
    code, out, _ = run_cli(
        capsys, "verify", "--family", "A", "--rank", "2", "--level", "2"
    )
    assert code == 0
    reports = json.loads(out)
    assert [r["check"] for r in reports] == [
        "conjecture", "boundary", "restricted", "kns"
    ]
    for r in reports:
        assert r["counterexamples"] == []


def test_verify_horizon(capsys):
    code, out, _ = run_cli(
        capsys, "verify", "--family", "A", "--rank", "1", "--level", "2",
        "--horizon", "4",
    )
    assert code == 0
    reports = json.loads(out)
    assert all(r["counterexamples"] == [] for r in reports)


def test_verify_exceptional_unsupported(capsys):
    code, out, _ = run_cli(
        capsys, "verify", "--family", "G", "--rank", "2", "--level", "2"
    )
    assert code == 0
    reports = json.loads(out)
    by_check = {r["check"]: r for r in reports}
    grid_items = by_check["conjecture"]["items"]
    assert any(i["status"] == "unsupported" for i in grid_items)
    assert by_check["restricted"]["items"][0]["status"] == "unsupported"
    assert by_check["kns"]["items"][0]["status"] == "unsupported"
    # boundary structure exists for every family
    assert all(
        i["status"] == "pass" for i in by_check["boundary"]["items"]
    )


def test_verify_deterministic(capsys):
    args = ("verify", "--family", "C", "--rank", "2", "--level", "2")
    code1, first, _ = run_cli(capsys, *args)
    code2, second, _ = run_cli(capsys, *args)
    assert code1 == code2 == 0
    assert first == second


def test_smatrix_csv(capsys):
    code, out, err = run_cli(
        capsys, "smatrix", "--family", "A", "--rank", "1", "--level", "2",
        "--format", "csv",
    )
    assert code == 0
    assert "unitarity residual" in err
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0] == ["0", "1", "2"]
    assert len(rows) == 4
    for row in rows[1:]:
        assert len(row) == 3
        for cell in row:
            re_s, im_s = cell.split(",")
            float(re_s), float(im_s)


def test_smatrix_json(capsys):
    code, out, _ = run_cli(
        capsys, "smatrix", "--family", "A", "--rank", "2", "--level", "2",
        "--format", "json",
    )
    assert code == 0
    obj = json.loads(out)
    assert len(obj["matrix"]) == 6
    assert float(obj["unitarity_residual"]) < 1e-9
    # S_00 is real positive
    re, im = (float(x) for x in obj["matrix"][0][0])
    assert re > 0 and abs(im) < 1e-12


def test_smatrix_out_csv_has_unix_endings(tmp_path, capsys):
    target = tmp_path / "s.csv"
    code, _, _ = run_cli(
        capsys, "smatrix", "--family", "A", "--rank", "1", "--level", "2",
        "--format", "csv", "--out", str(target),
    )
    assert code == 0
    data = target.read_bytes()
    assert b"\r" not in data
    assert data.endswith(b"\n")


@pytest.mark.parametrize(
    "argv",
    [
        ("ring", "--family", "A", "--rank", "0", "--level", "2"),
        ("ring", "--family", "B", "--rank", "1", "--level", "2"),
        ("ring", "--family", "A", "--rank", "2", "--level", "1"),
        ("ring", "--family", "E", "--rank", "9", "--level", "2"),
        ("verify", "--family", "A", "--rank", "2", "--level", "0"),
        ("smatrix", "--family", "D", "--rank", "7", "--level", "2"),
    ],
)
def test_usage_errors(argv, capsys):
    code = main(list(argv))
    capsys.readouterr()
    assert code == 2


@pytest.mark.parametrize(
    "argv",
    [
        ("verify", "--family", "A", "--rank", "1", "--level", "2",
         "--horizon", "frog"),
        ("ring", "--family", "Z", "--rank", "2", "--level", "2"),
        # Each subcommand rejects the flags it does not read.
        ("ring", "--family", "A", "--rank", "2", "--level", "2", "--tol", "1e-3"),
        ("ring", "--family", "A", "--rank", "2", "--level", "2", "--horizon", "3"),
        ("verify", "--family", "A", "--rank", "2", "--level", "2", "--threads", "2"),
        ("verify", "--family", "A", "--rank", "2", "--level", "2", "--format", "csv"),
        ("smatrix", "--family", "A", "--rank", "2", "--level", "2", "--horizon", "3"),
    ],
    ids=[
        "bad-horizon", "bad-family", "ring-tol", "ring-horizon",
        "verify-threads", "verify-format", "smatrix-horizon",
    ],
)
def test_argument_errors_exit_2(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    capsys.readouterr()
    assert exc.value.code == 2


def test_cache_dir_round_trip(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("FUSIONQ_CACHE_DIR", str(tmp_path))
    args = ("ring", "--family", "A", "--rank", "1", "--level", "3")
    code, first, _ = run_cli(capsys, *args)
    assert code == 0
    cached = list(tmp_path.iterdir())
    assert cached, "ring should persist its product cache"
    json.loads(cached[0].read_text())
    code, second, _ = run_cli(capsys, *args)
    assert code == 0
    assert first == second
