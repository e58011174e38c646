"""Command-line interface: output shapes, determinism, exit codes."""

import csv
import hashlib
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


def test_verify_kns_above_rank_6(capsys):
    """Classical families have the determinant S-matrix at every rank."""
    code, out, _ = run_cli(
        capsys, "verify", "--family", "A", "--rank", "7", "--level", "2"
    )
    assert code == 0
    kns = {r["check"]: r for r in json.loads(out)}["kns"]
    statuses = {i["status"] for i in kns["items"]}
    assert len(kns["items"]) > 1
    assert "pass" in statuses and statuses <= {"pass", "skipped"}


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


def test_smatrix_e7(capsys):
    """E7 and E8 have an S-matrix, through the cosets of their D6 and D7 Levi."""
    code, out, _ = run_cli(
        capsys, "smatrix", "--family", "E", "--rank", "7", "--level", "2"
    )
    assert code == 0
    assert len(json.loads(out)["matrix"]) == 6


# SHA-256 of stdout, recorded from the Weyl-sum S-matrix code.  verify
# reports are pinned for every family; smatrix JSON only for A-D, whose
# matrices are bit-identical, while E-G entries move in their last digits.
OUTPUT_DIGESTS = {
    ("verify", "A", 3, 3):
        "8e58e41ae75639f0a64744353dd76f590c9d5479d485df0a648aad82edbafc30",
    ("verify", "B", 3, 3):
        "3f905723759788a9abf516bddf4adc732d6587d656710d089ca82d82b372fbbc",
    ("verify", "C", 3, 3):
        "bfac382a55d0d78cdb52f30876d367dfcb58d62af7609eac2d352f79c99d85ac",
    ("verify", "D", 4, 3):
        "ae8f092caf7f2b9ac1f0bd667be2a9c615244a43267f9ecf90a633111ba14288",
    ("verify", "G", 2, 4):
        "e6f49f6e218dc0a858b7a6417ffdc6bc716dc8143269b0b69fa53a17238e3086",
    ("verify", "F", 4, 3):
        "753e7bee17a368e166f1c003143d5c833c1ecca69f2cc9861ae3f25440fd70ca",
    ("verify", "E", 6, 4):
        "f61aca08431133c97eb7c3bdc265d10f4f495f0895644a04bfdcd9bcb3132efc",
    ("smatrix", "A", 3, 3):
        "dc06c89b1f76bf31d097b18f19d21b893c57ffe8bf82266a9e93dba53815d3cf",
    ("smatrix", "B", 3, 2):
        "ecb26d074e437eaa5fc154cce7852fa62bf9fab746284f98d8903d491e98cca0",
    ("smatrix", "C", 3, 2):
        "81ee15eed769a9074b61ef2db8669339a961eb3f46a540cf08e077df61320e9e",
    ("smatrix", "D", 4, 2):
        "71a35bdf3f2dca91db6e74c4a9f1ee69fbf92c2b4ff70cd627c523b829afe51a",
}


@pytest.mark.parametrize(
    "key", sorted(OUTPUT_DIGESTS), ids=lambda key: "{}-{}{}-k{}".format(*key)
)
def test_output_digests(key, capsys):
    command, family, rank, level = key
    code, out, _ = run_cli(
        capsys, command, "--family", family, "--rank", str(rank), "--level", str(level)
    )
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == OUTPUT_DIGESTS[key]


@pytest.mark.parametrize(
    "argv",
    [
        ("ring", "--family", "A", "--rank", "0", "--level", "2"),
        ("ring", "--family", "B", "--rank", "1", "--level", "2"),
        ("ring", "--family", "A", "--rank", "2", "--level", "1"),
        ("ring", "--family", "E", "--rank", "9", "--level", "2"),
        ("verify", "--family", "A", "--rank", "2", "--level", "0"),
        ("smatrix", "--family", "A", "--rank", "2", "--level", "1"),
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
