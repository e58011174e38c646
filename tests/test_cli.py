"""Command-line interface: output shapes, determinism, exit codes."""

import csv
import hashlib
import io
import json
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import fusionq
from fusionq import FusionContext, SMatrix, build_root_system
from fusionq import cli, fusion
from fusionq.cli import main
from fusionq.fusion import basis_product_rows


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


def test_verify_failure_exit_code(capsys):
    """A failing item makes verify exit 1, and its counterexamples are
    exactly its failed items."""
    code, out, _ = run_cli(
        capsys, "verify", "--family", "A", "--rank", "2", "--level", "3",
        "--tol", "1e-300",
    )
    assert code == 1
    failed = set()
    for r in json.loads(out):
        fails = [i for i in r["items"] if i["status"] == "fail"]
        assert r["counterexamples"] == fails
        failed.update(i["id"] for i in fails)
    assert "f-matches-x" in failed


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


# SHA-256 of stdout.  verify reports, recorded from the Weyl-sum S-matrix
# code, are pinned for every family.  smatrix JSON is pinned only for A-D,
# recorded from the shared-minor determinants: the 15 significant digits it
# prints show the float noise of the determinant method (most strings that
# moved from the np.linalg.det path were near-zero imaginary parts), so
# test_smatrix.py::test_shared_minors_match_det_path holds these five
# matrices to that path within 1e-14.  A1 k2 has exact zeros, which it
# prints as "0", never "-0".  ring tables are pinned for every family,
# recorded from per-pair products.
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
    ("smatrix", "A", 1, 2):
        "f157bec36f1d23823cd437ebd4c17302d9e0e72228a0fe6962249a9e9aafe5fa",
    ("smatrix", "A", 3, 3):
        "9ff0e711608a75c49116ac0ce6b27428722108fdeb5a4a50ae44523333905713",
    ("smatrix", "B", 3, 2):
        "5969864724d9078b5e830db4f5fb0da745f0630ceae140460db0908f2a7c7f0a",
    ("smatrix", "C", 3, 2):
        "2da20416eaeab1a3b43bd6df4f7254778f84bb050c38d361f8a3cdf9b4f5e756",
    ("smatrix", "D", 4, 2):
        "e7ef59139595a9177ccefcda04262f01e25cb7f665bdb36ec787d0be2df0f3c7",
    ("ring", "A", 2, 3):
        "22e9c818f62d1441f6d49e4d91af8e08780fded4b70240fca6fdfeb8e5ad75c7",
    ("ring", "B", 3, 2):
        "d4d22afbe5ade47b2ef3984b52a15da1deba3128a9112c06f2b3bc10581783e2",
    ("ring", "C", 3, 2):
        "882d10731f0709672e0373f986f506ebcf61e29c0bd2d7ef1af065de2d09b485",
    ("ring", "D", 4, 2):
        "46de44ee60c058eee220c449f193231647e71d26b3c879e5d8e948f17300ef95",
    ("ring", "G", 2, 3):
        "42882d3c2caa80283af83564abbbe2b958b1654bb87744e44f3ef90a21bee41e",
    ("ring", "F", 4, 2):
        "2897844abbb563796e5f48c1eae55ed06b67fd775ec55bc4dd48ac62248a53e8",
    ("ring", "E", 6, 2):
        "8c0a08a47d7caf5abc62db3a415f67e7f5d88864700468c133b643e1dd5d6c9d",
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
        # A negative horizon would check almost nothing and still pass; a
        # NaN bound would pass any residual.
        ("verify", "--family", "A", "--rank", "2", "--level", "3",
         "--horizon", "-1"),
        ("smatrix", "--family", "A", "--rank", "2", "--level", "2", "--tol", "nan"),
        ("smatrix", "--family", "A", "--rank", "2", "--level", "2", "--tol", "inf"),
        ("verify", "--family", "A", "--rank", "2", "--level", "2", "--tol", "-1e-9"),
    ],
    ids=[
        "bad-horizon", "bad-family", "ring-tol", "ring-horizon",
        "verify-threads", "verify-format", "smatrix-horizon",
        "negative-horizon", "nan-tol", "inf-tol", "negative-tol",
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
    assert [path.name for path in cached] == ["fusionq-A1-k3.bin"]
    data = cached[0].read_bytes()
    assert len(data) == 8 * (4 + sum(np.frombuffer(data[:32], dtype="<i8").tolist()))
    code, second, _ = run_cli(capsys, *args)
    assert code == 0
    assert first == second


# SHA-256 of one json.dumps of the dict of the four lists that a cold run
# saves, recorded when save_cache wrote them as that JSON text.
CACHE_DIGESTS = {
    ("ring", "A", 4, 4): "a7deba9198a34e495ecfd9ce4dfdb2452fcabe4064c5ec099673ed6effffd7f8",
    ("verify", "C", 4, 4): "6980587cf79530c7431926cc6ba106ce12557041a3b617cedff1bc4eb6bcaef7",
}
# SHA-256 of the int64 cache file itself.
BIN_DIGESTS = {
    ("ring", "A", 4, 4): "3dd009317d8ba19b5e5616ed6b6bcd976af4bcad42218debe5497b673d712521",
    ("verify", "C", 4, 4): "4ef60644b307569caeaf7c6dcc354cfe6793f988f2d29876c67bbf62f6ecadfe",
}


def cold_cache(key, tmp_path, monkeypatch, capsys):
    """The bytes of the product cache file that a cold run of key writes."""
    command, family, rank, level = key
    monkeypatch.setenv("FUSIONQ_CACHE_DIR", str(tmp_path))
    argv = (command, "--family", family, "--rank", str(rank), "--level", str(level))
    assert run_cli(capsys, *argv)[0] == 0
    (cache,) = tmp_path.iterdir()
    assert cache.name == f"fusionq-{family}{rank}-k{level}.bin"
    return cache.read_bytes()


@pytest.mark.parametrize(
    "key", sorted(CACHE_DIGESTS), ids=lambda key: "{}-{}{}-k{}".format(*key)
)
def test_cache_content_matches_the_json_digests(key, tmp_path, monkeypatch, capsys):
    """The lists a cold run saves are those the JSON layout held: rendered
    as that layout's text, they give its recorded digest."""
    data = cold_cache(key, tmp_path, monkeypatch, capsys)
    counts = np.frombuffer(data[:32], dtype="<i8")
    lists = np.split(np.frombuffer(data[32:], dtype="<i8"), np.cumsum(counts[:3]))
    names = ("pairs", "sizes", "terms", "coeffs")
    text = json.dumps({name: a.tolist() for name, a in zip(names, lists)})
    assert hashlib.sha256(text.encode()).hexdigest() == CACHE_DIGESTS[key]


@pytest.mark.parametrize(
    "key", sorted(BIN_DIGESTS), ids=lambda key: "{}-{}{}-k{}".format(*key)
)
def test_cache_file_digests(key, tmp_path, monkeypatch, capsys):
    """save_cache writes the same bytes from one version to the next."""
    data = cold_cache(key, tmp_path, monkeypatch, capsys)
    assert hashlib.sha256(data).hexdigest() == BIN_DIGESTS[key]


def run_fresh(script, *args, cache):
    """Run a Python script in a fresh process over this source tree, with
    FUSIONQ_CACHE_DIR set to cache; return its stdout."""
    src = str(Path(fusionq.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path, FUSIONQ_CACHE_DIR=str(cache))
    done = subprocess.run(
        [sys.executable, "-c", script, *map(str, args)],
        env=env, check=True, capture_output=True, text=True,
    )
    return done.stdout


# A cold and then a warm ring A3 k3 into the file named by argv[1].
RING_TWICE = (
    "import sys\n"
    "from fusionq.cli import main\n"
    "argv = ['ring', '--family', 'A', '--rank', '3', '--level', '3',\n"
    "        '--out', sys.argv[1]]\n"
    "assert main(argv) == 0 and main(argv) == 0\n"
)


def test_ring_does_not_import_numpy_ma(tmp_path):
    """A cold and then a warm ring run in a fresh process never import
    numpy.ma, which np.unique without indices pulls in (about 16 ms and
    0.6 MB of every run's set-up)."""
    script = RING_TWICE + "print('numpy.ma' in sys.modules)\n"
    cache = tmp_path / "cache"
    out = tmp_path / "ring.json"
    assert run_fresh(script, out, cache=cache) == "False\n"
    assert out.stat().st_size and len(list(cache.iterdir())) == 1


def test_ring_and_setup_do_not_import_qsystem_or_smatrix(tmp_path):
    """Neither a cold and a warm ring run nor the set-up that every command
    starts with (import fusionq and fusionq.cli, then build_root_system and
    a FusionContext over the warm cache) loads fusionq.qsystem,
    fusionq.smatrix or csv."""
    unused = "{'fusionq.qsystem', 'fusionq.smatrix', 'csv'}"
    report = f"print(sorted({unused} & set(sys.modules)))\n"
    cache = tmp_path / "cache"
    out = tmp_path / "ring.json"
    assert run_fresh(RING_TWICE + report, out, cache=cache) == "[]\n"
    assert out.stat().st_size and len(list(cache.iterdir())) == 1
    setup = (
        "import os, sys\n"
        "import fusionq\n"
        "import fusionq.cli\n"
        "rs = fusionq.build_root_system('A', 3)\n"
        "ctx = fusionq.FusionContext(rs, 3, cache_dir=os.environ['FUSIONQ_CACHE_DIR'])\n"
        "assert len(ctx._table.keys) == 20 * 21 // 2\n"
    )
    assert run_fresh(setup + report, cache=cache) == "[]\n"


@pytest.mark.parametrize("command", ["verify", "smatrix"])
def test_numeric_degradation_exits_3(command, monkeypatch, capsys):
    """An S-matrix whose unitarity residual is above 1e-6 stops verify and
    smatrix with exit code 3 and a message, before any output."""
    monkeypatch.setattr(SMatrix, "unitarity_residual", lambda sm: 1e-3)
    code, out, err = run_cli(capsys, command, "--family", "A", "--rank", "2", "--level", "3")
    assert (code, out) == (3, "")
    assert err.startswith("numeric degradation: S-matrix unitarity residual 1.000e-03")


def test_smatrix_above_tolerance_exits_3(capsys):
    """smatrix writes the matrix, then exits 3 when the residual is above
    --tol."""
    code, out, err = run_cli(
        capsys, "smatrix", "--family", "A", "--rank", "2", "--level", "3", "--tol", "1e-300"
    )
    assert code == 3
    assert len(json.loads(out)["matrix"]) == 10
    assert "unitarity residual" in err


def reference_ring(family, rank, level):
    """The ring report as the dict-list writer built it: one dict per
    product and per term, then one compact json.dumps of the whole object."""
    ctx = FusionContext(build_root_system(family, rank), level)
    n = len(ctx.basis)
    at, starts, terms, coeffs = basis_product_rows(ctx, *divmod(np.arange(n * n), n))
    spans = [slice(starts[p], starts[p + 1]) for p in at.tolist()]
    products = [
        {
            "i": k // n,
            "j": k % n,
            "terms": [
                {"w": list(ctx.basis[w]), "c": c}
                for w, c in zip(terms[r].tolist(), coeffs[r].tolist())
            ],
        }
        for k, r in enumerate(spans)
    ]
    obj = {
        "family": ctx.rs.type.family,
        "rank": ctx.rs.rank,
        "level": ctx.level,
        "basis": [list(w) for w in ctx.basis],
        "products": products,
    }
    return json.dumps(obj, separators=(",", ":")) + "\n"


@pytest.mark.parametrize(
    "key",
    [key for key in sorted(OUTPUT_DIGESTS) if key[0] == "ring"],
    ids=lambda key: "{}-{}{}-k{}".format(*key),
)
def test_ring_matches_reference_writer(key, tmp_path, capsys):
    """The streamed report has the reference writer's bytes, on stdout and
    through --out."""
    _, family, rank, level = key
    expected = reference_ring(family, rank, level)
    argv = ("ring", "--family", family, "--rank", str(rank), "--level", str(level))
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0
    assert out == expected
    target = tmp_path / "ring.json"
    code, out, _ = run_cli(capsys, *argv, "--out", str(target))
    assert code == 0 and out == ""
    assert target.read_bytes() == expected.encode()


def test_ring_builds_no_terms_dicts(tmp_path, monkeypatch, capsys):
    """Cold and warm, ring A3 k3 reads the product table as index arrays:
    both runs give the reference writer's bytes, and the warm run reads the
    cold run's file."""
    expected = reference_ring("A", 3, 3)
    monkeypatch.setenv("FUSIONQ_CACHE_DIR", str(tmp_path))
    argv = ("ring", "--family", "A", "--rank", "3", "--level", "3")
    assert run_cli(capsys, *argv)[:2] == (0, expected)
    (cache,) = tmp_path.iterdir()
    stamp = cache.stat().st_ino, cache.stat().st_mtime_ns
    assert run_cli(capsys, *argv)[:2] == (0, expected)
    assert (cache.stat().st_ino, cache.stat().st_mtime_ns) == stamp


@pytest.mark.parametrize("budget", [1, 50, 100])
def test_ring_writer_in_any_blocks(budget, monkeypatch, capsys):
    """The A2 k3 report, whose rows hold 10 to 25 terms, keeps the reference
    writer's bytes whatever the slice budget: one row per block when no row
    fits, or blocks of two to six rows."""
    monkeypatch.setattr(fusion, "_REDUCE_ROWS", budget)
    argv = ("ring", "--family", "A", "--rank", "2", "--level", "3")
    assert run_cli(capsys, *argv)[:2] == (0, reference_ring("A", 2, 3))


def test_verify_drops_the_generators_before_the_smatrix(monkeypatch, capsys):
    """verify frees the fundamental generators once the restricted solution
    is known: nothing after it reads them, and at A7 k7 they would add
    about 78 MB to the S-matrix peak."""
    from fusionq import smatrix

    build = smatrix.build_smatrix
    live = []

    def recording(ctx):
        live.append(ctx._generators)
        return build(ctx)

    monkeypatch.setattr(smatrix, "build_smatrix", recording)
    code, out, _ = run_cli(capsys, "verify", "--family", "A", "--rank", "3", "--level", "3")
    assert code == 0 and live == [None]
    assert hashlib.sha256(out.encode()).hexdigest() == OUTPUT_DIGESTS["verify", "A", 3, 3]


def test_ring_writer_memory(tmp_path, monkeypatch, capsys):
    """Writing the A4 k4 report (688,497 bytes) allocates less than 0.5 MiB
    beyond what is live once every product is known and the cache is saved.
    The block writer adds about 0.34 MiB, one block of rows at a time.
    Building the text of every unordered pair's product first added about
    0.84 MiB, and building the report as dicts and one json.dumps text
    about 11 MB."""
    save_cache = FusionContext.save_cache
    saved = []

    def save_then_reset(self):
        save_cache(self)
        tracemalloc.reset_peak()
        saved.append(tracemalloc.get_traced_memory()[0])

    monkeypatch.setattr(FusionContext, "save_cache", save_then_reset)
    target = tmp_path / "ring.json"
    tracemalloc.start()
    try:
        code = main(["ring", "--family", "A", "--rank", "4", "--level", "4",
                     "--out", str(target)])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    capsys.readouterr()
    assert code == 0 and len(saved) == 1
    assert target.stat().st_size == 688_497
    assert peak - saved[0] < 1 << 19


def test_smatrix_residual_computed_once(monkeypatch, capsys):
    """smatrix prints the unitarity residual that build_smatrix checked and
    kept on the SMatrix: S S-dagger is formed once per run."""
    residual = SMatrix.unitarity_residual
    calls = []

    def counted(sm):
        calls.append(residual(sm))
        return calls[-1]

    monkeypatch.setattr(SMatrix, "unitarity_residual", counted)
    code, out, err = run_cli(
        capsys, "smatrix", "--family", "A", "--rank", "2", "--level", "3"
    )
    assert code == 0 and len(calls) == 1
    assert f"unitarity residual {calls[0]:.3e}" in err
    assert json.loads(out)["unitarity_residual"] == f"{calls[0]:.6g}"


@pytest.mark.parametrize(
    "report_slice", [cli._REPORT_SLICE, 7], ids=["default-slice", "slice-7"]
)
@pytest.mark.parametrize(
    "argv",
    [
        ("--family", "A", "--rank", "3", "--level", "3"),
        ("--family", "G", "--rank", "2", "--level", "2"),
        ("--family", "A", "--rank", "2", "--level", "3", "--tol", "1e-300"),
    ],
    ids=["longer-than-a-slice", "unsupported-with-notes", "failing"],
)
def test_verify_writer_matches_one_dumps(argv, report_slice, tmp_path, monkeypatch,
                                         capsys):
    """The report written a field and a slice at a time has the bytes of one
    compact json.dumps of every report's to_obj(), on stdout and through
    --out.  A3 k3's conjecture and kns reports have 288 and 293 items, more
    than one slice; G2 k2's restricted and kns reports are unsupported, and
    three reports carry notes; A2 k3 at --tol 1e-300 fails 48 kns items,
    which are its counterexamples.  In slices of 7 the lists end in a part
    slice."""
    monkeypatch.setattr(cli, "_REPORT_SLICE", report_slice)
    write = cli._write_reports
    seen = []

    def kept(fh, reports):
        seen.append(reports)
        write(fh, reports)

    monkeypatch.setattr(cli, "_write_reports", kept)
    code, out, _ = run_cli(capsys, "verify", *argv)
    target = tmp_path / "verify.json"
    assert run_cli(capsys, "verify", *argv, "--out", str(target))[:2] == (code, "")
    first, second = seen
    expected = json.dumps([rep.to_obj() for rep in first], separators=(",", ":")) + "\n"
    assert out == expected
    assert json.dumps([rep.to_obj() for rep in second], separators=(",", ":")) + "\n" == expected
    assert target.read_bytes() == expected.encode()
    if "--tol" in argv:
        assert code == 1 and max(len(rep.counterexamples) for rep in first) == 48
    elif "G" in argv:
        assert code == 0 and sum(bool(rep.notes) for rep in first) == 3
    else:
        assert code == 0 and [len(rep.items) for rep in first] == [288, 6, 27, 293]
