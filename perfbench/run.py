#!/usr/bin/env python3
"""fusionq benchmark: whole CLI runs in fresh processes, with checked outputs.

    python3 perfbench/run.py --workload verify-C4k4 --seed 1 --seconds 30 --trace 0

Run it from a source checkout (it imports ``src/fusionq``; nothing to build).
Each workload is a closed loop of one client: the benchmark starts one
``fusionq`` process, waits for it to exit, and only then starts the next.  One
unit of a workload is a cold pass (fresh ``FUSIONQ_CACHE_DIR``) followed by
warm passes that read the product cache the cold pass wrote.  Units repeat
until ``--seconds`` would be exceeded (always at least one); then several
set-up-only processes time import + ``build_root_system`` + ``FusionContext``
against the warm cache.

Every process is checked: exit code 0, stdout bytes equal to the SHA-256
recorded from the reference implementation, warm output equal to cold output,
and, for ``ring``, seeded basis triples agree with the Verlinde formula on the
floating-point S-matrix.  A failed check marks the process failed.

With ``--trace 0`` the last stdout line holds the end-to-end metrics; with
``--trace 1`` it holds the per-layer metrics of one traced cold pass and one
traced warm pass (see ``spans.py``), and the tracing overhead against one
untraced cold pass.  Metric names and units come from ``BENCHMARK.json``.
Earlier lines give sample counts, percentiles and the machine.  Files go to
``.bench_out/`` in the checkout.
"""

import argparse
import hashlib
import json
import os
import platform
import random
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import NamedTuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

DEADLINE_S = 170.0  # every process of a run has ended by then
SETUP_SAMPLES = 7
ORACLE_TRIPLES = 400
THREAD_PINS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


class Workload(NamedTuple):
    command: str
    family: str
    rank: int
    level: int
    warm_passes: int
    sha256: str  # stdout of every pass, recorded from the reference implementation

    def argv(self):
        return [self.command, "--family", self.family, "--rank", str(self.rank),
                "--level", str(self.level)]


# Why each workload: see README.md next to this file.  A warm verify pass
# costs nearly as much as a cold one; a warm ring pass takes about a second,
# so ring gets ten to make warm_s a median of many samples.
WORKLOADS = {
    "verify-C4k4": Workload(
        "verify", "C", 4, 4, 1,
        "36497316a80e1750c52773860e4b0b8de13fd533c410cf930a54a690ea1f5cbe"),
    "verify-A5k5": Workload(
        "verify", "A", 5, 5, 1,
        "b1420ef643f1348719fa49026ff24e1f4c123ac2849dbd5ac830e4a9b8aa4526"),
    "ring-A4k5": Workload(
        "ring", "A", 4, 5, 10,
        "8f31911eb48aaf0bd3c3d55cb26f36bf5ab02352dc9c3d411405d1187ffebe54"),
}


def declared_units(kind):
    """{metric name: unit} for "end_to_end" or "per_layer" in BENCHMARK.json."""
    with open(ROOT / "BENCHMARK.json") as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)[kind]}


def with_units(values, kind):
    units = declared_units(kind)
    if set(values) != set(units):
        raise RuntimeError(f"metrics differ from BENCHMARK.json: {set(values) ^ set(units)}")
    return {name: {"value": values[name], "unit": unit} for name, unit in units.items()}


class Process(NamedTuple):
    """One finished child process and its checks."""

    role: str  # "cold", "warm" or "setup"
    wall_s: float
    stats: dict | None
    digest: str
    output: Path
    problems: list


class Run:
    """Starts child processes for one benchmark run and keeps their records."""

    def __init__(self, workload, workdir, deadline):
        self.wl = workload
        self.workdir = workdir
        self.deadline = deadline
        self.processes = []
        self.count = 0

    def spawn(self, mode, role, args, cache_dir, cold=None):
        self.count += 1
        tag = f"{self.count:03d}-{role}"
        stats_path = self.workdir / f"{tag}.stats.json"
        out_path = self.workdir / f"{tag}.out"
        env = dict(os.environ, **THREAD_PINS)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
        env["FUSIONQ_CACHE_DIR"] = str(cache_dir)
        cmd = [sys.executable, str(HERE / "child.py"), mode, str(stats_path), *args]
        problems = []
        t0 = time.perf_counter()
        with open(out_path, "wb") as fh:
            proc = subprocess.Popen(cmd, stdout=fh, env=env, cwd=ROOT)
            try:
                rc = proc.wait(timeout=max(1.0, self.deadline - t0))
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()
                rc = None
                problems.append("killed at the run deadline")
            except BaseException:
                proc.kill()
                proc.wait()
                raise
        wall = time.perf_counter() - t0
        stats = json.loads(stats_path.read_text()) if stats_path.exists() else None
        digest = hashlib.sha256(out_path.read_bytes()).hexdigest()
        if rc not in (0, None):
            problems.append(f"exit code {rc}")
        if stats is None:
            problems.append("no stats written")
        elif stats["threads"] != THREAD_PINS:
            problems.append(f"thread settings not pinned: {stats['threads']}")
        if role != "setup" and digest != self.wl.sha256:
            problems.append("output differs from the recorded digest")
        if cold is not None and digest != cold.digest:
            problems.append("warm output differs from cold output")
        p = Process(role, wall, stats, digest, out_path, problems)
        self.processes.append(p)
        return p

    def unit(self, mode, warm_passes):
        """One cold pass and then warm passes over one fresh cache."""
        cache = self.workdir / f"cache-{self.count + 1:03d}"
        cold = self.spawn(mode, "cold", self.wl.argv(), cache)
        warm = [self.spawn(mode, "warm", self.wl.argv(), cache, cold)
                for _ in range(warm_passes)]
        return cache, cold, warm

    def failed(self):
        return [p for p in self.processes if p.problems]


def oracle_check(run, seed):
    """Seeded spot-check of ``ring`` outputs against the Verlinde formula."""
    from fusionq import FusionContext, build_root_system, build_smatrix

    wl = run.wl
    sm = build_smatrix(FusionContext(build_root_system(wl.family, wl.rank), wl.level))
    verdicts = {}
    for p in run.processes:
        if p.role == "setup":
            continue
        if p.digest not in verdicts:
            verdicts[p.digest] = _oracle_mismatches(sm, p.output, seed)
        if verdicts[p.digest]:
            p.problems.append(f"Verlinde oracle disagrees: {verdicts[p.digest][:3]}")


def _oracle_mismatches(sm, path, seed):
    try:
        return _compare_with_verlinde(sm, json.loads(path.read_bytes()), seed)
    except (ValueError, KeyError, TypeError, IndexError) as e:
        return [f"unreadable ring output: {e!r}"]


def _compare_with_verlinde(sm, obj, seed):
    from fusionq import NumericDegradationError, verlinde_coefficient

    basis = [tuple(w) for w in obj["basis"]]
    products = obj["products"]
    n = len(basis)
    if len(products) != n * n:
        return [f"{len(products)} products for a basis of {n}"]
    rng = random.Random(seed)
    bad = []
    for _ in range(ORACLE_TRIPLES):
        i, j = rng.randrange(n), rng.randrange(n)
        entry = products[i * n + j]
        terms = {tuple(t["w"]): t["c"] for t in entry["terms"]}
        # Half the draws land in the product's support, so nonzero
        # coefficients are checked as well as zeros.
        if terms and rng.random() < 0.5:
            nu = rng.choice(sorted(terms))
        else:
            nu = basis[rng.randrange(n)]
        try:
            expected = verlinde_coefficient(sm, basis[i], basis[j], nu)
        except (KeyError, NumericDegradationError) as e:
            bad.append((i, j, nu, repr(e)))
            continue
        if (entry["i"], entry["j"]) != (i, j) or terms.get(nu, 0) != expected:
            bad.append((i, j, nu, terms.get(nu, 0), expected))
    return bad


def percentile_note(values):
    """The highest percentile with at least ten samples beyond it."""
    n = len(values)
    if n < 11:
        return f"n={n}, no percentile has 10 samples beyond it"
    q = 100.0 * (n - 10) / n
    return f"n={n}, p{q:.0f}={sorted(values)[n - 11]:.4f}"


def measure(run, seed, seconds):
    """End-to-end metrics: units while time is left, then set-up samples."""
    t0 = time.perf_counter()
    units = 0
    wl = run.wl
    while True:
        warm_cache, _, _ = run.unit("run", wl.warm_passes)
        units += 1
        elapsed = time.perf_counter() - t0
        # Start another unit only if it is expected to end within the run.
        if run.failed() or elapsed * (units + 1) / units > seconds:
            break
    for _ in range(SETUP_SAMPLES):
        run.spawn("setup", "setup", [wl.family, str(wl.rank), str(wl.level)], warm_cache)
    if wl.command == "ring":
        oracle_check(run, seed)

    ok = [p for p in run.processes if not p.problems]
    samples = {
        "setup_s": [p.stats["setup_s"] for p in ok if p.role == "setup"],
        "wall_s": [p.wall_s for p in ok if p.role == "cold"],
        "warm_s": [p.wall_s for p in ok if p.role == "warm"],
    }
    rss = [p.stats["peak_rss_kb"] / 1024.0 for p in ok if p.role != "setup"]
    lines = [f"{name}: median {statistics.median(v):.4f} s, {percentile_note(v)}"
             for name, v in samples.items() if v]
    if rss:
        lines.append(f"peak_rss_mb: {max(rss):.1f} MB, largest of {len(rss)} CLI processes")
    if any(not v for v in samples.values()) or not rss:
        return None, lines
    metrics = {name: statistics.median(v) for name, v in samples.items()}
    metrics["peak_rss_mb"] = max(rss)
    return with_units(metrics, "end_to_end"), lines


SUMMED_COUNTERS = ("fusion.alcove_reduce.steps", "fusion.alcove_reduce.useful")


def trace(run, seed):
    """Per-layer metrics of one traced cold pass and one traced warm pass."""
    import spans

    baseline = run.spawn("run", "cold", run.wl.argv(), run.workdir / "cache-untraced")
    cache, cold, warm = run.unit("trace", 1)
    if run.wl.command == "ring":
        oracle_check(run, seed)
    traced = [cold, *warm]
    if run.failed():
        return None, []

    totals, counters = {}, {}
    for p in traced:
        info = p.stats["trace"]
        for name, (calls, total, own) in spans.layer_totals(info["names"], info["spans"]).items():
            c, t, s = totals.get(name, (0, 0.0, 0.0))
            totals[name] = (c + calls, t + total, s + own)
        for name, value in info["counters"].items():
            prev = counters.get(name, 0)
            counters[name] = prev + value if name in SUMMED_COUNTERS else max(prev, value)
    missing = sorted({m for p in traced for m in p.stats["trace"]["missing"]})

    def calls(name):
        return totals.get(name, (0, 0.0, 0.0))[0]

    def seconds(name):
        return totals.get(name, (0, 0.0, 0.0))[1]

    def own(name):
        return totals.get(name, (0, 0.0, 0.0))[2]

    report = json.loads(cold.output.read_bytes())
    items = [it for rep in report for it in rep["items"]] if isinstance(report, list) else []
    alcove_calls = calls("fusion.alcove_reduce")
    m = {
        "cartan.build_root_system.s": seconds("cartan.build_root_system"),
        "cartan.weight_multiplicities.calls": calls("cartan.weight_multiplicities"),
        "cartan.weight_multiplicities.self_s": own("cartan.weight_multiplicities"),
        "fusion.FusionContext.s": seconds("fusion.FusionContext"),
        "fusion.save_cache.s": seconds("fusion.save_cache"),
        "fusion.cache_bytes": sum(f.stat().st_size for f in cache.glob("*") if f.is_file()),
        "fusion.alcove_reduce.calls": alcove_calls,
        "fusion.alcove_reduce.steps": counters["fusion.alcove_reduce.steps"],
        "fusion.alcove_reduce.self_s": own("fusion.alcove_reduce"),
        "fusion.alcove_reduce.useful_ratio":
            counters["fusion.alcove_reduce.useful"] / alcove_calls if alcove_calls else 0.0,
        "fusion.fusion_product.calls": calls("fusion.fusion_product"),
        "fusion.fusion_product.self_s": own("fusion.fusion_product"),
        "fusion.apply_outer.calls": calls("fusion.apply_outer"),
        "fusion.apply_outer.self_s": own("fusion.apply_outer"),
        "smatrix.weyl_group.size": counters["smatrix.weyl_group.size"],
        "smatrix.weyl_group.s": seconds("smatrix.weyl_group"),
        "smatrix.build_smatrix.calls": calls("smatrix.build_smatrix"),
        "smatrix.build_smatrix.self_s": own("smatrix.build_smatrix"),
        "smatrix.build_smatrix.peak_mb": counters["smatrix.build_smatrix.peak_bytes"] / 2**20,
        "smatrix.unitarity_residual": float(counters["smatrix.unitarity_residual"]),
        "smatrix.generalized_qdim.calls": calls("smatrix.generalized_qdim"),
        "smatrix.generalized_qdim.self_s": own("smatrix.generalized_qdim"),
        "qsystem.kr_element.calls": calls("qsystem.kr_element"),
        "qsystem.kr_element.self_s": own("qsystem.kr_element"),
        "qsystem.check_conjecture.self_s": own("qsystem.check_conjecture"),
        "qsystem.boundary_check.self_s": own("qsystem.boundary_check"),
        "qsystem.restricted_solution.self_s": own("qsystem.restricted_solution"),
        "qsystem.kns_report.self_s": own("qsystem.kns_report"),
        "qsystem.items": len(items),
        "qsystem.items_failed": sum(it["status"] == "fail" for it in items),
        "cli.self_s": own("cli"),
        "cli.output_bytes": cold.output.stat().st_size,
        "trace.overhead_s": cold.wall_s - baseline.wall_s,
    }
    ranked = sorted(((t[2], name) for name, t in totals.items()), reverse=True)
    lines = ["traced passes: one cold and one warm, totals summed over both"]
    lines += [f"self time {name}: {s:.4f} s in {totals[name][0]} calls"
              for s, name in ranked if totals[name][0]]
    if missing:
        lines.append(f"not traced (not found in fusionq): {', '.join(missing)}")
    return with_units(m, "per_layer"), lines


def environment():
    def first_line(cmd):
        try:
            res = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=10)
        except (OSError, subprocess.TimeoutExpired):
            return None
        return res.stdout.strip() if res.returncode == 0 else None

    # Only a repository rooted at the checkout names this source tree.
    top = first_line(["git", "rev-parse", "--show-toplevel"])
    commit = first_line(["git", "rev-parse", "HEAD"]) if top == str(ROOT) else None
    cpu = None
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), None)
    except OSError:
        pass
    import numpy

    digest = hashlib.sha256()
    lines = 0
    for f in sorted(SRC.rglob("*.py")):
        data = f.read_bytes()
        digest.update(f.relative_to(SRC).as_posix().encode() + b"\0" + data)
        lines += data.count(b"\n")
    return {
        "git_commit": commit,
        "src_sha256": digest.hexdigest(),
        "src_lines": lines,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "thread_pins": THREAD_PINS,
    }


def run_workload(name, seed, seconds, traced, env):
    """Run one workload, print its notes and return its result object."""
    start = time.perf_counter()
    tag = f"{name}-seed{seed}-trace{int(traced)}"
    workdir = OUT / f"{tag}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    run = Run(WORKLOADS[name], workdir, start + DEADLINE_S)
    try:
        metrics, lines = trace(run, seed) if traced else measure(run, seed, seconds)
    finally:
        # A traced run keeps its span files and stats; outputs and caches go.
        if not traced:
            shutil.rmtree(workdir)
        else:
            for f in workdir.iterdir():
                if f.is_dir():
                    shutil.rmtree(f)
                elif f.suffix == ".out":
                    f.unlink()

    failed = run.failed()
    attempted = len(run.processes)
    cli_procs = [p for p in run.processes if p.role != "setup"]
    print(f"workload {name}, seed {seed}, trace {int(traced)}: "
          f"{len(cli_procs)} CLI processes, {attempted - len(cli_procs)} set-up processes, "
          f"{len(failed)} failed, error_rate {len(failed) / attempted:.4f}, "
          f"{time.perf_counter() - start:.1f} s")
    for p in failed:
        print(f"FAILED {p.role} {p.output.name}: {'; '.join(p.problems)}")
    for line in lines:
        print(line)
    result = {
        "correct": not failed and metrics is not None,
        "attempted": attempted,
        "failed": len(failed),
        "metrics": metrics or {},
    }
    with open(OUT / f"{tag}.json", "w") as fh:
        failures = {f"{p.role} {p.output.name}": p.problems for p in failed}
        json.dump({"env": env, "failures": failures, "notes": lines, **result}, fh, indent=1)
    return result


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*sorted(WORKLOADS), "all"],
                        help="one workload, or all of them one after another")
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()
    # SIGTERM unwinds like an exception, so the running child is killed and reaped.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not (SRC / "fusionq" / "cli.py").is_file():
        print(f"fusionq sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import fusionq.cli  # noqa: F401  (compiles bytecode before any timing)

    env = environment()
    names = sorted(WORKLOADS) if args.workload == "all" else [args.workload]
    results = {}
    for name in names:
        results[name] = run_workload(name, args.seed, args.seconds, bool(args.trace), env)
        if len(names) > 1:
            print(f"result {name} " + json.dumps(results[name]))
    print("env " + json.dumps(env, sort_keys=True))
    if len(names) == 1:
        final = results[names[0]]
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{name}.{k}": v for name, r in results.items()
                        for k, v in r["metrics"].items()},
        }
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
