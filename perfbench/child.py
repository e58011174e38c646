"""One fusionq process under benchmark conditions.

    child.py run   STATS_JSON FUSIONQ_ARGS...   # the CLI, untraced
    child.py trace STATS_JSON FUSIONQ_ARGS...   # the CLI, traced
    child.py setup STATS_JSON FAMILY RANK LEVEL # import + root system + context

``run`` and ``trace`` behave like the ``fusionq`` console script: the report
goes to stdout and the exit code is the CLI's.  ``setup`` does only what every
CLI command does first (import, ``build_root_system``, ``FusionContext`` with
``FUSIONQ_CACHE_DIR``) and records how long that took.  Every mode caps its own
address space first and writes its peak RSS and thread settings to
STATS_JSON on exit; ``trace`` also writes its spans next to it (``.npz``).
"""

import time

T0 = time.perf_counter()

import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402

# A memory regression makes this process fail with MemoryError instead of
# exhausting the machine.  The largest workload peaks near 1.8 GB.
MEMORY_CEILING_BYTES = 3 << 30
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def peak_rss_kb():
    """This process's own peak RSS.

    ``ru_maxrss`` is no good here: exec keeps the high-water mark of the
    address space it replaces, so it reports at least the parent's peak.
    ``VmHWM`` belongs to the address space created by exec.
    """
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    raise RuntimeError("no VmHWM in /proc/self/status")


def main():
    mode, stats_path, args = sys.argv[1], sys.argv[2], sys.argv[3:]
    resource.setrlimit(resource.RLIMIT_AS, (MEMORY_CEILING_BYTES, MEMORY_CEILING_BYTES))
    stats = {"threads": {v: os.environ.get(v) for v in THREAD_VARS}}

    import fusionq
    import fusionq.cli as cli

    if mode == "setup":
        family, rank, level = args[0], int(args[1]), int(args[2])
        rs = fusionq.build_root_system(family, rank)
        fusionq.FusionContext(rs, level, cache_dir=os.environ.get("FUSIONQ_CACHE_DIR") or None)
        stats["setup_s"] = time.perf_counter() - T0
        code = 0
    else:
        tracer = None
        if mode == "trace":
            import spans

            tracer = spans.Tracer()
            tracer.install()
        code = cli.main(args)
        sys.stdout.flush()
        if tracer is not None:
            stats["trace"] = tracer.dump(os.path.splitext(stats_path)[0] + ".npz")
    stats["peak_rss_kb"] = peak_rss_kb()
    with open(stats_path, "w") as fh:
        json.dump(stats, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
