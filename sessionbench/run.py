"""Fixed-work session benchmark for JIM: whole sessions, end to end and by layer.

Run from the root of a checkout::

    python3 sessionbench/run.py --workload wide-schema --seed 1 --seconds 25 --trace 0
    python3 sessionbench/run.py --workload wide-schema --seed 1 --seconds 25 --trace 1

Each run performs a fixed, seed-shuffled list of sessions (its length depends
only on ``--seconds``), checks every result, and prints a report followed by
one JSON line: ``{"correct", "attempted", "failed", "metrics"}``.  With
``--trace 0`` the metrics are the end-to-end ones, with timings scaled to a
nominal host speed; with ``--trace 1`` they are the per-layer ones from a
traced run of the same work.  See ``sessionbench/README.md``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
#: Where runs keep their digests, results and span files (inside the checkout).
STATE_DIR = ROOT / ".sessionbench"
WORKLOADS = ("wide-schema", "large-table", "serve-cluster")


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    return args


def provenance() -> dict:
    """Commit, machine and configuration the result was measured on."""
    from repro.core import kernels, parallel

    try:
        import numpy

        numpy_version = numpy.__version__
    except ImportError:  # the program falls back to its pure-Python kernels
        numpy_version = None

    commit = "unknown"
    head = ROOT / ".git" / "HEAD"
    if head.is_file():
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            ref_file = ROOT / ".git" / ref[5:]
            commit = ref_file.read_text().strip() if ref_file.is_file() else ref[5:]
        else:
            commit = ref
    return {
        "commit": commit,
        "cpus": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "kernel_backend": kernels.default_backend(),
        "parallel_mode": parallel.parallel_mode(),
        "env": {key: value for key, value in sorted(os.environ.items()) if key.startswith("REPRO_")},
    }


def peak_rss_mb() -> tuple[float, float]:
    """Peak resident memory of this process and of its largest reaped child (MB)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024
    return own, child


def code_key() -> str:
    """Hash of the program's sources and the benchmark's own code.

    Runs compare event digests only when this key is equal, so the check
    compares runs of the same program, never two versions of it.
    """
    code = hashlib.sha256()
    sources = sorted((ROOT / "src" / "repro").rglob("*.py")) + sorted(
        Path(__file__).parent.glob("*.py")
    )
    for source in sources:
        code.update(str(source.relative_to(ROOT)).encode() + b"\0")
        code.update(source.read_bytes() + b"\0")
    return code.hexdigest()[:16]


def check_digest(workload: str, seconds: int, digest: str) -> str | None:
    """Compare the run's event digest with the first run's of the same code.

    The work depends only on the workload, ``--seconds``, the program and
    the benchmark's own code, so every run of the same code — traced or
    not, any seed — must produce the same digest.  The first such run in the
    checkout records it.  Returns a problem description, or ``None``.
    """
    STATE_DIR.mkdir(exist_ok=True)
    path = STATE_DIR / f"{workload}-s{seconds}-{code_key()}.digest"
    if path.is_file():
        expected = path.read_text().strip()
        if expected != digest:
            return f"event digest {digest[:16]} differs from the recorded {expected[:16]}"
        return None
    partial = path.with_suffix(f".{os.getpid()}.tmp")
    partial.write_text(digest + "\n")
    os.replace(partial, path)
    return None


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no program sources under {ROOT / 'src'}; run from a full checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))

    import common
    import inprocess
    import layers
    import serve
    import tracer as tracing

    runner = {
        "wide-schema": inprocess.run_wide,
        "large-table": inprocess.run_large,
        "serve-cluster": serve.run_serve,
    }[args.workload]
    tracer = None
    wrapper_cost = 0.0
    if args.trace:
        wrapper_cost = tracing.measure_wrapper_cost()
        tracer = tracing.Tracer()
        layers.install(tracer)
    try:
        recorder, host, extra = runner(args.seed, args.seconds, tracer)
    finally:
        if tracer is not None:
            tracer.restore()
    own_mb, child_mb = peak_rss_mb()
    summary = common.summarise(recorder, own_mb + child_mb)
    digest = recorder.run_digest()
    problems = list(recorder.problems)
    digest_problem = check_digest(args.workload, args.seconds, digest)
    if digest_problem:
        problems.append(digest_problem)

    info = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "provenance": provenance(),
        "host_ref_ms": host.median_ms(),
        "host_ref_samples": len(host.samples_ms),
        "host_ref_kind": host.kind,
        "host_ref_samples_ms": host.samples_ms,
        "samples": {
            "setup_s": recorder.setup_s,
            "first_question_s": recorder.first_question_s,
            "label_s": recorder.label_s,
            "walls_s": recorder.walls_s,
            "sessions": recorder.sessions,
        },
        "nominal_ref_ms": common.NOMINAL_REF_MS,
        "digest": digest,
        "peak_rss_self_mb": own_mb,
        "peak_rss_child_mb": child_mb,
        **summary,
        **extra,
    }
    if args.trace:
        metrics, identity = layers.per_layer_metrics(
            tracer, wrapper_cost, extra, args.workload == "serve-cluster"
        )
        units = layers.PER_LAYER_UNITS
        info["trace_identity"] = identity
        problems.extend(layers.span_problems(tracer.spans))
        info["wrapper_cost_us"] = wrapper_cost * 1e6
        spans_path = STATE_DIR / f"spans-{args.workload}-seed{args.seed}.json"
        tracer.export(spans_path)
        info["spans_file"] = str(spans_path.relative_to(ROOT))
    else:
        metrics = summary["scaled"]
        units = common.END_TO_END_UNITS
    result_path = STATE_DIR / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    result_path.write_text(json.dumps({**info, "metrics": metrics, "problems": problems}, indent=1))

    print(f"# workload {args.workload} seed {args.seed} seconds {args.seconds} trace {args.trace}")
    print(f"# provenance {json.dumps(info['provenance'], sort_keys=True)}")
    print(f"# host_ref_ms {info['host_ref_ms']:.3f} over {info['host_ref_samples']} samples "
          f"({host.kind}); timings scaled by nominal {common.NOMINAL_REF_MS} / adjacent host_ref samples")
    print(f"# counts {json.dumps(summary['counts'])}")
    for name, value in summary["raw"].items():
        print(f"#   {name:<22} raw {value:12.4f}   scaled {summary['scaled'][name]:12.4f}")
    for name in ("questions_per_session", "peak_rss_mb"):
        print(f"#   {name:<22} {summary['scaled'][name]:12.4f}")
    print(f"# peak_rss self {own_mb:.1f} MB, largest child {child_mb:.1f} MB")
    print(f"# digest {digest}")
    if args.trace:
        for name, value in metrics.items():
            print(f"#   {name:<32} {value:14.6f} {units[name]}")
        print(f"# trace identity (layers + unattributed = session) "
              f"{json.dumps(info['trace_identity'])}")
    for problem in problems:
        print(f"# PROBLEM {problem}")
    print(f"# result file {result_path.relative_to(ROOT)}")
    result = {
        "correct": not problems and recorder.failed == 0,
        "attempted": recorder.attempted,
        "failed": recorder.failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
