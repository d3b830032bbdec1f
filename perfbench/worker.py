"""One benchmark process: set up and run one workload in a fresh interpreter.

run.py starts this script once per measured repetition, so set-up time and
peak RSS belong to that repetition alone.  It prints its result as one JSON
object on the last line of standard output.

    worker.py MODE WORKLOAD SIZE SEED WORKDIR

Modes:
  rep     set up, run and check the workload, untraced
  setup   only set up: import passklab.cli and build the inputs
  traced  like rep with every public passklab layer traced, followed by a
          smoke-size pass of the other workloads, so that every layer is
          measured on every workload
  probe   the n = 10**5 scale probe of evaluate_state
"""

import time

from hostspeed import pin

# Before numpy loads, so its OpenBLAS sees one CPU and starts one thread.
pin()
T0 = time.monotonic()

import json  # noqa: E402
import sys  # noqa: E402


def main(argv) -> dict:
    mode, workload, size_name, seed, workdir = argv[0], argv[1], argv[2], int(argv[3]), argv[4]

    import passklab.cli  # noqa: F401  (set-up cost users pay on every CLI call)
    import workloads

    if mode == "probe":
        return {"error": workloads.scale_probe(seed)}

    setup, _, _, work = workloads.WORKLOADS[workload]
    tracer = None
    if mode == "traced":
        from tracing import Tracer, span_cost

        tracer = Tracer()
        tracer.install()
    inputs = setup(seed, workloads.SIZES[size_name][workload])
    setup_span = (T0, time.monotonic())
    if mode == "setup":
        return {"setup": setup_span}

    result, (run_first, run_last) = run_checked(
        workloads, workload, inputs, reference(size_name, workload, seed), workdir, tracer
    )
    import resource

    result.update(
        setup=setup_span,
        work=work(inputs),
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6,
        record=run_record(),
    )
    if tracer is None:
        return result

    # Span ranges of each phase: set-up plus run, excluding the checks.
    phases = {workload: (0, run_last)}
    for other, (o_setup, _, _, _) in workloads.WORKLOADS.items():
        if other == workload:
            continue
        first = len(tracer.spans)
        o_inputs = o_setup(seed, workloads.SIZES["smoke"][other])
        o_result, (_, last) = run_checked(
            workloads, other, o_inputs, reference("smoke", other, seed), workdir, tracer
        )
        phases[other] = (first, last)
        result["checks"] += [[f"coverage {other}: {n}", ok, d] for n, ok, d in o_result["checks"]]
        result["failed"] = result["failed"] or o_result["failed"]

    layers: dict[str, dict] = {}
    for first, last in phases.values():
        for name, stats in tracer.aggregate(first, last).items():
            acc = layers.setdefault(name, dict.fromkeys(stats, 0))
            for key, value in stats.items():
                acc[key] += value
    traj = tracer.aggregate(*phases["trajectory"])
    traj_size = "full" if workload == "trajectory" else "smoke"
    traj_steps = workloads.SIZES[traj_size]["trajectory"]["steps"]
    run_self = sum(s["self_s"] for s in tracer.aggregate(run_first, run_last).values())
    result.update(
        layers=layers,
        bytes=tracer.bytes,
        samples=tracer.samples,
        calls_per_step={
            name: traj[name]["calls"] / traj_steps if name in traj else 0.0
            for name in ("bandit.success_probs", "interference.classify_interference")
        },
        unattributed_s=result["wall_s"] - run_self,
        estimated_overhead_s=(run_last - run_first) * span_cost(),
    )
    tracer.dump(f"{workdir}/spans-{workload}.csv")
    return result


def run_checked(workloads, workload, inputs, ref, workdir, tracer=None):
    """Run one workload in a fresh directory under workdir, then check it.

    Returns the result and the span range of the run (0, 0 when untraced).
    """
    import shutil
    import tempfile
    from pathlib import Path

    _, run, check, _ = workloads.WORKLOADS[workload]
    tmp = Path(tempfile.mkdtemp(prefix=f"{workload}-", dir=workdir))
    watch = workloads.Watch()
    try:
        first = len(tracer.spans) if tracer else 0
        out = run(inputs, tmp, watch)
        last = len(tracer.spans) if tracer else 0
        checks, values = check(out, inputs, ref)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    result = {
        "wall_s": watch.wall,
        "laps": watch.laps,
        "steps": watch.steps,
        "checks": checks.items,
        "failed": not all(ok for _, ok, _ in checks.items),
        "values": values,
    }
    return result, (first, last)


def reference(size_name: str, workload: str, seed: int) -> dict | None:
    """Reference values recorded for this size, workload and seed, if any."""
    from pathlib import Path

    path = Path(__file__).with_name("reference.json")
    if not path.is_file():
        return None
    table = json.loads(path.read_text())
    return table.get(size_name, {}).get(workload, {}).get(str(seed))


def run_record() -> dict:
    """Versions and BLAS threading of this interpreter."""
    import platform
    from importlib import metadata

    import numpy

    try:
        scipy_version = metadata.version("scipy")  # installed, not imported
    except metadata.PackageNotFoundError:
        scipy_version = None
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy_version,
        "blas_threads": blas_threads(),
    }


def blas_threads() -> int | None:
    """Thread count reported by the OpenBLAS that numpy loaded, if found."""
    import ctypes
    import glob
    import os

    import numpy

    libs = os.path.join(os.path.dirname(numpy.__file__), os.pardir, "numpy.libs")
    for path in glob.glob(os.path.join(libs, "*openblas*")):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                return int(fn())
    return None


if __name__ == "__main__":
    print(json.dumps(main(sys.argv[1:])))
