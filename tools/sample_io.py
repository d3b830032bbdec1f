"""Time the sample file round trip: export_samples, then import_samples.

    python3 tools/sample_io.py [--prompts 1000 6000] [--draws 32 64]

Imports passklab from this checkout's src/.  For each pair of --prompts and
--draws (by position; the defaults are the benchmark's mc file, 1000 x 32,
and one sample step's set, 6000 x 64) it samples a set with sample_actions
at the reference theta, exports it and imports it REPEATS times, and
prints the median wall ms of each direction, the file's size in MB, and the
peak MB that tracemalloc sees in one more traced call of each.  Every
import must give back the set's ids, offsets and arrays with their dtypes,
bit for bit, and every export the same bytes; the script stops with an
AssertionError otherwise.  Run it on a quiet host, or pinned
(taskset -c 1 python3 ...), to compare two checkouts.
"""

import argparse
import statistics
import sys
import tempfile
import time
import tracemalloc
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
sys.path.insert(0, str(SRC))

from passklab import BanditConfig, reference_theta, sample_actions, sample_prompts  # noqa: E402
from passklab.mc import export_samples, import_samples  # noqa: E402

REPEATS = 7


def same_set(a, b) -> bool:
    """Equal ids, and offsets and arrays of one dtype and the same bytes."""
    fields = ("offsets", "actions", "rewards", "scores")
    pairs = [(getattr(a, name), getattr(b, name)) for name in fields]
    return a.ids == b.ids and all(
        u.dtype == v.dtype and u.shape == v.shape and u.tobytes() == v.tobytes()
        for u, v in pairs
    )


def timed(call) -> tuple:
    """(wall ms, result) of call()."""
    start = time.perf_counter()
    result = call()
    return (time.perf_counter() - start) * 1e3, result


def traced_peak_mb(call) -> float:
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1] / 1e6
    finally:
        tracemalloc.stop()


def measure(prompts: int, draws: int, workdir: Path) -> tuple:
    samples = sample_actions(
        reference_theta(), sample_prompts(BanditConfig(seed=0), prompts), draws, seed=0
    )
    path = workdir / f"samples_{prompts}x{draws}.jsonl"
    export_ms, import_ms, first = [], [], None
    for _ in range(REPEATS):
        export_ms.append(timed(lambda: export_samples(samples, path))[0])
        data = path.read_bytes()
        assert first is None or data == first, "export wrote different bytes"
        first = data
        ms, loaded = timed(lambda: import_samples(path))
        import_ms.append(ms)
        assert same_set(samples, loaded), "import did not give back the set"
    export_peak = traced_peak_mb(lambda: export_samples(samples, path))
    import_peak = traced_peak_mb(lambda: import_samples(path))
    return (statistics.median(export_ms), statistics.median(import_ms),
            len(first) / 1e6, export_peak, import_peak)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--prompts", type=int, nargs="+", default=[1000, 6000])
    parser.add_argument("--draws", type=int, nargs="+", default=[32, 64])
    args = parser.parse_args()
    if len(args.prompts) != len(args.draws):
        parser.error("give as many --draws as --prompts")
    print(f"sample file round trip: median of {REPEATS} runs; peak MB of one traced run")
    print(f"{'prompts':>7} {'draws':>5} {'export ms':>10} {'import ms':>10} "
          f"{'file MB':>8} {'export peak MB':>15} {'import peak MB':>15}")
    with tempfile.TemporaryDirectory() as tmp:
        for prompts, draws in zip(args.prompts, args.draws):
            export_ms, import_ms, size, export_peak, import_peak = measure(
                prompts, draws, Path(tmp)
            )
            print(f"{prompts:>7} {draws:>5} {export_ms:>10.1f} {import_ms:>10.1f} "
                  f"{size:>8.2f} {export_peak:>15.2f} {import_peak:>15.2f}")


if __name__ == "__main__":
    main()
