"""Command-line surface: seeded, reproducible experiment commands.

Every command resolves its parameters as explicit flags first, then a
flat key=value config file, then the PASSK_SEED environment variable
(seed only), then built-in defaults.  Commands that write a directory put
all outputs under --out with a manifest naming inputs, resolved parameters,
and package versions; synth-log's --out is the one file it writes.
"""

import argparse
import math
import os
import sys
from functools import partial
from pathlib import Path

import numpy as np

from . import __version__
from .bandit import (
    BanditConfig,
    DEFAULT_HARD_FRACTION,
    DEFAULT_SEED,
    DEFAULT_SEPARATION,
    _success_and_grad,
    overlap_pair,
    grad_success_probs,
    reference_theta,
    sample_prompts,
)
from .conflict import conflict_bound, k_star
from .errors import DomainError, IdentityCheckError, PassKLabError
from .gradlog import (
    FilterSpec,
    diagnose,
    export_gradlog,
    filter_by_difficulty,
    load_gradlog,
    make_synthetic_conflict_log,
    report_rows_to_csv,
    report_scatter_to_csv,
    report_to_json,
)
from .interference import GradientTable, kernel_matrix, kernel_matrix_to_csv
from .objectives import MAX_K, _check_k, weighted_row_sum, wk
from .optimizer import run_trajectory, trajectory_to_csv
from .serialization import fmt, line_error, read_lines, write_json


def _read_config(path) -> dict:
    """Flat key = value lines of UTF-8 text; '#' starts a comment; dashes
    equal underscores; a key may appear once."""
    out, first_line = {}, {}
    for lineno, line in read_lines(path):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise line_error(path, lineno, "expected 'key = value'")
        key, value = line.split("=", 1)
        key = key.strip().replace("-", "_")
        if not any(key in spec for _, _, spec, _ in COMMANDS.values()):
            raise line_error(path, lineno, f"no command takes config key {key!r}")
        if key in first_line:
            raise line_error(path, lineno, f"config key {key!r} repeats line {first_line[key]}")
        first_line[key] = lineno
        out[key] = value.strip()
    return out


def _resolve(args, spec: dict, config: dict):
    """Fill unset flags from config file, then env (seed), then defaults."""
    for name, (cast, default) in spec.items():
        if getattr(args, name) is not None:
            continue
        if name in config:
            source, value = f"config key {name}", config[name]
        elif name == "seed" and "PASSK_SEED" in os.environ:
            source, value = "PASSK_SEED", os.environ["PASSK_SEED"]
        else:
            setattr(args, name, default)
            continue
        try:
            setattr(args, name, cast(value))
        except ValueError:
            raise PassKLabError(
                f"{source}: expected {cast.__name__}, got {value!r}"
            ) from None


def _write_outputs(args, files: dict, inputs=(), **extra) -> list:
    """Make --out, call each writer of ``files`` (file name: writer) with its
    path, in order, then write manifest.json: the command, its resolved
    parameters (plus ``extra``), the inputs, outputs and package versions."""
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    outputs = [out_dir / name for name in files]
    for path, write in zip(outputs, files.values()):
        write(path)
    params = dict({name: getattr(args, name) for name in args.spec}, **extra)
    manifest = {
        "command": args.command,
        "parameters": {k: params[k] for k in sorted(params)},
        "inputs": [str(p) for p in inputs],
        "outputs": [str(p) for p in outputs],
        "versions": {
            "passklab": __version__,
            "numpy": np.__version__,
            "python": "%d.%d.%d" % sys.version_info[:3],
        },
    }
    write_json(out_dir / "manifest.json", manifest)
    return outputs


TOY_DEMO_SPEC = {
    "k": (int, 10),
    "eta": (float, 5.0),
    "margin": (float, 1e-3),
}


def cmd_toy_demo(args) -> None:
    batch, theta = overlap_pair()
    k, eta = args.k, args.eta

    p, g = _success_and_grad(theta, batch)
    psi_e, psi_h = batch.features
    g_e, g_h = g

    before, after = run_trajectory(
        theta0=theta, k=k, eta=eta, steps=1, margin=args.margin, batch=batch
    )

    result = {
        "theta_ref": [float(v) for v in theta],
        "p_easy": float(p[0]),
        "p_hard": float(p[1]),
        "cos_features": _cosine(psi_e, psi_h),
        "kernel_easy_hard": float(g_e @ g_h),
        "cos_grads": _cosine(g_e, g_h),
        "w_easy": wk(float(p[0]), k),
        "w_hard": wk(float(p[1]), k),
        "cos_grad_j1_grad_jk": _cosine(before.grad_k, weighted_row_sum(batch.mass, g)),
        "inner_product": before.inner_product,
        "delta_bound": before.delta_bound,
        "k": k,
        "eta": eta,
        "j1_before": before.j1_pop,
        "jk_before": before.jk_pop,
        "j1_after": after.j1_pop,
        "jk_after": after.jk_pop,
    }
    for key, value in result.items():
        print(f"{key} = {fmt(value) if isinstance(value, float) else value}")
    direction = "conflict" if before.inner_product < 0 else "no conflict"
    print(f"gradient direction: {direction}")

    if args.out is not None:
        _write_outputs(args, {"toy_demo.json": partial(write_json, obj=result)})


def _cosine(a, b) -> float:
    denom = np.linalg.norm(a) * np.linalg.norm(b)
    return float(a @ b / denom) if denom > 0 else 0.0


def _bandit_spec(**flags) -> dict:
    """A bandit batch's flags around a command's own, in --help order."""
    return {
        "separation": (float, DEFAULT_SEPARATION),
        "hard_fraction": (float, DEFAULT_HARD_FRACTION),
        "n": (int, 6000),
        **flags,
        "seed": (int, DEFAULT_SEED),
    }


def _bandit_config(args) -> BanditConfig:
    """The BanditConfig of the flags that _bandit_spec declares."""
    return BanditConfig(args.separation, args.hard_fraction, args.seed)


HEATMAP_SPEC = _bandit_spec(subsample=(int, 200))


def cmd_heatmap(args) -> None:
    if args.subsample < 1:
        raise PassKLabError(f"subsample must be >= 1, got {args.subsample}")
    batch = sample_prompts(_bandit_config(args), args.n)
    grads = grad_success_probs(reference_theta(), batch)

    # 3:2 easy:hard split, as in the 120/80 default.
    n_easy = int(round(args.subsample * 0.6))
    n_hard = args.subsample - n_easy
    easy_idx = np.flatnonzero(~batch.hard_mask)[:n_easy]
    hard_idx = np.flatnonzero(batch.hard_mask)[:n_hard]
    sub = np.concatenate([easy_idx, hard_idx])
    if not sub.size:  # n_easy >= 1, so the batch has no easy prompt
        raise PassKLabError(
            f"--subsample {args.subsample} takes easy prompts, and the batch has none"
        )
    sizes = (("easy", easy_idx.size, n_easy), ("hard", hard_idx.size, n_hard))
    short = [f"{size} {label}" for label, size, want in sizes if size < want]
    if short:
        print(
            f"warning: subsample {args.subsample} takes {n_easy} easy and {n_hard} "
            f"hard prompts, and the batch has {' and '.join(short)}",
            file=sys.stderr,
        )
    table = GradientTable(grads[sub], [batch.ids[i] for i in sub])
    cos = kernel_matrix(table)

    [csv_path] = _write_outputs(
        args, {"heatmap.csv": partial(kernel_matrix_to_csv, cos, table.ids)}
    )
    print(f"wrote {cos.shape[0]}x{cos.shape[1]} cosine kernel to {csv_path}")


TRAJECTORY_SPEC = _bandit_spec(
    k=(int, 5), eta=(float, 1.0), steps=(int, 100), margin=(float, 1e-6)
)


def cmd_trajectory(args) -> None:
    records = run_trajectory(
        _bandit_config(args),
        k=args.k, eta=args.eta, steps=args.steps, n=args.n, margin=args.margin,
    )
    [csv_path] = _write_outputs(
        args, {"trajectory.csv": partial(trajectory_to_csv, records)}
    )
    first, last = records[0], records[-1]
    print(
        f"j1_pop {fmt(first.j1_pop)} -> {fmt(last.j1_pop)}; "
        f"j{args.k}_pop {fmt(first.jk_pop)} -> {fmt(last.jk_pop)}"
    )
    print(f"wrote {len(records)} rows to {csv_path}")


KSTAR_SPEC = {
    "eps": (float, 0.05),
    "delta_sep": (float, 0.5),
    "q": (float, 0.1),
    "m": (float, 0.01),
    "g2": (float, 1.0),
    "k_max": (int, 0),  # 0 means 2 * ceil(k_star)
}


def cmd_kstar(args) -> None:
    if args.k_max < 0:
        raise DomainError(f"k_max must be >= 0, got {args.k_max}")
    threshold = k_star(args.eps, args.delta_sep, args.q, args.m, args.g2)
    print(f"k_star = {fmt(threshold)}")
    if math.isinf(threshold):
        print("threshold is infinite; no finite k is certified")
        return
    k_max = args.k_max if args.k_max > 0 else max(2, 2 * math.ceil(threshold))
    if k_max > MAX_K:
        source = "" if args.k_max else " (2 * ceil(k_star)); pass a smaller --k-max"
        raise DomainError(f"k_max must be <= {MAX_K}, got {k_max}{source}")
    print("k\tconflict_bound\tcertified")
    for k in range(1, k_max + 1):
        bound = conflict_bound(k, args.eps, args.delta_sep, args.q, args.m, args.g2)
        print(f"{k}\t{fmt(bound)}\t{'yes' if bound > 0 else 'no'}")


DIAGNOSE_SPEC = {
    "k": (int, 32),
    "delta1": (float, 0.85),
    "delta2": (float, 0.10),
}


def cmd_diagnose(args) -> None:
    _check_k(args.k)  # k and the band before the log is read
    spec = FilterSpec(delta1=args.delta1, delta2=args.delta2)
    filtered = filter_by_difficulty(load_gradlog(args.input), spec)
    print(filtered.counts_summary())
    report = diagnose(filtered, args.k)

    files = {
        "diagnose.json": partial(report_to_json, report),
        "prompts.csv": partial(report_rows_to_csv, report),
        "scatter.csv": partial(report_scatter_to_csv, report),
    }
    _write_outputs(args, files, [args.input], input=args.input)
    print(f"unweighted mean agreement = {fmt(report.unweighted_mean_agreement)}")
    print(f"weighted mean agreement   = {fmt(report.weighted_mean_agreement)}")
    print(f"mean shift                = {fmt(report.mean_shift)}")
    print(f"inner product             = {fmt(report.inner_product)}")


SYNTH_LOG_SPEC = {
    "n": (int, 600),
    "d": (int, 64),
    "hard_fraction": (float, 0.15),
    "seed": (int, 0),
}


def cmd_synth_log(args) -> None:
    records = make_synthetic_conflict_log(
        n=args.n, d=args.d, seed=args.seed, hard_fraction=args.hard_fraction
    )
    out_path = Path(args.out)
    out_path.parent.mkdir(parents=True, exist_ok=True)
    export_gradlog(records, out_path)
    print(f"wrote {len(records)} records (d={args.d}) to {out_path}")


# name: (command, help line, flags, --out: None left out, False optional, True required)
COMMANDS = {
    "toy-demo": (cmd_toy_demo, "two-prompt conflict walkthrough", TOY_DEMO_SPEC, False),
    "heatmap": (cmd_heatmap, "cosine kernel matrix over a sampled batch",
                HEATMAP_SPEC, True),
    "trajectory": (cmd_trajectory, "multi-step ascent with objective tracking",
                   TRAJECTORY_SPEC, True),
    "kstar": (cmd_kstar, "conflict threshold in k and bound sweep", KSTAR_SPEC, None),
    "diagnose": (cmd_diagnose, "analyze an external gradient log", DIAGNOSE_SPEC, True),
    "synth-log": (cmd_synth_log, "write a synthetic conflict gradient log",
                  SYNTH_LOG_SPEC, True),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="passklab",
        description="pass@k gradient-conflict laboratory",
    )
    parser.add_argument("--config", default=None, help="flat key=value config file")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (func, help_line, spec, out) in COMMANDS.items():
        p = sub.add_parser(name, help=help_line)
        if name == "diagnose":  # the one command that reads an input file
            p.add_argument("--input", required=True)
        for flag, (cast, _default) in spec.items():
            p.add_argument(f"--{flag.replace('_', '-')}", type=cast, default=None)
        if out is not None:
            p.add_argument("--out", required=out)
        p.set_defaults(func=func, spec=spec)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        _resolve(args, args.spec, _read_config(args.config) if args.config else {})
        args.func(args)
    except IdentityCheckError as exc:
        print(f"internal check failed: {exc}", file=sys.stderr)
        return 1
    except (PassKLabError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
