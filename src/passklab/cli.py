"""Command-line surface: seeded, reproducible experiment commands.

Every command resolves its parameters as explicit flags first, then a
flat key=value config file, then the PASSK_SEED environment variable
(seed only), then built-in defaults.  File-writing commands put all
outputs under --out together with a manifest naming inputs, resolved
parameters, and package versions.
"""

import argparse
import math
import os
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .bandit import (
    BanditConfig,
    DEFAULT_HARD_FRACTION,
    DEFAULT_SEED,
    DEFAULT_SEPARATION,
    overlap_pair,
    grad_success_probs,
    sample_prompts,
    success_probs,
)
from .conflict import conflict_bound, k_star
from .errors import IdentityCheckError, PassKLabError
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
from .objectives import wk
from .optimizer import ascent_step, evaluate_state, run_trajectory, trajectory_to_csv
from .serialization import fmt, write_json


def _read_config(path) -> dict:
    """Flat key = value lines of UTF-8 text; '#' starts a comment; dashes
    equal underscores."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise PassKLabError(
            f"{path}: not UTF-8 text ({exc.reason} at byte {exc.start})"
        ) from exc
    out = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise PassKLabError(f"{path}: line {lineno}: expected 'key = value'")
        key, value = line.split("=", 1)
        out[key.strip().replace("-", "_")] = value.strip()
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


def _write_manifest(out_dir: Path, command: str, params: dict, inputs, outputs):
    manifest = {
        "command": command,
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


def _params(args, spec) -> dict:
    return {name: getattr(args, name) for name in spec}


TOY_DEMO_SPEC = {
    "k": (int, 10),
    "eta": (float, 5.0),
    "margin": (float, 1e-3),
}


def cmd_toy_demo(args, config) -> int:
    _resolve(args, TOY_DEMO_SPEC, config)
    batch, theta = overlap_pair()
    k, eta = args.k, args.eta

    p = success_probs(theta, batch)
    g = grad_success_probs(theta, batch)
    psi_e, psi_h = batch.features
    g_e, g_h = g
    table = GradientTable.uniform(g, ids=batch.ids)

    theta_plus, before = ascent_step(theta, batch, k, eta, margin=args.margin)
    after = evaluate_state(theta_plus, batch, k, margin=args.margin)

    result = {
        "theta_ref": [float(v) for v in theta],
        "p_easy": float(p[0]),
        "p_hard": float(p[1]),
        "cos_features": _cosine(psi_e, psi_h),
        "kernel_easy_hard": float(g_e @ g_h),
        "cos_grads": _cosine(g_e, g_h),
        "w_easy": wk(float(p[0]), k),
        "w_hard": wk(float(p[1]), k),
        "cos_grad_j1_grad_jk": _cosine(before.grad_k, table.mean_grad),
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
        out_dir = Path(args.out)
        out_dir.mkdir(parents=True, exist_ok=True)
        report_path = out_dir / "toy_demo.json"
        write_json(report_path, result)
        _write_manifest(
            out_dir, "toy-demo", _params(args, TOY_DEMO_SPEC), [], [report_path]
        )
    return 0


def _cosine(a, b) -> float:
    denom = np.linalg.norm(a) * np.linalg.norm(b)
    return float(a @ b / denom) if denom > 0 else 0.0


HEATMAP_SPEC = {
    "separation": (float, DEFAULT_SEPARATION),
    "hard_fraction": (float, DEFAULT_HARD_FRACTION),
    "n": (int, 6000),
    "subsample": (int, 200),
    "seed": (int, DEFAULT_SEED),
}


def cmd_heatmap(args, config) -> int:
    _resolve(args, HEATMAP_SPEC, config)
    if args.subsample < 1:
        raise PassKLabError(f"subsample must be >= 1, got {args.subsample}")
    cfg = BanditConfig(
        separation=args.separation, hard_fraction=args.hard_fraction, seed=args.seed
    )
    batch = sample_prompts(cfg, args.n)
    _, theta = overlap_pair()
    grads = grad_success_probs(theta, batch)

    # 3:2 easy:hard split, as in the 120/80 default.
    n_easy = int(round(args.subsample * 0.6))
    n_hard = args.subsample - n_easy
    easy_idx = np.flatnonzero(~batch.hard_mask)[:n_easy]
    hard_idx = np.flatnonzero(batch.hard_mask)[:n_hard]
    sub = np.concatenate([easy_idx, hard_idx])
    if sub.size < args.subsample:
        print(
            f"warning: only {sub.size} prompts available for subsample "
            f"{args.subsample}",
            file=sys.stderr,
        )
    table = GradientTable.uniform(grads[sub], ids=[batch.ids[i] for i in sub])
    cos = kernel_matrix(table)

    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    csv_path = out_dir / "heatmap.csv"
    kernel_matrix_to_csv(cos, table.ids, csv_path)
    _write_manifest(out_dir, "heatmap", _params(args, HEATMAP_SPEC), [], [csv_path])
    print(f"wrote {cos.shape[0]}x{cos.shape[1]} cosine kernel to {csv_path}")
    return 0


TRAJECTORY_SPEC = {
    "separation": (float, DEFAULT_SEPARATION),
    "hard_fraction": (float, DEFAULT_HARD_FRACTION),
    "n": (int, 6000),
    "k": (int, 5),
    "eta": (float, 1.0),
    "steps": (int, 100),
    "margin": (float, 1e-6),
    "seed": (int, DEFAULT_SEED),
}


def cmd_trajectory(args, config) -> int:
    _resolve(args, TRAJECTORY_SPEC, config)
    cfg = BanditConfig(
        separation=args.separation, hard_fraction=args.hard_fraction, seed=args.seed
    )
    records = run_trajectory(
        cfg, k=args.k, eta=args.eta, steps=args.steps, n=args.n, margin=args.margin
    )
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    csv_path = out_dir / "trajectory.csv"
    trajectory_to_csv(records, csv_path)
    _write_manifest(
        out_dir, "trajectory", _params(args, TRAJECTORY_SPEC), [], [csv_path]
    )
    first, last = records[0], records[-1]
    print(
        f"j1_pop {fmt(first.j1_pop)} -> {fmt(last.j1_pop)}; "
        f"j{args.k}_pop {fmt(first.jk_pop)} -> {fmt(last.jk_pop)}"
    )
    print(f"wrote {len(records)} rows to {csv_path}")
    return 0


KSTAR_SPEC = {
    "eps": (float, 0.05),
    "delta_sep": (float, 0.5),
    "q": (float, 0.1),
    "m": (float, 0.01),
    "g2": (float, 1.0),
    "k_max": (int, 0),  # 0 means 2 * ceil(k_star)
}


def cmd_kstar(args, config) -> int:
    _resolve(args, KSTAR_SPEC, config)
    threshold = k_star(args.eps, args.delta_sep, args.q, args.m, args.g2)
    print(f"k_star = {fmt(threshold)}")
    if math.isinf(threshold):
        print("threshold is infinite; no finite k is certified")
        return 0
    k_max = args.k_max if args.k_max > 0 else max(2, 2 * math.ceil(threshold))
    print("k\tconflict_bound\tcertified")
    for k in range(1, k_max + 1):
        bound = conflict_bound(k, args.eps, args.delta_sep, args.q, args.m, args.g2)
        print(f"{k}\t{fmt(bound)}\t{'yes' if bound > 0 else 'no'}")
    return 0


DIAGNOSE_SPEC = {
    "k": (int, 32),
    "delta1": (float, 0.85),
    "delta2": (float, 0.10),
}


def cmd_diagnose(args, config) -> int:
    _resolve(args, DIAGNOSE_SPEC, config)
    records = load_gradlog(args.input)
    spec = FilterSpec(delta1=args.delta1, delta2=args.delta2)
    filtered = filter_by_difficulty(records, spec)
    print(filtered.counts_summary())
    report = diagnose(filtered, args.k)

    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    report_path = out_dir / "diagnose.json"
    rows_path = out_dir / "prompts.csv"
    scatter_path = out_dir / "scatter.csv"
    report_to_json(report, report_path)
    report_rows_to_csv(report, rows_path)
    report_scatter_to_csv(report, scatter_path)
    params = dict(_params(args, DIAGNOSE_SPEC), input=str(args.input))
    _write_manifest(
        out_dir, "diagnose", params, [args.input],
        [report_path, rows_path, scatter_path],
    )
    print(f"unweighted mean agreement = {fmt(report.unweighted_mean_agreement)}")
    print(f"weighted mean agreement   = {fmt(report.weighted_mean_agreement)}")
    print(f"mean shift                = {fmt(report.mean_shift)}")
    print(f"inner product             = {fmt(report.inner_product)}")
    return 0


SYNTH_LOG_SPEC = {
    "n": (int, 600),
    "d": (int, 64),
    "hard_fraction": (float, 0.15),
    "seed": (int, 0),
}


def cmd_synth_log(args, config) -> int:
    _resolve(args, SYNTH_LOG_SPEC, config)
    records = make_synthetic_conflict_log(
        n=args.n, d=args.d, seed=args.seed, hard_fraction=args.hard_fraction
    )
    out_path = Path(args.out)
    out_path.parent.mkdir(parents=True, exist_ok=True)
    export_gradlog(records, out_path)
    print(f"wrote {len(records)} records (d={args.d}) to {out_path}")
    return 0


def _add_spec_flags(parser, spec):
    for name, (cast, _default) in spec.items():
        parser.add_argument(f"--{name.replace('_', '-')}", type=cast, default=None)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="passklab",
        description="pass@k gradient-conflict laboratory",
    )
    parser.add_argument("--config", default=None, help="flat key=value config file")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("toy-demo", help="two-prompt conflict walkthrough")
    _add_spec_flags(p, TOY_DEMO_SPEC)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_toy_demo, spec=TOY_DEMO_SPEC)

    p = sub.add_parser("heatmap", help="cosine kernel matrix over a sampled batch")
    _add_spec_flags(p, HEATMAP_SPEC)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_heatmap, spec=HEATMAP_SPEC)

    p = sub.add_parser("trajectory", help="multi-step ascent with objective tracking")
    _add_spec_flags(p, TRAJECTORY_SPEC)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_trajectory, spec=TRAJECTORY_SPEC)

    p = sub.add_parser("kstar", help="conflict threshold in k and bound sweep")
    _add_spec_flags(p, KSTAR_SPEC)
    p.set_defaults(func=cmd_kstar, spec=KSTAR_SPEC)

    p = sub.add_parser("diagnose", help="analyze an external gradient log")
    p.add_argument("--input", required=True)
    _add_spec_flags(p, DIAGNOSE_SPEC)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_diagnose, spec=DIAGNOSE_SPEC)

    p = sub.add_parser("synth-log", help="write a synthetic conflict gradient log")
    _add_spec_flags(p, SYNTH_LOG_SPEC)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_synth_log, spec=SYNTH_LOG_SPEC)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        config = _read_config(args.config) if args.config else {}
        return args.func(args, config)
    except IdentityCheckError as exc:
        print(f"internal check failed: {exc}", file=sys.stderr)
        return 1
    except (PassKLabError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
