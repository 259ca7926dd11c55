"""Command-line study runner.

    romlab <study-kind> [--mesh-n N] [--r R] [--delta D] [--dt DT]
           [--nu NU] [--t-final T] [--sweep v1,v2,...] [--out PATH]
           [--linearization MODE] [--final-error VARIANT]

Exit codes: 0 success; 2 invalid config; 3 sweep-point failure(s) with
partial output; 4 regression impossible.
"""

import argparse
import sys

from .study import STUDY_KINDS, InvalidStudyError, StudyConfig, run_study


def _parse_sweep(text: str):
    # r sweeps stay floats here: StudyConfig rejects non-integers such as
    # 3.7 instead of truncating them
    return [float(v) for v in text.split(",") if v.strip()]


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="romlab",
                                description="ROM filtering / Leray-ROM studies")
    p.add_argument("study_kind", choices=STUDY_KINDS)
    p.add_argument("--mesh-n", type=int, default=64)
    p.add_argument("--r", type=int, default=None)
    p.add_argument("--delta", type=float, default=None)
    p.add_argument("--dt", type=float, default=None)
    p.add_argument("--nu", type=float, default=1e-3)
    p.add_argument("--t-final", type=float, default=1.0)
    p.add_argument("--sweep", type=str, default=None,
                   help="comma-separated sweep values")
    p.add_argument("--out", type=str, default=None, help="CSV output path")
    p.add_argument("--linearization", type=str, default="picard-implicit",
                   choices=["picard-implicit", "semi-implicit"])
    p.add_argument("--final-error", type=str, default="rom",
                   choices=["rom", "filtered-snapshot"])
    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = StudyConfig(
            kind=args.study_kind,
            mesh_n=args.mesh_n,
            nu=args.nu,
            t_final=args.t_final,
            r=args.r,
            delta=args.delta,
            dt=args.dt,
            sweep=(None if args.sweep is None
                   else _parse_sweep(args.sweep)),
            out=args.out,
            linearization=args.linearization,
            final_error_variant=args.final_error,
        )
    except ValueError as exc:
        print(f"romlab: invalid config: {exc}", file=sys.stderr)
        return 2

    try:
        result = run_study(cfg)
    except InvalidStudyError as exc:
        print(f"romlab: invalid config: {exc}", file=sys.stderr)
        return 2
    for rec in result.records:
        if rec.ok:
            extra = "" if rec.e_h1 is None else f"  e_h1={rec.e_h1:.6e}"
            if rec.picard_mean is not None:
                extra += (f"  picard={rec.picard_mean:.2f}/{rec.picard_max}"
                          f"  energy={rec.stability_max:.6e}")
            print(f"{cfg.param_name}={rec.value:g}  e_l2={rec.e_l2:.6e}{extra}")
        else:
            print(f"{cfg.param_name}={rec.value:g}  FAILED: {rec.error}",
                  file=sys.stderr)
    if result.slope is not None:
        print(f"slope={result.slope:.4f}  intercept={result.intercept:.4f}  "
              f"R^2={result.r_squared:.4f}")
        if result.slope_h1 is not None:
            print(f"slope_h1={result.slope_h1:.4f}  "
                  f"R^2_h1={result.r_squared_h1:.4f}")
    else:
        print("warning: regression impossible (fewer than 2 surviving points)",
              file=sys.stderr)

    return {"ok": 0, "sweep-failures": 3, "no-regression": 4}[result.status]


if __name__ == "__main__":
    raise SystemExit(main())
