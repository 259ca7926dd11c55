"""Command-line study runner.

    romlab <study-kind> [--mesh-n N] [--r R] [--delta D] [--dt DT]
           [--nu NU] [--t-final T] [--sweep v1,v2,...] [--out PATH]
           [--linearization MODE] [--final-error VARIANT]

Exit codes: 0 success; 2 invalid config, out of memory while building
the context, or an output file that cannot be written; 3 sweep-point
failure(s) with partial output; 4 regression impossible.
"""

import argparse
import sys

from .rom import LINEARIZATIONS
from .study import (FINAL_ERRORS, STUDY_KINDS, InvalidStudyError, StudyConfig,
                    build_context, run_study)


def build_parser() -> argparse.ArgumentParser:
    """The parser sets only the options given, named as the StudyConfig
    fields they set; StudyConfig holds every default."""
    p = argparse.ArgumentParser(
        prog="romlab", description="ROM filtering / Leray-ROM studies",
        argument_default=argparse.SUPPRESS)
    p.add_argument("kind", choices=STUDY_KINDS)
    p.add_argument("--mesh-n", type=int)
    p.add_argument("--r", type=int)
    p.add_argument("--delta", type=float)
    p.add_argument("--dt", type=float)
    p.add_argument("--nu", type=float)
    p.add_argument("--t-final", type=float)
    p.add_argument("--sweep", help="comma-separated sweep values")
    p.add_argument("--out", help="CSV output path")
    p.add_argument("--linearization", choices=LINEARIZATIONS)
    p.add_argument("--final-error", dest="final_error_variant",
                   choices=FINAL_ERRORS)
    return p


def main(argv=None) -> int:
    args = vars(build_parser().parse_args(argv))
    try:
        if "sweep" in args:
            # r sweeps stay floats here: StudyConfig rejects non-integers
            # such as 3.7 instead of truncating them
            args["sweep"] = [float(v) for v in args["sweep"].split(",")
                             if v.strip()]
        cfg = StudyConfig(**args)
    except ValueError as exc:
        print(f"romlab: invalid config: {exc}", file=sys.stderr)
        return 2

    try:
        ctx = build_context(cfg)
    except MemoryError as exc:
        print(f"romlab: out of memory: {exc}", file=sys.stderr)
        return 2
    try:
        result = run_study(cfg, ctx)
    except InvalidStudyError as exc:
        print(f"romlab: invalid config: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:  # writing the CSV or .plot file, such as ENOSPC
        print(f"romlab: cannot write {exc.filename or cfg.out}: "
              f"{exc.strerror or exc}", file=sys.stderr)
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
