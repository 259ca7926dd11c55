"""Leray-ROM time stepping and convergence.

Runs the regularized ROM (implicit Euler, Picard-linearized, filtered
advecting field) on the sharp-layer benchmark and prints final-time L2
errors for a time-step sweep and a filter-radius sweep, with the
fitted convergence rates and the discrete energy ledger. Defaults are
sized for a laptop; pass mesh_n=64 and r=99 for the full benchmark.

Run:  python3 demos/demo_lrom_convergence.py [mesh_n] [r]
"""

import sys

from romlab.study import StudyConfig, build_context, run_study


def show(result):
    cfg = result.config
    fixed = ", ".join(f"{k}={v:g}" for k, v in
                      (("r", cfg.r), ("delta", cfg.delta), ("dt", cfg.dt))
                      if v is not None and k != cfg.param_name)
    print(f"\n{cfg.kind} ({fixed})")
    print(f"{cfg.param_name:>10} {'E(T)':>12} {'picard':>7} {'energy':>10}")
    for rec in result.records:
        if rec.ok:
            print(f"{rec.value:>10.4g} {rec.e_l2:>12.4e} "
                  f"{rec.picard_mean:>7.2f} {rec.stability_max:>10.3e}")
        else:
            print(f"{rec.value:>10.4g}  FAILED: {rec.error}")
    if result.slope is not None:
        print(f"rate: {result.slope:.2f} (R^2 {result.r_squared:.3f})")


def main():
    n = int(sys.argv[1]) if len(sys.argv) > 1 else 16
    ctx = build_context(StudyConfig(kind="lrom-dt", mesh_n=n))
    # the default r never exceeds the POD rank of a coarse mesh
    r = int(sys.argv[2]) if len(sys.argv) > 2 else (
        99 if n >= 64 else min(12, ctx.basis.d))
    print(f"mesh n={n}, POD rank d={ctx.basis.d}, r={r}")

    show(run_study(StudyConfig(
        kind="lrom-dt", mesh_n=n, r=r, delta=1e-4,
        sweep=[1e-2, 5e-3, 2.5e-3, 1.25e-3]), ctx))

    show(run_study(StudyConfig(
        kind="lrom-delta", mesh_n=n, r=r, dt=1e-3,
        sweep=[2.5e-1, 1.25e-1, 6.25e-2, 3.125e-2]), ctx))


if __name__ == "__main__":
    main()
