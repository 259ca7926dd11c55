"""Parameter-sweep studies: filtering errors, L-ROM final-time errors,
log-log convergence rates, CSV and plot-data emission.

Five study kinds are provided, mirroring the benchmark protocol:

==============  =======================  =========================
kind            swept parameter          regression abscissa
==============  =======================  =========================
filter-delta    filter radius delta      delta
filter-r        retained modes r         H1 truncation error
lrom-dt         time step dt             dt
lrom-delta      filter radius delta      delta
lrom-r          retained modes r         H1 truncation error
==============  =======================  =========================

The regression ordinate is the average squared filtering error (filter
studies, L2 and H1) or the final-time L2 error (lrom studies). A sweep
point is the triple (r, delta, dt), the kind's fixed values but one.
"""

import math
import sys
from contextlib import suppress
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
import scipy.sparse as sp

from .exact import AnalyticSolution
from .fe import (VelocitySpace, assemble_mass, assemble_stiffness, build_space,
                 check_mesh_n)
from .filtering import apply_filter, build_filter
from .pod import (PODBasis, build_pod_basis, collapse, collect_snapshots,
                  default_times, grid_steps, truncation_errors)
from .rom import (LINEARIZATIONS, LROMConfig, StepDivergenceError,
                  build_trilinear_tensor, project_forcing, ROMOperators,
                  run, stability_check)

__all__ = [
    "STUDY_KINDS",
    "InvalidStudyError",
    "StudyConfig",
    "StudyResult",
    "SweepRecord",
    "avg_filter_errors",
    "final_time_error",
    "loglog_regression",
    "run_study",
    "CSV_HEADER",
]

# The lrom studies' final-time error variants; the first is the default.
FINAL_ERRORS = ("rom", "filtered-snapshot")

CSV_HEADER = "param,value,e_l2,e_h1,lambda_l2,lambda_h1,slope_running"

# Default sweep grids, copied from the benchmark tables.
DEFAULT_SWEEPS = {
    "filter-delta": [1e-2, 5e-3, 2.5e-3, 2e-3, 1.67e-3, 1.25e-3],
    "filter-r": [30, 40, 50, 60, 70, 80],
    "lrom-dt": [1e-2, 5e-3, 2.5e-3, 1.25e-3, 6.25e-4],
    "lrom-delta": [5e-1, 2.5e-1, 1.25e-1, 6.25e-2, 3.125e-2, 1.5625e-2],
    "lrom-r": [10, 20, 30, 40, 50],
}

# Fixed parameters per kind; None marks the swept one.
DEFAULT_FIXED = {
    "filter-delta": dict(r=95, delta=None, dt=1e-4),
    "filter-r": dict(r=None, delta=1e-3, dt=1e-4),
    "lrom-dt": dict(r=99, delta=1e-4, dt=None),
    "lrom-delta": dict(r=99, delta=None, dt=1e-4),
    "lrom-r": dict(r=None, delta=1e-2, dt=1e-4),
}

STUDY_KINDS = tuple(DEFAULT_FIXED)


class InvalidStudyError(ValueError):
    """A study parameter is out of range; the CLI reports it as exit 2."""


# Per-point failures that leave a failed row instead of aborting the study.
_POINT_ERRORS = (StepDivergenceError, ValueError, np.linalg.LinAlgError,
                 MemoryError)


@dataclass
class StudyConfig:
    kind: str
    mesh_n: int = 64
    snap_dt: float = 1e-2
    t_final: float = 1.0
    nu: float = 1e-3
    r: int | None = None
    delta: float | None = None
    dt: float | None = None
    sweep: list | None = None
    out: str | None = None
    linearization: str = LINEARIZATIONS[0]
    final_error_variant: str = FINAL_ERRORS[0]

    def __post_init__(self):
        if self.kind not in STUDY_KINDS:
            raise InvalidStudyError(f"unknown study kind {self.kind!r}")
        if self.final_error_variant not in FINAL_ERRORS:
            raise InvalidStudyError(
                f"unknown final_error_variant {self.final_error_variant!r}")
        if self.out is not None:  # refused now, not once the study has run
            out = Path(self.out)
            try:
                bad = (out.is_dir() or Path(f"{out}.plot").is_dir()
                       or not next(p for p in out.absolute().parents
                                   if p.exists()).is_dir())
            except OSError as exc:  # such as a name too long to look up
                raise InvalidStudyError(
                    f"cannot write {out}: {exc.strerror}") from None
            if bad:
                raise InvalidStudyError(
                    f"cannot write {out}: it or its .plot file is a "
                    "directory, or a parent is not one")
        try:
            check_mesh_n(self.mesh_n)
        except ValueError as exc:
            raise InvalidStudyError(str(exc)) from None
        for name, default in DEFAULT_FIXED[self.kind].items():
            if getattr(self, name) is None:
                setattr(self, name, default)
        if self.sweep is None:
            self.sweep = list(DEFAULT_SWEEPS[self.kind])
        if len(self.sweep) == 0:
            raise InvalidStudyError("sweep list is empty")
        # a float must hold each (a huge int is below inf); the fixed dt
        # too, which LROMConfig below does not see when dt is swept
        for name in ("delta", "dt", "r"):
            value = getattr(self, name)
            if value is not None and not abs(value) <= sys.float_info.max:
                raise InvalidStudyError(f"{name} must be finite, got {value}")
        if not all(abs(v) <= sys.float_info.max for v in self.sweep):
            raise InvalidStudyError("sweep values must be finite")
        diffs = np.diff(np.asarray(self.sweep, dtype=float))
        if len(diffs) and not (np.all(diffs > 0) or np.all(diffs < 0)):
            raise InvalidStudyError("sweep values must be strictly monotone")
        try:
            grid_steps(self.t_final, self.snap_dt, "snap_dt")
            for dt in self._values("dt"):
                LROMConfig(dt=dt, t_final=self.t_final, nu=self.nu,
                           linearization=self.linearization)
        except ValueError as exc:
            raise InvalidStudyError(str(exc)) from None
        if any(v < 0 for v in self._values("delta")):
            raise InvalidStudyError("delta must be nonnegative")
        if any(not math.isfinite(float(v) * float(v))
               for v in self._values("delta")):
            raise InvalidStudyError("delta squared must be finite")
        for r in self._values("r"):
            if r != int(r):
                raise InvalidStudyError(f"r={r} is not an integer")
        if self.param_name == "r":
            self.sweep = [int(v) for v in self.sweep]
        else:
            self.sweep = [float(v) for v in self.sweep]
            self.r = int(self.r)

    @property
    def param_name(self) -> str:
        return next(name for name, value in DEFAULT_FIXED[self.kind].items()
                    if value is None)

    def _values(self, name: str) -> list:
        """The swept values of parameter name, else its fixed value if set."""
        if self.param_name == name:
            return list(self.sweep)
        value = getattr(self, name)
        return [] if value is None else [value]


@dataclass
class SweepRecord:
    value: float
    e_l2: float | None = None
    e_h1: float | None = None
    lambda_l2: float | None = None
    lambda_h1: float | None = None
    picard_mean: float | None = None
    picard_max: int | None = None
    # the worst step's final Picard residual; None on the semi-implicit
    # path, which forms none
    picard_residual_max: float | None = None
    tensor_rank: int | None = None  # run's; <= 1: its scalar path ran
    stability_max: float | None = None
    regression_x: float | None = None
    error: str | None = None
    error_type: str | None = None   # the failure's exception class name
    error_step: int | None = None   # a StepDivergenceError's step, if set
    error_residual: float | None = None  # its last Picard residual,
    error_ratio: float | None = None     # and residual ratio, if set

    @property
    def ok(self) -> bool:
        return self.error is None

    @property
    def usable(self) -> bool:
        # enters the log-log fit; at r = d the abscissa Lambda_H1 is 0
        return (self.ok and self.e_l2 is not None and self.e_l2 > 0
                and self.regression_x > 0)


@dataclass
class StudyResult:
    config: StudyConfig
    records: list
    slope: float | None = None
    intercept: float | None = None
    r_squared: float | None = None
    slope_h1: float | None = None
    r_squared_h1: float | None = None

    @property
    def n_failed(self) -> int:
        return sum(not rec.ok for rec in self.records)

    @property
    def status(self) -> str:
        if self.n_failed:
            return "sweep-failures"
        if self.slope is None:
            return "no-regression"
        return "ok"


def loglog_regression(xs, ys):
    """Ordinary least squares on (ln x, ln y); returns (slope, intercept, R^2)."""
    xs = np.asarray(xs, dtype=float)
    ys = np.asarray(ys, dtype=float)
    if xs.size < 2:
        raise ValueError("regression needs at least 2 points")
    if np.any(xs <= 0) or np.any(ys <= 0):
        raise ValueError("regression requires positive values")
    lx, ly = np.log(xs), np.log(ys)
    slope, intercept = np.polyfit(lx, ly, 1)
    fit = slope * lx + intercept
    ss_res = float(np.sum((ly - fit) ** 2))
    ss_tot = float(np.sum((ly - ly.mean()) ** 2))
    r2 = 1.0 if ss_tot == 0 else 1.0 - ss_res / ss_tot
    return float(slope), float(intercept), min(max(r2, 0.0), 1.0)


def _check_r(basis: PODBasis, r: int) -> None:
    if not 1 <= r <= basis.d:
        raise InvalidStudyError(f"r={r} outside [1, d={basis.d}]")


def avg_filter_errors(basis: PODBasis, r: int, delta: float):
    """Average squared filtering errors over all snapshots.

    Returns (E_L2, E_H1): the mean of |u_k - filt(u_k)|^2 in the L2 norm
    and in the H1 seminorm, where filt(u_k) = Phi_r F^-1 c_k[:r] and
    c = Phi^T M U holds the snapshots' POD coordinates. The error is
    w_k + Phi e_k, with w_k the part of u_k outside span(Phi) and
    e_k = c_k - (F^-1 c_k[:r]; 0). The modes are L2-orthonormal and
    M-orthogonal to w, and the rows of e and of Phi^T S w lie in the
    orthogonal spans of the kept and the dropped correlation
    eigenvectors, so the means are |w|^2 + e . e / K and
    |w|^2_S + e^T G e / K with G = grad_gram. No N-sized array is
    touched.
    """
    _check_r(basis, r)
    filt = build_filter(basis.grad_gram[:r, :r], delta)
    e = basis.snap_coords.copy()
    e[:r] -= apply_filter(filt, e[:r])
    count = e.shape[1]
    res_l2, res_h1 = basis.residual_energy.sum(axis=1)
    return (float((res_l2 + np.sum(e * e)) / count),
            float((res_h1 + np.sum(e * (basis.grad_gram @ e))) / count))


def final_time_error(traj, basis: PODBasis, r: int, variant: str = "rom",
                     filt=None) -> float:
    """L2 error at the final time, the last snapshot u(T) = Phi c + w.

    variant="rom" measures |u(T) - u_r(T)|; variant="filtered-snapshot"
    measures |u(T) - filt(P_r u(T))| instead (the literal filtered-
    snapshot definition), which needs the filter matrix. With a the
    approximation's coordinates, the error is w + Phi e for
    e = c - (a; 0), and its squared norm is |w|^2 + e . e, since the
    modes are L2-orthonormal and M-orthogonal to w.
    """
    e = basis.snap_coords[:, -1].copy()
    if variant == "rom":
        e[:r] -= traj.final_state
    elif variant == "filtered-snapshot":
        if filt is None:
            raise ValueError("filtered-snapshot variant needs a filter")
        e[:r] -= apply_filter(filt, e[:r])
    else:
        raise ValueError(f"unknown final-error variant {variant!r}")
    return math.sqrt(basis.residual_energy[0, -1] + e @ e)


# The StudyConfig fields a context is built from; run_study refuses a
# context built under other values.
CONTEXT_SETTINGS = ("mesh_n", "snap_dt", "t_final", "nu")


@dataclass
class StudyContext:
    """Objects shared across sweep points and run_study calls."""

    space: VelocitySpace
    m_op: sp.csr_matrix
    basis: PODBasis
    solution: AnalyticSolution
    settings: dict            # CONTEXT_SETTINGS -> the values built from
    # the read-only advection tensor and forcing series (one per dt, on
    # the levels 0, dt, ..., settings["t_final"]), built for the largest
    # r asked for so far, whose leading blocks serve smaller r, and the
    # R factor of each r's leading block
    _width: int = field(default=0, init=False, repr=False)
    _tensor: np.ndarray | None = field(default=None, init=False, repr=False)
    _forcing: dict = field(default_factory=dict, init=False, repr=False)
    _unfolded_r: dict = field(default_factory=dict, init=False, repr=False)

    def operators(self, r: int, dt: float) -> ROMOperators:
        """ROM operators on r modes for the time levels 0, dt, ..., t_final,
        with t_final from the context's settings.

        A larger r than any before drops the tensor, every forcing series
        and every R factor, then builds the wider tensor. The initial
        coordinates are those of the first snapshot, u(0).
        """
        _check_r(self.basis, r)
        if r > self._width:
            # freed before the wider tensor is built
            self._width, self._tensor = 0, None
            self._forcing, self._unfolded_r = {}, {}
            self._tensor = build_trilinear_tensor(self.basis, r, self.space)
            self._tensor.flags.writeable = False
            self._width = r
        if dt not in self._forcing:
            times = default_times(dt, self.settings["t_final"])
            self._forcing[dt] = project_forcing(
                self.basis, self._width, self.m_op, self.solution, times,
                self.space)
            self._forcing[dt].flags.writeable = False
        ops = ROMOperators(s_r=self.basis.grad_gram[:r, :r],
                           tensor=self._tensor[:r, :r, :r],
                           forcing=self._forcing[dt][:, :r],
                           a0=self.basis.snap_coords[:r, 0].copy(),
                           cached_r=self._unfolded_r.get(r))
        ops.unfolded_r.flags.writeable = False
        self._unfolded_r[r] = ops.unfolded_r
        return ops


def build_context(cfg: StudyConfig) -> StudyContext:
    solution = AnalyticSolution(nu=cfg.nu)
    space = build_space(cfg.mesh_n)
    m_op = assemble_mass(space)
    times = default_times(cfg.snap_dt, cfg.t_final)
    u, rows = collect_snapshots(space, solution, times)
    basis = build_pod_basis(u, rows, collapse(m_op, rows),
                            collapse(assemble_stiffness(space), rows))
    settings = {name: getattr(cfg, name) for name in CONTEXT_SETTINGS}
    return StudyContext(space=space, m_op=m_op, basis=basis,
                        solution=solution, settings=settings)


def _lrom_point(cfg: StudyConfig, ctx: StudyContext, rec: SweepRecord,
                r: int, delta: float, dt: float) -> None:
    rom_cfg = LROMConfig(dt=dt, t_final=cfg.t_final, nu=cfg.nu,
                         linearization=cfg.linearization)
    ops = ctx.operators(r, dt)
    filt = build_filter(ops.s_r, delta)
    traj = run(ops, filt, rom_cfg)
    ledger_max = float(stability_check(traj, ops, rom_cfg).max())
    if not np.isfinite(ledger_max):
        raise StepDivergenceError("stability ledger is non-finite")
    rec.stability_max = ledger_max
    rec.e_l2 = final_time_error(traj, ctx.basis, r,
                                variant=cfg.final_error_variant, filt=filt)
    rec.picard_mean = float(traj.iter_counts.mean())
    rec.picard_max = int(traj.iter_counts.max())
    formed = traj.residuals[~np.isnan(traj.residuals)]
    rec.picard_residual_max = float(formed.max()) if formed.size else None
    rec.tensor_rank = traj.tensor_rank


def _fmt(x) -> str:
    return "" if x is None else f"{x:.17g}"


def write_csv(path, cfg: StudyConfig, records):
    """CSV with the fixed header; running slope uses surviving rows only."""
    lines = [CSV_HEADER]
    xs, ys = [], []
    for rec in records:
        slope_running = ""
        if rec.usable:
            xs.append(rec.regression_x)
            ys.append(rec.e_l2)
            if len(xs) >= 2:
                slope_running = _fmt(loglog_regression(xs, ys)[0])
        lines.append(",".join([
            cfg.param_name, _fmt(rec.value), _fmt(rec.e_l2), _fmt(rec.e_h1),
            _fmt(rec.lambda_l2), _fmt(rec.lambda_h1), slope_running,
        ]))
    Path(path).write_text("\n".join(lines) + "\n")


def write_plot_data(path, result: "StudyResult"):
    """log10(param) log10(error) pairs plus a fitted-line sample."""
    recs = [r for r in result.records if r.usable]
    lines = ["# log10(param) log10(e_l2)"]
    for rec in recs:
        lines.append(f"{math.log10(rec.regression_x):.17g} "
                     f"{math.log10(rec.e_l2):.17g}")
    if result.slope is not None:
        lines.append("")
        lines.append("# fitted line")
        for rec in recs:
            ly = result.slope * math.log(rec.regression_x) + result.intercept
            lines.append(f"{math.log10(rec.regression_x):.17g} "
                         f"{ly / math.log(10.0):.17g}")
    Path(path).write_text("\n".join(lines) + "\n")


def run_study(cfg: StudyConfig, ctx: StudyContext | None = None) -> StudyResult:
    """Build the pipeline, sweep the parameter, regress, and emit files."""
    if ctx is None:
        ctx = build_context(cfg)
    for name, built in ctx.settings.items():
        if getattr(cfg, name) != built:
            raise InvalidStudyError(
                f"{name}={getattr(cfg, name)} differs from the context's "
                f"{name}={built}")
    for r in cfg._values("r"):  # all checked before any operator is built
        _check_r(ctx.basis, r)
    lrom = cfg.kind.startswith("lrom")
    if lrom:
        # ask for the study's largest r first, so that the tensor and each
        # forcing series are built once, at that width; a failure here
        # recurs at, and is recorded by, each point
        with suppress(*_POINT_ERRORS):
            ctx.operators(max(cfg._values("r")), cfg._values("dt")[0])
    records = []
    for value in cfg.sweep:
        # the fixed values, the swept one replaced (its key keeps its place)
        r, delta, dt = {"r": cfg.r, "delta": cfg.delta, "dt": cfg.dt,
                        cfg.param_name: value}.values()
        lam_l2, lam_h1 = truncation_errors(ctx.basis, r)
        rec = SweepRecord(value=value, lambda_l2=lam_l2, lambda_h1=lam_h1,
                          regression_x=(lam_h1 if cfg.param_name == "r"
                                        else value))
        try:
            if lrom:
                _lrom_point(cfg, ctx, rec, r, delta, dt)
            else:
                rec.e_l2, rec.e_h1 = avg_filter_errors(ctx.basis, r, delta)
        except _POINT_ERRORS as exc:
            rec.error = str(exc)
            rec.error_type = type(exc).__name__
            rec.error_step = getattr(exc, "step", None)
            rec.error_residual = getattr(exc, "residual", None)
            rec.error_ratio = getattr(exc, "ratio", None)
        records.append(rec)

    result = StudyResult(config=cfg, records=records)
    good = [r for r in records if r.usable]
    if len(good) >= 2:
        xs = [r.regression_x for r in good]
        result.slope, result.intercept, result.r_squared = loglog_regression(
            xs, [r.e_l2 for r in good])
        if all(r.e_h1 is not None and r.e_h1 > 0 for r in good):
            result.slope_h1, _, result.r_squared_h1 = loglog_regression(
                xs, [r.e_h1 for r in good])
    if cfg.out is not None:
        out = Path(cfg.out)
        out.parent.mkdir(parents=True, exist_ok=True)
        write_csv(out, cfg, records)
        write_plot_data(Path(f"{out}.plot"), result)
    return result
