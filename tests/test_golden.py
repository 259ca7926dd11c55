"""Golden regression test: the study outputs at n = 8, pinned.

Every study kind runs a short sweep on one shared n = 8 context (d = 15
POD modes), plus one semi-implicit point and one point with the
filtered-snapshot final error. The expected values were computed by the
code before the ROM layer was reduced to one operator builder and one
stepper; a refactor that keeps the arithmetic must reproduce them to
roundoff. Expected per point: (value, e_l2, e_h1, lambda_l2, lambda_h1);
per study: the L2 and H1 log-log slopes (None where undefined).
"""

import pytest

from romlab.study import StudyConfig, build_context, run_study

RTOL = 1e-10

SPECS = {
    "filter-delta": dict(kind="filter-delta", r=6, sweep=[1e-1, 5e-2, 2.5e-2]),
    "filter-r": dict(kind="filter-r", delta=1e-2, sweep=[2, 4, 6]),
    "lrom-dt": dict(kind="lrom-dt", r=6, delta=1e-2,
                    sweep=[1e-1, 5e-2, 2.5e-2]),
    "lrom-delta": dict(kind="lrom-delta", r=6, dt=1e-2,
                       sweep=[0.5, 0.25, 0.125]),
    "lrom-r": dict(kind="lrom-r", delta=1e-2, dt=1e-2, sweep=[2, 4, 6]),
    "semi-implicit": dict(kind="lrom-dt", r=6, delta=1e-2, sweep=[5e-2],
                          linearization="semi-implicit"),
    "filtered-snapshot": dict(kind="lrom-delta", r=6, dt=5e-2, sweep=[0.25],
                              final_error_variant="filtered-snapshot"),
}

GOLDEN = {
    "filter-delta": (
        [
            (0.1, 0.09210682125712404, 44.103987935936196,
             0.02113324756387138, 31.017143307103325),
            (0.05, 0.036724976438989296, 35.39850093557251,
             0.02113324756387138, 31.017143307103325),
            (0.025, 0.023175210550940656, 31.696655057526712,
             0.02113324756387138, 31.017143307103325),
        ],
        0.9953627787441014, 0.23828925543491516),
    "filter-r": (
        [
            (2.0, 0.12012873871834057, 53.28644237059154,
             0.12012383823799534, 53.40639658520366),
            (4.0, 0.04694007567147225, 41.68868845802411,
             0.046915269780195515, 41.73197592897775),
            (6.0, 0.021205523209722046, 31.022594715965045,
             0.02113324756387138, 31.017143307103325),
        ],
        3.174449839888826, 0.995550944214979),
    "lrom-dt": (
        [
            (0.1, 1.8198919073760933, None,
             0.02113324756387138, 31.017143307103325),
            (0.05, 2.3487776671745983, None,
             0.02113324756387138, 31.017143307103325),
            (0.025, 2.1522247983277496, None,
             0.02113324756387138, 31.017143307103325),
        ],
        -0.12098800511932752, None),
    "lrom-delta": (
        [
            (0.5, 0.9908901363566237, None,
             0.02113324756387138, 31.017143307103325),
            (0.25, 0.669559149907219, None,
             0.02113324756387138, 31.017143307103325),
            (0.125, 0.4609679356681544, None,
             0.02113324756387138, 31.017143307103325),
        ],
        0.5520293536055112, None),
    "lrom-r": (
        [
            (2.0, 0.23056383145870504, None,
             0.12012383823799534, 53.40639658520366),
            (4.0, 0.1805833823109665, None,
             0.046915269780195515, 41.73197592897775),
            (6.0, 0.35116485933460273, None,
             0.02113324756387138, 31.017143307103325),
        ],
        -0.823332346344344, None),
    "semi-implicit": (
        [
            (0.05, 2.101338722073517, None,
             0.02113324756387138, 31.017143307103325),
        ],
        None, None),
    "filtered-snapshot": (
        [
            (0.25, 0.4302526408156634, None,
             0.02113324756387138, 31.017143307103325),
        ],
        None, None),
}


@pytest.fixture(scope="module")
def ctx():
    return build_context(StudyConfig(kind="lrom-dt", mesh_n=8))


def _close(got, want):
    if want is None:
        return got is None
    return got == pytest.approx(want, rel=RTOL, abs=0.0)


@pytest.mark.parametrize("name", list(SPECS))
def test_study_outputs_pinned(ctx, name):
    result = run_study(StudyConfig(mesh_n=8, **SPECS[name]), ctx)
    points, slope, slope_h1 = GOLDEN[name]
    assert result.n_failed == 0
    assert len(result.records) == len(points)
    for rec, want in zip(result.records, points):
        got = (rec.value, rec.e_l2, rec.e_h1, rec.lambda_l2, rec.lambda_h1)
        assert all(_close(g, w) for g, w in zip(got, want)), (got, want)
    assert _close(result.slope, slope)
    assert _close(result.slope_h1, slope_h1)
