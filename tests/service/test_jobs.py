"""JobSpec validation, spool round-trip, and cache-key interchange."""

import pytest

from repro.config import ConfigError, SystemConfig, MultiprocessorParams
from repro.experiments.runner import ExperimentContext
from repro.service.jobs import JobSpec

FAST = SystemConfig.fast()
MPP = MultiprocessorParams(n_nodes=2)


def _spec(points, **kwargs):
    kwargs.setdefault("config", FAST)
    kwargs.setdefault("mp_params", MPP)
    return JobSpec(points=points, **kwargs)


def test_points_are_normalised_and_deduped():
    spec = _spec((("uniproc", "R1", "single", 1),
                  ("uniproc", "R1", "single", 1),
                  ("uniproc", "R1", "interleaved", 2)))
    assert len(spec.points) == 2
    assert spec.points[0].kind == "uniproc"


def test_empty_job_rejected():
    with pytest.raises(ValueError):
        _spec(())


def test_unknown_engine_rejected():
    with pytest.raises(ValueError):
        _spec((("uniproc", "R1", "single", 1),), engine="warp")


@pytest.mark.parametrize("field,value", [
    ("warmup", -5), ("measure", 0), ("measure", -100),
    ("max_retries", -1), ("timeout", -1.0), ("timeout", 0)])
@pytest.mark.parametrize("build", ["init", "from_dict"])
def test_bad_window_or_budget_rejected(build, field, value):
    """A spec from the spool or the wire cannot smuggle in a window or
    a budget that would run nothing, or run and mean nothing."""
    with pytest.raises(ConfigError, match=field):
        if build == "init":
            _spec((("uniproc", "R1", "single", 1),), **{field: value})
        else:
            payload = JobSpec(points=(("uniproc", "R1", "single", 1),)
                              ).to_dict()
            payload[field] = value
            JobSpec.from_dict(payload)


def test_sweep_classmethod_covers_default_points():
    from repro.experiments.sweep import default_points
    spec = JobSpec.sweep(workloads=("R1",), apps=("cholesky",),
                        config=FAST, mp_params=MPP)
    assert spec.points == tuple(default_points(workloads=("R1",),
                                               apps=("cholesky",)))


def test_mp_points_use_the_mp_window():
    spec = _spec((("mp", "cholesky", "single", 1),), warmup=123,
                 measure=456)
    from repro.experiments.runner import MP_MAX_CYCLES
    assert spec.point_window(spec.points[0]) == (0, MP_MAX_CYCLES)


def test_cache_keys_interchangeable_with_batch_context():
    """The acceptance contract: service cache entries ARE batch entries."""
    spec = _spec((("uniproc", "R1", "interleaved", 2),
                  ("mp", "cholesky", "single", 1)),
                 warmup=1_000, measure=6_000)
    ctx = ExperimentContext(config=FAST, mp_params=MPP,
                            warmup=1_000, measure=6_000)
    for point in spec.points:
        assert spec.cache_key(point) == ctx.point_cache_key(
            point.kind, point.name, point.scheme, point.n_contexts)


def test_spool_dict_round_trip():
    spec = _spec((("uniproc", "R1", "single", 1),
                  ("mp", "cholesky", "interleaved", 2)),
                 seed=7, warmup=500, measure=2_000, engine="burst",
                 timeout=12.5, max_retries=4)
    back = JobSpec.from_dict(spec.to_dict())
    assert back.points == spec.points
    assert back.config == spec.config
    assert back.mp_params == spec.mp_params
    assert (back.seed, back.warmup, back.measure) == (7, 500, 2_000)
    assert back.engine == "burst"
    assert back.timeout == 12.5
    assert back.max_retries == 4


def test_spool_dict_rejects_unknown_schema():
    payload = _spec((("uniproc", "R1", "single", 1),)).to_dict()
    payload["schema"] = 999
    with pytest.raises(ValueError):
        JobSpec.from_dict(payload)


def test_spool_dict_rejects_custom_config():
    import dataclasses
    custom = dataclasses.replace(SystemConfig.fast(), workload_scale=3.5)
    spec = _spec((("uniproc", "R1", "single", 1),), config=custom)
    with pytest.raises(ValueError):
        spec.to_dict()
