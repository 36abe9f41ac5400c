"""Rebuilding streamable payloads from cached point states.

Workers send back only the serialised point state (the
:class:`~repro.experiments.cache.ResultCache` format); the manager
derives every streamed ``RunResult.to_json`` payload from that state
with this module — the *same* pure function whether the state came from
a live worker or from a cache hit, so a warm resubmission streams
byte-identical payloads to the cold run.  The result is built by
:func:`repro.experiments.runner.point_result`, the one place that knows
what each point kind runs as.  (The engines' bit-identity contract
makes the recorded ``engine`` the submitting spec's engine, exactly as a
live run under that spec would report.)
"""

from repro.experiments import cache as cache_mod
from repro.experiments.runner import point_result


def result_from_state(point, spec, state):
    """The :class:`repro.api.RunResult` a live run would have returned."""
    raw = cache_mod.SERIALIZERS[point.kind][1](state)
    return point_result(point, raw, spec.seed, spec.engine)


def payload_from_state(point, spec, state):
    """The ``RunResult.to_json`` string for a cached point state."""
    return result_from_state(point, spec, state).to_json()


__all__ = ["result_from_state", "payload_from_state"]
