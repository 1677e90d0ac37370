"""The decode check under its earlier name, which the benchmark's tracer
probes: :func:`.numerics.units_inside`, the verdict that
:meth:`.schemes.SchemeTrace.decode_ok` takes per stack of receivers."""

from .numerics import units_inside as can_decode

__all__ = ["can_decode"]
