"""The two number types the simulator model runs on.

Each model function in :mod:`repro.dbsim` takes a namespace ``ops`` first:
``numpy`` itself for a batch of configurations (one array lane per
config), or :data:`FLOATS` for a single configuration, whose values are
plain Python floats: a one-row numpy batch pays numpy's per-call cost on
every operation, which made it over twice as slow as the same model on
floats.

The model calls only ``ops.where``, ``ops.minimum``, ``ops.maximum``,
``ops.clip``, ``ops.full`` and ``ops.zeros``, and it evaluates both
branches of every ``where``, so a branch must not divide by a value the
condition rules out.  Transcendental functions stay numpy ufuncs
(``np.power``, ``np.log1p``, ``np.expm1``, ``np.log2``, ``np.sqrt``) for
both types: Python's ``**`` and ``math`` can round differently from
numpy's loops in the last bit, and the two types must agree bitwise.
"""

from __future__ import annotations

__all__ = ["FLOATS"]


class _Floats:
    """numpy's selection and fill calls for one config of Python floats."""

    @staticmethod
    def where(condition, if_true, if_false):
        return if_true if condition else if_false

    minimum = staticmethod(min)
    maximum = staticmethod(max)

    @staticmethod
    def clip(value, low, high):
        return min(max(value, low), high)

    @staticmethod
    def full(shape, value):
        return value

    @staticmethod
    def zeros(shape):
        return 0.0


#: The one-config namespace; ``numpy`` is the batch namespace.
FLOATS = _Floats()
