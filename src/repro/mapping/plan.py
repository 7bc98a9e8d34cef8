"""The plan IR lives in :mod:`repro.mapping.optimizer.ir`.

This module keeps :class:`WindowStrategy` importable under its historical
path (``from repro.mapping.plan import WindowStrategy``).
"""

from repro.mapping.optimizer.ir import WindowStrategy

__all__ = ["WindowStrategy"]
