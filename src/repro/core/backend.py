"""Backend selection for the cell and fluid simulators' main loops.

:class:`repro.core.network.SiriusNetwork` keeps two interchangeable
execution strategies for the same protocol state machine:

* ``reference`` — the straightforward all-nodes loop, the oracle the
  other engine is validated against;
* ``vectorized`` (default) — :mod:`repro.core.vectorized`: activity
  masks and depth slabs in numpy and idle-epoch skipping.

Both drive one :class:`repro.core.ledger.RunLedger` and are
bit-identical on seeded runs — the parity suite
(``tests/core/test_fast_path_equivalence.py``) pins the exact
``SimulationResult`` across them for every congestion and failure
configuration the simulator supports.

Resolution order for the effective backend:

1. an explicit ``backend=`` constructor argument;
2. the ``REPRO_BACKEND`` environment variable;
3. the default (``vectorized`` for cells, ``incremental`` for fluid).
"""

from __future__ import annotations

import os
from typing import Optional, Sequence

__all__ = ["BACKENDS", "BACKEND_ENV", "FLUID_BACKENDS", "resolve_backend",
           "resolve_fluid_backend"]


#: The selectable epoch-loop strategies, in reference-first order.
BACKENDS = ("reference", "vectorized")

#: The fluid simulator's event-loop strategies (see
#: :mod:`repro.sim.fluid`): the from-scratch ``reference`` rebuild and
#: the persistent-state ``incremental`` engine.
FLUID_BACKENDS = ("reference", "incremental")

#: Environment variable consulted when no explicit backend is given.
BACKEND_ENV = "REPRO_BACKEND"


def _resolve(backend: Optional[str], names: Sequence[str], default: str,
             kind: str) -> str:
    """``backend`` if given, else ``REPRO_BACKEND``, else ``default``."""
    if backend is not None:
        name = backend.strip().lower()
        if name not in names:
            raise ValueError(
                f"unknown {kind}backend {backend!r}; expected one of {names}"
            )
        return name
    env = os.environ.get(BACKEND_ENV)
    if env is not None and env.strip():
        name = env.strip().lower()
        if name not in names:
            raise ValueError(
                f"{BACKEND_ENV}={env!r} is not a backend; "
                f"expected one of {names}"
            )
        return name
    return default


def resolve_backend(backend: Optional[str] = None) -> str:
    """Resolve the cell simulator's epoch-loop strategy.

    ``backend`` (a constructor argument) wins, then ``REPRO_BACKEND``,
    then the ``vectorized`` default.  Raises ``ValueError`` for names
    outside :data:`BACKENDS`.
    """
    return _resolve(backend, BACKENDS, "vectorized", "")


def resolve_fluid_backend(backend: Optional[str] = None) -> str:
    """Resolve the fluid simulator's event-loop strategy.

    Same precedence as :func:`resolve_backend`: an explicit
    ``backend=`` (one of :data:`FLUID_BACKENDS`) wins, then
    ``REPRO_BACKEND`` — ``reference`` selects the reference loop and
    any other known name, ``incremental`` or the cell simulator's
    ``vectorized``, selects the incremental engine, so one environment
    variable steers both simulators — then the ``incremental`` default.
    """
    if backend is not None:
        return _resolve(backend, FLUID_BACKENDS, "incremental", "fluid ")
    known = tuple(dict.fromkeys(FLUID_BACKENDS + BACKENDS))
    name = _resolve(None, known, "incremental", "")
    return "reference" if name == "reference" else "incremental"
