"""The process-wide switches: one table, one parser, one ``forced()``.

Three layers have a fast engine and a reference one (its oracle), and
each is picked by a row of :data:`SWITCHES`:

- ``kernels`` (``REPRO_KERNELS``, default ``fast``) — the table-driven
  ECC / MAC / pin-transpose kernels of :mod:`repro.ecc.kernels`, which
  are bit-exact with the per-bit reference codecs;
- ``perf`` (``REPRO_PERF``, default ``reference``) — the vectorized
  cycle-level perf engine of :mod:`repro.perf.fastpath`;
- ``faultsim`` (``REPRO_FAULTSIM``, default ``reference``) — the
  vectorized Monte-Carlo engine of :mod:`repro.faultsim.fastpath`.

The perf and Monte-Carlo engines are statistically equivalent to their
references, not bit-identical, so the resolved value is part of every
campaign fingerprint. Each row's environment variable is read once, at
import: matching ignores case and surrounding whitespace, a blank value
means the default, and anything else fails with a :class:`ValueError`
naming the variable and the allowed values. An explicit or config value
beats the process value (:meth:`Switch.resolve`), and tests and
benchmarks override the process value with :meth:`Switch.forced`.

The worker count is the one numeric setting: ``REPRO_WORKERS`` is read
at call time by :func:`env_workers`, behind an explicit ``--workers``
and any config field (see :func:`repro.campaign.resolve_workers`).

This is the only module of the package that reads the environment;
``python -m repro switches`` prints :func:`table`.
"""

from __future__ import annotations

import os
from contextlib import contextmanager
from typing import Dict, Iterator, List, Optional, Tuple


class Switch:
    """One row of the table; :attr:`value` is the process-wide value."""

    def __init__(
        self, name: str, env: str, values: Tuple[str, ...], default: str
    ) -> None:
        self.name = name
        self.env = env
        self.values = values
        self.default = default
        self.value = self.parse(os.environ.get(env, ""))

    def parse(self, raw: str) -> str:
        """The value an environment string selects."""
        value = raw.strip().lower() or self.default
        if value not in self.values:
            raise ValueError(
                f"{self.env}={raw!r} is not recognized; use one of {self.values}"
            )
        return value

    def resolve(self, explicit: Optional[str] = None) -> str:
        """``explicit`` (an argument or config field) if set, else :attr:`value`."""
        if explicit is None:
            return self.value
        if explicit not in self.values:
            raise ValueError(
                f"{self.name} value {explicit!r} is not one of {self.values} "
                f"(the {self.env} switch)"
            )
        return explicit

    @contextmanager
    def forced(self, value: str) -> Iterator[None]:
        """Set the process-wide value for the ``with`` block, then restore it."""
        previous = self.value
        self.value = self.resolve(value)
        try:
            yield
        finally:
            self.value = previous


KERNELS = Switch("kernels", "REPRO_KERNELS", ("fast", "reference"), "fast")
PERF = Switch("perf", "REPRO_PERF", ("fast", "reference"), "reference")
FAULTSIM = Switch("faultsim", "REPRO_FAULTSIM", ("fast", "reference"), "reference")

#: Every engine switch, in the order ``python -m repro switches`` lists them.
SWITCHES = (KERNELS, PERF, FAULTSIM)

#: Worker-count fallback of every campaign family (``--workers`` and
#: config fields take precedence).
WORKERS_ENV = "REPRO_WORKERS"


def env_workers() -> Optional[int]:
    """The ``REPRO_WORKERS`` count, or None when unset or blank."""
    raw = os.environ.get(WORKERS_ENV, "")
    if not raw.strip():
        return None
    try:
        workers = int(raw)
    except ValueError:
        workers = 0
    if workers < 1:
        raise ValueError(
            f"{WORKERS_ENV}={raw!r} is not a worker count; use an integer >= 1"
        )
    return workers


def table() -> List[Dict[str, str]]:
    """Every switch with its allowed values, default and resolved value."""
    rows = [
        {
            "name": switch.name,
            "env": switch.env,
            "values": "|".join(switch.values),
            "default": switch.default,
            "resolved": switch.value,
        }
        for switch in SWITCHES
    ]
    rows.append(
        {
            "name": "workers",
            "env": WORKERS_ENV,
            "values": "integer >= 1",
            "default": "1",
            "resolved": str(env_workers() or 1),
        }
    )
    return rows
