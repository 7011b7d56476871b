"""The vault's deterministic clock.

Audit, repair and migration runs are provenance like any other run:
they carry timestamps.  Wall time would make every run unique and every
test flaky, so the vault ticks a :class:`TickClock` — a simulated clock
advancing a fixed step per reading, the same convention as the workflow
engine's ``SimulatedClock`` — unless the caller supplies a clock of
their own (``now() -> datetime``).
"""

from __future__ import annotations

import datetime as _dt

__all__ = ["TickClock", "VAULT_EPOCH"]

#: the vault's default timeline origin (tz-aware, like DEFAULT_EPOCH)
VAULT_EPOCH = _dt.datetime(2014, 1, 1, tzinfo=_dt.timezone.utc)


class TickClock:
    """A clock advancing ``step_seconds`` every time it is read."""

    __slots__ = ("_now", "step_seconds")

    def __init__(self, start: _dt.datetime = VAULT_EPOCH,
                 step_seconds: float = 1.0) -> None:
        self._now = start
        self.step_seconds = step_seconds

    def now(self) -> _dt.datetime:
        current = self._now
        self._now = current + _dt.timedelta(seconds=self.step_seconds)
        return current
