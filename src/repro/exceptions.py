"""Exception hierarchy for the repro library.

Every error raised by the library derives from :class:`ReproError` so that
callers can catch library failures with a single ``except`` clause while
still being able to distinguish configuration mistakes from protocol-level
verification failures.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the repro library."""


class ConfigurationError(ReproError):
    """A parameter or topology configuration is invalid.

    Raised eagerly at construction time: a path of non-positive length, a
    probability outside ``[0, 1]``, a threshold ordering violation
    (``alpha <= rho``), and similar misconfigurations.
    """


class CryptoError(ReproError):
    """Base class for failures inside the cryptographic substrate."""


class KeyError_(CryptoError):
    """A key lookup failed (unknown node, missing pairwise key)."""


class DecryptionError(CryptoError):
    """An oblivious (PAAI-2) report failed to decode to the expected value."""


class SimulationError(ReproError):
    """The discrete-event engine reached an inconsistent state."""


class SchedulingError(SimulationError):
    """An event was scheduled in the past or after the simulation horizon."""


class ProtocolError(ReproError):
    """A protocol agent received a packet it cannot process."""


class TaskRetryError(ReproError):
    """A parallel task kept failing after exhausting its retry budget.

    Raised by the :mod:`repro.parallel` engine when a task unit has
    failed (exception, worker crash, or timeout) ``max_attempts`` times
    under a :class:`~repro.parallel.engine.RetryPolicy`. The original
    failure is chained as ``__cause__``.
    """
