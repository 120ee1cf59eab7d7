"""Exception hierarchy shared across the package.

Each class carries the CLI's exit code and message label: config problems
exit 2, violated standing assumptions (connectivity, stabilizability, ...)
exit 3, and runtime failures of a simulation exit 4. The integer and
number rules that every owner of an input value applies live here too.
"""

import numbers
import sys


class EtconsError(Exception):
    """Base class for all package-specific errors."""

    exit_code = 1
    label = "error"


class ConfigError(EtconsError, ValueError):
    """Invalid user input: malformed config, bad graph spec, bad dimensions.
    The message starts with ``key``, the dotted config key at fault, if known."""

    exit_code = 2
    label = "config error"

    def __init__(self, reason: str, key: str | None = None):
        super().__init__(f"{key}: {reason}" if key else reason)
        self.reason, self.key = reason, key


class AssumptionError(EtconsError):
    """A standing assumption of the protocol design does not hold."""

    exit_code = 3
    label = "assumption violated"


class DisconnectedGraphError(AssumptionError):
    """The communication graph is not connected."""


class NoSpanningTreeError(AssumptionError):
    """No directed spanning tree rooted at the leader reaches every follower."""


class NotStabilizableError(AssumptionError):
    """(A, B) is not stabilizable; no stabilizing Riccati solution exists."""


class NotDetectableError(AssumptionError):
    """(A, C) is not detectable; no stabilizing observer gain exists."""


class SimulationError(EtconsError):
    """A simulation failed at runtime."""

    exit_code = 4
    label = "runtime failure"


class ZenoGuardError(SimulationError):
    """An agent exceeded the configured event-rate guard."""


class NonFiniteStateError(SimulationError):
    """The integrated state left the finite range."""


def _check_integer(value, low: int, key: str) -> int:
    """``value`` must be an integer >= low; a bool is not an integer."""
    if not (isinstance(value, numbers.Integral) and not isinstance(value, bool) and value >= low):
        raise ConfigError(f"must be an integer >= {low}, got {value!r}", key)
    return int(value)


def _check_number(value, key: str) -> float:
    """``value`` as a float; a finite real number, numpy scalars included, not a bool."""
    if not (isinstance(value, numbers.Real) and not isinstance(value, bool)
            and abs(value) <= sys.float_info.max):
        raise ConfigError(f"expected a finite number, got {value!r}", key)
    return float(value)
