"""Exception types shared across the package.

Exit-code mapping used by the CLI: 0 success, 1 verification failure,
2 input error, 3 cap exceeded, 4 internal error (any other exception).
"""


class HierPowerError(Exception):
    """Base class for all errors raised by this package."""


class InputError(HierPowerError):
    """Malformed network document or invalid user input.

    ``location`` pins the offending line (edge-list format) or field
    (JSON format) when known.
    """

    def __init__(self, message: str, location: str | None = None):
        self.location = location
        if location is not None:
            message = f"{location}: {message}"
        super().__init__(message)


class CapExceededError(HierPowerError):
    """An enumeration would exceed its configured cap."""

    def __init__(self, what: str, required: int, cap: int):
        self.what = what
        self.required = required
        self.cap = cap
        super().__init__(f"{what} needs {required}, which exceeds the cap of {cap}")


class NotRegularError(HierPowerError):
    """Neither value chain holds, so the disruption-balancing value is undefined."""


class EfficiencyError(HierPowerError):
    """An allocation does not sum to the worth of the grand coalition."""


class GaugeError(HierPowerError):
    """A vector violates the power-gauge invariants (nonnegativity or total)."""
