"""Exception hierarchy shared across the engine.

Exit-code mapping used by the CLI lives in cli.py; these classes only
classify failures.
"""


class LyaptradeError(Exception):
    """Base class for all engine errors."""


class StructuralError(LyaptradeError):
    """Dimension mismatch, unknown id, out-of-range argument."""


class ConfigError(LyaptradeError):
    """Bad configuration or schema violation; carries a JSON-pointer-ish location."""

    def __init__(self, message, location=""):
        super().__init__(f"{location}: {message}" if location else message)
        self.location = location


class ParseError(LyaptradeError):
    """Malformed input file; carries the offending row when known."""

    def __init__(self, message, row=None):
        super().__init__(message if row is None else f"row {row}: {message}")
        self.row = row


class CapacityError(LyaptradeError):
    """A table, action enumeration or DP exceeded its configured size cap."""


class NumericalError(LyaptradeError):
    """Infeasible or unbounded linear program, or simplex iteration cap hit."""


class StatisticalPowerError(LyaptradeError):
    """Too few replications to run a statistical check."""
