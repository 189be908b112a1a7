"""Exception types, and the parser of enum names that config files give.

Three families, matching the CLI exit codes: configuration problems (exit 1),
data problems (exit 2), numeric failures (exit 3).
"""

from __future__ import annotations


class VfmlabError(Exception):
    """Base class for all package-raised errors."""


class ConfigError(VfmlabError):
    """Invalid configuration: bad keys, out-of-range values, unknown enums."""


class DataError(VfmlabError):
    """Invalid or unusable data."""


class SchemaError(DataError):
    """Input file does not match the documented schema."""


class EmptyDatasetError(DataError):
    """No valid observations survived ingestion or filtering."""


class ScenarioError(DataError):
    """Synthetic scenario produced an invalid observation."""


def enum_from_str(cls, s, what: str):
    """The member of the string-valued enum cls whose value is s, case and
    surrounding blanks aside; a ConfigError naming `what` for any other s,
    a value that is not a string included."""
    if isinstance(s, str):
        key = s.strip().lower()
        for member in cls:
            if member.value.lower() == key:
                return member
    raise ConfigError(f"unknown {what} {s!r}")


class NumericError(VfmlabError):
    """Numerical failure: non-finite values, singular systems, divergence."""


class DegenerateFeatureError(NumericError):
    """A feature's scatter is singular even after regularization."""

    def __init__(self, feature_index: int, message: str | None = None):
        self.feature_index = feature_index
        super().__init__(
            message or f"degenerate feature at index {feature_index}: "
            "zero variance in both samples with differing means"
        )

    def __reduce__(self):
        # pickle rebuilds an exception from its args, which hold the message
        # alone; this rebuilds it from the index and the message
        return type(self), (self.feature_index, self.args[0])
