"""Exception types shared across the toolkit.

The CLI maps these onto exit codes: ConfigurationError -> 1, DataError -> 2.
"""


class ConfigurationError(Exception):
    """Invalid options, flags, or incompatible configuration values."""


class DataError(Exception):
    """Input data is missing, malformed, or unusable."""

