"""Exception hierarchy shared across the package.

The CLI maps these onto exit codes: ConfigError -> 2, InputError -> 3,
anything else derived from LogitAnchorError -> 4.
"""

from __future__ import annotations


class LogitAnchorError(Exception):
    """Base class for all errors raised by this package."""


class ConfigError(LogitAnchorError):
    """A configuration value or file is invalid."""


class InputError(LogitAnchorError):
    """Input data (captions, annotations, traces) is malformed or insufficient."""


class ContractError(LogitAnchorError):
    """An internal value violates a structural contract (shape, mask, range)."""

