"""Exception taxonomy shared by every module in the package.

The CLI (see cli.py) exits 2 for a ConfigurationError, 3 for an InputError
and 4 for an IntegrityError, so the split between configuration, input and
integrity problems is part of the public contract and not just cosmetics.
DimensionError, DomainError, ContractError and MetricError share exit 1,
the code of any other AiftError.
"""


class AiftError(Exception):
    """Base class for all errors raised by this package."""


class DimensionError(AiftError):
    """A tensor or array has the wrong rank or extent for an operation."""


class DomainError(AiftError):
    """A value lies outside the mathematical domain of an operation."""


class ConfigurationError(AiftError):
    """A run configuration value is missing, malformed or out of range."""


class InputError(AiftError):
    """An input file or dataset is missing, truncated or malformed."""


class IntegrityError(AiftError):
    """A persisted artifact (checkpoint, lock, output dir) is inconsistent."""


class ContractError(AiftError):
    """An internal pre/postcondition was violated (likelihoods, finiteness)."""


class MetricError(AiftError):
    """A metric was asked to summarize data it cannot (e.g. one-class AUROC)."""
