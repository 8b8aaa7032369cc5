"""Package-level exception types.

Exit-code mapping used by the command line front end lives in cli.py;
library code raises these and never calls sys.exit itself.
"""


class InvseqError(Exception):
    """Base class for errors raised by this package."""


class ConfigError(InvseqError, ValueError):
    """Invalid or inconsistent user-supplied configuration."""


class NumericalError(InvseqError, ArithmeticError):
    """A computation produced a non-finite or otherwise unusable value."""
