"""Exception hierarchy shared by all modules."""


class NcflowError(Exception):
    """Base class for all library errors."""


class InputError(NcflowError):
    """Malformed or out-of-contract input (CLI exit code 2)."""


class ContractError(InputError):
    """A claimed 2-factor / matching does not fit the graph."""
