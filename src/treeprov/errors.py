"""Errors shared across the package."""


class TreeprovError(Exception):
    pass


class NoDecomposition(TreeprovError):
    """Raised when no tree decomposition of the requested width exists
    (or the heuristic cannot find one)."""


class StateBlowup(TreeprovError):
    """Subset construction exceeded the configured state cap."""


class NotMonotone(TreeprovError):
    """Automaton failed the monotonicity inclusion check."""


class SizeCap(TreeprovError):
    """A size cap was exceeded: a polynomial expansion's monomial cap,
    or the nesting depth the json module can write."""
