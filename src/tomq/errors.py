"""Exception types shared across the package."""


class TomqError(Exception):
    pass


class UnsupportedAxiom(TomqError):
    """An axiom shape is not allowed by the ontology's dialect."""


class UnsupportedDialect(TomqError):
    """The requested operation needs a dialect we cannot reason in."""


class NotTreeShaped(TomqError):
    """The instance is not connected and acyclic, so it has no rooted tree query."""


class UnsatisfiableQuery(TomqError):
    pass


class SplitSizeExceeded(TomqError):
    """The split-partner product would exceed the configured atom budget."""


class NoCharacterisationFound(TomqError):
    pass


class UnsafeQuery(TomqError):
    """The query has (or may have) a lone conjunct, so the safe-mode builder refuses it."""


class NotPeerless(TomqError):
    pass


class NotPropositional(TomqError):
    pass


class TrailingTopTarget(TomqError):
    """The final target of an Until query is trivial, so no example set exists."""


class BudgetExceeded(TomqError):
    """The teacher refused a membership query because the budget ran out."""


class NotPositiveInitialExample(TomqError):
    pass


class ParseError(TomqError):
    def __init__(self, message, line=None, column=None):
        loc = "" if line is None else f" at line {line}" + ("" if column is None else f", column {column}")
        super().__init__(message + loc)
        self.line = line
        self.column = column
