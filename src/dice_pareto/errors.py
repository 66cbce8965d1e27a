"""Exception types shared across the package."""


class ConfigError(ValueError):
    """Bad configuration: unparseable file, unknown key, or invalid field value."""


class ModelDomainError(ValueError):
    """A model quantity left its valid domain (e.g. non-positive population).

    ``row`` is the population row at fault when a batch evaluation raised it.
    """

    def __init__(self, message: str, row: int | None = None):
        super().__init__(message)
        self.row = row


class EngineError(RuntimeError):
    """The evolutionary engine could not complete (e.g. evaluator failure).

    ``genome`` is the policy whose evaluation failed, when one did.
    """

    def __init__(self, message: str, genome=None):
        super().__init__(message)
        self.genome = genome
