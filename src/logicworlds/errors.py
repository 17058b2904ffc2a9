"""Exception types shared across the package."""


class ConfigError(ValueError):
    """A configuration value violates a precondition."""


class DegenerateWorldError(RuntimeError):
    """A world cannot support generation (no usable rules or descriptors)."""


class GenerationError(RuntimeError):
    """Generated data broke an invariant the generator guarantees (a
    descriptor or instance that fails certification)."""


class SuiteFormatError(ValueError):
    """A suite file on disk is malformed. Carries file context in the message."""
