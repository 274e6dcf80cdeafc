"""Exception types shared across the package."""


class ShapeError(ValueError):
    """Operand shapes are incompatible with the requested operation."""


class DegenerateInputError(ValueError):
    """Input is numerically degenerate (empty token list, near-zero norm, ...)."""


class GraphError(RuntimeError):
    """Misuse of a computation graph, e.g. backward() on a non-scalar."""


class ContractError(ValueError):
    """A caller violated an API precondition that cannot be expressed in types."""


class GenerationError(RuntimeError):
    """Scene generation could not satisfy its placement constraints."""


class ManifestError(ValueError):
    """A dataset manifest line, or a raster it names, could not be parsed (line 0: a
    raster read on its own, or the dataset's vocabulary file, reported without a line
    prefix)."""

    def __init__(self, line_no: int, message: str):
        super().__init__(f"manifest line {line_no}: {message}" if line_no else message)
        self.line_no = line_no


class CheckpointError(ValueError):
    """A checkpoint file is malformed or inconsistent with the model."""
