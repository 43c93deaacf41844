"""Exception types shared across the toolkit."""


class HcntkError(Exception):
    """Base class for all toolkit errors."""


class InvalidMatrix(HcntkError):
    """Matrix contains non-finite entries or has an illegal shape."""


class EigFailure(HcntkError):
    """LAPACK's symmetric eigensolver did not converge."""


class DegenerateKernel(HcntkError):
    """Kernel has no usable structure (zero centered norm, all-zero spectrum)."""


class ShapeError(HcntkError):
    """Operands have mismatched dimensions."""


class UndefinedCorrelation(HcntkError):
    """Rank correlation is undefined (zero rank variance)."""


class ConfigError(HcntkError):
    """Invalid configuration value or unknown config key."""


class UnsupportedActivation(HcntkError):
    """Second-order evaluation requested for an activation without one."""


class SingularCoefficient(HcntkError):
    """Residual coefficient field is singular at a collocation point."""

    def __init__(self, point_index, message="singular coefficient"):
        super().__init__(f"{message} at point index {point_index}")
        self.point_index = point_index


class StepSizeError(HcntkError):
    """Numeric integration detected instability for the chosen step size."""


class DivergenceDetected(HcntkError):
    """Training loss exceeded the divergence threshold."""

    def __init__(self, epoch, loss, message="training diverged"):
        super().__init__(f"{message} at epoch {epoch} (loss {loss:.3e})")
        self.epoch = epoch
        self.loss = loss


class DegenerateReference(HcntkError):
    """Reference solution has zero norm on the evaluation grid."""


class SchemaError(HcntkError):
    """Result files in a report directory carry mixed schema versions."""
