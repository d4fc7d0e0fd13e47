"""Exception types shared across the package.

Every class here is an `IATError`, so a caller can catch the package's own
failures in one clause; each also keeps the builtin base (`ValueError` or
`RuntimeError`) that says what kind of failure it is.
"""


class IATError(Exception):
    """Base of every error the package raises on purpose."""


class ShapeError(IATError, ValueError):
    """Operands have incompatible shapes."""


class ConfigurationError(IATError, ValueError):
    """A parameter or option is outside its legal domain."""


class ContractError(IATError, RuntimeError):
    """An API was driven outside its documented protocol."""


class InputError(IATError, ValueError):
    """Input data is structurally valid but unusable (e.g. image too small)."""


class DecodeError(IATError, ValueError):
    """A file could not be decoded; message carries a byte offset when known."""


class CheckpointError(IATError, RuntimeError):
    """Base class for checkpoint load failures."""


class CorruptionError(CheckpointError):
    """Checkpoint bytes fail integrity checks (truncation, CRC mismatch)."""


class FormatError(CheckpointError):
    """Checkpoint is intact but does not match the expected schema/config."""


class TrainingDiverged(IATError, RuntimeError):
    """Loss became non-finite; carries the recent loss history."""

    def __init__(self, step: int, lr: float, history: list[float]):
        self.step = step
        self.lr = lr
        self.history = list(history)
        tail = ", ".join(f"{v:.6g}" for v in history[-8:])
        super().__init__(
            f"training diverged: non-finite loss at step {step} (lr={lr:.3g}); "
            f"recent losses: [{tail}]"
        )
