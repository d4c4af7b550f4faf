"""The value protocol, quadrature settings, the non-convergence error and a
float's report text: cli reads them without compiling radial, which
re-exports them."""

SCHEMES = ("gauss_kronrod", "tanh_sinh")
PASS_TOL_FACTOR = 10.0  # a quadrature passes within this multiple of its target


class NonConvergence(RuntimeError):
    """Error estimate still above the target, or flagged by the integrator."""

    def __init__(self, message: str, value: float, estimate: float):
        super().__init__(message)
        self.value = value
        self.estimate = estimate


class Value:
    """An immutable value, equal to one of its own class (not a subclass) with
    equal fields, the attributes its class names, and hashed and shown by them."""

    fields: tuple = ()

    def _values(self) -> tuple:
        return tuple(getattr(self, f) for f in self.fields)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        args = ", ".join(f"{f}={getattr(self, f)!r}" for f in self.fields)
        return f"{type(self).__name__}({args})"


class QuadratureConfig(Value):
    """Target tolerance and scheme of a half-line quadrature.  Immutable."""

    fields = ("target_tol", "scheme")

    def __init__(self, target_tol: float = 1e-10, scheme: str = "gauss_kronrod") -> None:
        if not 0 < target_tol < float("inf"):  # nan fails too
            raise ValueError("target_tol must be positive and finite")
        if scheme not in SCHEMES:
            raise ValueError(f"scheme must be one of {SCHEMES}")
        self.target_tol = target_tol
        self.scheme = scheme

    @property
    def pass_tol(self) -> float:
        return self.target_tol * PASS_TOL_FACTOR


DEFAULT_CONFIG = QuadratureConfig()


def _fmt(x: float) -> str:
    """A float as report text: 17 significant digits, which round-trip."""
    return format(x, ".17g")
