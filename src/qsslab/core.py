"""Core model abstraction: parameter sets, state vectors, and ODE systems.

A ``ModelSystem`` bundles an ordered list of state variables with a pure
right-hand-side function and a parameter schema.  Everything is immutable
after construction and safe to share across threads; ``eval_rhs`` never
mutates its inputs.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Iterable, Mapping

import numpy as np

from .errors import ParameterError, ShapeError, UsageError


class ParameterSet:
    """Immutable named map of rate constants.

    Values must be finite.  Lookup of a name that is not present raises
    ``ParameterError`` -- there are no silent defaults at this level
    (schema defaults are applied by ``ModelSystem.resolve_params``).
    """

    __slots__ = ("_entries",)

    def __init__(self, entries: Mapping[str, float] | None = None, **kwargs: float):
        merged: dict[str, float] = {}
        if entries:
            merged.update(entries)
        merged.update(kwargs)
        clean: dict[str, float] = {}
        for name, value in merged.items():
            v = float(value)
            if not math.isfinite(v):
                raise ParameterError(f"parameter {name!r} must be finite, got {value!r}")
            clean[str(name)] = v
        object.__setattr__(self, "_entries", clean)

    def __setattr__(self, name, value):
        raise AttributeError("ParameterSet is immutable")

    def __getitem__(self, name: str) -> float:
        try:
            return self._entries[name]
        except KeyError:
            raise ParameterError(f"undeclared parameter {name!r}") from None

    def __contains__(self, name: str) -> bool:
        return name in self._entries

    def __iter__(self):
        return iter(self._entries)

    def __len__(self) -> int:
        return len(self._entries)

    def __eq__(self, other) -> bool:
        return isinstance(other, ParameterSet) and self._entries == other._entries

    def __repr__(self) -> str:
        inner = ", ".join(f"{k}={v!r}" for k, v in sorted(self._entries.items()))
        return f"ParameterSet({inner})"

    def items(self):
        return self._entries.items()

    def as_dict(self) -> dict[str, float]:
        return dict(self._entries)

    def with_updates(self, **kwargs: float) -> "ParameterSet":
        merged = dict(self._entries)
        merged.update(kwargs)
        return ParameterSet(merged)


class StateVector:
    """Ordered, named vector of real components.

    Used both for states (concentrations) and for derivatives returned by
    ``eval_rhs``, so sign is unconstrained here; nonnegativity of initial
    conditions is checked by ``validate``.
    """

    __slots__ = ("names", "values")

    def __init__(self, names: Iterable[str], values):
        names = tuple(str(n) for n in names)
        vals = np.asarray(values, dtype=float).reshape(-1)
        if len(names) != vals.size:
            raise ShapeError(f"{len(names)} names but {vals.size} values")
        if len(set(names)) != len(names):
            raise ShapeError(f"duplicate component names in {names}")
        if not np.all(np.isfinite(vals)):
            raise ShapeError("state components must be finite")
        object.__setattr__(self, "names", names)
        object.__setattr__(self, "values", vals)
        vals.setflags(write=False)

    def __setattr__(self, name, value):
        raise AttributeError("StateVector is immutable")

    def __getitem__(self, name: str) -> float:
        try:
            return float(self.values[self.names.index(name)])
        except ValueError:
            raise ShapeError(f"no component named {name!r}") from None

    def __len__(self) -> int:
        return len(self.names)

    def __repr__(self) -> str:
        inner = ", ".join(f"{n}={v:.6g}" for n, v in zip(self.names, self.values))
        return f"StateVector({inner})"

    def as_dict(self) -> dict[str, float]:
        return {n: float(v) for n, v in zip(self.names, self.values)}


@dataclass(frozen=True)
class ParamSpec:
    """Schema entry for one parameter.

    ``minimum``/``exclusive`` encode the admissible range (``minimum=None``
    means unconstrained sign).  ``default=None`` marks the parameter as
    required.
    """

    name: str
    minimum: float | None = 0.0
    exclusive: bool = False
    default: float | None = None

    @property
    def nonneg(self) -> bool:
        """The bound ``>= 0``, spelled ``nonneg`` in a ``.qssm`` file."""
        return self.minimum == 0.0 and not self.exclusive

    def check(self, value: float) -> str | None:
        """Return a violation message, or None if the value is admissible."""
        if self.minimum is None:
            return None
        if self.exclusive:
            if not value > self.minimum:
                return f"{self.name} must be > {self.minimum:g}, got {value:g}"
        elif not value >= self.minimum:
            return f"{self.name} must be >= {self.minimum:g}, got {value:g}"
        return None


RhsFunction = Callable[[float, np.ndarray, Mapping[str, float]], np.ndarray]
BoundRhs = Callable[[float, list], list]
BoundJacobian = Callable[[float, list], list]  # (t, values) -> rows of df_i/dy_j


@dataclass(frozen=True)
class ModelSystem:
    """An autonomous (or, for the drifting-virulence model, time-forced) ODE system.

    ``rhs(t, values, params)`` must be pure and return an array with the
    declared state dimension; it is the public entry point.  The solvers
    evaluate the system through ``bind(params)`` instead, which fixes the
    parameters once per run; the Dormand-Prince loop of a compiled model,
    whose ``rhs`` carries its tree, writes the bound form's body into its
    stages (``integrate._dopri_source``).  ``equation`` is a human-readable rendering of
    the system used by the CLI catalog listing.

    ``jacobian(params)``, where present, returns the bound Jacobian
    ``jac(t, values)``: the rows df_i/dy_j at the resolved ``params``, as
    lists of floats.  A compiled model carries one generated from its
    syntax tree; a model without one (a hand-built model) integrates by
    Dormand-Prince, and ``bind_jacobian`` refuses it to Radau and to the
    steady-state Newton iteration.
    ``jacobian`` must be the derivative of ``rhs``.  It does not take part in comparisons,
    and ``dataclasses.replace(model, rhs=...)`` keeps it: that is right for
    a wrapper that calls the same rhs (a counter, a tracer), and wrong for
    a different function, which must bring its own Jacobian beside it.
    """

    name: str
    state_names: tuple[str, ...]
    param_schema: tuple[ParamSpec, ...]
    rhs: RhsFunction
    time_dependent: bool = False
    equation: str = ""
    kind: str | None = None
    slow_rate_params: tuple[str, ...] = ()
    jacobian: Callable[[Mapping[str, float]], BoundJacobian] | None = field(
        default=None, repr=False, compare=False
    )

    @property
    def dimension(self) -> int:
        return len(self.state_names)

    def bind(self, params: Mapping[str, float]) -> BoundRhs:
        """The right-hand side at the resolved ``params``, as a function
        ``f(t, values)`` from a list of floats to a list of floats.

        A compiled model's ``rhs`` carries its own ``bind``, which reads each
        parameter once, here.  Any other ``rhs`` gets an adapter that calls
        it on an array at every evaluation.
        """
        bind = getattr(self.rhs, "bind", None)
        if bind is not None:
            return bind(params)
        rhs = self.rhs

        def bound(t, values):
            return np.asarray(rhs(t, np.array(values), params), dtype=float).tolist()
        return bound

    def bind_jacobian(self, params: Mapping[str, float]) -> BoundJacobian:
        """``jac(t, values)``, the generated Jacobian's rows of floats at the
        resolved ``params``; a model without one raises ``UsageError``."""
        if self.jacobian is None:
            raise UsageError(f"model {self.name!r} has no Jacobian")
        return self.jacobian(params)

    def _declared_values(self, params: ParameterSet) -> list[tuple[ParamSpec, float | None]]:
        """Each declared parameter with its value: the one ``params`` gives,
        else the schema default, else None (missing)."""
        return [
            (spec, params[spec.name] if spec.name in params else spec.default)
            for spec in self.param_schema
        ]

    def _undeclared(self, params: ParameterSet) -> list[str]:
        """A violation for each name in ``params`` that the schema does not
        declare."""
        declared = {spec.name for spec in self.param_schema}
        return [f"undeclared parameter {name!r}" for name in params if name not in declared]

    def resolve_params(self, params: ParameterSet) -> dict[str, float]:
        """Apply defaults; raise on a missing required parameter.  Range
        checks and undeclared names live in ``validate``; this only
        guarantees every declared name has a value.
        """
        resolved: dict[str, float] = {}
        for spec, value in self._declared_values(params):
            if value is None:
                raise ParameterError(
                    f"missing parameter {spec.name!r} for model {self.name!r}"
                )
            resolved[spec.name] = value
        return resolved


def eval_rhs(model: ModelSystem, t: float, state: StateVector, params: ParameterSet) -> StateVector:
    """Evaluate the model derivative at (t, state).  Pure; no mutation.

    Raises ``ShapeError`` on dimension mismatch and ``ParameterError`` when a
    schema parameter is absent or ``params`` names one the schema does not
    declare.
    """
    if state.names != model.state_names:
        raise ShapeError(
            f"state components {state.names} do not match model states {model.state_names}"
        )
    undeclared = model._undeclared(params)
    if undeclared:
        raise ParameterError("; ".join(undeclared))
    resolved = model.resolve_params(params)
    out = np.asarray(model.rhs(float(t), state.values, resolved), dtype=float).reshape(-1)
    if out.size != model.dimension:
        raise ShapeError(
            f"rhs returned {out.size} components for {model.dimension}-dimensional model"
        )
    return StateVector(model.state_names, out)


def validate(model: ModelSystem, params: ParameterSet, state0: StateVector | None = None) -> list[str]:
    """Collect every violation: missing, undeclared or out-of-range
    parameters, wrong state dimension, non-finite or negative initial
    components.  An empty list means the combination is valid.
    """
    violations = model._undeclared(params)
    for spec, value in model._declared_values(params):
        message = f"missing parameter {spec.name!r}" if value is None else spec.check(value)
        if message:
            violations.append(message)
    if state0 is not None:
        if state0.names != model.state_names:
            violations.append(
                f"initial state components {state0.names} do not match model "
                f"states {model.state_names}"
            )
        else:
            for name, value in zip(state0.names, state0.values):
                if not np.isfinite(value):
                    violations.append(f"initial {name} is not finite")
                elif value < 0:
                    violations.append(f"initial {name} is negative ({value:g})")
    return violations


def check_params(model: ModelSystem, params: ParameterSet) -> ModelSystem:
    """``model``, once ``params`` are valid for it; otherwise raise
    ``ParameterError`` listing every violation (``validate``)."""
    violations = validate(model, params)
    if violations:
        raise ParameterError(f"invalid parameters for {model.name}: " + "; ".join(violations))
    return model
