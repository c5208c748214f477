"""Typed experiment registry with declarative parameter spaces.

Each paper table/figure is a registered :class:`ExperimentSpec`: a runner
callable plus the declarative description of its parameter space (scene,
hash function, DRAM spec, trace shape, ...).  Experiment modules register
themselves with the :func:`register_experiment` decorator; the CLI, the
sweep engine and the suite runner all resolve experiments through this
registry; :meth:`ExperimentSpec.run` is the one entry point of every
experiment, and the declared :class:`ParamSpec` defaults are its only
defaults.

Parameter values are JSON-serializable primitives (strings/ints/floats/
bools); runners convert them to the domain objects (``HashGridConfig``,
``TraceConfig``, hash-function instances, DRAM specs).  That keeps every
cell of a sweep, and every artifact on disk, fully described by plain data.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from types import MappingProxyType
from typing import TYPE_CHECKING, Any, Callable, Mapping

from .context import SimulationContext

if TYPE_CHECKING:  # imported lazily at runtime to avoid an import cycle
    from ..experiments.runner import ExperimentResult

__all__ = [
    "ParamSpec",
    "ExperimentSpec",
    "register_experiment",
    "get_experiment",
    "all_experiments",
    "experiment_names",
    "run_experiment",
    "run_suite",
]


@dataclass(frozen=True)
class ParamSpec:
    """One declarative parameter of an experiment."""

    name: str
    kind: type[Any]
    default: Any
    choices: tuple[Any, ...] | None = None
    help: str = ""

    def parse(self, raw: Any) -> Any:
        """Coerce a raw (possibly string) value to the parameter type."""
        if raw is None:
            return self.default
        if self.kind is bool and isinstance(raw, str):
            lowered = raw.strip().lower()
            if lowered in ("1", "true", "yes", "on"):
                value: Any = True
            elif lowered in ("0", "false", "no", "off"):
                value = False
            else:
                raise ValueError(f"parameter {self.name!r}: cannot parse boolean from {raw!r}")
        else:
            try:
                value = self.kind(raw)
            except (TypeError, ValueError) as exc:
                raise ValueError(
                    f"parameter {self.name!r}: expected {self.kind.__name__}, got {raw!r}"
                ) from exc
        if self.choices is not None and value not in self.choices:
            raise ValueError(
                f"parameter {self.name!r}: {value!r} is not one of "
                f"{', '.join(map(str, self.choices))}"
            )
        return value


@dataclass(frozen=True)
class ExperimentSpec:
    """A registered experiment: runner + parameter space + metadata."""

    name: str
    paper_ref: str
    title: str
    runner: Callable[..., ExperimentResult]
    params: tuple[ParamSpec, ...] = ()
    tags: tuple[str, ...] = ()
    #: Artifact kinds this spec computes / can reuse from the shared context.
    #: The suite runner schedules producers of an artifact before consumers.
    provides: tuple[str, ...] = ()
    consumes: tuple[str, ...] = ()
    #: Parameter overrides that shrink the experiment to smoke scale
    #: (``report --fast``); empty when the defaults are already cheap.
    smoke: Mapping[str, Any] = field(default_factory=lambda: MappingProxyType({}), hash=False)

    def param(self, name: str) -> ParamSpec:
        for p in self.params:
            if p.name == name:
                return p
        known = ", ".join(p.name for p in self.params) or "(none)"
        raise KeyError(f"experiment {self.name!r} has no parameter {name!r}; available: {known}")

    def defaults(self) -> dict[str, Any]:
        return {p.name: p.default for p in self.params}

    def bind(self, overrides: Mapping[str, Any] | None = None) -> dict[str, Any]:
        """Validated full parameter assignment (defaults + overrides)."""
        bound = self.defaults()
        for name, raw in (overrides or {}).items():
            bound[name] = self.param(name).parse(raw)
        return bound

    def run(self, context: SimulationContext | None = None, **overrides: Any) -> ExperimentResult:
        """Run with validated parameters against a (possibly fresh) context."""
        ctx = context if context is not None else SimulationContext()
        return self.runner(ctx, **self.bind(overrides))


_REGISTRY: dict[str, ExperimentSpec] = {}


def register_experiment(
    name: str,
    *,
    paper_ref: str,
    title: str,
    params: tuple[ParamSpec, ...] = (),
    tags: tuple[str, ...] = (),
    provides: tuple[str, ...] = (),
    consumes: tuple[str, ...] = (),
    smoke: Mapping[str, Any] | None = None,
) -> Callable[[Callable[..., ExperimentResult]], Callable[..., ExperimentResult]]:
    """Register the decorated runner as the experiment ``name``.

    The runner signature is ``runner(ctx, **params) -> ExperimentResult``
    with every declared parameter accepted as a keyword argument.  ``smoke``
    names the parameter overrides of the experiment's smoke-scale run; they
    are validated against ``params`` here, at registration.
    """

    def decorator(runner: Callable[..., ExperimentResult]) -> Callable[..., ExperimentResult]:
        if name in _REGISTRY:
            raise ValueError(f"experiment {name!r} is already registered")
        spec = ExperimentSpec(
            name=name,
            paper_ref=paper_ref,
            title=title,
            runner=runner,
            params=tuple(params),
            tags=tuple(tags),
            provides=tuple(provides),
            consumes=tuple(consumes),
            smoke=MappingProxyType(dict(smoke or {})),
        )
        spec.bind(spec.smoke)
        _REGISTRY[name] = spec
        return runner

    return decorator


def _ensure_registered() -> None:
    # Importing the experiments package executes every module's
    # @register_experiment decorator exactly once.
    from .. import experiments  # noqa: F401


def get_experiment(name: str) -> ExperimentSpec:
    """Look up a registered experiment by name."""
    _ensure_registered()
    try:
        return _REGISTRY[name]
    except KeyError:
        known = ", ".join(sorted(_REGISTRY))
        raise KeyError(f"unknown experiment {name!r}; available: {known}") from None


def all_experiments() -> list[ExperimentSpec]:
    """Registered experiments in registration (paper) order."""
    _ensure_registered()
    return list(_REGISTRY.values())


def experiment_names() -> list[str]:
    _ensure_registered()
    return list(_REGISTRY)


def run_experiment(
    name: str, context: SimulationContext | None = None, **overrides: Any
) -> ExperimentResult:
    """Run one registered experiment by name."""
    return get_experiment(name).run(context, **overrides)


def _schedule(specs: list[ExperimentSpec]) -> list[ExperimentSpec]:
    """Stable order with artifact producers ahead of their consumers.

    A spec that consumes an artifact kind another spec provides (e.g. the
    Fig. 7 bandwidth model consuming the corner-index streams the Fig. 9
    conflict analysis builds) is moved after the producer; ties keep
    registration order.  Cycles fall back to registration order.
    """
    ordered: list[ExperimentSpec] = []
    remaining = list(specs)
    provided: set[str] = set()
    while remaining:
        progressed = False
        for spec in list(remaining):
            pending = {
                kind
                for kind in spec.consumes
                if kind not in provided
                and any(kind in other.provides for other in remaining if other is not spec)
            }
            if not pending:
                ordered.append(spec)
                provided.update(spec.provides)
                remaining.remove(spec)
                progressed = True
        if not progressed:  # dependency cycle: keep declaration order
            ordered.extend(remaining)
            break
    return ordered


def run_suite(
    names: list[str] | None = None,
    context: SimulationContext | None = None,
    overrides: Mapping[str, Mapping[str, Any]] | None = None,
) -> dict[str, ExperimentResult]:
    """Run a set of experiments against one shared context.

    ``overrides`` maps experiment name to parameter overrides.  Specs are
    scheduled so artifact producers run before consumers, letting the shared
    :class:`SimulationContext` reuse streams instead of recomputing them.
    Results are keyed by experiment name.
    """
    specs = [get_experiment(n) for n in names] if names is not None else all_experiments()
    ctx = context if context is not None else SimulationContext()
    results: dict[str, ExperimentResult] = {}
    for spec in _schedule(specs):
        results[spec.name] = spec.run(ctx, **(overrides or {}).get(spec.name, {}))
    return results
