"""Configuration spaces: parsing, validation, sampling, and encoding.

The space file format is line oriented (one parameter per line, ``#``
comments), with membership conditions in a section opened by a
``[conditions]`` header:

    alpha real [0.0, 1.0] [0.5]
    level integer [1, 64] [8] log
    strategy categorical {fast, careful, hybrid} [fast]

    [conditions]
    alpha | strategy in {careful, hybrid}

A parameter is *active* in a configuration iff all of its conditions hold
(parent active and assigned one of the activating values). Multi-solver
spaces are composed by putting each sub-space's parameters behind one
top-level categorical selector.
"""

from __future__ import annotations

import hashlib
import math
import re
from dataclasses import dataclass, replace
from random import Random
from typing import Any, Iterable, Iterator, Mapping, Sequence

import numpy as np

REAL = "real"
INTEGER = "integer"
CATEGORICAL = "categorical"

SENTINEL = -1.0  # encoding slot for inactive parameters

_NAME_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_-]*")
_PARAM_RE = re.compile(
    r"^(?P<name>[A-Za-z_][A-Za-z0-9_-]*)\s+(?P<kind>real|integer|categorical)\s+"
    r"(?P<domain>\[[^\]]*\]|\{[^}]*\})\s*\[(?P<default>[^\]]*)\]\s*(?P<log>log)?$"
)
_CONDITION_RE = re.compile(
    r"^(?P<child>[A-Za-z_][A-Za-z0-9_-]*)\s*\|\s*(?P<parent>[A-Za-z_][A-Za-z0-9_-]*)"
    r"\s+in\s+\{(?P<values>[^}]*)\}$"
)

PRODUCT_SEPARATOR = "."  # joins the copy prefix to base names; base names cannot contain it


class SpaceParseError(ValueError):
    def __init__(self, message: str, line: int | None = None):
        self.line = line
        prefix = f"line {line}: " if line is not None else ""
        super().__init__(prefix + message)


@dataclass(frozen=True)
class Parameter:
    name: str
    kind: str
    lower: float | None = None
    upper: float | None = None
    choices: tuple[str, ...] = ()
    default: Any = None
    log_scale: bool = False

    def __post_init__(self) -> None:
        if self.kind not in (REAL, INTEGER, CATEGORICAL):
            raise ValueError(f"unknown parameter kind {self.kind!r}")
        if self.kind == CATEGORICAL:
            if not self.choices:
                raise ValueError(f"categorical parameter {self.name!r} has no choices")
            if len(set(self.choices)) != len(self.choices):
                raise ValueError(f"duplicate choices in parameter {self.name!r}")
            if self.log_scale:
                raise ValueError("log scale applies to numeric parameters only")
        else:
            if self.lower is None or self.upper is None:
                raise ValueError(f"numeric parameter {self.name!r} needs an interval")
            if not self.lower < self.upper:
                raise ValueError(
                    f"parameter {self.name!r}: interval lower must be < upper"
                )
            if self.log_scale and self.lower <= 0:
                raise ValueError(
                    f"parameter {self.name!r}: log scale requires a positive lower bound"
                )
        if not self.contains(self.default):
            raise ValueError(
                f"parameter {self.name!r}: default {self.default!r} outside domain"
            )

    def contains(self, value: Any) -> bool:
        if self.kind == CATEGORICAL:
            return value in self.choices
        if self.kind == INTEGER:
            return (
                isinstance(value, (int, np.integer))
                and not isinstance(value, bool)
                and self.lower <= value <= self.upper
            )
        return isinstance(value, (int, float, np.floating)) and self.lower <= value <= self.upper

    def coerce(self, raw: str) -> Any:
        """Parse a serialized value for this parameter."""
        if self.kind == CATEGORICAL:
            if raw not in self.choices:
                raise ValueError(f"{raw!r} is not a choice of {self.name!r}")
            return raw
        if self.kind == INTEGER:
            return int(raw)
        return float(raw)

    def normalize(self, value: Any) -> float:
        """Map a domain value to [0, 1] (in log space for log-scale domains)."""
        if self.kind == CATEGORICAL:
            return float(self.choices.index(value))
        if self.log_scale:
            return (math.log(value) - math.log(self.lower)) / (
                math.log(self.upper) - math.log(self.lower)
            )
        return (float(value) - self.lower) / (self.upper - self.lower)


@dataclass(frozen=True)
class Condition:
    """``child`` is active only when ``parent`` takes one of ``activating``."""

    child: str
    parent: str
    activating: tuple[str, ...]


@dataclass(frozen=True)
class ParameterSpace:
    parameters: tuple[Parameter, ...]
    conditions: tuple[Condition, ...] = ()
    selector: str | None = None

    def __post_init__(self) -> None:
        names = [p.name for p in self.parameters]
        dupes = {n for n in names if names.count(n) > 1}
        if dupes:
            raise ValueError(f"duplicate parameter names: {sorted(dupes)}")
        by_name = {p.name: p for p in self.parameters}
        conds: dict[str, list[Condition]] = {}
        for cond in self.conditions:
            if cond.parent not in by_name:
                raise ValueError(f"condition references unknown parent {cond.parent!r}")
            if cond.child not in by_name:
                raise ValueError(f"condition references unknown child {cond.child!r}")
            parent = by_name[cond.parent]
            if parent.kind != CATEGORICAL:
                raise ValueError(
                    f"condition parent {cond.parent!r} must be categorical"
                )
            for value in cond.activating:
                if value not in parent.choices:
                    raise ValueError(
                        f"condition on {cond.child!r}: {value!r} is not a value "
                        f"of {cond.parent!r}"
                    )
            conds.setdefault(cond.child, []).append(cond)
        order = self._toposort(names, conds)
        if self.selector is not None:
            sel = by_name.get(self.selector)
            if sel is None:
                raise ValueError(f"selector {self.selector!r} is not a parameter")
            if sel.kind != CATEGORICAL or self.selector in conds:
                raise ValueError("selector must be an unconditional categorical parameter")
        object.__setattr__(self, "_by_name", by_name)
        object.__setattr__(self, "_conditions_of", {c: tuple(v) for c, v in conds.items()})
        object.__setattr__(self, "_topo_order", order)

    @staticmethod
    def _toposort(names: list[str], conds: dict[str, list[Condition]]) -> tuple[str, ...]:
        # Kahn's algorithm over parent -> child edges; a leftover means a cycle.
        pending = {name: {c.parent for c in conds.get(name, ())} for name in names}
        order: list[str] = []
        while pending:
            ready = [n for n in names if n in pending and not pending[n]]
            if not ready:
                raise ValueError(f"conditionality cycle among {sorted(pending)}")
            for n in ready:
                order.append(n)
                del pending[n]
                for deps in pending.values():
                    deps.discard(n)
        return tuple(order)

    def __getitem__(self, name: str) -> Parameter:
        return self._by_name[name]

    def __contains__(self, name: str) -> bool:
        return name in self._by_name

    def conditions_of(self, name: str) -> tuple[Condition, ...]:
        return self._conditions_of.get(name, ())

    @property
    def topo_order(self) -> tuple[str, ...]:
        return self._topo_order

    def unconditional_names(self) -> tuple[str, ...]:
        return tuple(p.name for p in self.parameters if not self.conditions_of(p.name))

    def active_set(self, assignments: Mapping[str, Any]) -> tuple[str, ...]:
        """Names of parameters active under the given (partial) assignments."""
        active: list[str] = []
        activemap: dict[str, bool] = {}
        for name in self.topo_order:
            ok = True
            for cond in self.conditions_of(name):
                if not activemap.get(cond.parent, False):
                    ok = False
                    break
                if assignments.get(cond.parent) not in cond.activating:
                    ok = False
                    break
            activemap[name] = ok
            if ok:
                active.append(name)
        return tuple(active)


@dataclass(frozen=True)
class Configuration:
    """One point of a parameter space: values for exactly the active parameters."""

    items: tuple[tuple[str, Any], ...]
    config_id: str

    @property
    def assignments(self) -> dict[str, Any]:
        return dict(self.items)

    def __getitem__(self, name: str) -> Any:
        for key, value in self.items:
            if key == name:
                return value
        raise KeyError(name)

    def __contains__(self, name: str) -> bool:
        return any(key == name for key, _ in self.items)


def format_value(value: Any) -> str:
    if isinstance(value, bool):
        raise TypeError("boolean parameter values are not supported")
    if isinstance(value, float):
        return repr(value)
    return str(value)


def serialize_config(config: Configuration) -> str:
    """``name=value`` pairs, sorted by name, space separated."""
    return " ".join(f"{name}={format_value(value)}" for name, value in config.items)


def _config_id(items: tuple[tuple[str, Any], ...]) -> str:
    text = " ".join(f"{name}={format_value(value)}" for name, value in items)
    return hashlib.sha1(text.encode()).hexdigest()[:12]


def make_config(space: ParameterSpace, assignments: Mapping[str, Any]) -> Configuration:
    """Validate assignments against the space and build a canonical Configuration.

    Exactly the active parameters must be assigned, each with a domain-valid
    value. Equal assignment maps yield equal config ids regardless of order.
    """
    active = set(space.active_set(assignments))
    given = set(assignments)
    if given != active:
        missing = active - given
        extra = given - active
        parts = []
        if missing:
            parts.append(f"missing active parameters {sorted(missing)}")
        if extra:
            parts.append(f"inactive/unknown parameters assigned {sorted(extra)}")
        raise ValueError("; ".join(parts))
    canonical: list[tuple[str, Any]] = []
    for name in sorted(assignments):
        param = space[name]
        value = assignments[name]
        if param.kind == INTEGER and isinstance(value, (int, np.integer)):
            value = int(value)
        elif param.kind == REAL:
            value = float(value)
        if not param.contains(value):
            raise ValueError(f"value {value!r} outside domain of {name!r}")
        canonical.append((name, value))
    items = tuple(canonical)
    return Configuration(items, _config_id(items))


def parse_config(space: ParameterSpace, text: str) -> Configuration:
    assignments: dict[str, Any] = {}
    for token in text.split():
        name, sep, raw = token.partition("=")
        if not sep:
            raise ValueError(f"malformed assignment {token!r}")
        if name not in space:
            raise ValueError(f"unknown parameter {name!r}")
        assignments[name] = space[name].coerce(raw)
    return make_config(space, assignments)


def default_config(space: ParameterSpace) -> Configuration:
    assignments: dict[str, Any] = {}
    for name in space.topo_order:
        conds = space.conditions_of(name)
        if all(c.parent in assignments and assignments[c.parent] in c.activating for c in conds):
            assignments[name] = space[name].default
    return make_config(space, assignments)


def sample_config(space: ParameterSpace, seed: int | Random) -> Configuration:
    """Uniform sample over the active structure, deterministic given the seed.

    Numeric values are uniform on their interval (log-uniform for log-scale
    domains); conditional children are drawn only when activated.
    """
    rng = seed if isinstance(seed, Random) else Random(seed)
    assignments: dict[str, Any] = {}
    for name in space.topo_order:
        conds = space.conditions_of(name)
        if not all(c.parent in assignments and assignments[c.parent] in c.activating for c in conds):
            continue
        param = space[name]
        if param.kind == CATEGORICAL:
            assignments[name] = param.choices[rng.randrange(len(param.choices))]
        elif param.kind == INTEGER:
            if param.log_scale:
                value = int(round(math.exp(rng.uniform(math.log(param.lower), math.log(param.upper)))))
                assignments[name] = min(max(value, int(param.lower)), int(param.upper))
            else:
                assignments[name] = rng.randint(int(param.lower), int(param.upper))
        else:
            if param.log_scale:
                assignments[name] = math.exp(rng.uniform(math.log(param.lower), math.log(param.upper)))
            else:
                assignments[name] = rng.uniform(param.lower, param.upper)
    return make_config(space, assignments)


def encoding_kinds(space: ParameterSpace) -> tuple[str, ...]:
    """Per-column kinds ('num' or 'cat') of the parameter block of encodings."""
    return tuple("cat" if p.kind == CATEGORICAL else "num" for p in space.parameters)


def encode_config(
    space: ParameterSpace,
    config: Configuration,
    features: Sequence[float] = (),
    feature_dim: int | None = None,
) -> np.ndarray:
    """Fixed-length numeric encoding of a configuration plus instance features.

    Numeric parameters are normalized to [0, 1] by their domain (log domains
    in log space); categoricals become their choice index; inactive
    parameters take the sentinel value. Features are appended unchanged.
    """
    if feature_dim is not None and len(features) != feature_dim:
        raise ValueError(
            f"feature vector has length {len(features)}, expected {feature_dim}"
        )
    out = np.empty(len(space.parameters) + len(features))
    for i, param in enumerate(space.parameters):
        if param.name in config:
            out[i] = param.normalize(config[param.name])
        else:
            out[i] = SENTINEL
    if len(features):
        out[len(space.parameters) :] = np.asarray(features, dtype=float)
    return out


# ---------------------------------------------------------------------------
# space file format


def _parse_domain(kind: str, text: str, line_no: int) -> tuple[Any, Any, tuple[str, ...]]:
    text = text.strip()
    if kind == CATEGORICAL:
        if not (text.startswith("{") and text.endswith("}")):
            raise SpaceParseError("categorical domain must be {v1, v2, ...}", line_no)
        values = tuple(v.strip() for v in text[1:-1].split(",") if v.strip())
        if not values:
            raise SpaceParseError("empty categorical domain", line_no)
        return None, None, values
    if not (text.startswith("[") and text.endswith("]")):
        raise SpaceParseError("numeric domain must be [lower, upper]", line_no)
    parts = [p.strip() for p in text[1:-1].split(",")]
    if len(parts) != 2:
        raise SpaceParseError("numeric domain needs exactly two bounds", line_no)
    try:
        if kind == INTEGER:
            lower, upper = int(parts[0]), int(parts[1])
        else:
            lower, upper = float(parts[0]), float(parts[1])
    except ValueError as exc:
        raise SpaceParseError(f"bad numeric bound: {exc}", line_no) from exc
    return lower, upper, ()


def parse_space(text: str, selector: str | None = None) -> ParameterSpace:
    """Parse a space definition document; raises SpaceParseError with line numbers."""
    parameters: list[Parameter] = []
    conditions: list[Condition] = []
    seen: set[str] = set()
    in_conditions = False
    for line_no, raw_line in enumerate(text.splitlines(), start=1):
        line = raw_line.split("#", 1)[0].strip()
        if not line:
            continue
        if line.lower() == "[conditions]":
            in_conditions = True
            continue
        if in_conditions:
            match = _CONDITION_RE.match(line)
            if not match:
                raise SpaceParseError(f"malformed condition {line!r}", line_no)
            values = tuple(v.strip() for v in match.group("values").split(",") if v.strip())
            if not values:
                raise SpaceParseError("condition has no activating values", line_no)
            conditions.append(Condition(match.group("child"), match.group("parent"), values))
            continue
        match = _PARAM_RE.match(line)
        if not match:
            raise SpaceParseError(f"malformed parameter line {line!r}", line_no)
        name = match.group("name")
        if name in seen:
            raise SpaceParseError(f"duplicate parameter name {name!r}", line_no)
        seen.add(name)
        kind = match.group("kind")
        lower, upper, choices = _parse_domain(kind, match.group("domain"), line_no)
        default_raw = match.group("default").strip()
        try:
            if kind == CATEGORICAL:
                default: Any = default_raw
            elif kind == INTEGER:
                default = int(default_raw)
            else:
                default = float(default_raw)
            parameters.append(
                Parameter(
                    name,
                    kind,
                    lower=lower,
                    upper=upper,
                    choices=choices,
                    default=default,
                    log_scale=bool(match.group("log")),
                )
            )
        except ValueError as exc:
            raise SpaceParseError(str(exc), line_no) from exc
    try:
        return ParameterSpace(tuple(parameters), tuple(conditions), selector=selector)
    except ValueError as exc:
        raise SpaceParseError(str(exc)) from exc


def serialize_space(space: ParameterSpace) -> str:
    lines: list[str] = []
    for p in space.parameters:
        if p.kind == CATEGORICAL:
            domain = "{" + ", ".join(p.choices) + "}"
        else:
            domain = f"[{format_value(p.lower)}, {format_value(p.upper)}]" if p.kind == REAL else f"[{p.lower}, {p.upper}]"
        suffix = " log" if p.log_scale else ""
        lines.append(f"{p.name} {p.kind} {domain} [{format_value(p.default)}]{suffix}")
    if space.conditions:
        lines.append("")
        lines.append("[conditions]")
        for c in space.conditions:
            lines.append(f"{c.child} | {c.parent} in {{{', '.join(c.activating)}}}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# multi-solver composition and portfolio product spaces


def _add_renamed(
    space: ParameterSpace,
    prefix: str,
    params: list[Parameter],
    conditions: list[Condition],
) -> None:
    """Append the space's parameters and conditions with ``prefix`` put
    before every parameter name."""
    params.extend(replace(p, name=prefix + p.name) for p in space.parameters)
    conditions.extend(
        Condition(prefix + c.child, prefix + c.parent, c.activating) for c in space.conditions
    )


def compose_selector_space(
    subspaces: Mapping[str, ParameterSpace],
    selector_name: str = "solver",
    default: str | None = None,
) -> ParameterSpace:
    """Compose sub-spaces behind one categorical selector.

    Each sub-space's parameters are prefixed with its label; a sub-space is
    active exactly when the selector takes its label.
    """
    labels = tuple(subspaces)
    if not labels:
        raise ValueError("no sub-spaces given")
    params: list[Parameter] = [
        Parameter(
            selector_name,
            CATEGORICAL,
            choices=labels,
            default=default if default is not None else labels[0],
        )
    ]
    conditions: list[Condition] = []
    for label, sub in subspaces.items():
        prefix = f"{label}{PRODUCT_SEPARATOR}"
        _add_renamed(sub, prefix, params, conditions)
        # gate every unconditional sub-parameter on the selector value
        for name in sub.unconditional_names():
            conditions.append(Condition(prefix + name, selector_name, (label,)))
    return ParameterSpace(tuple(params), tuple(conditions), selector=selector_name)


def _copy_prefix(index: int) -> str:
    return f"comp{index}{PRODUCT_SEPARATOR}"


def compose_product_space(space: ParameterSpace, k: int) -> ParameterSpace:
    """K disjoint renamed copies of the space; one configuration of the
    product decodes to a k-tuple of component configurations."""
    if k < 1:
        raise ValueError("k must be >= 1")
    params: list[Parameter] = []
    conditions: list[Condition] = []
    for i in range(1, k + 1):
        _add_renamed(space, _copy_prefix(i), params, conditions)
    return ParameterSpace(tuple(params), tuple(conditions))


def make_product_config(
    product_space: ParameterSpace, components: Sequence[Configuration]
) -> Configuration:
    assignments: dict[str, Any] = {}
    for i, comp in enumerate(components, start=1):
        prefix = _copy_prefix(i)
        for name, value in comp.items:
            assignments[prefix + name] = value
    return make_config(product_space, assignments)


def decode_product_config(
    base_space: ParameterSpace, config: Configuration, k: int
) -> tuple[Configuration, ...]:
    groups: list[dict[str, Any]] = [{} for _ in range(k)]
    for name, value in config.items:
        prefix, sep, rest = name.partition(PRODUCT_SEPARATOR)
        if not sep or not prefix.startswith("comp"):
            raise ValueError(f"{name!r} is not a product-space parameter")
        index = int(prefix[4:])
        groups[index - 1][rest] = value
    return tuple(make_config(base_space, g) for g in groups)


def enumerate_configs(space: ParameterSpace) -> Iterator[Configuration]:
    """All configurations of a finite (categorical/integer) space."""
    for p in space.parameters:
        if p.kind == REAL:
            raise ValueError("cannot enumerate a space with real-valued parameters")

    def values_of(param: Parameter) -> Iterable[Any]:
        if param.kind == CATEGORICAL:
            return param.choices
        return range(int(param.lower), int(param.upper) + 1)

    order = space.topo_order

    def rec(idx: int, assignments: dict[str, Any]) -> Iterator[Configuration]:
        if idx == len(order):
            yield make_config(space, assignments)
            return
        name = order[idx]
        conds = space.conditions_of(name)
        active = all(
            c.parent in assignments and assignments[c.parent] in c.activating for c in conds
        )
        if not active:
            yield from rec(idx + 1, assignments)
            return
        for value in values_of(space[name]):
            assignments[name] = value
            yield from rec(idx + 1, assignments)
            del assignments[name]

    yield from rec(0, {})
