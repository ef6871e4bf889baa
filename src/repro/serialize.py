"""Shared JSON (de)serialization helpers for frozen value types.

The engine, the run cache, and the cluster layer all ship value
objects — :class:`~repro.experiments.runner.RunConfig`,
:class:`~repro.experiments.runner.RunResult`,
:class:`~repro.resources.allocation.Configuration`,
:class:`~repro.faults.plan.FaultPlan` — across process boundaries and
onto disk as JSON. Each of those classes used to hand-roll its own
``to_dict``/``from_dict`` pair; this module is the single shared
implementation they now delegate to.

Two conventions coexist in the codebase and both are supported:

* **lenient** decoding (``strict=False``): unknown keys are ignored
  and missing keys fall back to the dataclass defaults — used by
  :class:`RunConfig`, whose artifacts must stay readable as fields are
  added;
* **strict** decoding (``strict=True``): unknown keys raise — used by
  :class:`FaultPlan`, where a typo'd rate silently injecting nothing
  would corrupt an experiment.

Nested non-scalar fields (a telemetry log inside a run result) are
described by a :class:`FieldCodec`, so the flat-field machinery stays
free of special cases.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Any, Callable, Dict, Mapping, Optional, Type, TypeVar

from repro.errors import ExperimentError

T = TypeVar("T")


@dataclass(frozen=True)
class FieldCodec:
    """How one dataclass field converts to and from JSON-native data."""

    encode: Callable[[Any], Any]
    decode: Callable[[Any], Any]


def object_codec(cls: type) -> FieldCodec:
    """Codec for a field holding an object with ``to_dict``/``from_dict``."""
    return FieldCodec(encode=lambda value: value.to_dict(), decode=cls.from_dict)


def optional(codec: FieldCodec) -> FieldCodec:
    """Wrap a codec so that ``None`` passes through unchanged."""
    return FieldCodec(
        encode=lambda value: None if value is None else codec.encode(value),
        decode=lambda data: None if data is None else codec.decode(data),
    )


def dataclass_to_dict(obj: Any, codecs: Optional[Mapping[str, FieldCodec]] = None) -> Dict[str, Any]:
    """JSON-compatible dict of a dataclass instance, field by field.

    Fields without a codec are emitted as-is (they must already be
    JSON-native scalars); fields with one go through its ``encode``.
    Unlike :func:`dataclasses.asdict` this does not deep-copy or
    recurse blindly, so nested objects keep control of their own
    representation.
    """
    codecs = codecs or {}
    out: Dict[str, Any] = {}
    for field in dataclasses.fields(obj):
        value = getattr(obj, field.name)
        codec = codecs.get(field.name)
        out[field.name] = codec.encode(value) if codec is not None else value
    return out


def dataclass_from_dict(
    cls: Type[T],
    data: Mapping[str, Any],
    strict: bool = False,
    codecs: Optional[Mapping[str, FieldCodec]] = None,
) -> T:
    """Rebuild a dataclass from :func:`dataclass_to_dict` output.

    Args:
        cls: the dataclass to construct.
        data: the JSON-decoded mapping.
        strict: raise :class:`~repro.errors.ExperimentError` on keys
            that are not fields of ``cls`` (catches typo'd knobs);
            the default silently ignores them (forward compatibility).
        codecs: per-field :class:`FieldCodec` overrides.
    """
    codecs = codecs or {}
    field_names = {f.name for f in dataclasses.fields(cls)}
    if strict:
        unknown = set(data) - field_names
        if unknown:
            raise ExperimentError(f"unknown {cls.__name__} fields {sorted(unknown)}")
    kwargs: Dict[str, Any] = {}
    for name in field_names:
        if name not in data:
            continue
        codec = codecs.get(name)
        kwargs[name] = codec.decode(data[name]) if codec is not None else data[name]
    return cls(**kwargs)


def mapping_to_dict(allocations: Mapping[str, Any]) -> Dict[str, list]:
    """``{name: sequence}`` rendered with JSON-native lists as values."""
    return {name: list(values) for name, values in allocations.items()}

