"""One JSON codec for every serialized dataclass.

Every format the repository writes or hashes — system configs, fault
plans, workload specs, run results, study specs, cache keys, telemetry
events, spans and decision records — is its frozen dataclass, walked
field by field::

    data = encode(config)                # nested dicts, lists, primitives
    config = decode(SystemConfig, data)  # the exact inverse
    save(config, "config.json")          # pretty-printed, sorted keys
    config = load(SystemConfig, "config.json")

The mapping is fixed: a dataclass is a dict of its fields, a tuple is a
list, ``None`` is ``null``, and ``Any``-typed values are copied with
tuples written as lists and lists read back as tuples.  JSON does not
tell ``1`` from ``1.0``, so decoding widens an ``int`` to a ``float``
field and narrows an integral ``float`` to an ``int`` field; a value of
the annotated type therefore re-encodes to the bytes it was read from.

A format is declared next to its dataclass, never here:

* ``format_version: ClassVar[int]`` — written at the top of the class's
  dict wherever it appears, checked on decode;
* field metadata :data:`OMIT_NONE`, :data:`OMIT_EMPTY` or
  :func:`omit_unless` — leave the field out of the encoding (decoding an
  absent field falls back to its default);
* field metadata :data:`REQUIRED` — a field with a default whose key a
  document must still carry;
* field metadata ``tagged(union)`` — the field holds one member of a
  :class:`TaggedUnion`, written with the union's tag key.

Decoding is strict: a key that is not a field, the declared tag or a
versioned class's ``format_version`` raises :class:`ConfigError` naming
its path, e.g. ``components[0].variants[2].faults: unknown key
'max_retry'``.
"""

from __future__ import annotations

import dataclasses
import json
import numbers
import pathlib
import typing
from typing import (
    Any,
    Callable,
    Dict,
    FrozenSet,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
    Type,
    TypeVar,
    Union,
)

T = TypeVar("T")

#: The key that carries a versioned class's ``format_version``.
VERSION_KEY = "format_version"

#: Field metadata: leave the field out of the encoding while it is ``None``.
OMIT_NONE: Mapping[str, Any] = {"omit": lambda value, owner: value is None}

#: Field metadata: leave the field out of the encoding while it is empty.
OMIT_EMPTY: Mapping[str, Any] = {"omit": lambda value, owner: not value}

#: Field metadata: the key must be present in a document even though
#: Python callers may rely on the field's default.
REQUIRED: Mapping[str, Any] = {"required": True}


class ConfigError(ValueError):
    """An invalid model configuration or serialized document."""


def omit_unless(other: str) -> Mapping[str, Any]:
    """Field metadata: write the field only while field *other* is set."""
    return {"omit": lambda value, owner: getattr(owner, other) is None}


class TaggedUnion:
    """A closed family of dataclasses told apart by one tag key.

    Args:
        key: The dict key carrying the tag (``"kind"``, ``"event"``).
        classes: Tag -> member class.
        what: How errors name the tag (``"arrival-process kind"``).
    """

    def __init__(self, key: str, classes: Mapping[str, type], what: str) -> None:
        self.key = key
        self.classes = dict(classes)
        self.what = what
        self._tags = {cls: tag for tag, cls in self.classes.items()}

    def encode(self, value: Any) -> Dict[str, Any]:
        """*value*'s encoding, led by its tag."""
        tag = self._tags.get(type(value))
        if tag is None:
            raise ConfigError(
                f"{type(value).__name__} is not serializable as a {self.what} "
                f"(only {sorted(self.classes)} round-trip)"
            )
        data = {self.key: tag}
        data.update(encode(value))
        return data

    def decode(self, data: Any, path: str = "") -> Any:
        """The member that *data* encodes, chosen by its tag."""
        tag = data.get(self.key) if isinstance(data, dict) else None
        cls = self.classes.get(tag) if isinstance(tag, str) else None
        if cls is None:
            where = f"{path}: " if path else ""
            raise ConfigError(f"{where}unknown {self.what} {tag!r}")
        return _decode_object(cls, data, path, self.key)


def tagged(union: TaggedUnion) -> Mapping[str, Any]:
    """Field metadata: the field holds one member of *union*."""
    return {"union": union}


# ----------------------------------------------------------------------
# Encoding and decoding
# ----------------------------------------------------------------------
Encoder = Optional[Callable[[Any], Any]]  # None: the value is its encoding
Decoder = Callable[[Any, str], Any]


class _Field:
    __slots__ = ("name", "encode", "decode", "omit", "required")

    def __init__(self, spec: dataclasses.Field, hint: Any) -> None:
        union = spec.metadata.get("union")
        self.name = spec.name
        if union is not None:
            self.encode: Encoder = union.encode
            self.decode: Decoder = union.decode
        else:
            self.encode, self.decode = _coder(hint)
        self.omit = spec.metadata.get("omit")
        self.required = spec.metadata.get("required") or (
            spec.default is dataclasses.MISSING
            and spec.default_factory is dataclasses.MISSING
        )


class _Plan:
    __slots__ = ("version", "fields", "keys")

    def __init__(self, cls: type) -> None:
        hints = typing.get_type_hints(cls)
        self.version: Optional[int] = getattr(cls, VERSION_KEY, None)
        self.fields = tuple(
            _Field(spec, hints[spec.name]) for spec in dataclasses.fields(cls)
        )
        names = {spec.name for spec in self.fields}
        if self.version is not None:
            names.add(VERSION_KEY)
        self.keys: FrozenSet[str] = frozenset(names)


_PLANS: Dict[type, _Plan] = {}


def _plan(cls: type) -> _Plan:
    plan = _PLANS.get(cls)
    if plan is None:
        if not dataclasses.is_dataclass(cls):
            raise ConfigError(f"{cls.__name__} is not a dataclass")
        plan = _PLANS[cls] = _Plan(cls)
    return plan


def encode(value: Any) -> Dict[str, Any]:
    """The JSON-ready dict of dataclass instance *value*."""
    plan = _plan(type(value))
    data: Dict[str, Any] = {}
    if plan.version is not None:
        data[VERSION_KEY] = plan.version
    for spec in plan.fields:
        item = getattr(value, spec.name)
        if spec.omit is not None and spec.omit(item, value):
            continue
        data[spec.name] = item if spec.encode is None else spec.encode(item)
    return data


def decode(cls: Type[T], data: Any) -> T:
    """The *cls* instance that :func:`encode` turned into *data*.

    Raises:
        ConfigError: On a non-dict, an unknown or missing key, an
            unsupported ``format_version``, or a value of the wrong type.
            The dataclass's own validation errors propagate unchanged.
    """
    return _decode_object(cls, data, "")


def _decode_object(
    cls: Type[T], data: Any, path: str, tag_key: Optional[str] = None
) -> T:
    plan = _plan(cls)
    where = path or cls.__name__
    if not isinstance(data, dict):
        raise ConfigError(f"{where}: expected an object, got {type(data).__name__}")
    if not plan.keys.issuperset(data):
        unknown = sorted(key for key in data if key not in plan.keys and key != tag_key)
        if unknown:
            label = "key" if len(unknown) == 1 else "keys"
            raise ConfigError(
                f"{where}: unknown {label} {', '.join(map(repr, unknown))}"
            )
    if plan.version is not None:
        version = data.get(VERSION_KEY, plan.version)
        if version != plan.version:
            raise ConfigError(
                f"{where}: unsupported {VERSION_KEY} {version!r} for "
                f"{cls.__name__} (this build reads {plan.version})"
            )
    prefix = f"{path}." if path else ""
    kwargs = {}
    for spec in plan.fields:
        if spec.name in data:
            kwargs[spec.name] = spec.decode(data[spec.name], prefix + spec.name)
        elif spec.required:
            raise ConfigError(f"{where}: missing field {spec.name!r}")
    try:
        return cls(**kwargs)
    except TypeError as bad:
        raise ConfigError(f"{where}: {bad}") from None


def check_field(cls: type, name: str, value: Any, path: str) -> Any:
    """*value* as field *name* of dataclass *cls* reads back from JSON.

    The type check for a value set in code rather than read from a file
    (a study's config patches): it must survive the field's encoder and
    decoder, so a wrong type raises the same :class:`ConfigError`, naming
    *path*, that a config file with that value would.
    """
    spec = next(spec for spec in _plan(cls).fields if spec.name == name)
    try:
        data = value if spec.encode is None else spec.encode(value)
    except (TypeError, AttributeError, ConfigError):
        raise _wrong(path, f"a value of {cls.__name__}.{name}'s type", value) from None
    return spec.decode(data, path)


def freeze(value: Any) -> Any:
    """*value* with every list and tuple turned into a tuple, recursively."""
    if isinstance(value, (list, tuple)):
        return tuple(freeze(item) for item in value)
    return value


def _thaw(value: Any) -> Any:
    if isinstance(value, (list, tuple)):
        return [_thaw(item) for item in value]
    return value


def _coder(hint: Any) -> Tuple[Encoder, Decoder]:
    """The (encoder, decoder) pair of one type hint."""
    if hint is Any:
        return _thaw, lambda data, path: freeze(data)
    if dataclasses.is_dataclass(hint):
        return encode, lambda data, path: _decode_object(hint, data, path)
    primitive = _PRIMITIVES.get(hint)
    if primitive is not None:
        return None, primitive
    origin, args = typing.get_origin(hint), typing.get_args(hint)
    if origin is Union and len(args) == 2 and type(None) in args:
        inner_encode, inner_decode = _coder(next(a for a in args if a is not type(None)))
        return (
            None
            if inner_encode is None
            else lambda value: None if value is None else inner_encode(value)
        ), lambda data, path: None if data is None else inner_decode(data, path)
    if origin is tuple and len(args) == 2 and args[1] is Ellipsis:
        item_encode, item_decode = _coder(args[0])

        def decode_items(data: Any, path: str) -> Tuple[Any, ...]:
            items = _list(data, path)
            return tuple(item_decode(x, f"{path}[{i}]") for i, x in enumerate(items))

        if item_encode is None:
            return list, decode_items
        return lambda value: [item_encode(x) for x in value], decode_items
    if origin is tuple and args:
        coders = [_coder(arg) for arg in args]

        def encode_fixed(value: Any) -> List[Any]:
            return [x if enc is None else enc(x) for (enc, _), x in zip(coders, value)]

        def decode_fixed(data: Any, path: str) -> Tuple[Any, ...]:
            items = _list(data, path)
            if len(items) != len(coders):
                raise ConfigError(f"{path}: expected {len(coders)} items, got {len(items)}")
            return tuple(
                dec(x, f"{path}[{i}]") for i, ((_, dec), x) in enumerate(zip(coders, items))
            )

        return encode_fixed, decode_fixed
    raise TypeError(f"no JSON coding for type {hint!r}; declare a TaggedUnion")


def _list(data: Any, path: str) -> Sequence[Any]:
    if not isinstance(data, (list, tuple)):
        raise ConfigError(f"{path}: expected a list, got {type(data).__name__}")
    return data


def _wrong(path: str, expected: str, data: Any) -> ConfigError:
    return ConfigError(f"{path}: expected {expected}, got {data!r}")


def _decode_float(data: Any, path: str) -> float:
    if isinstance(data, float):
        return data
    if isinstance(data, numbers.Real) and not isinstance(data, bool):
        return float(data)
    raise _wrong(path, "a number", data)


def _decode_int(data: Any, path: str) -> int:
    if isinstance(data, numbers.Integral) and not isinstance(data, bool):
        return data  # type: ignore[return-value]
    if isinstance(data, float) and data.is_integer():
        return int(data)
    raise _wrong(path, "an integer", data)


def _decode_str(data: Any, path: str) -> str:
    if isinstance(data, str):
        return data
    raise _wrong(path, "a string", data)


def _decode_bool(data: Any, path: str) -> bool:
    if type(data) is bool:
        return data
    raise _wrong(path, "true or false", data)


_PRIMITIVES: Dict[Any, Decoder] = {
    float: _decode_float,
    int: _decode_int,
    str: _decode_str,
    bool: _decode_bool,
}


# ----------------------------------------------------------------------
# Files
# ----------------------------------------------------------------------
def save(value: Any, path: Union[str, pathlib.Path]) -> None:
    """Write *value* as pretty-printed JSON with sorted keys."""
    text = json.dumps(encode(value), indent=2, sort_keys=True)
    pathlib.Path(path).write_text(text + "\n", encoding="utf-8")


def load(cls: Type[T], path: Union[str, pathlib.Path]) -> T:
    """Read a *cls* instance written by :func:`save`.

    Raises:
        ConfigError: On text that is not JSON, or any :func:`decode` error.
    """
    text = pathlib.Path(path).read_text(encoding="utf-8")
    try:
        data = json.loads(text)
    except json.JSONDecodeError as bad:
        raise ConfigError(f"{path}: not valid JSON ({bad})") from None
    return decode(cls, data)


__all__ = [
    "VERSION_KEY",
    "OMIT_NONE",
    "OMIT_EMPTY",
    "REQUIRED",
    "ConfigError",
    "check_field",
    "TaggedUnion",
    "omit_unless",
    "tagged",
    "encode",
    "decode",
    "freeze",
    "save",
    "load",
]
