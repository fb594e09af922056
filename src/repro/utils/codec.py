"""One JSON codec for every plain-data spec and result dataclass.

A dataclass that mixes in :class:`Codec` gets ``to_dict`` /
``from_dict`` / ``to_json`` / ``from_json`` / ``save`` / ``load`` from
its fields and their resolved type hints.  Each field is the JSON key
of the same name, except *transient* fields (declared
``compare=False``: live objects such as a record's artifacts), which are
never written or read.  Nested codec classes encode through their own
``to_dict``; tuples and lists are JSON lists; ``Optional``/``Union``
members are picked by the value's type; mappings are copied shallowly;
scalars, whose ``int`` and ``float`` both accept any JSON number, pass
through unchanged, so decoded data re-encodes to the same bytes.

Decoding is strict: a missing key takes the field's default or is an
error, an unknown key or a mistyped value is an error, and every error
is the class's :attr:`Codec.codec_error`.  Canonical JSON sorts keys and
uses tight separators, so ``from_json(s).to_json() == s``.
"""

from __future__ import annotations

import dataclasses
import functools
import itertools
import json
import reprlib
import typing
from collections.abc import Mapping
from typing import Any, Callable, Dict, NamedTuple, Optional, Tuple

from repro.utils.atomic import atomic_write_text
from repro.utils.errors import ExperimentError

#: Encoders map a field value to JSON-native data; decoders map JSON data
#: back, raising :class:`_Mismatch` on a value of the wrong type.
Coder = Callable[[Any], Any]

#: The Python types each scalar annotation accepts when decoding.
_SCALARS = {str: (str,), int: (int, float), float: (int, float)}


class _Mismatch(Exception):
    """A value does not have the JSON type its field declares."""


def _same(value: Any) -> Any:
    return value


def _mapping(value: Any) -> Dict[Any, Any]:
    if not isinstance(value, Mapping):
        raise _Mismatch
    return dict(value)


def _compile(tp: Any) -> Tuple[Coder, Coder]:
    """The (encoder, decoder) pair for one resolved type annotation."""
    if isinstance(tp, type) and issubclass(tp, Codec):
        return (lambda value: value.to_dict()), (
            lambda value: tp.from_dict(value))
    origin, args = typing.get_origin(tp), typing.get_args(tp)
    if tp in _SCALARS or origin is typing.Union:
        return _union(args or (tp,))
    if origin in (dict, Mapping):
        return dict, _mapping
    if origin in (list, tuple):
        return _sequence(origin, args)
    raise TypeError(f"the codec cannot serialise {tp!r}")


def _union(args: Tuple[Any, ...]) -> Tuple[Coder, Coder]:
    """A scalar, ``Optional`` or ``Union``: ``None`` and scalar members
    pass through as is; at most one other member codes the rest."""
    plain = tuple(arg for arg in args if arg is type(None) or arg in _SCALARS)
    rest = [arg for arg in args if arg not in plain]
    if len(rest) > 1:
        raise TypeError(f"the codec cannot serialise a union of {rest!r}")
    encode, decode = _compile(rest[0]) if rest else (_same, None)
    accepted = tuple(tp for arg in plain for tp in _SCALARS.get(arg, (arg,)))

    def encode_member(value: Any) -> Any:
        return value if isinstance(value, plain) else encode(value)

    def decode_member(value: Any) -> Any:
        # ``True`` is an int to Python but not a number to JSON.
        if isinstance(value, accepted) and not isinstance(value, bool):
            return value
        if decode is None:
            raise _Mismatch
        return decode(value)
    return (encode_member if rest else _same), decode_member


def _sequence(origin: type, args: Tuple[Any, ...]) -> Tuple[Coder, Coder]:
    """Lists and tuples as JSON lists: ``List[X]`` and ``Tuple[X, ...]``
    of any length, or a fixed-length ``Tuple[A, B]``."""
    fixed = origin is tuple and args[-1] is not Ellipsis
    coders = [_compile(arg) for arg in (args if fixed else args[:1])]

    def pairs(value):
        return zip(coders if fixed else itertools.repeat(coders[0]), value)

    def encode(value: Any) -> Any:
        return [encode_item(item) for (encode_item, _), item in pairs(value)]

    def decode(value: Any) -> Any:
        if not isinstance(value, (list, tuple)) or (
                fixed and len(value) != len(coders)):
            raise _Mismatch
        items = [decode_item(item) for (_, decode_item), item in pairs(value)]
        return items if origin is list else tuple(items)
    if all(encode_item is _same for encode_item, _ in coders):
        return list, decode
    return encode, decode


class _Plan(NamedTuple):
    """One class's ``(name, encoder or None for as-is)`` and ``(name,
    hint, decoder, required)`` per serialised field."""

    encoders: Tuple[Tuple[str, Optional[Coder]], ...]
    decoders: Tuple[Tuple[str, Any, Coder, bool], ...]
    names: frozenset


@functools.lru_cache(maxsize=None)
def _plan(cls: type) -> _Plan:
    """The serialised fields of ``cls``, compiled once per class."""
    hints = typing.get_type_hints(cls)
    encoders, decoders = [], []
    for field in dataclasses.fields(cls):
        if not field.compare:
            continue  # transient: live state, never serialised
        hint = hints[field.name]
        encode, decode = _compile(hint)
        encoders.append((field.name, None if encode is _same else encode))
        decoders.append((field.name, hint, decode,
                         field.default is dataclasses.MISSING
                         and field.default_factory is dataclasses.MISSING))
    return _Plan(tuple(encoders), tuple(decoders),
                 frozenset(name for name, _ in encoders))


def _describe(hint: Any) -> str:
    if isinstance(hint, type):
        return hint.__name__
    return str(hint).replace("typing.", "")


def canonical_json(data: Any, indent: Optional[int] = None) -> str:
    """``data`` as canonical JSON: sorted keys, with tight separators
    unless ``indent`` asks for a readable layout."""
    return json.dumps(data, sort_keys=True, indent=indent,
                      separators=(",", ":") if indent is None else None)


class Codec:
    """Mixin deriving JSON serialisation from a dataclass's fields.

    Subclasses are dataclasses; :attr:`codec_error` names the
    :class:`~repro.utils.errors.ReproError` subclass their decoding
    raises.  A class whose JSON is not its field mapping overrides
    ``to_dict``/``from_dict`` and keeps the rest.
    """

    #: The error raised for data that does not decode into this class.
    codec_error: type = ExperimentError

    def to_dict(self) -> Dict[str, Any]:
        """Plain-data form (JSON-native types only; transient fields
        excluded)."""
        data = {}
        for name, encode in _plan(type(self)).encoders:
            value = getattr(self, name)
            data[name] = value if encode is None else encode(value)
        return data

    @classmethod
    def from_dict(cls, data: Any):
        """Rebuild an instance from :meth:`to_dict` output.

        Raises :attr:`codec_error` for a non-object, an unknown or
        missing key, or a value of the wrong type.
        """
        error = cls.codec_error
        if not isinstance(data, Mapping):
            raise error(f"{cls.__name__} data must be a JSON object, got "
                        f"{type(data).__name__}")
        plan = _plan(cls)
        unknown = data.keys() - plan.names
        if unknown:
            raise error(
                f"unknown {cls.__name__} field(s) "
                f"{sorted(unknown, key=str)}; valid fields: "
                f"{sorted(plan.names)}")
        values = {}
        for name, hint, decode, required in plan.decoders:
            if name not in data:
                if required:
                    raise error(f"{cls.__name__} needs a {name!r} field")
                continue
            value = data[name]
            try:
                values[name] = decode(value)
            except _Mismatch:
                raise error(
                    f"{cls.__name__} field {name!r} expects "
                    f"{_describe(hint)}, got {reprlib.repr(value)}"
                ) from None
        try:
            return cls(**values)
        except (ValueError, ArithmeticError) as exc:
            raise error(f"invalid {cls.__name__}: {exc}") from exc

    def to_json(self, indent: Optional[int] = None) -> str:
        """Canonical JSON form: ``from_json(s).to_json() == s``."""
        return canonical_json(self.to_dict(), indent)

    @classmethod
    def from_json(cls, text: str):
        """Rebuild an instance from :meth:`to_json` output."""
        try:
            data = json.loads(text)
        except (ValueError, RecursionError) as exc:  # deep nesting
            raise cls.codec_error(
                f"invalid {cls.__name__} JSON: {exc}") from exc
        return cls.from_dict(data)

    def save(self, path) -> None:
        """Atomically write this object to ``path`` as canonical JSON."""
        atomic_write_text(path, self.to_json() + "\n")

    @classmethod
    def load(cls, path):
        """Read an object previously written with :meth:`save`."""
        with open(path) as handle:
            return cls.from_json(handle.read())
