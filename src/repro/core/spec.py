"""One codec for the frozen configuration specs.

A spec is a frozen dataclass deriving from :class:`Spec`.  Each field
declares its type once, in its annotation, plus optional metadata given
through :func:`field`:

``choices``
    the values the field (or, for a ``tuple[T, ...]``, each item) may take;
``min`` / ``gt``
    an inclusive / exclusive lower bound, per item for tuples;
``nonempty``
    a string or tuple that must not be empty;
``flag`` / ``help`` / ``metavar``
    the CLI flag (default ``--field-name``), its help text and value name.

From that declaration the codec derives, once for every spec:

* type checking and coercion at construction, read from the annotation:
  ``int`` rejects ``bool`` and ``float``; ``float`` accepts an ``int``;
  ``bool`` accepts only a ``bool``; ``str``, ``dict``, ``X | None``,
  ``tuple[T, ...]`` (a JSON list is accepted) and a nested spec (a dict
  is accepted);
* range and choice checks — every failure is a
  :class:`~repro.core.errors.ConfigError` naming the field;
* ``to_dict`` / ``from_dict`` (unknown keys are named, with the known
  fields listed), ``save`` / ``load`` (an unreadable file is a
  ``ConfigError`` too);
* ``to_args`` / ``from_args`` and :meth:`Spec.add_arguments`: the
  argparse flags of a spec's fields, so ``from_args(parse(to_args()))``
  reconstructs the spec exactly.

Rules that span fields stay in the spec's own ``__post_init__``, after
``super().__post_init__()`` has checked every field.
"""

from __future__ import annotations

import dataclasses
import functools
import json
import numbers
import re
import types
import typing

from .errors import ConfigError

_NOUNS = {int: "int", float: "number", bool: "bool", str: "string", dict: "dict"}


def field(default=dataclasses.MISSING, *, default_factory=dataclasses.MISSING,
          **metadata):
    """A dataclass field carrying codec metadata (see the module doc)."""
    return dataclasses.field(
        default=default, default_factory=default_factory, metadata=metadata
    )


class _Mismatch(Exception):
    """A value whose type does not fit the annotation."""


def _is_spec(tp) -> bool:
    return isinstance(tp, type) and issubclass(tp, Spec)


def _optional_of(tp):
    """``X`` for an ``X | None`` annotation, else ``None``."""
    if typing.get_origin(tp) in (typing.Union, types.UnionType):
        return next(a for a in typing.get_args(tp) if a is not type(None))
    return None


def _noun(tp) -> str:
    inner = _optional_of(tp)
    if inner is not None:
        return f"{_noun(inner)} or None"
    if typing.get_origin(tp) is tuple:
        return f"list of {_noun(typing.get_args(tp)[0])}s"
    return tp.__name__ if _is_spec(tp) else _NOUNS[tp]


def _a(noun: str) -> str:
    return f"{'an' if noun[0] in 'aeiouAEIOU' else 'a'} {noun}"


def _coerce(value, tp):
    inner = _optional_of(tp)
    if inner is not None:
        return None if value is None else _coerce(value, inner)
    if typing.get_origin(tp) is tuple:
        if not isinstance(value, (list, tuple)):
            raise _Mismatch
        item = typing.get_args(tp)[0]
        return tuple(_coerce(v, item) for v in value)
    if _is_spec(tp) and isinstance(value, dict):
        return tp.from_dict(value)
    if tp is int or tp is float:
        number = numbers.Integral if tp is int else numbers.Real
        if isinstance(value, number) and not isinstance(value, bool):
            return tp(value)
    elif isinstance(value, tp):
        return value
    raise _Mismatch


def check_value(label: str, value, tp, **meta):
    """Type-check ``value`` against annotation ``tp`` (coercing a JSON
    list to a tuple, an ``int`` to a ``float``, a dict to a nested
    spec), then apply ``meta``'s ``nonempty`` / ``choices`` / ``min`` /
    ``gt``.  Every failure is a :class:`ConfigError` led by ``label``."""
    try:
        value = _coerce(value, tp)
    except _Mismatch:
        raise ConfigError(
            f"{label} must be {_a(_noun(tp))}, got {value!r}"
        ) from None
    if meta.get("nonempty") and not value:
        raise ConfigError(
            f"{label} must be {_a('non-empty ' + _noun(tp))}, got {value!r}"
        )
    choices, low, gt = meta.get("choices"), meta.get("min"), meta.get("gt")
    for item in value if isinstance(value, tuple) else (value,):
        if item is None:
            continue
        if choices is not None and item not in choices:
            raise ConfigError(
                f"unknown {label} {item!r}; "
                f"expected one of {', '.join(map(str, choices))}"
            )
        if low is not None and item < low:
            raise ConfigError(f"{label} must be >= {low}, got {item}")
        if gt is not None and not item > gt:
            raise ConfigError(f"{label} must be > {gt}, got {item}")
    return value


@functools.cache
def _fields(cls) -> tuple[tuple[dataclasses.Field, object], ...]:
    hints = typing.get_type_hints(cls)
    return tuple((f, hints[f.name]) for f in dataclasses.fields(cls))


def _flag(f: dataclasses.Field) -> str:
    return f.metadata.get("flag") or "--" + f.name.replace("_", "-")


def _plain(value):
    """A field value as plain JSON: nested specs become dicts, tuples
    become lists."""
    if isinstance(value, Spec):
        return value.to_dict()
    if isinstance(value, (list, tuple)):
        return [_plain(v) for v in value]
    if isinstance(value, dict):
        return {k: _plain(v) for k, v in value.items()}
    return value


def read_json(path: str, what: str):
    """Parse a JSON file; an unreadable or malformed one is a
    :class:`ConfigError` (``cannot load <what> <path>: ...``)."""
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot load {what} {path!r}: {exc}") from None


class Spec:
    """Base of the frozen dataclass specs: the derived codec."""

    def __post_init__(self) -> None:
        for f, tp in _fields(type(self)):
            value = check_value(f.name, getattr(self, f.name), tp, **f.metadata)
            object.__setattr__(self, f.name, value)

    # -- dict / JSON ------------------------------------------------------
    def to_dict(self) -> dict:
        """Plain-JSON representation (the exact :meth:`from_dict` inverse)."""
        return {
            f.name: _plain(getattr(self, f.name)) for f, _ in _fields(type(self))
        }

    @classmethod
    def from_dict(cls, data: dict, *, what: str | None = None):
        """Construct from a plain dict, naming unknown keys (as ``what``,
        default ``<Class> field(s)``) and missing required fields."""
        if not isinstance(data, dict):
            raise ConfigError(
                f"{cls.__name__}.from_dict expects a dict, "
                f"got {type(data).__name__}"
            )
        fields = [f for f, _ in _fields(cls)]
        known = sorted(f.name for f in fields)
        unknown = sorted(set(data) - set(known))
        if unknown:
            raise ConfigError(
                f"unknown {what or cls.__name__ + ' field(s)'}: "
                f"{', '.join(unknown)}; known fields: {', '.join(known)}"
            )
        missing = [
            f.name for f in fields
            if f.name not in data
            and f.default is dataclasses.MISSING
            and f.default_factory is dataclasses.MISSING
        ]
        if missing:
            raise ConfigError(
                f"{cls.__name__} requires field(s): {', '.join(missing)}"
            )
        return cls(**data)

    def save(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.to_dict(), fh, indent=2, sort_keys=True)
            fh.write("\n")

    @classmethod
    def load(cls, path: str):
        """Read a :meth:`save` file (``cannot load <spec> <path>: ...``
        when it is missing or not JSON)."""
        what = re.sub(r"(?<!^)(?=[A-Z])", " ", cls.__name__).lower()
        return cls.from_dict(read_json(path, what))

    # -- CLI flags ---------------------------------------------------------
    @classmethod
    def add_arguments(cls, parser, names, **overrides) -> None:
        """Add the flags of fields ``names`` (in that order) to an
        argparse parser.  Each stores into the field's own name and
        defaults to ``None``, so :meth:`from_args` falls back to the
        spec default for a flag the user did not give; ``overrides``
        maps a field name to extra ``add_argument`` keywords."""
        by_name = {f.name: (f, tp) for f, tp in _fields(cls)}
        for name in names:
            f, tp = by_name[name]
            kwargs = {"dest": name, "default": None}
            if tp is bool:
                kwargs["action"] = "store_true"
            else:
                kwargs["type"] = tp
            for key in ("choices", "help", "metavar"):
                if key in f.metadata:
                    kwargs[key] = f.metadata[key]
            kwargs.update(overrides.get(name, {}))
            parser.add_argument(_flag(f), **kwargs)

    def to_args(self) -> list[str]:
        """The CLI flag list describing this spec, fully explicit."""
        args: list[str] = []
        for f, _ in _fields(type(self)):
            value = getattr(self, f.name)
            if isinstance(value, bool):
                args += [_flag(f)] if value else []
            else:
                text = repr(value) if isinstance(value, float) else str(value)
                args += [_flag(f), text]
        return args

    @classmethod
    def from_args(cls, args):
        """Construct from an argparse namespace.  Attributes the
        namespace lacks or left ``None`` take the spec default, so one
        mapping serves every subcommand's subset of the flags."""
        given = {f.name: getattr(args, f.name, None) for f, _ in _fields(cls)}
        return cls(**{k: v for k, v in given.items() if v is not None})
