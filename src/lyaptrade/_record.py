"""Value records: the package's small data classes, with no generated code.

A record's fields are its own annotations, in order, with optional class
defaults; `factory(list)` makes a fresh default for each record.  A
record is built by position or keyword, then `__post_init__` checks it;
it compares field by field with records of its class, shows its fields
in its repr, and `replace(**changes)` builds a checked copy.  A frozen
record is read-only and hashable: its hash is computed once and kept,
but not pickled, as string hashes differ between processes.
"""


class factory:
    """A default made afresh for each record: `x: list = factory(list)`."""

    def __init__(self, make):
        self.make = make


class Record:
    _fields = ()

    def __init_subclass__(cls, frozen=False, **kwargs):
        super().__init_subclass__(**kwargs)
        cls._fields = tuple(cls.__dict__.get("__annotations__", ()))
        if frozen:
            cls.__setattr__ = cls.__delattr__ = _read_only
            cls.__hash__ = _kept_hash

    def __init__(self, *args, **kwargs):
        if kwargs or len(args) != len(self._fields):
            args = _bind(type(self), args, kwargs)
        self.__dict__.update(zip(self._fields, args))
        self.__post_init__()

    def __post_init__(self):
        pass

    def _values(self) -> tuple:
        vals = self.__dict__
        return tuple([vals[name] for name in self._fields])

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    __hash__ = None

    def __repr__(self) -> str:
        return f"{type(self).__qualname__}(" + ", ".join(
            f"{name}={value!r}"
            for name, value in zip(self._fields, self._values())) + ")"

    def __getstate__(self) -> dict:
        return {k: v for k, v in self.__dict__.items() if k != "_hash"}

    def replace(self, **changes):
        """A copy with `changes`, checked by `__post_init__` again."""
        return type(self)(**dict(zip(self._fields, self._values()),
                                 **changes))


def _bind(cls, args, kwargs) -> list:
    """The field values of cls(*args, **kwargs), in field order."""
    fields, defaults = cls._fields, vars(cls)
    values = dict(zip(fields, args))
    if len(args) > len(fields) or values.keys() & kwargs \
            or kwargs.keys() - set(fields):
        raise TypeError(f"{cls.__qualname__}() takes the fields "
                        f"{', '.join(fields)}; got {len(args)} by position "
                        f"and {', '.join(kwargs) or 'none'} by keyword")
    values.update(kwargs)
    for name in fields[len(args):]:
        if name not in values:
            if name not in defaults:
                raise TypeError(f"{cls.__qualname__}() is missing {name!r}")
            default = defaults[name]
            values[name] = default.make() if isinstance(default, factory) \
                else default
    return [values[name] for name in fields]


def _read_only(self, name, *value):
    raise AttributeError(f"{type(self).__qualname__} is frozen: cannot "
                         f"{'assign to' if value else 'delete'} {name!r}")


def _kept_hash(self) -> int:
    h = self.__dict__.get("_hash")
    if h is None:
        h = self.__dict__["_hash"] = hash(self._values())
    return h
