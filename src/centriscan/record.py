"""Slotted records: a class names its fields in `__slots__` and sets them in
its own `__init__`; expression and statement nodes set at most three per
statement, as four or more build a tuple first. Records are equal when of
one class with equal fields, and unhashable unless a subclass defines
`__hash__`. `_fields` lists the fields, a base class's first, like a
namedtuple's; a class may set it to leave fields out of equality and repr.
Unlike a dataclass, a record runs no generated code: its class is cheap."""


class Record:
    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def __init_subclass__(cls):
        if "_fields" not in cls.__dict__:
            cls._fields += cls.__dict__.get("__slots__", ())

    def _values(self) -> list:
        return [getattr(self, name) for name in self._fields]

    def __eq__(self, other):
        return self._values() == other._values() if type(other) is type(self) else NotImplemented

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__name__}({fields})"
