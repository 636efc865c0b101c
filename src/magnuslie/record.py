"""Value records: the base of the package's result and configuration classes.

A record declares its fields as annotated class lines, in order; a
field's default is its class attribute.  A field declared with
``field(...)`` leaves no class attribute: it has a fresh default per
instance (``default_factory``) or none, and may be left out of ==, hash
(``compare=False``) or repr (``repr=False``).  A record takes its fields
positionally or by keyword, then runs its ``__post_init__``; it compares
equal to a record of the same class with equal compared fields, hashes by
them, refuses attribute assignment and deletion, and has a
dataclass-style repr.  A value class that checks its input (``Series``,
``LieElement``) defines its own ``__init__``, which fills
``self.__dict__`` in one update.  A class declared with ``frozen=False``
may be assigned to and is unhashable.  Records are not subclassed: a
class's fields are its own annotations.

``dataclasses`` is not used because each certificate comes from a fresh
process that imports the package: importing ``dataclasses`` pulls in
``inspect``, ``ast`` and ``dis``, and each decorated class execs
generated methods, which together took about a third of the package's
import time on CPython 3.11.
"""

from operator import attrgetter

_MISSING = object()


class _Field:
    __slots__ = ("default", "default_factory", "compare", "repr")

    def __init__(self, default, default_factory, compare, repr):
        self.default = default
        self.default_factory = default_factory
        self.compare = compare
        self.repr = repr


def field(*, default_factory=None, compare=True, repr=True):
    """A field with a per-instance default, or one that == or repr skips."""
    return _Field(_MISSING, default_factory, compare, repr)


class Record:
    __slots__ = ()
    _fields = ()  # the field names, in order

    def __init_subclass__(cls, frozen: bool = True, **kwargs):
        super().__init_subclass__(**kwargs)
        cls._fields = tuple(cls.__annotations__)
        cls._defaults = {}
        compared = []
        shown = []
        for name in cls._fields:
            spec = cls.__dict__.get(name, _MISSING)
            if spec.__class__ is not _Field:
                spec = _Field(spec, None, True, True)
            else:
                delattr(cls, name)
            if spec.default_factory is not None:
                cls._defaults[name] = spec
            elif spec.default is not _MISSING:
                cls._defaults[name] = spec.default
            if spec.compare:
                compared.append(name)
            if spec.repr:
                shown.append(name)
        cls._compared = attrgetter(*compared)
        cls._shown = tuple(shown)
        if not frozen:
            cls.__setattr__ = object.__setattr__
            cls.__delattr__ = object.__delattr__
            cls.__hash__ = None

    def __init__(self, *args, **kwargs):
        cls = self.__class__
        names = cls._fields
        if len(args) > len(names):
            raise TypeError(f"{cls.__name__}() takes {len(names)} arguments "
                            f"but {len(args)} were given")
        state = self.__dict__
        state.update(zip(names, args))
        for name in names[len(args):]:
            if name in kwargs:
                state[name] = kwargs.pop(name)
            elif name in cls._defaults:
                default = cls._defaults[name]
                state[name] = (default.default_factory()
                               if default.__class__ is _Field else default)
            else:
                raise TypeError(f"{cls.__name__}() missing argument {name!r}")
        if kwargs:
            name = next(iter(kwargs))
            problem = "multiple values for" if name in names else "an unexpected"
            raise TypeError(f"{cls.__name__}() got {problem} argument {name!r}")
        self.__post_init__()

    def __post_init__(self):
        pass

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return other is self or self._compared(self) == self._compared(other)

    def __hash__(self):
        return hash(self._compared(self))

    def __repr__(self):
        shown = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._shown)
        return f"{self.__class__.__qualname__}({shown})"
