"""Frozen records: a class decorated with ``record`` takes its own annotated
names, in order, as its fields, and a class attribute of that name as the
field's default.  It gets an __init__ by position or keyword that runs
__post_init__ (if defined) once the fields are set, dataclasses' repr text,
field-tuple equality and hashing (identity with eq=False), and refuses
assignment and deletion with AttributeError.  The methods are closures over
the field names, so declaring a record compiles no code."""

_MISSING = object()


def record(cls=None, *, eq=True):
    if cls is None:
        return lambda cls: record(cls, eq=eq)
    names = tuple(cls.__dict__.get("__annotations__", {}))
    defaults = [cls.__dict__.get(name, _MISSING) for name in names]
    post_init = hasattr(cls, "__post_init__")

    def __init__(self, *args, **kwargs):
        if len(args) > len(names):
            raise TypeError(f"{cls.__name__}: {len(args)} values for {len(names)} fields")
        values = [*args, *defaults[len(args):]]
        for name, value in kwargs.items():
            k = names.index(name) if name in names else -1
            if k < len(args):
                raise TypeError(f"{cls.__name__}: unexpected or repeated field {name!r}")
            values[k] = value
        for name, value in zip(names, values):     # instances keep sharing their dict keys
            if value is _MISSING:
                raise TypeError(f"{cls.__name__}: missing field {name!r}")
            object.__setattr__(self, name, value)
        if post_init:
            self.__post_init__()

    def __repr__(self):
        fields = ", ".join(f"{name}={value!r}" for name, value in zip(names, astuple(self)))
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    cls._fields = names
    cls.__init__, cls.__repr__ = __init__, __repr__
    cls.__setattr__, cls.__delattr__ = __setattr__, __delattr__
    if eq:
        def __eq__(self, other):
            if other.__class__ is not self.__class__:
                return NotImplemented
            return astuple(self) == astuple(other)

        cls.__eq__, cls.__hash__ = __eq__, lambda self: hash(astuple(self))
    return cls


def astuple(obj):
    """The field values of a record, in field order (not copied)."""
    return tuple(getattr(obj, name) for name in obj._fields)


def replace(obj, **changes):
    """A new record of obj's class: obj's fields with changes, through __init__."""
    return type(obj)(**{name: getattr(obj, name) for name in obj._fields} | changes)
