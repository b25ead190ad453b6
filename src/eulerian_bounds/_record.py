"""Immutable records, the package's value types, without code generation."""


class Record:
    """A frozen record: a subclass's fields are its annotated names, in order,
    defaulting to class attributes of the same name, given by position or
    keyword and checked by ``__post_init__``.  Records of one type compare,
    hash and print by their fields."""

    def __init_subclass__(cls):
        cls._fields = tuple(cls.__annotations__)

    def __init__(self, *args, **kwargs):
        names, cls = self._fields, type(self)
        if kwargs or len(args) != len(names):  # bind keywords and defaults
            rest = names[len(args):]  # Record marks a missing value
            args = [*args, *(kwargs[f] if f in kwargs else getattr(cls, f, Record) for f in rest)]
            if len(args) > len(names) or kwargs.keys() - rest or any(a is Record for a in args):
                raise TypeError(f"{cls.__name__} takes each of the fields {names} once, "
                                f"by position or keyword, unless it has a default")
        for name, value in zip(names, args):  # one by one: self.__dict__ would make a dict
            object.__setattr__(self, name, value)
        self.__post_init__()

    def __post_init__(self):
        pass

    def __setattr__(self, name, value=None):
        raise AttributeError(f"cannot set or delete {name!r} of a frozen record")

    __delattr__ = __setattr__

    def _values(self) -> tuple:
        return tuple(getattr(self, f) for f in self._fields)

    def __eq__(self, other):
        return self._values() == other._values() if type(other) is type(self) else NotImplemented

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        body = ", ".join(f"{f}={v!r}" for f, v in zip(self._fields, self._values()))
        return f"{type(self).__qualname__}({body})"
