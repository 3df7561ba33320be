"""The one immutability rule of the value classes."""


class Frozen:
    """Base of every value class: no attribute can be assigned or deleted.

    A subclass fills its slots once, in its builder, through the setters of
    its slot descriptors (``Cls.slot.__set__``), which bypass both methods.
    Its public constructor is a ``__new__`` that calls the builder, so no
    ``__init__`` can fill the slots of an existing value again.
    """

    __slots__ = ()

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __delattr__(self, name):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __reduce__(self):
        # copy, deepcopy and pickle rebuild a value from its slot values
        cls = type(self)
        return _rebuild, (cls, *(getattr(self, name) for name in cls.__slots__))


def _rebuild(cls, *values):
    """The value of cls whose slots hold values, filled as a builder fills them."""
    obj = object.__new__(cls)
    for name, value in zip(cls.__slots__, values):
        getattr(cls, name).__set__(obj, value)
    return obj
