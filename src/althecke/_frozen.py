"""The one immutability rule of the value classes."""


class Frozen:
    """Base of every value class: no attribute can be assigned or deleted.

    A subclass fills its slots once, in its builder, through the setters of
    its slot descriptors (``Cls.slot.__set__``), which bypass both methods.
    """

    __slots__ = ()

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __delattr__(self, name):
        raise AttributeError(f"{type(self).__name__} is immutable")
