"""The base of every immutable value type: a named tuple that is not a sequence.

A value class is `class V(Value, namedtuple("V", "field ..."))` with
`__slots__ = ()`: fields set once by `tuple.__new__`, C getters, repr
`V(field=...)`, and unlike a dataclass no code generated at definition, a cost
every CLI call would pay.  A value equals only a value of its class with equal
fields, and hashes as the tuple of its fields.  `len`, iteration, `in`,
indexing, ordering and tuple concatenation or repetition raise `TypeError`,
unless its class defines them.

`V._trusted(*fields)` is the one trusted constructor: it builds a `V` from
fields as `V.__new__` would leave them, without the checks, so each class
states what a field must already be in its docstring or its `_normal`'s.

`power` is the one square-and-multiply routine, for any associative product;
it lives here, with no import, so the lattice layer uses it without loading
the coefficient fields.
"""


def power(x, n: int, one, mul):
    """x^n for an int n >= 0 in O(log n) `mul`s: square-and-multiply (TAOCP 4.6.3)."""
    acc = None
    while n:
        if n & 1:
            acc = x if acc is None else mul(acc, x)
        n >>= 1
        if n:
            x = mul(x, x)
    return one if acc is None else acc


def _refuse(self, *args):
    raise TypeError(f"{type(self).__name__!r} object is not a sequence")


class Value:
    __slots__ = ()

    __len__ = __iter__ = __contains__ = __getitem__ = _refuse
    __lt__ = __le__ = __gt__ = __ge__ = _refuse
    __add__ = __radd__ = __mul__ = __rmul__ = _refuse

    def __bool__(self) -> bool:
        return True

    def __eq__(self, other) -> bool:
        return type(other) is type(self) and tuple.__eq__(self, other)

    def __ne__(self, other) -> bool:
        return not self.__eq__(other)

    __hash__ = tuple.__hash__

    @classmethod
    def _trusted(cls, *fields):
        return tuple.__new__(cls, fields)

    def __reduce__(self):
        # pickle and copy rebuild the value through its validating __new__
        return type(self), tuple.__getitem__(self, slice(None))
