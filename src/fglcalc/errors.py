"""Exception types, the exact-integer, flag and JSON shape checks and the immutable record base.

Everything user-input-related derives from ValidationError so callers (and
the CLI) can distinguish "your data is wrong" from genuine bugs.
"""

from operator import attrgetter


class ValidationError(ValueError):
    """Input violates a documented precondition or structural invariant."""


class BackendMismatchError(ValidationError):
    """Operands live over different coefficient backends."""


class OrderError(ValidationError):
    """Truncation orders are incompatible or too small for the request."""


class ConstantTermError(ValidationError):
    """A series substituted into another has a nonzero constant term."""


class ConfigurationError(ValidationError):
    """An intersection configuration fails its structural checks."""

    def __init__(self, violations):
        self.violations = list(violations)
        details = "; ".join(v["rule"] + " at " + str(v["face"]) for v in self.violations)
        super().__init__("invalid configuration: " + details)


class DimensionMismatchError(ValidationError):
    """Dimensions of the labels in a relation datum do not fit together."""


class WitnessError(ValidationError):
    """A relation witness is structurally malformed."""


class CycleError(ValidationError):
    """A cycle operation was applied to unsuitable operands."""


def is_integer(value) -> bool:
    """True for an int that is not a bool: the package's exact integer inputs."""
    return isinstance(value, int) and not isinstance(value, bool)


def check_flags(prefix: str = "", **flags):
    """Raise ValidationError unless every named record flag is a bool."""
    for name, value in flags.items():
        if not isinstance(value, bool):
            raise ValidationError(f"{prefix}{name!r} must be a boolean")


def json_object(data, keys, not_object: str, lacks: str | None = None) -> dict:
    """data if it is a JSON object holding every key, else a ValidationError: not_object,
    or lacks formatted with the missing keys (missing) and the first of them (first)."""
    if not isinstance(data, dict):
        raise ValidationError(not_object)
    missing = [key for key in keys if key not in data]
    if missing:
        raise ValidationError(not_object if lacks is None
                              else lacks.format(missing=missing, first=missing[0]))
    return data


def json_entries(entries, key: str, keys, text: str):
    """The JSON list entries found under key, each checked by json_object(entry,
    keys, text) as it is reached, so faults are reported in document order."""
    if not isinstance(entries, list):
        raise ValidationError(f"{key!r} must be a list")
    return (json_object(entry, keys, text) for entry in entries)


class Record:
    """Base of the package's immutable value records.

    A subclass lists its fields, in order, in __slots__; its __init__
    checks the arguments and stores the field values with Record.__init__.
    Records are equal, and hash alike, when they share a class and field
    values; assigning or deleting an attribute raises AttributeError.
    Copies and pickles rebuild a record through its __init__.
    """

    __slots__ = ()

    def __init_subclass__(cls):
        # backends are compared in every series operation: read all fields in C
        cls._key = attrgetter(*cls.__slots__)

    def __init__(self, *values):
        for name, value in zip(self.__slots__, values, strict=True):
            object.__setattr__(self, name, value)

    def __eq__(self, other):
        if self is other:
            return True
        if other.__class__ is not self.__class__:
            return NotImplemented
        key = self._key
        return key(self) == key(other)

    def __hash__(self):
        return hash(self._key(self))

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r} of {type(self).__name__}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r} of {type(self).__name__}")

    def __reduce__(self):
        return self.__class__, tuple(getattr(self, name) for name in self.__slots__)

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__name__}({fields})"
