"""The field rules of every document the engine reads, each written once.

Programs (`model`), problems, evaluate replies and stdio requests (`adapter`),
configs (`config`) and run-log records (`reporting`) are checked with these
rules. A rule returns the value, converted as it says, or raises `FieldError`,
a `ValueError` reading "<field> must be <want>, got <value>", which a document
worded otherwise rewords from its parts. Three answers differ on purpose:
- A whole number in a document another program writes is a JSON Schema
  integer, so `1.0` is 1. A config, which the engine keeps as given, takes a
  JSON integer only: a float setting would reach `range`.
- A program and a config refuse unknown keys, so a typo cannot fall back to a
  default; the other documents ignore them, so a newer peer stays readable.
- A config prices both roles a run charges. A run log may price fewer: the
  report refuses only a record charged to an unpriced role.
"""

from __future__ import annotations

import math

NUMBERS = frozenset((int, float))  # bool is an int subclass, but JSON true/false is no number
MAX_COUNT = 2**53  # a float holds every count up to it, so sums of counts stay exact
TOO_LARGE = "an integer too large for a float"


def finite(numbers) -> bool:
    """Whether a float holds every int or float of `numbers` finitely."""
    try:
        return all(map(math.isfinite, numbers))
    except OverflowError:
        return False


class FieldError(ValueError):
    """A field that breaks its rule; `key` is the role of a price map the fault is in."""

    def __init__(self, field: str, want: str, value: object, text: str = "", key: object = None):
        self.field, self.want, self.key = field, want, key
        self.got = TOO_LARGE if type(value) is int and not finite((value,)) else repr(value)
        super().__init__(text or f"{field} must be {want}, got {self.got}")


def number(value, field: str, want: str = "a number", finite_want: str = "a finite number", key=None) -> float:
    """`value`, a JSON number (never a bool) as a float; NaN, an infinity or
    an integer too large for a float is not `finite_want`."""
    if type(value) not in NUMBERS:
        raise FieldError(field, want, value, key=key)
    if not finite((value,)):
        raise FieldError(field, finite_want, value, key=key)
    return float(value)


def whole(value, field: str, least=None) -> int:
    """`value`, a JSON Schema integer (an int, or a float with no fractional
    part), as an int; given `least`, a count from `least` to `MAX_COUNT`."""
    count = int(value) if type(value) is float and value.is_integer() else value
    if type(count) is not int:
        raise FieldError(field, "a whole number" if type(value) is float else "an integer", value)
    if least is not None and not least <= count <= MAX_COUNT:
        raise FieldError(field, f"a count from {least} to 2**53", value)
    return count


def string(value, field: str) -> str:
    if type(value) is not str:
        raise FieldError(field, "a string", value)
    return value


def listed(value, field: str) -> list:
    if type(value) is not list:
        raise FieldError(field, "a list", value)
    return value


def obj(value, field: str, required=(), known=None, want: str = "an object") -> dict:
    """`value`, a JSON object with every key of `required` and, given the set
    `known`, no other key."""
    if type(value) is not dict:
        raise FieldError(field, want, value)
    for key in required:
        if key not in value:
            raise FieldError(field, want, value, f"{field} lacks {key!r}")
    if known is not None and not value.keys() <= known:
        raise FieldError(field, want, value, f"unknown keys in {field}: {sorted(value.keys() - known)}")
    return value


def prices(value, want: str = "a number", required=("optimizer", "executor")) -> dict[str, tuple[float, float]]:
    """`value`, a JSON object of role -> [input price, output price], each
    price a `number`, that prices every role of `required`, as float pairs."""
    pairs = {}
    for role, pair in obj(value, "prices", want="an object of role -> [input_price, output_price]").items():
        if type(pair) is not list or len(pair) != 2:
            raise FieldError(f"prices.{role}", "[input_price, output_price]", pair, key=role)
        pairs[role] = tuple(number(price, f"each price of prices.{role}", want, key=role) for price in pair)
    for role in required:
        if role not in pairs:
            raise FieldError("prices", "a price map of both roles", value, f"prices.{role} is missing: prices "
                             "must price both optimizer and executor", role)
    return pairs
