"""Money handling.

All ledgers and price tables are kept in integer minor units (cents) so
every inequality the verifiers check is exact.  Dollar-valued user input
is converted on load and rejected if it carries sub-cent precision.
"""

from decimal import Decimal, InvalidOperation
from fractions import Fraction

from .errors import ConfigError, ParseError

CENTS_PER_UNIT = 100


def to_cents(value, *, what="money value"):
    """Convert a decimal string / int / float dollar amount to integer cents.

    Sub-cent amounts are rejected rather than rounded.
    """
    if isinstance(value, bool):
        raise ParseError(f"{what}: boolean is not money")
    if isinstance(value, int):
        return value * CENTS_PER_UNIT
    if isinstance(value, float):
        value = repr(value)
    if isinstance(value, Decimal):
        dec = value
    else:
        try:
            dec = Decimal(str(value))
        except InvalidOperation as exc:
            raise ParseError(f"{what}: cannot parse {value!r}") from exc
    if not dec.is_finite():
        raise ParseError(f"{what}: {value!r} is not a finite amount")
    cents = dec * CENTS_PER_UNIT
    if cents != cents.to_integral_value():
        raise ParseError(f"{what}: {value!r} has sub-cent precision")
    return int(cents)


def cents_to_str(cents):
    """Render integer cents as a decimal dollar string with 2 fraction digits."""
    sign = "-" if cents < 0 else ""
    cents = abs(cents)
    return f"{sign}{cents // 100}.{cents % 100:02d}"


def cents_to_units(cents):
    """Exact dollar value of integer cents, as a Fraction."""
    return Fraction(cents, CENTS_PER_UNIT)


def _as_fraction(v) -> Fraction:
    # str() round-trips decimal literals (0.1 -> 1/10), which is what a
    # human writing V=0.1 in a config means.
    if isinstance(v, Fraction):
        return v
    if isinstance(v, float):
        return Fraction(str(v))
    return Fraction(v)


def _integer(x, where) -> int:
    # int() would read true as 1 and truncate 8.9 to 8.
    if isinstance(x, bool) or isinstance(x, float) and not x.is_integer():
        raise ConfigError(f"{x!r} is not an integer", location=where)
    try:
        return int(x)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ConfigError(f"{x!r} is not an integer", location=where) from exc
