"""Parsing raw cell strings into canonical typed values.

After an attribute is matched to a knowledge base property, its data type
changes to the property's type and "the values are accordingly normalized"
(Section 3.1).  This module implements those normalizers:

* dates in several surface formats → :class:`~repro.datatypes.values.DateValue`
* quantities with thousands separators, units (ft/in, lbs, kg, m),
  mm:ss runtimes → ``float``
* nominal integers → ``int``
* strings → cleaned/normalized ``str``
"""

from __future__ import annotations

import re

from repro.datatypes.types import DataType
from repro.datatypes.values import DateValue
from repro.text.tokenize import clean_cell, normalize_label


class NormalizationError(ValueError):
    """Raised when a raw cell cannot be parsed as the requested type."""


_MONTHS = {
    "jan": 1, "january": 1, "feb": 2, "february": 2, "mar": 3, "march": 3,
    "apr": 4, "april": 4, "may": 5, "jun": 6, "june": 6, "jul": 7, "july": 7,
    "aug": 8, "august": 8, "sep": 9, "sept": 9, "september": 9,
    "oct": 10, "october": 10, "nov": 11, "november": 11,
    "dec": 12, "december": 12,
}

_ISO_DATE = re.compile(r"^(\d{4})-(\d{1,2})-(\d{1,2})$")
_US_DATE = re.compile(r"^(\d{1,2})/(\d{1,2})/(\d{4})$")
_TEXT_DATE = re.compile(r"^([a-z]+)\s+(\d{1,2}),?\s+(\d{4})$")
_TEXT_DATE_DMY = re.compile(r"^(\d{1,2})\s+([a-z]+)\s+(\d{4})$")
_YEAR_ONLY = re.compile(r"^(\d{4})$")

_RUNTIME = re.compile(r"^(\d+):(\d{2})(?::(\d{2}))?$")
_FEET_INCHES = re.compile(r"^(\d+)\s*(?:'|ft)\s*(\d{1,2})?\s*(?:\"|in)?$")
_NUMBER = re.compile(r"^[+-]?\d{1,3}(?:,\d{3})+(?:\.\d+)?$|^[+-]?\d+(?:\.\d+)?$")
_NUMBER_WITH_UNIT = re.compile(
    r"^([+-]?[\d,]+(?:\.\d+)?)\s*(lbs?|kg|km|mi|m|cm|ft|in|s|sec|min)\.?$"
)

#: Multiplier applied to a parsed magnitude for each recognised unit, mapping
#: onto the pipeline's canonical units (weight→kg, height/elevation→m,
#: runtime→seconds).
_UNIT_FACTORS = {
    "lb": 0.45359237,
    "lbs": 0.45359237,
    "kg": 1.0,
    "km": 1000.0,
    "mi": 1609.344,
    "m": 1.0,
    "cm": 0.01,
    "ft": 0.3048,
    "in": 0.0254,
    "s": 1.0,
    "sec": 1.0,
    "min": 60.0,
}


def _strip_separators(number: str) -> float:
    return float(number.replace(",", ""))


def parse_date(raw: str) -> DateValue:
    """Parse a raw cell into a :class:`DateValue`.

    Accepts ISO (``1987-03-14``), US (``3/14/1987``), textual
    (``March 14, 1987`` / ``14 March 1987``) and bare-year forms.  A cell
    of a date shape whose month or day is out of range (``62/4/1990``)
    is not a date either.
    """
    try:
        date = _match_date(clean_cell(raw).lower().strip("."))
    except ValueError as error:  # DateValue rejects the month or day
        raise NormalizationError(f"not a date: {raw!r} ({error})") from error
    if date is None:
        raise NormalizationError(f"not a date: {raw!r}")
    return date


def _match_date(text: str) -> DateValue | None:
    match = _ISO_DATE.match(text)
    if match:
        year, month, day = (int(group) for group in match.groups())
        return DateValue(year, month, day)
    match = _US_DATE.match(text)
    if match:
        month, day, year = (int(group) for group in match.groups())
        return DateValue(year, month, day)
    match = _TEXT_DATE.match(text)
    if match:
        month_name, day, year = match.groups()
        if month_name in _MONTHS:
            return DateValue(int(year), _MONTHS[month_name], int(day))
    match = _TEXT_DATE_DMY.match(text)
    if match:
        day, month_name, year = match.groups()
        if month_name in _MONTHS:
            return DateValue(int(year), _MONTHS[month_name], int(day))
    match = _YEAR_ONLY.match(text)
    if match:
        return DateValue(int(match.group(1)))
    return None


def parse_quantity(raw: str) -> float:
    """Parse a raw cell into a float quantity.

    Handles plain and comma-separated numbers, ``mm:ss`` runtimes (to
    seconds), ``6'2"``-style heights (to meters) and single-unit suffixes.
    """
    text = clean_cell(raw).lower()
    if _NUMBER.match(text):
        return _strip_separators(text)
    match = _RUNTIME.match(text)
    if match:
        first, second, third = match.groups()
        if third is not None:
            return int(first) * 3600 + int(second) * 60 + int(third)
        return int(first) * 60 + int(second)
    match = _FEET_INCHES.match(text)
    if match:
        feet, inches = match.groups()
        total = int(feet) * 0.3048 + (int(inches) if inches else 0) * 0.0254
        return round(total, 4)
    match = _NUMBER_WITH_UNIT.match(text)
    if match:
        magnitude, unit = match.groups()
        return _strip_separators(magnitude) * _UNIT_FACTORS[unit]
    raise NormalizationError(f"not a quantity: {raw!r}")


def parse_nominal_integer(raw: str) -> int:
    """Parse a raw cell into a nominal integer (jersey number, draft round)."""
    text = clean_cell(raw).lower()
    text = text.lstrip("#")
    # Ordinal suffixes are common for draft rounds ("3rd").
    text = re.sub(r"(?<=\d)(st|nd|rd|th)$", "", text)
    if re.fullmatch(r"[+-]?\d+", text):
        return int(text)
    raise NormalizationError(f"not a nominal integer: {raw!r}")


def normalize_value(raw: str, data_type: DataType):
    """Normalize ``raw`` according to ``data_type``.

    Returns a ``DateValue``, ``float``, ``int`` or normalized ``str``
    depending on the type; raises :class:`NormalizationError` when the cell
    cannot be interpreted as the type.
    """
    if data_type is DataType.DATE:
        return parse_date(raw)
    if data_type is DataType.QUANTITY:
        return parse_quantity(raw)
    if data_type is DataType.NOMINAL_INTEGER:
        return parse_nominal_integer(raw)
    if data_type is DataType.NOMINAL_STRING:
        normalized = normalize_label(raw)
        if not normalized:
            raise NormalizationError("empty nominal string")
        return normalized
    if data_type in (DataType.TEXT, DataType.INSTANCE_REFERENCE):
        cleaned = clean_cell(raw)
        if not cleaned:
            raise NormalizationError("empty text value")
        return cleaned
    raise NormalizationError(f"unknown data type: {data_type}")
