"""Parsing and classification of CoSSMic-style CSV column headings.

A heading such as ``DE_KN_industrial1_pv_1`` encodes country, city, a
site (kind plus index), the device name and an optional instance index.
All functions are pure.
"""

from __future__ import annotations

import re
from enum import Enum
from typing import Optional

from .errors import EnergyKgError
from .record import Frozen, set_field


class HeadingError(EnergyKgError):
    """Heading does not follow the country_city_siteKindIndex_device grammar."""


class SiteKind(str, Enum):
    INDUSTRIAL = "industrial"
    RESIDENTIAL = "residential"
    PUBLIC = "public"


class DeviceRole(Enum):
    PRODUCER = "producer"
    CONSUMER = "consumer"
    GRID_IMPORT = "grid_import"
    GRID_EXPORT = "grid_export"


_SITE_RE = re.compile(r"^(industrial|residential|public)([0-9]+)$")
_CODE_RE = re.compile(r"^[A-Za-z]{2}$")
_SEGMENT_RE = re.compile(r"^[a-z][a-z0-9]*$")


class DeviceHeading(Frozen):
    _fields = (
        "raw", "country", "city", "site_kind", "site_index", "device_segments", "instance_index",
    )

    def __init__(
        self,
        raw: str,
        country: str,
        city: str,
        site_kind: SiteKind,
        site_index: int,
        device_segments: tuple[str, ...],
        instance_index: Optional[int] = None,
    ) -> None:
        set_field(self, "raw", raw)
        set_field(self, "country", country)
        set_field(self, "city", city)
        set_field(self, "site_kind", site_kind)
        set_field(self, "site_index", site_index)
        set_field(self, "device_segments", device_segments)
        set_field(self, "instance_index", instance_index)

    @property
    def site_name(self) -> str:
        return f"{self.country}_{self.city}_{self.site_kind.value}{self.site_index}"

    @property
    def network_name(self) -> str:
        return f"{self.country}_{self.city}_COSSMIC"

    @property
    def grid_name(self) -> str:
        return f"{self.country}_{self.city}_grid"

    def reconstruct(self) -> str:
        parts = [self.site_name, *self.device_segments]
        if self.instance_index is not None:
            parts.append(str(self.instance_index))
        return "_".join(parts)


def parse_heading(text: str) -> DeviceHeading:
    parts = text.split("_")
    if len(parts) < 4:
        raise HeadingError(
            f"heading {text!r} has {len(parts)} underscore-separated parts, need at least 4"
        )
    country, city, site = parts[0], parts[1], parts[2]
    if not _CODE_RE.match(country):
        raise HeadingError(f"heading {text!r}: country code {country!r} is not two letters")
    if not _CODE_RE.match(city):
        raise HeadingError(f"heading {text!r}: city code {city!r} is not two letters")
    site_match = _SITE_RE.match(site)
    if not site_match:
        raise HeadingError(
            f"heading {text!r}: site {site!r} is not industrial/residential/public plus index"
        )
    if site_match.group(2) != str(int(site_match.group(2))) or int(site_match.group(2)) < 1:
        raise HeadingError(f"heading {text!r}: site index {site_match.group(2)!r} not positive")
    rest = parts[3:]
    instance: Optional[int] = None
    if rest[-1].isdigit():
        if len(rest) == 1:
            raise HeadingError(f"heading {text!r}: device name is only an index")
        if rest[-1] != str(int(rest[-1])) or int(rest[-1]) < 1:
            raise HeadingError(f"heading {text!r}: instance index {rest[-1]!r} not positive")
        instance = int(rest[-1])
        rest = rest[:-1]
    for segment in rest:
        if not _SEGMENT_RE.match(segment):
            raise HeadingError(f"heading {text!r}: invalid device segment {segment!r}")
    return DeviceHeading(
        raw=text,
        country=country,
        city=city,
        site_kind=SiteKind(site_match.group(1)),
        site_index=int(site_match.group(2)),
        device_segments=tuple(rest),
        instance_index=instance,
    )


def classify(heading: DeviceHeading) -> DeviceRole:
    """Power-system role of a device; total over all parseable headings."""
    segments = heading.device_segments
    if segments[0] == "pv":
        return DeviceRole.PRODUCER
    if segments == ("grid", "import"):
        return DeviceRole.GRID_IMPORT
    if segments == ("grid", "export"):
        return DeviceRole.GRID_EXPORT
    return DeviceRole.CONSUMER
