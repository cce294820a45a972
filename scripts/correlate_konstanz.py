#!/usr/bin/env python3
"""Correlate real Konstanz household devices against GHCND temperature.

Inputs (downloaded separately, not bundled):
  --household-csv  open-power-system-data household_data CSV
                   (utc_timestamp column plus DE_KN_* cumulative counters)
  --ghcnd-csv      long-format observations: station,date,datatype,value
                   for the Konstanz station (GHCND:GME00102404)

Only the requested device columns are uplifted to keep memory bounded.
Prints the per-device coefficient against TMAX at daily resolution.

Example:
  python scripts/correlate_konstanz.py \
      --household-csv household_data_60min_singleindex.csv \
      --ghcnd-csv konstanz_ghcnd.csv \
      --devices DE_KN_industrial1_pv_1 DE_KN_residential1_heat_pump
"""

from __future__ import annotations

import argparse
import csv
from pathlib import Path

from energykg.analysis import align, pcc
from energykg.climate import link_network_to_station, observation_quads, parse_noaa_csv
from energykg.dataset import Dataset
from energykg.headings import parse_heading
from energykg.namespaces import DEFAULT_BASE, device_resource, station_resource
from energykg.uplift import evaluation_quads, read_energy_csv, to_daily, topology_quads

DEFAULT_DEVICES = [
    "DE_KN_industrial1_pv_1",
    "DE_KN_residential1_heat_pump",
    "DE_KN_residential4_grid_import",
]


def reduced_energy_csv(path: str, devices: list[str]) -> str:
    with open(path, newline="", encoding="utf-8") as handle:
        reader = csv.reader(handle)
        header = next(reader)
        missing = [d for d in devices if d not in header]
        if missing:
            raise SystemExit(f"columns not in {path}: {missing}")
        keep = [0] + [header.index(d) for d in devices]
        lines = [",".join(header[i] for i in keep)]
        for row in reader:
            lines.append(",".join(row[i] for i in keep))
    return "\n".join(lines) + "\n"


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--household-csv", required=True)
    parser.add_argument("--ghcnd-csv", required=True)
    parser.add_argument("--devices", nargs="+", default=DEFAULT_DEVICES)
    parser.add_argument("--datatype", default="TMAX")
    args = parser.parse_args()

    table = to_daily(read_energy_csv(reduced_energy_csv(args.household_csv, args.devices)))
    ds = Dataset()
    ds.add_all(topology_quads([parse_heading(d) for d in args.devices]))
    ds.add_all(evaluation_quads(table))

    observations = [
        obs
        for obs in parse_noaa_csv(Path(args.ghcnd_csv).read_text())
        if obs.datatype == args.datatype
    ]
    if not observations:
        raise SystemExit(f"no {args.datatype} observations in {args.ghcnd_csv}")
    ds.add_all(observation_quads(observations))
    station = station_resource(DEFAULT_BASE, observations[0].station_id)
    ds.add(link_network_to_station(device_resource(DEFAULT_BASE, "DE_KN_COSSMIC"), station))
    ds.freeze()

    print(f"device\t{args.datatype}_pcc\tdays")
    devices = [device_resource(DEFAULT_BASE, name) for name in args.devices]
    for series in align(ds, devices, args.datatype, station):
        device_name = series.device.raw
        if len(series.pairs) < 2:
            print(f"{device_name}\tn/a\t{len(series.pairs)}")
            continue
        value = pcc(series.energy(), series.climate())
        print(f"{device_name}\t{value:.2f}\t{len(series.pairs)}")


if __name__ == "__main__":
    main()
