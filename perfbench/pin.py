"""Rewrite pins.json: SHA-256 of the first jobs' outputs for the shipped seed.

    PYTHONPATH=src python3 -m perfbench.pin

Every output is first checked against the workload's identities; the file
is written only if all of them hold.  fglcalc's outputs are pinned byte for
byte by its golden files, so a speed-up never needs new pins.
"""

import json
import shutil
import sys
import tempfile
from pathlib import Path

from perfbench import workloads as wl

PIN_COUNTS = {"series-cold": 400, "snc-check": 800, "cli-batch": 400}


def pins_for(workload, count: int) -> list:
    out = []
    specs = wl.SpecStream(workload, wl.SHIPPED_SEED)
    workdir = Path(tempfile.mkdtemp(dir=wl.ROOT))
    try:
        ctx = wl.CliContext(workdir)
        for k in range(count):
            result = workload.run(specs[k], ctx)
            if not workload.identities_hold(specs[k], result):
                raise SystemExit(f"{workload.name} job {k}: identities fail, nothing pinned")
            out.append(wl.digest(workload.output_bytes(result)))
    finally:
        shutil.rmtree(workdir)
    return out


def main() -> int:
    pins = {"seed": wl.SHIPPED_SEED}
    for name in sorted(wl.WORKLOADS):
        pins[name] = pins_for(wl.WORKLOADS[name], PIN_COUNTS[name])
        print(f"{name}: {len(pins[name])} outputs pinned", file=sys.stderr)
    with open(wl.PINS_FILE, "w", encoding="utf-8") as fh:
        json.dump(pins, fh, indent=0, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
