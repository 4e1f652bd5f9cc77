"""Regenerate ``reference.json``: the outputs the output checks compare
against, produced by the current ``src/risthz``.

Run from the repository root when the program's results change on
purpose, and say why in the change that commits the new file:

    python3 perfbench/make_reference.py
"""

from __future__ import annotations

import json
import shutil
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
REFERENCE_SEED = 0


def outputs(wl):
    return {label: wl.summarize(label, fn()) for label, fn in wl.ops(0)}


def main() -> int:
    sys.path.insert(0, str(SRC))
    import workloads

    ref = {"sweeps": outputs(workloads.make("sweeps", REFERENCE_SEED, {}))}
    qd = workloads.make("queue-delay", REFERENCE_SEED, {})
    ref["queue-delay"] = {"seed": REFERENCE_SEED, "params": qd.params,
                          **qd.curves(outputs(qd))}
    workdir = HERE / "out" / "reference"
    try:
        cli = workloads.make("cli", REFERENCE_SEED, {}, workdir=workdir, src=SRC)
        got = outputs(cli)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    ref["cli"] = {"seed": REFERENCE_SEED, "config": got["config"],
                  "feasibility": got["feasibility"], "queue-sim": got["queue-sim"]}
    with open(HERE / "reference.json", "w", encoding="utf-8") as fh:
        json.dump(ref, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
