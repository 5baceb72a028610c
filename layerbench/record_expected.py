#!/usr/bin/env python3
"""Records layerbench/expected.json, the values the output checks compare to.

Runs the smoke mode of a built layerbench binary on the recorded seeds and
merges what every cell produced: a value equal on every recorded seed goes
under "any" (checked on every seed), the others under "seed:<n>" (checked on
that seed only). Re-record only when a change moves simulated results on
purpose, and say why in CHANGES.md.

    python3 layerbench/record_expected.py .bench_build/layerbench/layerbench
"""

import json
import os
import subprocess
import sys

RECORDED_SEEDS = [0, 1]
HERE = os.path.dirname(os.path.abspath(__file__))


def dump(binary, seed):
    path = os.path.join(os.path.dirname(os.path.abspath(binary)),
                        "values-seed%d.json" % seed)
    subprocess.run([binary, "--smoke", "--expected", "", "--seed", str(seed),
                    "--dump-values", path], check=True,
                   stdout=subprocess.DEVNULL)
    with open(path) as f:
        return json.load(f)


def main():
    if len(sys.argv) != 2:
        sys.exit(__doc__)
    runs = {seed: dump(sys.argv[1], seed) for seed in RECORDED_SEEDS}
    scale = runs[RECORDED_SEEDS[0]]["scale"]
    cells = {}
    for key in runs[RECORDED_SEEDS[0]]["cells"]:
        per_seed = {seed: run["cells"][key] for seed, run in runs.items()}
        names = sorted(set().union(*(v.keys() for v in per_seed.values())))
        entry = {"any": {}}
        for name in names:
            values = {seed: v.get(name) for seed, v in per_seed.items()}
            if len(set(values.values())) == 1 and None not in values.values():
                entry["any"][name] = values[RECORDED_SEEDS[0]]
                continue
            for seed, value in values.items():
                if value is not None:
                    entry.setdefault("seed:%d" % seed, {})[name] = value
        cells[key] = entry
    doc = {"schema": "layerbench-expected/v1", "scale": scale,
           "recorded_seeds": RECORDED_SEEDS, "cells": cells}
    with open(os.path.join(HERE, "expected.json"), "w") as f:
        json.dump(doc, f, indent=1, sort_keys=True)
        f.write("\n")


if __name__ == "__main__":
    main()
