"""Record the reference output digests the benchmark checks against.

    python3 perfbench/make_references.py 0 1 2 ...

Runs every workload once for each given benchmark seed and adds each run's
digests to references.json, keyed by the hash of its config.  A digest that
is already recorded and differs stops the script: the references describe
the model's output, and only an intended change of that output may replace
them (delete the file first).
"""

import json
import sys

import bench


def main(seeds: list[int]) -> int:
    hs = bench.load_hexswarm()
    references = bench.load_references()
    for seed in seeds:
        for name, workload in bench.WORKLOADS.items():
            items, _ = bench.make_items(hs, name, workload, seed)
            for item in items:
                digests = item.execute().digests
                if references.setdefault(item.key, digests) != digests:
                    print(f"{name} {item.label}: digests differ from references.json", file=sys.stderr)
                    return 1
            print(f"seed {seed} {name}: {len(items)} recorded", file=sys.stderr)
    bench.REFERENCES.write_text(json.dumps(references, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main([int(s) for s in sys.argv[1:]]))
