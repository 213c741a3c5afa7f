"""Record the reference outputs that benchmark runs are compared against.

    PYTHONPATH=src python3 bench/record_references.py

Writes ``bench/references/cli_corpus.json`` (the CLI's JSON report for every
model file, valid for any seed) and ``<workload>-seed<DEFAULT_SEED>.json``
for the generated workloads. Every output must first pass the reference-free
invariants. Re-record only when a change of output is intended, and say so
where the change is described.
"""

import json
import sys

import workloads as wl
from worker import REFERENCES, Workload, load_library, reference_path


def main() -> int:
    lc = load_library()
    REFERENCES.mkdir(exist_ok=True)
    for name in wl.WORKLOADS:
        work = Workload(name, wl.DEFAULT_SEED, lc, references=None)
        out = {}
        for item in work.items:
            _, summary = work.run(item)
            bad = work.problems(item, summary)
            if bad:
                print(f"{name}/{item.key}: {bad}", file=sys.stderr)
                return 1
            out[item.key] = summary
        path = reference_path(name, wl.DEFAULT_SEED)
        path.write_text(json.dumps(out, indent=1, sort_keys=True) + "\n")
        print(f"wrote {path.name}: {len(out)} outputs")
    return 0


if __name__ == "__main__":
    sys.exit(main())
