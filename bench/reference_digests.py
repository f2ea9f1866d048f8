"""Record the SHA-256 of the ``suite-all`` report for seeds 0-255.

The suite-all oracle compares each report with these digests, because a
fixed seed must give byte-identical report bytes.  Regenerate only when a
change to topolab alters the report on purpose, and say so in CHANGES.md:

    python3 bench/reference_digests.py
"""

from __future__ import annotations

import hashlib
import json
import sys

from workloads import REFERENCE_DIGESTS, SRC, SuiteAll, import_topolab

SEEDS = range(256)


def main() -> int:
    sys.path.insert(0, str(SRC))
    tl = import_topolab()
    digests = {}
    for seed in SEEDS:
        workload = SuiteAll(seed, references={})
        code, report = workload.run(tl, workload.setup(tl)).outcomes[0]
        if code != 0:
            raise SystemExit("seed %d: suite all exited with %d" % (seed, code))
        digests[str(seed)] = hashlib.sha256(report).hexdigest()
    REFERENCE_DIGESTS.write_text(json.dumps(digests, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
