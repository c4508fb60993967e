"""Record the sha256 of stdout of every call any workload can make.

    python3 perfbench/make_reference.py

The digests in ``reference.json`` were recorded at the commit that added
the benchmark, so every later version of the program must reproduce that
stdout byte for byte.  Rerun this only to extend the pool, never to accept
a changed output.
"""

from __future__ import annotations

import hashlib
import json
import sys

from child import HERE, _call, _import_tlh
from workloads import key, reference_pool


def main() -> int:
    main_fn = _import_tlh()["cli"].main
    digests = {}
    for argv in reference_pool():
        _, rc, stdout = _call(main_fn, argv)
        if rc != 0:
            print(f"error: {key(argv)} exited {rc}", file=sys.stderr)
            return 1
        digests[key(argv)] = hashlib.sha256(stdout.encode()).hexdigest()
    text = json.dumps(dict(sorted(digests.items())), indent=0)
    (HERE / "reference.json").write_text(text + "\n")
    print(f"{len(digests)} digests")
    return 0


if __name__ == "__main__":
    sys.exit(main())
