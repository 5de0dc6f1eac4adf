"""Record stdout digests of the first 500 cli-corpus invocations on its default seed.

    python3 bench/make_golden.py

Every invocation is checked by the oracle first; the script refuses to
record a corpus with a failing output.  Later runs on the default seed
count any byte difference in stdout as a failure.
"""

from __future__ import annotations

import hashlib
import json
import sys

import run
from workloads import DEFAULT_SEED, GOLDEN_PATH, CliCorpus

COUNT = 500


def main() -> int:
    er = run.load_program()
    corpus = CliCorpus(DEFAULT_SEED)
    digests = []
    for i in range(COUNT):
        spec = corpus.spec(i)
        code, stdout = corpus.call(er, spec["argv"])
        problem = corpus.check_output(spec, (code, stdout))
        if problem is not None:
            print(f"#{i} {spec['argv']}: {problem}", file=sys.stderr)
            return 1
        digests.append(hashlib.sha256(stdout.encode()).hexdigest())
    with open(GOLDEN_PATH, "w") as fh:
        json.dump({"seed": DEFAULT_SEED, "digests": digests}, fh, indent=0)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
