"""Set-up time of one workload in a fresh interpreter.

Reads a JSON job on stdin: the ``src`` directory to import benenti from,
the ``catalog`` names to load with ``catalog.get_entry`` and the generated
``texts`` ([label, text] pairs) to parse with ``pairfile.parse_pair``.
Prints the seconds from before ``import benenti`` until every pair is
loaded, which is what a user waits for before the first verify call.
"""

import json
import sys
import time


def main():
    job = json.load(sys.stdin)
    sys.path.insert(0, job["src"])
    start = time.perf_counter()
    from benenti import catalog, pairfile

    for name in job["catalog"]:
        catalog.get_entry(name)
    for label, text in job["texts"]:
        pairfile.parse_pair(text, label)
    print(time.perf_counter() - start)


if __name__ == "__main__":
    main()
