"""One cold substrate build in a fresh interpreter.

Prints ``{"framework_s": ..., "apidb_s": ...}``: the seconds
``FrameworkRepository()`` and ``build_api_database`` take in a process
that has built neither, which is what every ``table``, ``rq2`` and
``compare`` invocation pays before its first app.  Imports are not
timed.  Run with the package on ``PYTHONPATH``.
"""

import json
import time

from repro.core.arm import build_api_database
from repro.framework.repository import FrameworkRepository


def main() -> None:
    start = time.perf_counter()
    framework = FrameworkRepository()
    built = time.perf_counter()
    build_api_database(framework)
    done = time.perf_counter()
    print(json.dumps({"framework_s": built - start, "apidb_s": done - built}))


if __name__ == "__main__":
    main()
