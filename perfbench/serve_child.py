"""Start ``repro serve`` with its imports done before the clock starts.

Prints ``imports-done`` once every module the service needs is loaded,
then hands its arguments to the ``repro serve`` command.  The benchmark
starts ``setup_s`` at that line, so interpreter start-up and imports in
the server process stay out of the set-up time.

    python3 -u perfbench/serve_child.py --port 0 --workers 2
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro import cli  # noqa: E402
import repro.core.incremental  # noqa: E402,F401
import repro.generators  # noqa: E402,F401
import repro.service  # noqa: E402,F401

if __name__ == "__main__":
    print("imports-done", flush=True)
    sys.exit(cli.main(["serve", *sys.argv[1:]]))
