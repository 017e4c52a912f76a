"""Set-up probe: time ``import nisyn.cli`` plus loading one scenario in this
fresh interpreter and print the result as JSON.  ``setup_s`` is that time at
the reference host speed (hostspeed.py), ``raw_setup_s`` as measured.

Usage: python3 perfbench/probe.py <scenario.json>
"""

import json
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from hostspeed import SpeedClock  # noqa: E402

clock = SpeedClock()
clock.start()
try:
    start = time.perf_counter()
    import nisyn.cli  # noqa: E402

    imported = time.perf_counter()
    nisyn.cli.load_scenario(sys.argv[1])
    loaded = time.perf_counter()
finally:
    raw, norm = clock.stop()
print(json.dumps({"setup_s": norm, "raw_setup_s": raw,
                  "import_s": imported - start, "load_s": loaded - imported}))
