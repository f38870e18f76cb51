"""Set-up as a user pays it: import the package and its command-line module,
then load the bundled scenarios.  Prints the two internal timings as JSON;
``run.py`` times the whole interpreter from the outside."""

import json
import sys
import time
from pathlib import Path

start = time.perf_counter()
import defbond.cli  # noqa: E402

imported = time.perf_counter()
for path in sorted(Path(sys.argv[1]).glob("*.yaml")):
    defbond.load_scenario(path)
loaded = time.perf_counter()
print(json.dumps({"import_s": imported - start, "load_s": loaded - imported}))
