"""Import numpy and every adskg layer module in a fresh interpreter.

Usage: python3 import_probe.py LAYER [LAYER ...]   (in dependency order)

Prints one JSON object: the CPU time (user + system) this process has spent
since it started, taken when the last import has finished, and the
incremental import CPU time of numpy and of each layer in dependency order
(a layer's time includes the third-party modules it is the first to load,
e.g. scipy.signal for microlocal).
"""

import importlib
import json
import sys
import time


def main() -> None:
    times = {}
    t = time.process_time()
    importlib.import_module("numpy")
    times["numpy"] = time.process_time() - t
    for name in sys.argv[1:]:
        t = time.process_time()
        importlib.import_module(f"adskg.{name}")
        times[name] = time.process_time() - t
    print(json.dumps({"setup_s": time.process_time(), "import_s": times}))


if __name__ == "__main__":
    main()
