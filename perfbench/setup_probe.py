"""Set-up time of a fresh process, printed in seconds.

    python3 setup_probe.py SRC_DIR CONFIG [CONFIG ...]

Times `import poisonlab`, then `config.load_config` and, where the
config has a `problem` section, `config.build_problem` for its first
point.  Interpreter start-up is not included.
"""

import sys
import time

started = time.perf_counter()
sys.path.insert(0, sys.argv[1])

from poisonlab import config  # noqa: E402

for path in sys.argv[2:]:
    cfg = config.load_config(path)
    if "problem" in cfg:
        first = cfg["alpha"] if cfg["mode"] == "decompose" else cfg["alpha_grid"][0]
        config.build_problem(cfg, first)
print(repr(time.perf_counter() - started))
