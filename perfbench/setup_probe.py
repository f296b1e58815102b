"""What every CLI invocation pays before its command runs: import the
library and load the configs.  ``run.py`` times this script from spawn to
exit in a fresh interpreter.

    python3 perfbench/setup_probe.py <config> [<config> ...]
"""

import sys

import noncanon  # noqa: F401  (the import is part of what is measured)
from noncanon.cli import load_config

for path in sys.argv[1:]:
    load_config(path)
