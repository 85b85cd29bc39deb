"""Put the benchmark's modules on the import path for its self-tests.

Run with ``python3 -m pytest perfbench/tests`` from the repository root.
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))
