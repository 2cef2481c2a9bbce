"""Entry point: ``python -m repro.bench (--queries | --store) [--tiny] [--out PATH]``."""

import sys

from repro.bench.runner import main

if __name__ == "__main__":
    sys.exit(main())
