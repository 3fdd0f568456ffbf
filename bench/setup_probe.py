"""Cold set-up probe: time ``import rpsdm`` plus the first plan (and with it
the first ``build_transform``) of both schemes for each block length, in a
fresh interpreter, as a job pays it before its first trial.

Usage: python3 bench/setup_probe.py SRC_DIR N[,N...]   (prints seconds)
"""

import sys
import time

start = time.perf_counter()
sys.path.insert(0, sys.argv[1])
from rpsdm import Scheme, make_plan  # noqa: E402

for n in sys.argv[2].split(","):
    for scheme in (Scheme.OFDM, Scheme.RPSDM):
        make_plan(scheme, int(n))
print(time.perf_counter() - start)
