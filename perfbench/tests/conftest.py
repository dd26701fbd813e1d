import sys

from perfbench.workloads import SRC

if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))
