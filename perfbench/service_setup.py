"""Time one cold start of the job service, in the process running this.

Usage: ``python3 perfbench/service_setup.py <checkout root> <tmp dir>
<workers>``.  Prints the seconds from before the service modules are
imported until a :class:`~repro.service.JobManager`, a loopback
:class:`~repro.service.net.ServiceServer` and a connected
:class:`~repro.service.client.ServiceClient` are all up, then stops
them.  A fresh process makes every start cold: nothing is imported,
cached or warmed by an earlier one.
"""

import os
import sys
import time


def main(argv):
    root, tmp, workers = argv[1], argv[2], int(argv[3])
    sys.path.insert(0, os.path.join(root, "src"))
    t0 = time.perf_counter()
    import cells
    service = cells.start_service(tmp, workers)
    seconds = time.perf_counter() - t0
    cells.stop_service(*service)
    print(repr(seconds))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
