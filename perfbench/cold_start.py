"""One cold ``polyclass classify --quartic A B C D --json`` in this interpreter.

Run with ``PYTHONPATH=src``.  Prints the CLI's JSON report on stdout and the
time spent importing ``polyclass.cli`` on stderr as ``import_s <seconds>``.
"""

import sys
import time

t0 = time.perf_counter()
import polyclass.cli as cli  # noqa: E402  (the import is what is being timed)

t1 = time.perf_counter()
code = cli.main(["classify", "--quartic", *sys.argv[1:], "--json"])
print(f"import_s {t1 - t0!r}", file=sys.stderr)
sys.exit(code)
