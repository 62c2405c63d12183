"""Make the checkout's program importable for the benchmark's tests."""

from perfbench.run import import_program

import_program()
