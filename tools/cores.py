"""Run the bit checks under each OpenBLAS core type.

    python tools/cores.py OLD_CHECKOUT NEW_CHECKOUT

numpy's bundled OpenBLAS picks its kernels for the CPU it runs on, and
``OPENBLAS_CORETYPE`` forces another set. Kernels may round a product
differently, so a change that keeps every byte under one core type can
move bytes under another. For each core type in ``CORES`` this script
runs, each in a fresh interpreter with single-threaded BLAS:

- the attention, feature, operator, engine, metabbo and tasks tests of
  NEW_CHECKOUT, with its ``src`` on ``PYTHONPATH``;
- ``tools/ab_identity.py OLD_CHECKOUT NEW_CHECKOUT``.

It prints the core the library reports it runs (Prescott reports
``Katmai``) and skips a core whose instructions the CPU lacks, read from
``/proc/cpuinfo``. It exits non-zero if any check fails.
"""

import ctypes
import glob
import os
import subprocess
import sys

import numpy

# Each core type, with the CPU flags its kernels need.
CORES = {"SkylakeX": {"avx512f", "avx512bw", "avx512dq", "avx512vl"},
         "Haswell": {"avx2", "fma"},
         "Prescott": {"pni"},
         "Sandybridge": {"avx"}}
TESTS = ["tests/test_attention.py", "tests/test_features.py",
         "tests/test_operators.py", "tests/test_engine.py",
         "tests/test_metabbo.py", "tests/test_tasks.py"]


def corename():
    """The core the OpenBLAS bundled with numpy runs, or None."""
    libs = os.path.join(os.path.dirname(os.path.dirname(numpy.__file__)),
                        "numpy.libs")
    for path in glob.glob(os.path.join(libs, "libscipy_openblas*.so*")):
        name = getattr(ctypes.CDLL(path), "scipy_openblas_get_corename64_",
                       None)
        if name is not None:
            name.argtypes, name.restype = [], ctypes.c_char_p
            return name().decode()
    return None


def cpu_flags():
    """The CPU's flags, or None where /proc/cpuinfo cannot be read."""
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("flags"):
                    return set(line.split(":", 1)[1].split())
    except OSError:
        pass
    return None


def main(argv):
    if argv == ["--corename"]:
        print(corename())
        return 0
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    old, new = (os.path.abspath(a) for a in argv)
    flags = cpu_flags()
    failed = []
    for core, needs in CORES.items():
        if flags is not None and not needs <= flags:
            print(f"== {core}: skipped, the CPU lacks "
                  f"{', '.join(sorted(needs - flags))}", flush=True)
            continue
        env = dict(os.environ, OPENBLAS_CORETYPE=core,
                   OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
                   MKL_NUM_THREADS="1", PYTHONPATH=os.path.join(new, "src"))
        running = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--corename"],
            env=env, capture_output=True, text=True).stdout.strip()
        print(f"== {core}: OpenBLAS runs core {running}", flush=True)
        for what, cmd in (
                ("tests", [sys.executable, "-m", "pytest", "-q",
                           "-p", "no:cacheprovider"] + TESTS),
                ("ab_identity", [sys.executable, os.path.join(
                    new, "tools", "ab_identity.py"), old, new])):
            if subprocess.run(cmd, cwd=new, env=env).returncode != 0:
                failed.append(f"{core} {what}")
    for name in failed:
        print(f"FAILED: {name}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
