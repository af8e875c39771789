"""Build the compiled sift kernels from ``sift.c``.

Standard library only, so that ``setup.py`` can run this file by path before
the package is importable.  The library's file name carries a hash of the
source and the flags, so an edited ``sift.c`` or flag is never served by a
library built from an older one, and libraries for other platforms (the
``EXT_SUFFIX`` tag) can sit side by side.  Flags never include
``-march=native`` or ``-ffast-math``, and floating-point contraction is
off, so results do not depend on the host CPU.

Finding the library by name needs only ``hashlib`` and ``sysconfig``; the
modules that build it load inside the functions that build.
"""

import hashlib
import os
import sysconfig
from pathlib import Path

SOURCE = Path(__file__).with_name("sift.c")
# setup.py passes these too, after the interpreter's own CFLAGS.  -O3 lets
# the compiler vectorize the envelope sweep; it enables no value-changing
# transformation, so the bits are those of -O2.
OPT_FLAGS = ["-O3", "-ffp-contract=off"]


class BuildError(RuntimeError):
    """The kernels could not be built; the message says why."""


def library_stem() -> str:
    """``_sift_<hash of sift.c and OPT_FLAGS>``: the module name setup.py
    builds under."""
    source = SOURCE.read_bytes() + " ".join(OPT_FLAGS).encode()
    return "_sift_" + hashlib.sha256(source).hexdigest()[:16]


def library_name() -> str:
    """File name of the library built from the current ``sift.c``."""
    return library_stem() + sysconfig.get_config_var("EXT_SUFFIX")


def find_compiler() -> list:
    """The interpreter's C compiler (``sysconfig`` ``CC``), else ``cc``, as
    an argv prefix."""
    import shlex
    import shutil

    candidates = [shlex.split(sysconfig.get_config_var("CC") or "cc"), ["cc"]]
    for argv in candidates:
        if argv and shutil.which(argv[0]):
            return argv
    tried = ", ".join(dict.fromkeys(argv[0] for argv in candidates if argv))
    raise BuildError(f"no C compiler found on PATH (tried {tried})")


def build_library(directory, compiler=None) -> Path:
    """Compile ``sift.c`` into ``directory/library_name()`` and return the path.

    The compiler writes to a private temporary name that ``os.replace`` then
    moves into place, so processes building into the same directory at once
    never load a half-written library.  Libraries of older sources or flags
    for this platform are then deleted.  Raises BuildError with the reason.
    """
    import contextlib
    import re
    import subprocess
    import tempfile

    directory = Path(directory)
    target = directory / library_name()
    argv = list(compiler) if compiler is not None else find_compiler()
    try:
        fd, tmp = tempfile.mkstemp(prefix=target.name + ".", suffix=".tmp.so", dir=directory)
    except OSError as exc:
        raise BuildError(f"cannot write to {directory}: {exc.strerror}") from None
    os.close(fd)
    try:
        cmd = [*argv, *OPT_FLAGS, "-fPIC", "-shared", str(SOURCE), "-o", tmp]
        try:
            done = subprocess.run(cmd, capture_output=True, text=True, timeout=300)
        except (OSError, subprocess.TimeoutExpired) as exc:
            raise BuildError(f"{argv[0]} could not run: {exc}") from None
        if done.returncode != 0:
            lines = (done.stderr or done.stdout).splitlines() or ["no output"]
            detail = next((line for line in lines if "error" in line), lines[-1])
            raise BuildError(f"{argv[0]} exited {done.returncode}: {detail.strip()}")
        os.chmod(tmp, 0o755)
        os.replace(tmp, target)
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)
    stale = re.compile(r"_sift_[0-9a-f]{16}" + re.escape(sysconfig.get_config_var("EXT_SUFFIX")))
    for path in directory.iterdir():
        if path != target and stale.fullmatch(path.name):
            with contextlib.suppress(FileNotFoundError):  # a concurrent build pruned it first
                path.unlink()
    return target
