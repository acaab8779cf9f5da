"""Build, load and call the compiled Algorithm 3 chunk kernel.

``chunk_kernel.c`` is the per-element loop of
:meth:`~repro.core.knowledge_free.KnowledgeFreeStrategy.process` as one C
function over a whole chunk.  :func:`load` builds it with the system C
compiler the first time a chunk needs it (never at import), into the
``__pycache__`` directory beside the source, and binds it through
:mod:`ctypes`.  The library file is named by the SHA-256 of the source and
the compiler flags plus the machine type, so an edited source or another
architecture builds its own file.  A build writes to a fresh temporary name
in that directory and renames it into place, so processes that build at
the same time each end up loading a complete file; no shared temporary
directory is involved, where another user could plant a library.

When the compiler is missing or fails, or the library does not load,
:func:`load` returns ``None``, logs one WARNING per process, and the
strategy runs its NumPy chunk kernel instead; both are bit-identical to the
per-element loop.  :func:`kernel_name` says which one runs.
"""

from __future__ import annotations

import logging
import os
import threading
from pathlib import Path
from typing import Callable, Optional, Tuple

import numpy as np

from repro.utils.rng import BufferedUniforms

_LOG = logging.getLogger(__name__)

SOURCE = Path(__file__).with_name("chunk_kernel.c")
#: Where built libraries go (``.gitignore`` covers it).
CACHE_DIR = SOURCE.parent / "__pycache__"
COMPILER = "cc"
FLAGS = ("-O2", "-std=c99", "-ffp-contract=off", "-shared", "-fPIC")
#: Seconds one compiler run may take before the build counts as failed.
BUILD_TIMEOUT = 60.0

_UNSET = object()
_kernel = _UNSET
_lock = threading.Lock()


def load() -> Optional[Callable]:
    """Return the compiled chunk function, or ``None`` if it cannot run here.

    The first call builds (if no library for this source exists yet) and
    loads it; every later call in the process returns the same result, as
    an import would.
    """
    global _kernel
    if _kernel is _UNSET:
        with _lock:
            if _kernel is _UNSET:
                _kernel = _build_and_load()
    return _kernel


def kernel_name() -> str:
    """``"compiled"`` when the compiled kernel runs, else ``"numpy"``."""
    return "numpy" if load() is None else "compiled"


def _build_and_load() -> Optional[Callable]:
    import ctypes
    import hashlib
    import platform
    import subprocess
    import tempfile

    try:
        key = hashlib.sha256(SOURCE.read_bytes())
        key.update("\0".join((COMPILER,) + FLAGS).encode())
        library = CACHE_DIR / (f"chunk_kernel-{key.hexdigest()[:16]}-"
                               f"{platform.machine() or 'unknown'}.so")
        if not library.exists():
            CACHE_DIR.mkdir(exist_ok=True)
            handle, partial = tempfile.mkstemp(
                prefix=f".{library.stem}-", suffix=".tmp", dir=CACHE_DIR)
            os.close(handle)
            try:
                subprocess.run(
                    [COMPILER, *FLAGS, "-o", partial, str(SOURCE)],
                    check=True, capture_output=True, text=True,
                    timeout=BUILD_TIMEOUT)
                os.replace(partial, library)
            finally:
                if os.path.exists(partial):
                    os.unlink(partial)
        function = ctypes.CDLL(str(library)).repro_chunk_kernel
    except subprocess.CalledProcessError as error:
        tail = "\n".join((error.stderr or "").strip().splitlines()[-5:])
        _LOG.warning("chunk kernel build failed (%s exited %d); using the "
                     "NumPy kernel:\n%s", COMPILER, error.returncode, tail)
        return None
    except subprocess.TimeoutExpired:
        _LOG.warning("chunk kernel build took over %.0f s; using the NumPy "
                     "kernel", BUILD_TIMEOUT)
        return None
    except (OSError, AttributeError) as error:
        _LOG.warning("chunk kernel unavailable (%s); using the NumPy kernel",
                     error)
        return None

    def array(dtype, ndim, writeable=False):
        flags = "C_CONTIGUOUS,WRITEABLE" if writeable else "C_CONTIGUOUS"
        return np.ctypeslib.ndpointer(dtype=dtype, ndim=ndim, flags=flags)

    int64 = ctypes.c_int64
    function.restype = int64
    function.argtypes = [
        array(np.int64, 1), int64,                    # ids, n
        array(np.uint64, 2), int64, int64,            # hashes, depth, width
        array(np.int64, 2, writeable=True),           # table
        array(np.int64, 1, writeable=True),           # memory
        int64, int64,                                 # length, capacity
        array(np.float64, 1), int64, ctypes.c_void_p,  # sample coins
        array(np.float64, 1), int64, ctypes.c_void_p,  # accept coins
        array(np.float64, 1), int64, ctypes.c_void_p,  # victim coins
        array(np.int64, 1, writeable=True),           # outputs
        array(np.int64, 1, writeable=True),           # used
    ]
    return function


def run_chunk(function: Callable, ids: np.ndarray, sketch, memory: np.ndarray,
              length: int, samples: BufferedUniforms,
              accepts: BufferedUniforms,
              victims: BufferedUniforms) -> Tuple[np.ndarray, int]:
    """Run Algorithm 3 over ``ids`` in the compiled kernel.

    ``memory`` is Gamma in a buffer of the strategy's capacity, its first
    ``length`` slots in use; it and ``sketch``'s table are updated in
    place, and the sketch's total grows by the chunk's length.  The kernel
    takes each coin stream's buffered values first and then draws from the
    stream's bit generator itself, holding the generator's lock (the call
    releases the GIL); each stream then advances by the coins used.
    Returns ``(outputs, length)``.
    """
    size = int(ids.size)
    functions = sketch._hash_functions
    table = sketch._table
    depth, width = sketch.depth, sketch.width
    if (table.shape != (depth, width) or len(functions) != depth
            or any(f.range_size != width for f in functions)):
        raise ValueError(f"sketch table {table.shape} does not match its "
                         f"{len(functions)} hash rows of width {width}")
    if not 0 <= length <= memory.size:
        raise ValueError(f"Gamma length {length} outside its buffer of "
                         f"{memory.size}")
    streams = (samples, accepts, victims)
    generators = [stream.bit_generator for stream in streams]
    if len({id(generator) for generator in generators}) != len(streams):
        raise ValueError("each coin stream needs its own generator")
    hashes = np.array([(f.a, f.b, f.range_size) for f in functions],
                      dtype=np.uint64)
    outputs = np.empty(size, dtype=np.int64)
    used = np.zeros(len(streams), dtype=np.int64)
    coins = []
    for stream, generator in zip(streams, generators):
        head = stream.pending()
        coins += [head, head.size, generator.ctypes.bit_generator]
    with generators[0].lock, generators[1].lock, generators[2].lock:
        length = function(ids, size, hashes, depth, width, table, memory,
                          length, memory.size, *coins, outputs, used)
    if length < 0:
        raise MemoryError("chunk kernel could not allocate its Gamma set")
    for stream, count in zip(streams, used.tolist()):
        stream.advance_drawn(count)
    sketch._total += size
    return outputs, int(length)
