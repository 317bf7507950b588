"""User-space instructions retired, from the Linux hardware counter.

Wall time on a small shared machine drifts with its neighbours' load;
instructions retired by nncost's own code do not.  The counter covers
this process and, through ``inherit``, every child it starts: a child's
count is added when the child exits.  Read it before and after a job and
take the difference.
"""

from __future__ import annotations

import ctypes
import os
import platform
import struct

_SYSCALL = {"x86_64": 298, "aarch64": 241}
PERF_TYPE_HARDWARE = 0
PERF_COUNT_HW_INSTRUCTIONS = 1
PERF_FLAG_FD_CLOEXEC = 8
_INHERIT, _EXCLUDE_KERNEL, _EXCLUDE_HV = 1 << 1, 1 << 5, 1 << 6


class _Attr(ctypes.Structure):
    # struct perf_event_attr up to config1 (PERF_ATTR_SIZE_VER0, 64 bytes)
    _fields_ = [
        ("type", ctypes.c_uint32),
        ("size", ctypes.c_uint32),
        ("config", ctypes.c_uint64),
        ("sample_period", ctypes.c_uint64),
        ("sample_type", ctypes.c_uint64),
        ("read_format", ctypes.c_uint64),
        ("flags", ctypes.c_uint64),
        ("wakeup_events", ctypes.c_uint32),
        ("bp_type", ctypes.c_uint32),
        ("config1", ctypes.c_uint64),
    ]


class InstructionCounter:
    """An open instruction counter; ``read()`` gives the running total."""

    def __init__(self) -> None:
        number = _SYSCALL.get(platform.machine())
        if number is None:
            raise OSError(f"no perf_event_open syscall number for {platform.machine()}")
        attr = _Attr(type=PERF_TYPE_HARDWARE, size=ctypes.sizeof(_Attr),
                     config=PERF_COUNT_HW_INSTRUCTIONS,
                     flags=_INHERIT | _EXCLUDE_KERNEL | _EXCLUDE_HV)
        libc = ctypes.CDLL(None, use_errno=True)
        libc.syscall.restype = ctypes.c_long
        fd = libc.syscall(ctypes.c_long(number), ctypes.byref(attr), ctypes.c_long(0),
                          ctypes.c_long(-1), ctypes.c_long(-1),
                          ctypes.c_ulong(PERF_FLAG_FD_CLOEXEC))
        if fd < 0:
            err = ctypes.get_errno()
            raise OSError(err, f"perf_event_open: {os.strerror(err)}")
        self.fd = fd

    def read(self) -> int:
        return struct.unpack("Q", os.read(self.fd, 8))[0]

    def close(self) -> None:
        os.close(self.fd)
