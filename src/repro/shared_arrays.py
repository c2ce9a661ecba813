"""Zero-copy sharing of read-only numpy arrays with spawn worker processes.

The only module that creates or maps a ``multiprocessing.shared_memory``
segment.  Under spawn, :func:`repro.core.parallel.evaluate_sharded`
exports the batch path plan (:mod:`repro.paths.batch`) and the compiled
query tables (:mod:`repro.routing.compiled_query`) once, owns the
handles, and unlinks the segments after the pool's last round (pool
rebuilds re-attach them).  A worker attaches the descriptor it was sent
and keeps the segments mapped for the life of its process.  Workers
share the parent's resource tracker, where re-registering an attached
name is a no-op, so attaching needs no tracker bookkeeping.  Sharing only
saves work: every failure returns ``None`` and the caller builds its own
arrays.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

try:  # numpy is an optional extra (`pip install repro[fast]`)
    import numpy as _np
except ImportError:  # pragma: no cover - exercised on minimal installs
    _np = None

try:
    from multiprocessing import shared_memory as _shm
except ImportError:  # pragma: no cover - platform without shared memory
    _shm = None

#: Segments this process attached, kept open so their views stay valid.
_ATTACHED: List = []

#: What creating, mapping or viewing a segment raises when it fails.
_SHARE_ERRORS = (OSError, ValueError, TypeError)


def export_arrays(arrays: Dict[str, object], meta: Dict
                  ) -> Tuple[Optional[List], Optional[Dict]]:
    """Copy the named numpy *arrays* into new shared-memory segments.

    Returns ``(handles, descriptor)``.  The caller owns *handles* and must
    pass them to :func:`close_arrays` with ``unlink=True`` once every
    consumer is done.  *descriptor* is small and picklable: each array's
    segment name, shape and dtype, plus the caller's *meta*.  Returns
    ``(None, None)`` when numpy or shared memory is unavailable.
    """
    if _np is None or _shm is None:
        return None, None
    handles: List = []
    layout = {}
    try:
        for name, array in arrays.items():
            segment = _shm.SharedMemory(create=True, size=max(1, array.nbytes))
            handles.append(segment)
            _np.ndarray(array.shape, dtype=array.dtype,
                        buffer=segment.buf)[...] = array
            layout[name] = (segment.name, tuple(array.shape), str(array.dtype))
    except _SHARE_ERRORS:
        close_arrays(handles, unlink=True)
        return None, None
    return handles, {"arrays": layout, "meta": meta}


def attach_arrays(descriptor: Optional[Dict]
                  ) -> Optional[Tuple[Dict[str, object], Dict]]:
    """Map the arrays of an :func:`export_arrays` *descriptor*, zero-copy.

    Returns ``(arrays, meta)``: numpy views over the exporter's segments
    and the exporter's metadata.  Returns ``None`` when *descriptor* is
    empty or a segment cannot be mapped.  Mapped segments stay open for
    the life of this process; the exporting process owns their lifetime.
    """
    if _np is None or _shm is None or not descriptor:
        return None
    handles: List = []
    arrays: Dict[str, object] = {}
    try:
        for name, (segment_name, shape, dtype) in descriptor["arrays"].items():
            segment = _shm.SharedMemory(name=segment_name)
            handles.append(segment)
            arrays[name] = _np.ndarray(tuple(shape), dtype=_np.dtype(dtype),
                                       buffer=segment.buf)
    except _SHARE_ERRORS:
        arrays.clear()  # a segment with a live view cannot close
        close_arrays(handles, unlink=False)
        return None
    _ATTACHED.extend(handles)
    return arrays, descriptor["meta"]


def close_arrays(handles: Optional[List], unlink: bool) -> None:
    """Close *handles* and, with *unlink*, destroy their segments."""
    for segment in handles or ():
        try:
            segment.close()
        except BufferError:
            pass  # a view is still alive; the mapping goes with the process
        if unlink:
            try:
                segment.unlink()
            except OSError:
                pass  # already unlinked
