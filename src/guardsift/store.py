"""The store beside a data file: what a reader decoded from its bytes.

The store of ``X.csv`` or ``X.ndjson`` is the directory ``X.store`` beside
it: one ``.npy`` file per array, and a ``meta.json`` with the sha256 of the
bytes decoded, the format's ``version`` and the kind of reader (``log``)
that wrote it. Cell logs (``ingest``) and trace files (``columns``) keep
their stores through ``read_once``; the trace writer (``trace.write_dataset``)
keeps the store of each file it writes through ``_keep``.
"""

from __future__ import annotations

import json
import math
import os
import shutil
import warnings
from pathlib import Path

import numpy as np

from .errors import StoreError

VERSION = 1


def store_path(path) -> Path:
    """The store of the file ``X.csv`` or ``X.ndjson``: the directory ``X.store`` beside it."""
    return Path(path).with_suffix(".store")


def is_regular_file(source) -> bool:
    """Whether ``source`` is the path of a regular file, the only kind of source with a store."""
    return isinstance(source, (str, Path)) and Path(source).is_file()


def _sha256(data: bytes) -> str:
    import hashlib  # loaded only by a run that checks or writes a store

    return hashlib.sha256(data).hexdigest()


def _keep(path, reader: str, digest: str, arrays: dict[str, np.ndarray], fields: dict) -> None:
    """Write ``arrays`` as the store of the file at ``path``, which the
    ``reader`` kind of reader decodes from bytes whose sha256 is ``digest``.
    Its ``meta.json`` holds ``fields`` and the ``version``, ``log`` and
    ``sha256`` that ``_read_meta`` checks.

    The store is written into a new directory beside the file and renamed
    into place, replacing an older store, so a reader finds a whole store or
    none. A store that cannot be written is no error: the file is then
    decoded on each read.
    """
    store = store_path(path)
    new = store.with_name(f".{store.name}.{os.getpid()}")
    try:
        if new.exists():  # left by a writer of the same pid that was stopped
            shutil.rmtree(new)
        new.mkdir()
        try:
            for name, array in arrays.items():
                np.save(new / f"{name}.npy", array, allow_pickle=False)
            meta = {**fields, "version": VERSION, "log": reader, "sha256": digest}
            (new / "meta.json").write_text(json.dumps(meta, sort_keys=True) + "\n", encoding="utf-8")
            try:
                new.rename(store)
            except OSError:  # a store is in the way: swap it out
                if not store.is_dir():
                    raise
                old = new.with_name(new.name + ".old")
                store.rename(old)
                new.rename(store)
                shutil.rmtree(old)
        finally:
            if new.exists():
                shutil.rmtree(new)
    except OSError as exc:
        import logging  # loaded only by a run that warns: it costs a trace reader 3 ms

        logging.getLogger(__name__).warning(
            "cannot write the store of %s, which is decoded on each read: %s", path, exc
        )


def load_array(store: Path, name: str, dtype, ndim: int, kind: str) -> np.ndarray:
    """The array ``name`` of a store of ``kind`` ("cell-log" or "trace").
    Its header is parsed once, with numpy's warning on a header it could
    parse only after mending raised as a fault, and checked against the
    dtype, the rank and the file's size; then the data the header describes
    is read. So an object array, or a header that claims more values than
    the file holds, is refused before anything is allocated."""
    path = store / f"{name}.npy"
    try:
        with open(path, "rb") as handle:
            try:  # numpy's header parser raises more than ValueError on bad bytes
                with warnings.catch_warnings():
                    warnings.simplefilter("error", UserWarning)
                    if np.lib.format.read_magic(handle) != (1, 0):
                        raise ValueError("not a version 1.0 .npy file")
                    shape, fortran_order, found = np.lib.format.read_array_header_1_0(handle)
            except UserWarning:  # numpy's advice in it, to save the file again, does not fit a store
                raise StoreError(path, "bad .npy header: numpy reads it only after mending it", kind) from None
            except Exception as exc:
                raise StoreError(path, f"bad .npy header: {exc}", kind) from None
            if found != dtype or len(shape) != ndim:
                expected = f"{ndim}-d {np.dtype(dtype)}"
                raise StoreError(path, f"holds a {len(shape)}-d {found} array, expected {expected}", kind)
            size, count = os.fstat(handle.fileno()).st_size - handle.tell(), math.prod(shape)
            if min(shape, default=0) < 0 or count * found.itemsize != size:
                raise StoreError(path, f"{size} bytes of data do not hold shape {shape}", kind)
            data = np.fromfile(handle, dtype=found, count=count)
            return data.reshape(shape, order="F" if fortran_order else "C")
    except (OSError, ValueError) as exc:
        raise StoreError(path, str(exc), kind) from None


def _read_meta(store: Path, reader: str, digest: str, kind: str) -> dict | None:
    """The ``meta.json`` of a store that the ``reader`` kind of reader made
    from bytes whose sha256 is ``digest``; None when the store was made from
    other bytes or by another kind of reader. A ``meta.json`` that is not a
    JSON object with a sha256, or a matching one of another version, raises
    ``StoreError``."""
    meta_path = store / "meta.json"
    try:
        meta = json.loads(meta_path.read_bytes())
    except (ValueError, RecursionError) as exc:
        raise StoreError(meta_path, f"not JSON: {exc}", kind) from None
    except OSError as exc:
        raise StoreError(meta_path, str(exc), kind) from None
    if not isinstance(meta, dict) or not isinstance(meta.get("sha256"), str):
        raise StoreError(meta_path, "no sha256 of its file", kind)
    if meta["sha256"] != digest:
        return None
    if meta.get("version") != VERSION:
        raise StoreError(meta_path, f"version {meta.get('version')!r}, expected {VERSION}", kind)
    return meta if meta.get("log") == reader else None


def read_once(path, reader: str, decode, load, stored):
    """What the ``reader`` kind of reader makes of the regular file at ``path``.

    The file is read once. When its store matches those bytes and that
    reader, ``load(store, meta)`` gives the value, and must raise
    ``StoreError`` on anything a decode could not give. Otherwise
    ``decode(data)`` gives it, and ``stored(value)``, its arrays and the
    fields its ``meta.json`` adds, becomes the store. ``data`` is a list
    that holds the bytes, which ``decode`` pops: so they are freed as soon
    as the decoder is done with them, not when it returns.
    """
    kind = "trace" if reader == "trace" else "cell-log"
    store = store_path(path)
    data = [Path(path).read_bytes()]
    digest = _sha256(data[0])
    meta = _read_meta(store, reader, digest, kind) if (store / "meta.json").exists() else None
    if meta is not None:
        data.clear()  # the store's arrays take the place of the file's bytes
        return load(store, meta)
    value = decode(data)
    _keep(path, reader, digest, *stored(value))
    return value
