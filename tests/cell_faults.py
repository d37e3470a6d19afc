"""Faults for cell processes, injected through ``sweep.execute_cell``.

A spawned cell process imports its code afresh, so a parent's
monkeypatch of ``run_experiment`` never reaches it.  A test instead sets
``repro.experiments.sweep.execute_cell`` to a ``functools.partial`` of
one of these module-level functions: each process started afterwards
receives it and imports this module to call it.  Every call appends the
calling process's pid to a counter file, one line per attempt, and
passes the cell's record sink through to the cells it runs.
"""

from __future__ import annotations

import os
import time
from pathlib import Path
from typing import Dict, List, Optional, Tuple, Union

from repro.experiments.sweep import RecordSink, execute_cell


def attempts(counter: Union[str, Path]) -> List[int]:
    """The pid of every attempt recorded in ``counter``, in order."""
    try:
        return [int(line) for line in Path(counter).read_text().split()]
    except FileNotFoundError:
        return []


def _record(counter: str) -> None:
    with open(counter, "a") as fh:
        fh.write(f"{os.getpid()}\n")


def crash(counter: str, code: int, scheduler: str, config_doc: Dict,
          workload: Tuple, sink: Optional[RecordSink] = None) -> Dict:
    """Exit the process with ``code`` on a cell of ``scheduler`` (any
    cell when it is empty); run the others."""
    _record(counter)
    if scheduler in ("", config_doc["scheduler"]):
        os._exit(code)
    return execute_cell(config_doc, workload, sink)


def hang(counter: str, scheduler: str, config_doc: Dict, workload: Tuple,
         sink: Optional[RecordSink] = None) -> Dict:
    """Never answer a cell of ``scheduler`` (any cell when it is empty);
    run the others."""
    _record(counter)
    if scheduler in ("", config_doc["scheduler"]):
        time.sleep(600.0)
    return execute_cell(config_doc, workload, sink)


def raises(counter: str, config_doc: Dict, workload: Tuple,
           sink: Optional[RecordSink] = None) -> Dict:
    """Fail every cell with an exception."""
    _record(counter)
    raise RuntimeError("injected cell failure")


def fails_once(counter: str, config_doc: Dict, workload: Tuple,
               sink: Optional[RecordSink] = None) -> Dict:
    """Fail the first attempt that ``counter`` records with an exception;
    run every later one."""
    _record(counter)
    if len(attempts(counter)) == 1:
        raise RuntimeError("injected cell failure")
    return execute_cell(config_doc, workload, sink)
