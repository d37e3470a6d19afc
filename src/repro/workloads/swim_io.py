"""Trace I/O: real SWIM traces in, reproducible workloads out.

The paper replays Facebook traces published with SWIM (Statistical Workload
Injector for MapReduce).  SWIM's public trace files are tab-separated with
one job per line::

    job_id    submit_time_s    inter_arrival_s    map_input_bytes    shuffle_bytes    output_bytes

:func:`load_swim_trace` parses that format and converts it to a
:class:`~repro.workloads.swim.Workload`.  SWIM traces carry data *sizes*
but not data *identity* (every replayed job writes its own input), while
locality experiments need shared files with skewed popularity — so the
converter synthesizes a file catalog: jobs are bucketed by input size in
blocks, each bucket gets a pool of files sized by the requested ``reuse``
factor, and jobs draw files from their bucket's pool with a Zipf
distribution.  This preserves the trace's arrival pattern and per-job data
volumes exactly, and adds the popularity skew explicitly (documented, not
smuggled in).

:func:`save_workload` / :func:`load_workload` round-trip a synthesized
workload through JSON so experiments can be shipped and re-run bit-for-bit.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import List, Union

import numpy as np

from repro.hdfs.block import DEFAULT_BLOCK_SIZE
from repro.mapreduce.job import JobSpec
from repro.workloads.catalog import FileCatalog, FileSpec
from repro.workloads.popularity import zipf_weights
from repro.workloads.swim import Workload


class SwimParseError(ValueError):
    """A SWIM trace line could not be parsed."""


def parse_swim_lines(lines) -> List[dict]:
    """Parse SWIM TSV lines into dict rows (skips blanks and comments)."""
    rows = []
    for lineno, raw in enumerate(lines, 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split("\t")
        if len(parts) == 1:
            parts = line.split()
        if len(parts) < 6:
            raise SwimParseError(
                f"line {lineno}: expected 6 fields "
                f"(job_id, submit, gap, input, shuffle, output), got {len(parts)}"
            )
        try:
            rows.append(
                {
                    "job_id": parts[0],
                    "submit_s": float(parts[1]),
                    "gap_s": float(parts[2]),
                    "input_bytes": int(float(parts[3])),
                    "shuffle_bytes": int(float(parts[4])),
                    "output_bytes": int(float(parts[5])),
                }
            )
        except (ValueError, OverflowError) as exc:
            # OverflowError: int(float("inf")) in a byte field
            raise SwimParseError(f"line {lineno}: {exc}") from exc
    if not rows:
        raise SwimParseError("trace contains no job lines")
    return rows


def _size_class(n_blocks: int) -> str:
    if n_blocks <= 8:
        return "small"
    if n_blocks <= 60:
        return "medium"
    return "large"


def workload_from_swim_rows(
    rows: List[dict],
    rng: np.random.Generator,
    name: str = "swim",
    reuse: float = 6.0,
    zipf_s: float = 1.1,
    map_cpu_s: float = 3.0,
    time_scale: float = 1.0,
    block_size: int = DEFAULT_BLOCK_SIZE,
) -> Workload:
    """Convert parsed SWIM rows into a runnable workload.

    ``reuse`` is the mean number of jobs sharing one input file within a
    size bucket; ``time_scale`` compresses (<1) or stretches (>1) the
    arrival timeline the way SWIM's own replay scaling does.
    """
    if reuse < 1:
        raise ValueError("reuse must be >= 1")
    # bucket jobs by input size in blocks
    job_blocks = [
        max(1, -(-row["input_bytes"] // block_size)) for row in rows
    ]
    buckets: dict = {}
    for idx, nb in enumerate(job_blocks):
        buckets.setdefault(nb, []).append(idx)

    files: List[FileSpec] = []
    assignment: dict = {}
    for nb, members in sorted(buckets.items()):
        pool_size = max(1, round(len(members) / reuse))
        pool = []
        for k in range(pool_size):
            fname = f"swim_b{nb}_{k:03d}"
            files.append(FileSpec(fname, nb, _size_class(nb)))
            pool.append(fname)
        weights = zipf_weights(pool_size, zipf_s)
        draws = rng.choice(pool_size, size=len(members), p=weights)
        for idx, d in zip(members, draws):
            assignment[idx] = pool[int(d)]

    catalog = FileCatalog(files)
    specs: List[JobSpec] = []
    for i, row in enumerate(rows):
        input_bytes = max(1, row["input_bytes"])
        n_blocks = job_blocks[i]
        n_reduces = max(1, min(20, n_blocks // 6))
        specs.append(
            JobSpec(
                job_id=i,
                submit_time=row["submit_s"] * time_scale,
                input_file=assignment[i],
                map_cpu_s=map_cpu_s,
                n_reduces=n_reduces,
                reduce_cpu_s=map_cpu_s,
                shuffle_ratio=row["shuffle_bytes"] / input_bytes,
                output_ratio=row["output_bytes"] / input_bytes,
            ).validate()
        )
    specs.sort(key=lambda s: s.submit_time)
    return Workload(name, catalog, specs)


def load_swim_trace(
    path: Union[str, Path],
    rng: np.random.Generator,
    **kwargs,
) -> Workload:
    """Load a SWIM-format TSV trace file into a workload."""
    with open(path) as fh:
        rows = parse_swim_lines(fh)
    return workload_from_swim_rows(rows, rng, name=Path(path).stem, **kwargs)


# ---------------------------------------------------------------------------
# Workload JSON round-tripping
# ---------------------------------------------------------------------------

_FORMAT_VERSION = 1


def save_workload(workload: Workload, path: Union[str, Path]) -> None:
    """Serialize a workload (catalog + specs) to JSON."""
    doc = {
        "format": _FORMAT_VERSION,
        "name": workload.name,
        "catalog": [
            {"name": f.name, "n_blocks": f.n_blocks, "size_class": f.size_class}
            for f in workload.catalog.files
        ],
        "jobs": [spec._asdict() for spec in workload.specs],
    }
    Path(path).write_text(json.dumps(doc))


def load_workload(path: Union[str, Path]) -> Workload:
    """Load a workload saved by :func:`save_workload`."""
    doc = json.loads(Path(path).read_text())
    if doc.get("format") != _FORMAT_VERSION:
        raise ValueError(f"unsupported workload format {doc.get('format')!r}")
    catalog = FileCatalog(
        [FileSpec(f["name"], f["n_blocks"], f["size_class"]) for f in doc["catalog"]]
    )
    specs = [JobSpec(**job).validate() for job in doc["jobs"]]
    return Workload(doc["name"], catalog, specs)
