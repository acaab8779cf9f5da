"""Snapshots written by an earlier tree restore and continue identically.

``tests/snapshot_corpus/`` holds :meth:`ShardedSamplingService.snapshot`
blobs written by an earlier commit, each beside a JSON record of the spec
that made it and of digests of what continuing it gives: the outputs of
more elements, the merged memory, one ``sample_many`` draw and the shard
loads.  Every blob is restored on the serial, process and socket backends
and must reproduce those digests.  The restore tests elsewhere write and
read with the same code; these blobs pin what a shard's pickle held when
they were written, so a change to the pickled state (sketch, Gamma, coin
buffers) that an older blob cannot restore, or that restores onto another
coin stream, fails here.  ``repro serve`` relies on the same property when
it resumes from a drain state file across an upgrade.

The corpus is written by running this file as a script with the tree
whose blobs are wanted on ``PYTHONPATH``; it refuses to overwrite a blob::

    PYTHONPATH=src python tests/test_snapshot_corpus.py OUT_DIR COMMIT

Each blob is small (2-3 shards, memory 8, a 32x3 sketch, 2,000 elements).
"""

import hashlib
import json
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest

from repro.engine import ShardedSamplingService
from repro.streams import zipf_stream

CORPUS = Path(__file__).with_name("snapshot_corpus")
TOKEN = "snapshot-corpus-token"

#: How each blob was made.  ``via`` is ``"snapshot"`` for a direct
#: ``snapshot()`` call and ``"serve"`` for the state file a ``repro serve``
#: drain writes (ingest over the wire, then drain).
CASES = {
    "serial": {
        "via": "snapshot", "backend": "serial", "workers": None,
        "autoscale": None, "shards": 2, "memory_size": 8,
        "sketch_width": 32, "sketch_depth": 3, "seed": 101,
        "stream": {"size": 2_000, "population": 500, "alpha": 1.1,
                   "seed": 3},
        "batch_size": 1_000, "samples": 5,
    },
    "process_autoscale": {
        "via": "snapshot", "backend": "process", "workers": 1,
        "autoscale": {"min_workers": 1, "max_workers": 3,
                      "target_load_per_worker": 400, "check_every": 500},
        "shards": 3, "memory_size": 8, "sketch_width": 32,
        "sketch_depth": 3, "seed": 102,
        "stream": {"size": 2_000, "population": 500, "alpha": 1.1,
                   "seed": 5},
        "batch_size": 1_000, "samples": 5,
    },
    "serve_drain": {
        "via": "serve", "backend": "serial", "workers": None,
        "autoscale": None, "shards": 2, "memory_size": 8,
        "sketch_width": 32, "sketch_depth": 3, "seed": 103,
        "stream": {"size": 2_000, "population": 500, "alpha": 1.1,
                   "seed": 7},
        "batch_size": 1_000, "samples": 5,
    },
}

#: What a restored blob goes on to do; its results are the digests.
CONTINUATION = {
    "stream": {"size": 1_000, "population": 500, "alpha": 1.1, "seed": 4},
    "batch_size": 250, "samples": 20,
}


def _identifiers(stream):
    return np.asarray(zipf_stream(
        stream["size"], stream["population"], alpha=stream["alpha"],
        random_state=stream["seed"]).identifiers, dtype=np.int64)


def _chunks(stream, batch_size):
    ids = _identifiers(stream)
    return [ids[start:start + batch_size]
            for start in range(0, ids.size, batch_size)]


def _digest(values) -> str:
    text = json.dumps([int(value) for value in values])
    return hashlib.sha256(text.encode()).hexdigest()


def continuation_digests(blob: bytes, backend: str):
    """Digests of restoring ``blob`` on ``backend`` and continuing it."""
    workers = None if backend == "serial" else 2
    with ShardedSamplingService.restore(blob, backend=backend,
                                        workers=workers) as service:
        outputs = [service.on_receive_batch(chunk) for chunk in _chunks(
            CONTINUATION["stream"], CONTINUATION["batch_size"])]
        memory = service.merged_memory()
        sample = service.sample_many(CONTINUATION["samples"], strict=False)
        loads = service.shard_loads()
    return {"outputs": _digest(np.concatenate(outputs)),
            "memory": _digest(memory), "sample": _digest(sample),
            "loads": _digest(loads)}


def write_blob(spec) -> bytes:
    """Build the service ``spec`` names, feed it, and return its blob."""
    service = ShardedSamplingService.knowledge_free(
        spec["shards"], spec["memory_size"],
        sketch_width=spec["sketch_width"], sketch_depth=spec["sketch_depth"],
        random_state=spec["seed"], backend=spec["backend"],
        workers=spec["workers"], autoscale=spec["autoscale"])
    chunks = _chunks(spec["stream"], spec["batch_size"])
    if spec["via"] == "serve":
        from repro.serve import ServeClient, ServerThread

        with tempfile.TemporaryDirectory() as directory:
            state = Path(directory) / "state.snap"
            thread = ServerThread(service, TOKEN, state_file=str(state))
            with ServeClient(thread.start(), auth_token=TOKEN) as client:
                for chunk in chunks:
                    client.ingest(chunk)
                client.sample_many(spec["samples"], strict=False)
                client.drain()
            thread.drain()
            return state.read_bytes()
    with service:
        for chunk in chunks:
            service.on_receive_batch(chunk)
        if spec["autoscale"] is not None:
            assert service.placement_info()["migrations"] > 0
        service.sample_many(spec["samples"], strict=False)
        return service.snapshot()


def write_corpus(directory: Path, commit: str) -> None:
    """Write every case's blob and record into ``directory``."""
    directory.mkdir(parents=True, exist_ok=True)
    for name, spec in CASES.items():
        blob_path = directory / f"{name}.snap"
        if blob_path.exists():
            raise FileExistsError(f"{blob_path} exists; corpus blobs are "
                                  "never rewritten")
        blob = write_blob(spec)
        record = {
            "written_by": commit, "spec": spec,
            "continuation": CONTINUATION,
            "blob_sha256": hashlib.sha256(blob).hexdigest(),
            "digests": continuation_digests(blob, "serial"),
        }
        blob_path.write_bytes(blob)
        (directory / f"{name}.json").write_text(
            json.dumps(record, indent=2, sort_keys=True) + "\n")
        print(f"{name}: {len(blob)} bytes")


@pytest.mark.parametrize("backend", ["serial", "process", "socket"])
@pytest.mark.parametrize("name", sorted(CASES))
def test_corpus_blob_continues_identically(name, backend):
    record = json.loads((CORPUS / f"{name}.json").read_text())
    blob = (CORPUS / f"{name}.snap").read_bytes()
    assert record["spec"] == CASES[name]
    assert record["continuation"] == CONTINUATION
    assert hashlib.sha256(blob).hexdigest() == record["blob_sha256"]
    assert continuation_digests(blob, backend) == record["digests"]


if __name__ == "__main__":
    write_corpus(Path(sys.argv[1]), sys.argv[2])
