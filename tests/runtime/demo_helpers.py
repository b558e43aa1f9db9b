"""Helpers shared by the chaos/coordinator test modules."""

from repro.runtime import ArtifactStore, run_manifest, write_shard_manifests
from repro.runtime.chaos import demo_codec


def write_demo_shards(directory, cells, n_shards):
    """Shard ``cells`` into demo-codec manifests under ``directory``."""
    codec = demo_codec()
    return write_shard_manifests(
        cells,
        n_shards,
        directory,
        codec.encode_ref,
        decode_ref=codec.decode_ref,
    )


def serial_reference_hash(tmp_path, cells):
    """Content hash of an unperturbed serial run of ``cells``."""
    ref_dir = tmp_path / "serial-ref"
    write_demo_shards(ref_dir, cells, 1)
    run_manifest(ref_dir / "shard-0.json", ref_dir / "store", echo=None)
    return ArtifactStore(ref_dir / "store").content_hash()


#: Payload values of every batch :func:`toy_cell`'s batched form ran.
TOY_BATCHES = []


def toy_cell(payload, upstream=None):
    """A cheap cell function with a batched form; negative values raise."""
    if payload["value"] < 0:
        raise RuntimeError(f"toy cell {payload['value']} is poisoned")
    return payload["value"] * 10 + (upstream or 0)


def _toy_cells(payloads, upstreams):
    """The batched form; it raises on a ``diverge`` payload, unlike the cell."""
    TOY_BATCHES.append([payload["value"] for payload in payloads])
    if any(payload.get("diverge") for payload in payloads):
        raise RuntimeError("toy batch diverged")
    return [toy_cell(p, u) for p, u in zip(payloads, upstreams)]


toy_cell.batched = _toy_cells
