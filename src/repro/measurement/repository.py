"""Trace repository: persist and reload measurement campaigns.

The paper publishes its raw data on Zenodo ("all data we collected is
available in our repository").  This module is the library's
equivalent: a directory-backed store for campaign results with a
manifest, so measurement runs can be archived, shared, and re-analyzed
without re-simulation — and so baselines (F5.2) have a durable home.

Since the :mod:`repro.runtime` refactor the repository is a typed
facade over :class:`repro.runtime.store.ArtifactStore`: the same
layout as before (``manifest.json`` plus one directory of JSON files
per campaign), but with atomic, crash-safe writes — every file is
temp-written, fsynced, and renamed into place, and a campaign's files
always land *before* its manifest entry, so an interrupted store can
no longer strand a manifest pointing at missing files.

Layout::

    <root>/
      manifest.json                    index of stored campaigns
      <campaign-id>/
        config.json                    provider / instance / duration
        <pattern>.json                 one BandwidthTrace per pattern

The module also owns the campaign <-> store-document mapping
(:func:`campaign_to_documents` / :func:`campaign_from_documents`),
which the scenario and measurement runtime codecs reuse so every layer
writes the same bytes for the same campaign.
"""

from __future__ import annotations

from typing import Mapping

from repro.measurement.campaign import CampaignConfig, CampaignResult
from repro.runtime.store import ArtifactStore, StoreCorruptionError, validate_key
from repro.trace import BandwidthTrace

__all__ = [
    "TraceRepository",
    "RepositoryCorruptionError",
    "campaign_to_documents",
    "campaign_from_documents",
    "run_wrapping_corruption",
]


def run_wrapping_corruption(runner):
    """Run a :class:`~repro.runtime.campaign.CampaignRunner`, translating
    raw store corruption into :class:`RepositoryCorruptionError`.

    Used by :meth:`repro.runtime.campaign.Campaign.run`, so scenario
    and serving sweeps raise the same exception for a damaged
    repository.
    """
    try:
        return runner.run()
    except RepositoryCorruptionError:
        raise
    except StoreCorruptionError as exc:
        raise RepositoryCorruptionError(str(exc)) from exc


class RepositoryCorruptionError(StoreCorruptionError):
    """A manifest entry and the files on disk disagree.

    Raised when loading a campaign whose directory, config, or trace
    files have gone missing behind the manifest's back (partial copy,
    manual deletion) — a distinct failure from the ``KeyError`` of
    asking for a campaign that was never stored.  The atomic write
    ordering in :class:`repro.runtime.store.ArtifactStore` means a
    *crashed writer* can no longer produce this state.
    """


def _validate_id(campaign_id: str) -> None:
    validate_key(campaign_id, kind="campaign id")


def campaign_to_documents(result: CampaignResult) -> tuple[dict, dict]:
    """Encode a campaign result as store documents plus manifest meta.

    The document set mirrors the on-disk layout the repository has
    always used: a ``config`` document and one document per pattern
    trace.  A pattern named ``config`` would collide with the config
    document, so it is refused.
    """
    if "config" in result.traces:
        raise ValueError("pattern name 'config' collides with the config document")
    config = result.config
    documents: dict[str, dict] = {
        "config": {
            "provider_name": config.provider_name,
            "instance_name": config.instance_name,
            "duration_s": config.duration_s,
            "write_size_bytes": config.write_size_bytes,
            "seed": config.seed,
            "nominal_weeks": config.nominal_weeks,
            "patterns": sorted(result.traces),
        }
    }
    for pattern, trace in result.traces.items():
        documents[pattern] = trace.to_dict()
    meta = {
        "provider": config.provider_name,
        "instance": config.instance_name,
        "duration_s": config.duration_s,
        "patterns": sorted(result.traces),
    }
    return documents, meta


def campaign_from_documents(documents: Mapping[str, Mapping]) -> CampaignResult:
    """Inverse of :func:`campaign_to_documents`."""
    meta = documents["config"]
    config = CampaignConfig(
        provider_name=meta["provider_name"],
        instance_name=meta["instance_name"],
        duration_s=meta["duration_s"],
        write_size_bytes=meta["write_size_bytes"],
        seed=meta["seed"],
        nominal_weeks=meta.get("nominal_weeks"),
    )
    result = CampaignResult(config=config)
    for pattern in meta["patterns"]:
        result.traces[pattern] = BandwidthTrace.from_dict(documents[pattern])
    return result


class TraceRepository:
    """Directory-backed store for campaign traces."""

    def __init__(self, root) -> None:
        self.artifacts = ArtifactStore(root)

    @property
    def root(self):
        return self.artifacts.root

    # -- manifest ----------------------------------------------------------
    def campaign_ids(self) -> list[str]:
        """All stored campaign identifiers, sorted."""
        return self.artifacts.keys()

    def __contains__(self, campaign_id: str) -> bool:
        return campaign_id in self.artifacts

    # -- store / load ------------------------------------------------------
    def store(self, campaign_id: str, result: CampaignResult):
        """Persist a campaign result; refuses to overwrite silently."""
        _validate_id(campaign_id)
        documents, meta = campaign_to_documents(result)
        if campaign_id in self.artifacts:
            raise ValueError(f"campaign {campaign_id!r} already stored")
        return self.artifacts.put(campaign_id, documents, meta=meta)

    def load(self, campaign_id: str) -> CampaignResult:
        """Reload a stored campaign result.

        Raises :class:`ValueError` for an unsafe id (so a crafted id in
        a shared manifest can never escape the repository root),
        :class:`KeyError` for an unknown campaign, and
        :class:`RepositoryCorruptionError` when the manifest points at
        files that no longer exist.
        """
        _validate_id(campaign_id)
        if campaign_id not in self.artifacts:
            raise KeyError(f"no stored campaign {campaign_id!r}")
        try:
            config_doc = self.artifacts.read_document(campaign_id, "config")
            documents: dict[str, Mapping] = {"config": config_doc}
            for pattern in config_doc["patterns"]:
                documents[pattern] = self.artifacts.read_document(
                    campaign_id, pattern
                )
        except StoreCorruptionError as exc:
            raise RepositoryCorruptionError(
                f"campaign {campaign_id!r} is in the manifest but files "
                f"are missing on disk; the store is corrupt — delete the "
                f"manifest entry or restore the files ({exc})"
            ) from exc
        return campaign_from_documents(documents)

    def delete(self, campaign_id: str) -> None:
        """Remove a stored campaign and its files.

        Tolerates a missing campaign directory (the corrupt
        manifest-only state :meth:`load` reports) so a broken entry can
        always be cleared, as the corruption error's message advises.
        """
        _validate_id(campaign_id)
        try:
            self.artifacts.delete(campaign_id)
        except KeyError:
            raise KeyError(f"no stored campaign {campaign_id!r}") from None

    def summary_rows(self) -> list[dict]:
        """Table-3-style rows for every stored campaign."""
        manifest = self.artifacts.manifest()
        return [
            {
                "campaign_id": campaign_id,
                "provider": entry["provider"],
                "instance": entry["instance"],
                "duration_s": entry["duration_s"],
                "patterns": entry["patterns"],
            }
            for campaign_id, entry in sorted(manifest.items())
        ]
