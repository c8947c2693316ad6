"""The reader's listing cursors against a dict model of the dataset.

``Prefetcher.pages`` lists event keys with one cursor per event
database, carrying keys listed past a page's end into the next page.
Whatever the databases answer and however the subruns interleave them,
a pass must yield exactly what paging the model does: every event once,
in the given subrun order, in pages of ``input_batch_size`` cut
wherever they fall.  A live rescale between pages moves the shard map
under the cursors (dual-read while migrating, then the committed map).
"""

import random

import pytest

from repro.bedrock import BedrockServer, default_hepnos_config
from repro.hepnos import PEPOptions, Prefetcher, WriteBatch
from repro.rescale import LiveRescaler, add_server
from repro.yokan.client import DatabaseHandle

PAGE = 16


def populate(datastore, seed: int):
    """Subruns in key order across 3 runs -- so their event databases
    interleave -- with empty ones and one of several pages, and the
    dict model ``{(run, subrun): event count}`` of them."""
    rng = random.Random(seed)
    dataset = datastore.create_dataset(f"listing/{seed}")
    model = {}
    with WriteBatch(datastore) as batch:
        for r in range(3):
            run = dataset.create_run(r, batch=batch)
            for s in range(7):
                subrun = run.create_subrun(s, batch=batch)
                count = rng.choice([0, 0, 1, PAGE - 1, PAGE, PAGE + 1,
                                    rng.randrange(2, 3 * PAGE)])
                if (r, s) == (1, 3):
                    count = 3 * PAGE + 5  # larger than a page
                for e in range(count):
                    subrun.create_event(e * 2, batch=batch)
                model[(r, s)] = count
    subruns = [subrun for run in dataset for subrun in run]
    return subruns, model


def model_pages(model) -> list:
    events = [(r, s, e * 2) for (r, s), count in sorted(model.items())
              for e in range(count)]
    return [events[i:i + PAGE] for i in range(0, len(events), PAGE)]


@pytest.mark.parametrize("rescale", [False, True],
                         ids=["steady", "live-rescale"])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_pages_equal_the_model(fabric, datastore, monkeypatch, seed,
                               rescale):
    subruns, model = populate(datastore, seed)
    assert len({datastore.target_for("events", s.key)
                for s in subruns}) > 1, "the subruns must interleave"
    listed: list = []
    list_keys = DatabaseHandle.list_keys_multi

    def recorded(self, *args, **kwargs):
        keys = list_keys(self, *args, **kwargs)
        listed.extend(keys)
        return keys

    monkeypatch.setattr(DatabaseHandle, "list_keys_multi", recorded)
    rescaler = None
    if rescale:
        joined = add_server(datastore.connection, BedrockServer(
            fabric, default_hepnos_config(
                f"sm://listing{seed}/hepnos", num_providers=2,
                event_databases=2, product_databases=2, run_databases=1,
                subrun_databases=1, dataset_databases=1)))
        rescaler = LiveRescaler(datastore, joined, batch_size=64)
    reader = Prefetcher(datastore, options=PEPOptions(input_batch_size=PAGE))
    pages, epochs = [], set()
    for page in reader.pages(subruns):
        pages.append([event.triple() for event in page])
        epochs.add(datastore.placement.epoch)
        if rescaler is not None:
            if not rescaler.started:
                rescaler.begin()
            elif not rescaler.step():
                rescaler.commit()
                rescaler = None
    assert pages == model_pages(model)
    if rescale:
        assert rescaler is None, "the rescale must commit mid-pass"
        assert len(epochs) == 3, "the map must move under the cursors"
    else:
        assert len(listed) == len(set(listed)), "a key was listed twice"
        assert len(listed) == sum(model.values())
