"""Tests for the shard placement plane (repro.engine.placement/autoscale).

The guarantees under test: live shard migration, runtime worker
scale-up/down and load-triggered autoscaling are pure routing changes —
per master seed, outputs, merged memory, shard loads and samples stay
bit-identical to the serial backend with any schedule of placement
actions applied mid-run, including a worker killed -9 in the middle of a
migration (the pool supervisor re-spawns and journal-replays it, on both
worker pools).  A migration ships the moved shard's own pickle, which the
telemetry byte counter makes observable.
"""

import pickle

import numpy as np
import pytest

from repro import telemetry
from repro.engine import (
    AutoscalePolicy,
    Autoscaler,
    BackendError,
    KnowledgeFreeShardFactory,
    ShardedSamplingService,
    ShardPlacement,
    run_stream,
)
from repro.engine.backends.base import serve_shard_command
from repro.streams import zipf_stream
from repro.utils.rng import spawn_children

STREAM = zipf_stream(8_000, 1_000, alpha=1.3, random_state=17)
IDS = np.asarray(STREAM.identifiers, dtype=np.int64)

PARALLEL_BACKENDS = ["process", "socket"]


def _service(backend, seed=23, shards=4, **kwargs):
    return ShardedSamplingService.knowledge_free(
        shards=shards, memory_size=10, sketch_width=32, sketch_depth=4,
        random_state=seed, backend=backend, **kwargs)


def _serial_reference(batches, seed=23, shards=4, reset_after=None):
    """Outputs/samples/memory of a serial run over ``batches``."""
    service = _service("serial", seed=seed, shards=shards)
    outputs = []
    for index, batch in enumerate(batches):
        outputs.append(service.on_receive_batch(batch))
        if reset_after is not None and index == reset_after:
            service.reset()
            outputs.clear()
    samples = service.sample_many(40, strict=False)
    memory = service.merged_memory()
    loads = service.shard_loads()
    service.close()
    return outputs, samples, memory, loads


# --------------------------------------------------------------------- #
# The routing table itself
# --------------------------------------------------------------------- #
class TestShardPlacement:
    def test_worker_ids_are_never_reused(self):
        placement = ShardPlacement(4)
        first = placement.add_worker()
        second = placement.add_worker()
        placement.remove_worker(second)
        assert placement.add_worker() == second + 1
        assert first == 0 and second == 1

    def test_round_robin_reproduces_legacy_pinning(self):
        placement = ShardPlacement(5)
        for _ in range(2):
            placement.add_worker()
        placement.assign_round_robin()
        assert placement.table == [0, 1, 0, 1, 0]
        assert placement.shards_of(0) == [0, 2, 4]
        assert placement.shards_of(1) == [1, 3]

    def test_reassignment_counts_as_migration(self):
        placement = ShardPlacement(2)
        placement.add_worker()
        placement.add_worker()
        placement.assign(0, 0)  # fresh assignment: not a migration
        assert placement.migrations == 0
        placement.assign(0, 0)  # no-op
        assert placement.migrations == 0
        placement.assign(0, 1)  # cutover
        assert placement.migrations == 1

    def test_worker_must_be_drained_before_removal(self):
        placement = ShardPlacement(2)
        worker = placement.add_worker()
        placement.assign_round_robin()
        with pytest.raises(ValueError, match="still owns shards"):
            placement.remove_worker(worker)

    def test_unassigned_shard_rejected_on_lookup(self):
        placement = ShardPlacement(2)
        placement.add_worker()
        with pytest.raises(ValueError, match="not assigned"):
            placement.worker_of(1)
        with pytest.raises(ValueError, match="out of range"):
            placement.worker_of(7)

    def test_assign_validates_registration(self):
        placement = ShardPlacement(2)
        with pytest.raises(ValueError, match="not registered"):
            placement.assign(0, 3)

    def test_to_dict_is_a_consistent_view(self):
        placement = ShardPlacement(3)
        placement.add_worker()
        placement.add_worker()
        placement.assign_round_robin()
        placement.assign(2, 1)
        info = placement.to_dict()
        assert info == {
            "workers": 2,
            "worker_ids": [0, 1],
            "table": [0, 1, 1],
            "shards_by_worker": {0: [0], 1: [1, 2]},
            "migrations": 1,
        }

    @pytest.mark.parametrize("shards", [0, -3])
    def test_shard_count_must_be_positive(self, shards):
        with pytest.raises(ValueError, match="shards must be positive"):
            ShardPlacement(shards)

    @pytest.mark.parametrize("shard", [-1, 2])
    def test_assign_validates_the_shard_index(self, shard):
        placement = ShardPlacement(2)
        worker = placement.add_worker()
        with pytest.raises(ValueError, match="out of range"):
            placement.assign(shard, worker)

    def test_round_robin_needs_a_worker(self):
        with pytest.raises(ValueError, match="no workers"):
            ShardPlacement(3).assign_round_robin()

    def test_remove_unknown_worker_rejected(self):
        placement = ShardPlacement(2)
        placement.add_worker()
        with pytest.raises(ValueError, match="not registered"):
            placement.remove_worker(5)

    def test_round_robin_skips_removed_worker_ids(self):
        placement = ShardPlacement(4)
        for _ in range(3):
            placement.add_worker()
        placement.remove_worker(1)
        placement.assign_round_robin()
        assert placement.worker_ids == [0, 2]
        assert placement.table == [0, 2, 0, 2]
        assert placement.shards_of(1) == []

    def test_every_cutover_counts_as_a_migration(self):
        placement = ShardPlacement(2)
        placement.add_worker()
        placement.add_worker()
        placement.assign_round_robin()
        placement.assign(0, 1)
        placement.assign(0, 0)
        placement.assign(1, 0)
        assert placement.migrations == 3
        assert placement.table == [0, 0]

    def test_table_is_a_copy(self):
        placement = ShardPlacement(2)
        placement.add_worker()
        placement.assign_round_robin()
        placement.table[0] = 9
        assert placement.table == [0, 0]
        assert placement.worker_of(0) == 0

    @pytest.mark.parametrize("backend", ["serial", "process"])
    def test_service_reads_the_backends_table(self, backend):
        with _service(backend, shards=3) as service:
            assert service.placement is service.backend.placement
            assert service.placement.shards == 3
            assert service.placement_info()["table"] \
                == service.backend.placement.table


# --------------------------------------------------------------------- #
# Policy object
# --------------------------------------------------------------------- #
class TestAutoscalePolicy:
    def test_validation(self):
        with pytest.raises(ValueError, match="min_workers"):
            AutoscalePolicy(min_workers=0)
        with pytest.raises(ValueError, match="max_workers"):
            AutoscalePolicy(min_workers=3, max_workers=2)
        with pytest.raises(ValueError, match="target_load_per_worker"):
            AutoscalePolicy(target_load_per_worker=0)
        with pytest.raises(ValueError, match="check_every"):
            AutoscalePolicy(check_every=-1)
        with pytest.raises(ValueError, match="imbalance_ratio"):
            AutoscalePolicy(imbalance_ratio=0.5)

    def test_coerce_forms(self):
        assert AutoscalePolicy.coerce(None) is None
        assert AutoscalePolicy.coerce(False) is None
        assert AutoscalePolicy.coerce(True) == AutoscalePolicy()
        policy = AutoscalePolicy(max_workers=2)
        assert AutoscalePolicy.coerce(policy) is policy
        assert AutoscalePolicy.coerce({"max_workers": 2}) == policy
        with pytest.raises(ValueError, match="boolean or a policy"):
            AutoscalePolicy.coerce("yes")

    def test_from_dict_rejects_unknown_keys(self):
        with pytest.raises(ValueError, match="unknown autoscale policy"):
            AutoscalePolicy.from_dict({"worker_count": 3})

    def test_round_trips_through_dict(self):
        policy = AutoscalePolicy(min_workers=2, max_workers=6,
                                 target_load_per_worker=1000,
                                 check_every=64, imbalance_ratio=3.0)
        assert AutoscalePolicy.from_dict(policy.to_dict()) == policy

    def test_after_batch_accumulates_across_small_batches(self):
        class _Probe:
            shards = 1
            evaluated = 0

            def shard_loads(self):
                _Probe.evaluated += 1
                return [0]

            placement = ShardPlacement(1)

        _Probe.placement.add_worker()
        _Probe.placement.assign_round_robin()
        scaler = Autoscaler(AutoscalePolicy(check_every=100))
        backend = _Probe()
        for _ in range(4):
            scaler.after_batch(backend, 60)  # 240 elements = 2 checks
        assert scaler.evaluations == 2


# --------------------------------------------------------------------- #
# Live migration, bit-identical
# --------------------------------------------------------------------- #
class TestLiveMigration:
    @pytest.mark.parametrize("backend", PARALLEL_BACKENDS)
    def test_mid_run_migration_and_scaling_match_serial(self, backend):
        batches = [IDS[:3000], IDS[3000:6000], IDS[6000:]]
        ref_outputs, ref_samples, ref_memory, ref_loads = \
            _serial_reference(batches)
        with _service(backend, workers=2) as service:
            outputs = [service.on_receive_batch(batches[0])]
            # move a shard between the two original workers
            service.migrate_shard(0, 1)
            outputs.append(service.on_receive_batch(batches[1]))
            # grow the pool and move a shard onto the new worker
            new_worker = service.add_worker()
            service.migrate_shard(2, new_worker)
            assert service.placement.shards_of(new_worker) == [2]
            outputs.append(service.on_receive_batch(batches[2]))
            # retire a worker: its shards fold back onto the survivors
            service.remove_worker(1)
            assert 1 not in service.placement.worker_ids
            assert sorted(sum((service.placement.shards_of(worker)
                               for worker in service.placement.worker_ids),
                              [])) == [0, 1, 2, 3]
            for ours, expected in zip(outputs, ref_outputs):
                assert np.array_equal(ours, expected)
            assert service.sample_many(40, strict=False) == ref_samples
            assert service.merged_memory() == ref_memory
            assert service.shard_loads() == ref_loads
            assert service.placement.migrations >= 2

    @pytest.mark.parametrize("backend", PARALLEL_BACKENDS)
    def test_remove_worker_ignores_a_chunk_in_flight(self, backend):
        """Retiring a worker picks every target from the loads at entry.

        Its first migration drains the pipeline; the chunk collected then
        must not steer where its second shard goes, or a pipelined run
        would scale down differently from a synchronous one.
        """
        tables = []
        for pipelined in (True, False):
            with _service(backend, shards=6, workers=3) as service:
                by_shard = {shard: [] for shard in range(6)}
                for identifier in range(20_000):
                    by_shard[service.shard_of(identifier)].append(identifier)
                # workers own shards {0, 3}, {1, 4} and {2, 5}: worker 0
                # carries 100 and worker 1 150, so retiring worker 2 moves
                # shard 2 (100) to worker 0 and then shard 5 to worker 1 ...
                first = np.array(by_shard[0][:100] + by_shard[1][:150]
                                 + by_shard[2][:100] + by_shard[5][:10])
                # ... unless this chunk, still in flight, were counted
                second = np.array(by_shard[1][150:350])
                service.on_receive_batch(first)
                if pipelined:
                    handle = service.begin_batch(second)
                    service.remove_worker(2)
                    service.finish_batch(handle)
                else:
                    service.remove_worker(2)
                    service.on_receive_batch(second)
                tables.append(service.placement.table)
        assert tables[0] == tables[1] == [0, 1, 0, 0, 1, 1]

    @pytest.mark.parametrize("backend", PARALLEL_BACKENDS)
    def test_migrate_to_owner_is_a_noop(self, backend):
        with _service(backend, workers=2) as service:
            service.on_receive_batch(IDS[:1000])
            owner = service.placement.worker_of(0)
            service.migrate_shard(0, owner)
            assert service.placement.migrations == 0

    @pytest.mark.parametrize("backend", PARALLEL_BACKENDS)
    def test_migrate_to_unknown_worker_rejected(self, backend):
        with _service(backend, workers=2) as service:
            with pytest.raises(ValueError, match="not in the pool"):
                service.migrate_shard(0, 17)

    @pytest.mark.parametrize("backend", PARALLEL_BACKENDS)
    def test_last_worker_cannot_be_removed(self, backend):
        with _service(backend, workers=1) as service:
            with pytest.raises(BackendError, match="last worker"):
                service.remove_worker(service.placement.worker_ids[0])

    def test_serial_backend_cannot_scale(self):
        service = _service("serial")
        with pytest.raises(BackendError, match="cannot migrate"):
            service.migrate_shard(0, 1)
        with pytest.raises(BackendError, match="cannot add"):
            service.add_worker()
        service.close()

    @pytest.mark.parametrize("backend", PARALLEL_BACKENDS)
    @pytest.mark.parametrize("victim", [0, 1], ids=["source", "target"])
    def test_kill_nine_during_migration_recovers_bit_identical(self, backend,
                                                               victim):
        """kill -9 on either side of a move; supervisor recovery converges.

        The source dies before its migrate_out request.  The target dies
        before migrate_in, so from migrate_out until the target applies it
        the shard lives only in that in-flight request, which the recovery
        re-sends.
        """
        batches = [IDS[:4000], IDS[4000:]]
        ref_outputs, ref_samples, ref_memory, ref_loads = \
            _serial_reference(batches)
        with _service(backend, workers=2) as service:
            outputs = [service.on_receive_batch(batches[0])]
            process = service.backend._processes[victim]
            process.kill()
            process.join(timeout=5.0)
            assert not process.is_alive()
            service.migrate_shard(0, 1)
            assert service.backend.respawns == 1
            assert service.placement.worker_of(0) == 1
            outputs.append(service.on_receive_batch(batches[1]))
            for ours, expected in zip(outputs, ref_outputs):
                assert np.array_equal(ours, expected)
            assert service.sample_many(40, strict=False) == ref_samples
            assert service.merged_memory() == ref_memory
            assert service.shard_loads() == ref_loads

    @pytest.mark.parametrize("backend", PARALLEL_BACKENDS)
    def test_kill_nine_after_migration_replays_the_move(self, backend):
        """A post-migration crash must rebuild the *migrated* membership."""
        batches = [IDS[:4000], IDS[4000:]]
        ref_outputs, ref_samples, ref_memory, _ = _serial_reference(batches)
        with _service(backend, workers=2) as service:
            outputs = [service.on_receive_batch(batches[0])]
            service.migrate_shard(0, 1)
            # both sides of the move crash after it completed: replay must
            # rebuild worker 0 without shard 0 and worker 1 with it
            service.backend._processes[0].kill()
            service.backend._processes[1].kill()
            outputs.append(service.on_receive_batch(batches[1]))
            assert service.backend.respawns == 2
            for ours, expected in zip(outputs, ref_outputs):
                assert np.array_equal(ours, expected)
            assert service.sample_many(40, strict=False) == ref_samples
            assert service.merged_memory() == ref_memory


# --------------------------------------------------------------------- #
# Load-triggered autoscaling, bit-identical
# --------------------------------------------------------------------- #
AUTOSCALE = {"min_workers": 1, "max_workers": 3,
             "target_load_per_worker": 2_000, "check_every": 1_024}


class TestAutoscaling:
    @pytest.mark.parametrize("backend", PARALLEL_BACKENDS)
    def test_flash_crowd_scale_up_matches_serial(self, backend):
        batches = [IDS[start:start + 512]
                   for start in range(0, IDS.size, 512)]
        ref_outputs, ref_samples, ref_memory, ref_loads = \
            _serial_reference(batches)
        with _service(backend, workers=1, autoscale=AUTOSCALE) as service:
            assert service.placement.workers == 1
            grew_mid_run = False
            outputs = []
            for batch in batches:
                outputs.append(service.on_receive_batch(batch))
                if 1 < service.placement.workers < len(batches):
                    grew_mid_run = True
            stats = service.autoscaler.stats()
            assert grew_mid_run, "pool never grew while the stream ran"
            assert service.placement.workers == 3
            assert stats["scale_ups"] == 2
            assert stats["evaluations"] > 0
            for ours, expected in zip(outputs, ref_outputs):
                assert np.array_equal(ours, expected)
            assert service.sample_many(40, strict=False) == ref_samples
            assert service.merged_memory() == ref_memory
            assert service.shard_loads() == ref_loads

    @pytest.mark.parametrize("backend", PARALLEL_BACKENDS)
    def test_idle_pool_scales_back_down(self, backend):
        batches = [IDS[start:start + 512]
                   for start in range(0, IDS.size, 512)]
        quiet = [IDS[:512] for _ in range(4)]
        _, ref_samples, ref_memory, _ = _serial_reference(
            batches + quiet, reset_after=len(batches) - 1)
        with _service(backend, workers=1, autoscale=AUTOSCALE) as service:
            for batch in batches:
                service.on_receive_batch(batch)
            assert service.placement.workers == 3
            # the flash crowd passes: loads reset, the next evaluations
            # retire the extra workers
            service.reset()
            for batch in quiet:
                service.on_receive_batch(batch)
            stats = service.autoscaler.stats()
            assert service.placement.workers == 1
            assert stats["scale_downs"] == 2
            assert service.sample_many(40, strict=False) == ref_samples
            assert service.merged_memory() == ref_memory

    @pytest.mark.parametrize("batch_size, policy", [
        (1_500, AUTOSCALE),
        (512, {"min_workers": 1, "max_workers": 3,
               "target_load_per_worker": 2_666, "check_every": 1_200}),
    ], ids=["chunks-1500", "chunks-512"])
    def test_schedule_is_the_same_pipelined_or_not(self, monkeypatch,
                                                   batch_size, policy):
        """Every evaluation reads the same loads in every drive mode.

        A pipelined pool has the next chunk in flight when a batch is
        checked, and a migration drains it; neither may show up in the
        loads the policy reads.
        """
        schedule = []
        evaluate = Autoscaler.evaluate

        def recording(scaler, backend, loads):
            schedule.append((tuple(loads), backend.placement.workers))
            evaluate(scaler, backend, loads)

        monkeypatch.setattr(Autoscaler, "evaluate", recording)
        runs = {}
        for backend, pipeline in [("process", True), ("process", False),
                                  ("socket", False)]:
            schedule.clear()
            with _service(backend, workers=1, autoscale=policy) as service:
                busy = run_stream(service, IDS, batch_size=batch_size,
                                  pipeline=pipeline)
                # the crowd passes: loads reset, the pool scales back down
                service.reset()
                quiet = run_stream(service, IDS[:3 * batch_size],
                                   batch_size=batch_size, pipeline=pipeline)
                runs[backend, pipeline] = (
                    list(schedule), service.placement.table,
                    service.autoscaler.stats(), busy.outputs.tolist(),
                    quiet.outputs.tolist(), service.merged_memory())
        reference = runs["socket", False]
        assert max(workers for _, workers in reference[0]) == 3
        assert reference[2]["scale_downs"] > 0
        for mode, run in runs.items():
            assert run[0] == reference[0], mode
            assert run[1:] == reference[1:], mode

    def test_autoscale_is_inert_on_the_serial_backend(self):
        service = _service("serial", autoscale=AUTOSCALE)
        service.on_receive_batch(IDS)
        assert service.autoscaler is None
        assert service.placement.workers == 1
        service.close()

    @pytest.mark.parametrize("backend", PARALLEL_BACKENDS)
    def test_placement_info_reports_policy_and_stats(self, backend):
        with _service(backend, workers=1, autoscale=AUTOSCALE) as service:
            service.on_receive_batch(IDS[:4096])
            info = service.placement_info()
            assert info["backend"] == backend
            assert info["supports_scaling"] is True
            assert info["migrations_in_flight"] == 0
            assert info["autoscale"]["policy"]["max_workers"] == 3
            assert info["autoscale"]["evaluations"] > 0
            assert sorted(info["shards_by_worker"]) == info["worker_ids"]
            assert service.wait_placement_idle(timeout=1.0)


# --------------------------------------------------------------------- #
# Migration telemetry
# --------------------------------------------------------------------- #
class TestMigrationTelemetry:
    @pytest.mark.parametrize("backend", PARALLEL_BACKENDS)
    def test_migrations_are_counted_and_match_serial(self, backend):
        batches = [IDS[:4000], IDS[4000:6000], IDS[6000:]]
        ref_outputs, ref_samples, ref_memory, _ = _serial_reference(batches)
        with telemetry.enabled() as registry:
            with _service(backend, workers=2) as service:
                outputs = [service.on_receive_batch(batches[0])]
                service.migrate_shard(0, 1)
                # the second move must ship shard 2's state as of now, not
                # as of the first move
                outputs.append(service.on_receive_batch(batches[1]))
                service.migrate_shard(2, 1)
                outputs.append(service.on_receive_batch(batches[2]))
                for ours, expected in zip(outputs, ref_outputs):
                    assert np.array_equal(ours, expected)
                assert service.sample_many(40, strict=False) == ref_samples
                assert service.merged_memory() == ref_memory
            snapshot = registry.snapshot()
        counters = snapshot["counters"]
        assert counters[f"backend.{backend}.migrations"] == 2
        assert counters[f"backend.{backend}.migration_bytes"] > 0
        assert snapshot["histograms"][
            f"backend.{backend}.migration_seconds"]["count"] == 2
        assert snapshot["gauges"][f"backend.{backend}.shard_worker.0"] == 1
        assert snapshot["gauges"][f"backend.{backend}.shard_worker.2"] == 1


# --------------------------------------------------------------------- #
# The worker side of a migration
# --------------------------------------------------------------------- #
def _shard_map(shard_ids, seed=31):
    """A worker's ``{shard: service}`` map, as a fresh start builds it."""
    factory = KnowledgeFreeShardFactory(10, sketch_width=32, sketch_depth=4)
    rngs = spawn_children(seed, 4)
    return {shard: factory(shard, rngs[shard]) for shard in shard_ids}


class TestMigrationCommands:
    def test_migrate_out_ships_and_drops_only_the_moved_shard(self):
        source = _shard_map([0, 2])
        twin = _shard_map([0, 2])
        for services in (source, twin):
            serve_shard_command(services, "batch",
                                {0: IDS[:500], 2: IDS[500:1000]})
        blob = serve_shard_command(source, "migrate_out", 0)
        assert isinstance(blob, bytes)
        assert sorted(source) == [2]
        assert blob == pickle.dumps(twin[0], protocol=pickle.HIGHEST_PROTOCOL)

    def test_migrate_in_installs_the_shipped_state(self):
        source = _shard_map([0, 2])
        target = _shard_map([1, 3])
        twin = _shard_map([0, 1, 2, 3])
        first = {0: IDS[:400], 1: IDS[400:800], 2: IDS[800:1200]}
        serve_shard_command(source, "batch",
                            {0: first[0], 2: first[2]})
        serve_shard_command(target, "batch", {1: first[1]})
        serve_shard_command(twin, "batch", first)
        blob = serve_shard_command(source, "migrate_out", 0)
        assert serve_shard_command(target, "migrate_in", {0: blob}) is None
        assert sorted(target) == [0, 1, 3]
        later = {0: IDS[1200:2000], 1: IDS[2000:2400]}
        moved = serve_shard_command(target, "batch", later)
        expected = serve_shard_command(twin, "batch", later)
        for shard in later:
            assert np.array_equal(moved[shard], expected[shard])
        assert serve_shard_command(target, "memory", None)[0] \
            == serve_shard_command(twin, "memory", None)[0]
        assert target[0].elements_processed == 1200

    def test_unknown_command_rejected(self):
        with pytest.raises(ValueError, match="unknown worker command"):
            serve_shard_command(_shard_map([0]), "teleport", None)


class TestMigrationPayload:
    @pytest.mark.parametrize("backend", PARALLEL_BACKENDS)
    def test_migration_bytes_are_the_moved_shards_pickles(self, backend):
        with telemetry.enabled() as registry:
            with _service(backend, workers=2) as service:
                service.on_receive_batch(IDS[:4000])
                states = pickle.loads(service.backend.snapshot_shards())
                expected = sum(
                    len(pickle.dumps(states[shard],
                                     protocol=pickle.HIGHEST_PROTOCOL))
                    for shard in (0, 2))
                service.migrate_shard(0, 1)
                service.migrate_shard(2, 1)
            counters = registry.snapshot()["counters"]
        assert counters[f"backend.{backend}.migration_bytes"] == expected

    @pytest.mark.parametrize("target", ["serial", "process", "socket"])
    def test_snapshot_after_migration_restores_on_every_backend(self,
                                                                target):
        batches = [IDS[:4000], IDS[4000:]]
        _, ref_samples, ref_memory, ref_loads = _serial_reference(batches)
        with _service("process", workers=2) as service:
            service.on_receive_batch(batches[0])
            service.migrate_shard(0, 1)
            blob = service.snapshot()
        kwargs = {} if target == "serial" else {"workers": 2}
        with ShardedSamplingService.restore(blob, backend=target,
                                            **kwargs) as restored:
            restored.on_receive_batch(batches[1])
            assert restored.sample_many(40, strict=False) == ref_samples
            assert restored.merged_memory() == ref_memory
            assert restored.shard_loads() == ref_loads
