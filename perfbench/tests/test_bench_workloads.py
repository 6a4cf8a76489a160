import json

import workloads


def _dump(workload, seed, count):
    return json.dumps([cfg for cfg, _ in workloads.configs(workload, seed, count)], sort_keys=True).encode()


def test_same_seed_gives_byte_identical_configs():
    for w in workloads.WORKLOADS:
        assert _dump(w, 7, 40) == _dump(w, 7, 40)


def test_different_seeds_give_different_configs():
    for w in workloads.WORKLOADS:
        first = [cfg for cfg, _ in workloads.configs(w, 1, 30)]
        second = [cfg for cfg, _ in workloads.configs(w, 2, 30)]
        assert all(a != b for a, b in zip(first, second))


def test_no_config_repeats_within_a_stream():
    for w in workloads.WORKLOADS:
        keys = [json.dumps(cfg, sort_keys=True) for cfg, _ in workloads.configs(w, 0, 60 * len(workloads.SLOTS[w]))]
        assert len(set(keys)) == len(keys)


def test_every_round_has_the_same_cost_shape():
    def shape(cfg):
        keep = ("command", "L", "L_P", "L_Q", "D", "map")
        return {k: cfg[k] for k in keep if k in cfg}, len(cfg.get("F", [])), len(cfg.get("phi", []))

    for w in workloads.WORKLOADS:
        stream = workloads.stream(w, 3)
        first = [shape(cfg) for cfg, _ in next(stream)]
        for _ in range(5):
            assert [shape(cfg) for cfg, _ in next(stream)] == first
