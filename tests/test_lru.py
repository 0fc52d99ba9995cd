"""The shared bounded LRU: eviction, disabling, counters, thread safety."""

import sys
import threading

from repro.lru import BoundedLRU
from repro.obs import disable_metrics, enable_metrics, scoped_registry


def test_evicts_least_recently_used_and_reports_info():
    cache = BoundedLRU("t", max_entries=2)
    assert cache.info()["hit_rate"] is None
    cache.put("a", 1)
    cache.put("b", 2)
    assert cache.get("a") == 1  # refresh a
    cache.put("c", 3)  # evicts b
    assert cache.get("b") is None
    assert cache.info() == {"hits": 1, "misses": 1, "size": 2, "max": 2, "hit_rate": 0.5}
    cache.clear(reset_counters=False)
    assert cache.info()["size"] == 0 and cache.info()["hits"] == 1
    cache.clear()
    assert cache.info() == {"hits": 0, "misses": 0, "size": 0, "max": 2, "hit_rate": None}


def test_zero_entries_disables_without_counting():
    cache = BoundedLRU("off", max_entries=0)
    cache.put("a", 1)
    assert cache.get("a") is None
    assert cache.info() == {"hits": 0, "misses": 0, "size": 0, "max": 0, "hit_rate": None}


def test_lookups_counted_in_one_labelled_family():
    cache = BoundedLRU("plan", max_entries=4)
    enable_metrics()
    try:
        with scoped_registry() as registry:
            cache.get("k")
            cache.put("k", 1)
            cache.get("k")
            counters = registry.snapshot()["counters"]
    finally:
        disable_metrics()
    counts = {
        c["labels"]["result"]: c["value"]
        for c in counters
        if c["name"] == "cache.lookups_total" and c["labels"]["cache"] == "plan"
    }
    assert counts == {"hit": 1.0, "miss": 1.0}


def test_concurrent_probes_lose_no_count_and_respect_the_bound():
    cache = BoundedLRU("stress", max_entries=8)
    threads, rounds = 8, 2000
    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)

    def worker(offset):
        for i in range(rounds):
            key = (offset + i) % 16
            if cache.get(key) is None:
                cache.put(key, key)

    try:
        pool = [threading.Thread(target=worker, args=(n,)) for n in range(threads)]
        for thread in pool:
            thread.start()
        for thread in pool:
            thread.join(timeout=30.0)
        assert not any(thread.is_alive() for thread in pool)
    finally:
        sys.setswitchinterval(switch)
    info = cache.info()
    assert info["hits"] + info["misses"] == threads * rounds
    assert info["size"] <= 8
