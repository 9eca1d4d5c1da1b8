"""Key-value stores: memcached and MICA over any RPC stack.

Both stores are *functional* (they really store and return bytes) with a
calibrated per-operation cost model attached, so correctness and timing are
exercised by the same requests.
"""

from repro import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "hashtable": ("ChainedHashTable",),
    "memcached": ("MemcachedServer", "MEMCACHED_COSTS"),
    "mica": ("MicaServer", "MicaPartition", "MICA_COSTS"),
    "client": ("KvsClient", "KvsWorkloadResult", "kvs_idl",
               "run_kvs_workload"),
})
