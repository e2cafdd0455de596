"""RL004 clean cases: plain-data payloads only."""


def dispatch_rows(pool, rows, threshold):
    return pool.run([{"rows": rows, "threshold": threshold}])


def dispatch_path(conn, path):
    conn.send({"path": str(path), "mmap": True})


def build_task(shard, args):
    return shard._tasks("query", [args])
