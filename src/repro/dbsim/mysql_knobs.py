"""The MySQL-compatible CDB knob catalog: 266 tunable knobs (§5.2).

The paper tunes "266 tunable knobs (the maximum number of knobs that the DBA
uses to tune for CDB)".  This catalog mirrors that setup:

* ~50 *major* knobs with performance semantics the simulator models
  explicitly (buffer pool, redo log, flush policy, I/O threads,
  concurrency, per-session buffers);
* the long tail of real MySQL 5.6/5.7 system variables, whose individual
  effect on the simulated engine is small but nonzero (which is what makes
  Figure 8 saturate rather than plateau immediately);
* a handful of ``tunable=False`` blacklist entries (path-like or dangerous
  knobs the paper excludes per the DBA's demand).

Byte-valued constants below are plain integers to keep defaults exact.
"""

from __future__ import annotations

import functools

from .knobs import KnobRegistry, KnobSpec, KnobType

__all__ = ["mysql_registry", "MAJOR_KNOBS", "MYSQL_KNOB_COUNT"]

KIB = 1024
MIB = 1024 * KIB
GIB = 1024 * MIB

MYSQL_KNOB_COUNT = 266


def _i(name: str, lo: float, hi: float, default: float, scale: str = "linear",
       unit: str = "", desc: str = "") -> KnobSpec:
    return KnobSpec(name, KnobType.INTEGER, lo, hi, default, unit=unit,
                    scale=scale, description=desc)


def _f(name: str, lo: float, hi: float, default: float, scale: str = "linear",
       unit: str = "", desc: str = "") -> KnobSpec:
    return KnobSpec(name, KnobType.FLOAT, lo, hi, default, unit=unit,
                    scale=scale, description=desc)


def _b(name: str, default: bool, desc: str = "") -> KnobSpec:
    return KnobSpec(name, KnobType.BOOLEAN, default=float(default),
                    description=desc)


def _e(name: str, choices, default_index: int, desc: str = "") -> KnobSpec:
    return KnobSpec(name, KnobType.ENUM, default=float(default_index),
                    choices=tuple(str(c) for c in choices), description=desc)


# ---------------------------------------------------------------------------
# Major knobs: explicitly modeled by the simulated engine.
# ---------------------------------------------------------------------------
_MAJOR_SPECS = [
    _i("innodb_buffer_pool_size", 32 * MIB, 256 * GIB, 128 * MIB, scale="log",
       unit="bytes", desc="InnoDB page cache; dominant knob for I/O-bound loads"),
    _i("innodb_buffer_pool_instances", 1, 64, 8,
       desc="buffer pool partitions; reduces mutex contention"),
    _i("innodb_log_file_size", 4 * MIB, 16 * GIB, 48 * MIB, scale="log",
       unit="bytes", desc="redo log segment size; small values force checkpoints"),
    _i("innodb_log_files_in_group", 2, 100, 2,
       desc="redo log segment count; product with size bounded by disk"),
    _i("innodb_log_buffer_size", 256 * KIB, 512 * MIB, 8 * MIB, scale="log",
       unit="bytes", desc="redo log staging buffer; small values cause log waits"),
    _e("innodb_flush_log_at_trx_commit", (0, 1, 2), 1,
       desc="durability/performance trade-off for redo flushing"),
    _i("sync_binlog", 0, 1000, 0,
       desc="binlog fsync cadence; 1 = every commit"),
    _e("innodb_flush_method", ("fdatasync", "O_DSYNC", "O_DIRECT"), 0,
       desc="how data files are flushed; O_DIRECT avoids double buffering"),
    _i("innodb_read_io_threads", 1, 64, 4,
       desc="background read threads"),
    _i("innodb_write_io_threads", 1, 64, 4,
       desc="background write threads"),
    _i("innodb_purge_threads", 1, 32, 1,
       desc="undo purge threads; matters for write-heavy loads"),
    _i("innodb_io_capacity", 100, 20000, 200, scale="log",
       desc="assumed disk IOPS budget for background flushing"),
    _i("innodb_io_capacity_max", 100, 40000, 2000, scale="log",
       desc="flushing IOPS ceiling under pressure"),
    _i("innodb_thread_concurrency", 0, 1000, 0,
       desc="InnoDB ticket limit; 0 = unlimited (contention at high load)"),
    _i("innodb_lru_scan_depth", 100, 10000, 1024, scale="log",
       desc="page-cleaner LRU scan distance"),
    _f("innodb_max_dirty_pages_pct", 0, 99, 75,
       desc="dirty-page high-water mark"),
    _b("innodb_adaptive_hash_index", True,
       desc="AHI accelerates point lookups, hurts some write loads"),
    _e("innodb_change_buffering",
       ("none", "inserts", "deletes", "changes", "purges", "all"), 5,
       desc="secondary-index change buffering"),
    _b("innodb_doublewrite", True,
       desc="torn-page protection; costs write bandwidth"),
    _e("innodb_flush_neighbors", (0, 1, 2), 1,
       desc="flush adjacent dirty pages (HDD optimization)"),
    _i("innodb_spin_wait_delay", 0, 60, 6,
       desc="spin-loop pause between mutex polls"),
    _i("innodb_sync_spin_loops", 0, 1000, 30,
       desc="spins before a waiting thread sleeps"),
    _i("max_connections", 10, 100000, 151, scale="log",
       desc="client connection limit"),
    _i("thread_cache_size", 0, 16384, 9,
       desc="cached service threads; misses create threads"),
    _i("table_open_cache", 1, 524288, 2000, scale="log",
       desc="open table descriptors"),
    _i("table_open_cache_instances", 1, 64, 1,
       desc="table cache partitions"),
    _i("tmp_table_size", 1 * KIB, 2 * GIB, 16 * MIB, scale="log", unit="bytes",
       desc="in-memory temp table limit; spills to disk beyond"),
    _i("max_heap_table_size", 16 * KIB, 2 * GIB, 16 * MIB, scale="log",
       unit="bytes", desc="MEMORY engine table limit"),
    _i("sort_buffer_size", 32 * KIB, 256 * MIB, 256 * KIB, scale="log",
       unit="bytes", desc="per-session sort area"),
    _i("join_buffer_size", 128, 1 * GIB, 256 * KIB, scale="log", unit="bytes",
       desc="per-session join area for unindexed joins"),
    _i("read_buffer_size", 8 * KIB, 128 * MIB, 128 * KIB, scale="log",
       unit="bytes", desc="sequential scan buffer"),
    _i("read_rnd_buffer_size", 1 * KIB, 128 * MIB, 256 * KIB, scale="log",
       unit="bytes", desc="random-read buffer after sorts"),
    _i("query_cache_size", 0, 256 * MIB, 1 * MIB, unit="bytes",
       desc="query result cache; contended under writes"),
    _e("query_cache_type", ("OFF", "ON", "DEMAND"), 0,
       desc="query cache mode"),
    _i("binlog_cache_size", 4 * KIB, 64 * MIB, 32 * KIB, scale="log",
       unit="bytes", desc="per-session binlog staging"),
    _i("back_log", 1, 65535, 80, scale="log",
       desc="pending connection queue"),
    _i("innodb_open_files", 10, 65536, 2000, scale="log",
       desc="InnoDB file descriptor budget"),
    _i("innodb_sync_array_size", 1, 1024, 1,
       desc="sync wait array partitions"),
    _i("innodb_concurrency_tickets", 1, 100000, 5000, scale="log",
       desc="rows a thread may touch before re-queueing"),
    _i("innodb_old_blocks_pct", 5, 95, 37,
       desc="LRU midpoint position"),
    _i("innodb_old_blocks_time", 0, 10000, 1000, unit="ms",
       desc="time before a young page can move to the new sublist"),
    _i("innodb_read_ahead_threshold", 0, 64, 56,
       desc="linear read-ahead trigger"),
    _b("innodb_random_read_ahead", False,
       desc="random read-ahead heuristic"),
    _b("innodb_adaptive_flushing", True,
       desc="redo-rate-aware flushing"),
    _i("innodb_adaptive_flushing_lwm", 0, 70, 10,
       desc="redo low-water mark enabling adaptive flushing"),
    _i("innodb_flushing_avg_loops", 1, 1000, 30,
       desc="flush-rate smoothing window"),
    _i("innodb_purge_batch_size", 1, 5000, 300,
       desc="undo log pages purged per batch"),
    _e("innodb_autoinc_lock_mode", (0, 1, 2), 1,
       desc="auto-increment locking strategy"),
    _i("key_buffer_size", 8, 4 * GIB, 8 * MIB, scale="log", unit="bytes",
       desc="MyISAM index cache (metadata tables)"),
]

MAJOR_KNOBS = tuple(spec.name for spec in _MAJOR_SPECS)

# ---------------------------------------------------------------------------
# Minor knobs: the realistic long tail.  (name, lo, hi, default[, scale])
# for integers; booleans and enums are listed separately.
# ---------------------------------------------------------------------------
_MINOR_INT = [
    ("binlog_stmt_cache_size", 4 * KIB, 64 * MIB, 32 * KIB, "log"),
    ("bulk_insert_buffer_size", 0, 1 * GIB, 8 * MIB, "linear"),
    ("connect_timeout", 2, 3600, 10, "log"),
    ("default_week_format", 0, 7, 0, "linear"),
    ("delay_key_write_threshold", 0, 100, 0, "linear"),
    ("delayed_insert_limit", 1, 100000, 100, "log"),
    ("delayed_insert_timeout", 1, 3600, 300, "log"),
    ("delayed_queue_size", 1, 100000, 1000, "log"),
    ("div_precision_increment", 0, 30, 4, "linear"),
    ("eq_range_index_dive_limit", 0, 4294967295, 10, "linear"),
    ("expire_logs_days", 0, 99, 0, "linear"),
    ("flush_time", 0, 3600, 0, "linear"),
    ("ft_max_word_len", 10, 84, 84, "linear"),
    ("ft_min_word_len", 1, 16, 4, "linear"),
    ("ft_query_expansion_limit", 0, 1000, 20, "linear"),
    ("group_concat_max_len", 4, 16 * MIB, 1024, "log"),
    ("host_cache_size", 0, 65536, 128, "linear"),
    ("innodb_api_bk_commit_interval", 1, 1073741824, 5, "log"),
    ("innodb_api_trx_level", 0, 3, 0, "linear"),
    ("innodb_autoextend_increment", 1, 1000, 64, "linear"),
    ("innodb_buffer_pool_dump_pct", 1, 100, 25, "linear"),
    ("innodb_change_buffer_max_size", 0, 50, 25, "linear"),
    ("innodb_commit_concurrency", 0, 1000, 0, "linear"),
    ("innodb_compression_failure_threshold_pct", 0, 100, 5, "linear"),
    ("innodb_compression_level", 0, 9, 6, "linear"),
    ("innodb_compression_pad_pct_max", 0, 75, 50, "linear"),
    ("innodb_fill_factor", 10, 100, 100, "linear"),
    ("innodb_flush_log_at_timeout", 1, 2700, 1, "log"),
    ("innodb_ft_cache_size", 1600000, 80000000, 8000000, "log"),
    ("innodb_ft_max_token_size", 10, 84, 84, "linear"),
    ("innodb_ft_min_token_size", 0, 16, 3, "linear"),
    ("innodb_ft_num_word_optimize", 1000, 10000, 2000, "linear"),
    ("innodb_ft_result_cache_limit", 1000000, 4294967295, 2000000000, "log"),
    ("innodb_ft_sort_pll_degree", 1, 16, 2, "linear"),
    ("innodb_ft_total_cache_size", 32000000, 1600000000, 640000000, "log"),
    ("innodb_lock_wait_timeout", 1, 1073741824, 50, "log"),
    ("innodb_max_purge_lag", 0, 4294967295, 0, "linear"),
    ("innodb_max_purge_lag_delay", 0, 10000000, 0, "linear"),
    ("innodb_online_alter_log_max_size", 65536, 2 * GIB, 128 * MIB, "log"),
    ("innodb_optimize_fulltext_only", 0, 1, 0, "linear"),
    ("innodb_page_cleaners", 1, 64, 1, "linear"),
    ("innodb_replication_delay", 0, 10000, 0, "linear"),
    ("innodb_rollback_segments", 1, 128, 128, "linear"),
    ("innodb_sort_buffer_size", 64 * KIB, 64 * MIB, 1 * MIB, "log"),
    ("innodb_stats_persistent_sample_pages", 1, 10000, 20, "log"),
    ("innodb_stats_transient_sample_pages", 1, 1000, 8, "log"),
    ("innodb_table_locks", 0, 1, 1, "linear"),
    ("innodb_thread_sleep_delay", 0, 1000000, 10000, "linear"),
    ("interactive_timeout", 1, 31536000, 28800, "log"),
    ("join_cache_level", 0, 8, 2, "linear"),
    ("key_cache_age_threshold", 100, 4294967295, 300, "log"),
    ("key_cache_block_size", 512, 16 * KIB, 1024, "log"),
    ("key_cache_division_limit", 1, 100, 100, "linear"),
    ("lock_wait_timeout", 1, 31536000, 31536000, "log"),
    ("long_query_time", 0, 3600, 10, "linear"),
    ("lru_cache_size", 0, 1 * GIB, 0, "linear"),
    ("max_allowed_packet", 1024, 1 * GIB, 4 * MIB, "log"),
    ("max_binlog_cache_size", 4096, 4 * GIB, 2 * GIB, "log"),
    ("max_binlog_size", 4096, 1 * GIB, 1 * GIB, "log"),
    ("max_binlog_stmt_cache_size", 4096, 4 * GIB, 2 * GIB, "log"),
    ("max_connect_errors", 1, 4294967295, 100, "log"),
    ("max_delayed_threads", 0, 16384, 20, "linear"),
    ("max_digest_length", 0, 1048576, 1024, "linear"),
    ("max_error_count", 0, 65535, 64, "linear"),
    ("max_insert_delayed_threads", 0, 16384, 20, "linear"),
    ("max_join_size", 1, 18446744073709551615, 18446744073709551615, "log"),
    ("max_length_for_sort_data", 4, 8388608, 1024, "log"),
    ("max_prepared_stmt_count", 0, 1048576, 16382, "linear"),
    ("max_seeks_for_key", 1, 4294967295, 4294967295, "log"),
    ("max_sort_length", 4, 8388608, 1024, "log"),
    ("max_sp_recursion_depth", 0, 255, 0, "linear"),
    ("max_tmp_tables", 1, 4294967295, 32, "log"),
    ("max_user_connections", 0, 4294967295, 0, "linear"),
    ("max_write_lock_count", 1, 4294967295, 4294967295, "log"),
    ("metadata_locks_cache_size", 1, 1048576, 1024, "log"),
    ("metadata_locks_hash_instances", 1, 1024, 8, "linear"),
    ("min_examined_row_limit", 0, 4294967295, 0, "linear"),
    ("multi_range_count", 1, 4294967295, 256, "log"),
    ("net_buffer_length", 1024, 1048576, 16384, "log"),
    ("net_read_timeout", 1, 3600, 30, "log"),
    ("net_retry_count", 1, 4294967295, 10, "log"),
    ("net_write_timeout", 1, 3600, 60, "log"),
    ("open_files_limit", 0, 1048576, 5000, "linear"),
    ("optimizer_prune_level", 0, 1, 1, "linear"),
    ("optimizer_search_depth", 0, 62, 62, "linear"),
    ("preload_buffer_size", 1024, 1 * GIB, 32768, "log"),
    ("query_alloc_block_size", 1024, 4294967295, 8192, "log"),
    ("query_cache_limit", 0, 4294967295, 1048576, "linear"),
    ("query_cache_min_res_unit", 512, 4294967295, 4096, "log"),
    ("query_prealloc_size", 8192, 4294967295, 8192, "log"),
    ("range_alloc_block_size", 4096, 4294967295, 4096, "log"),
    ("slave_net_timeout", 1, 31536000, 3600, "log"),
    ("slave_parallel_workers", 0, 1024, 0, "linear"),
    ("slave_transaction_retries", 0, 4294967295, 10, "linear"),
    ("slow_launch_time", 0, 3600, 2, "linear"),
    ("stored_program_cache", 16, 524288, 256, "log"),
    ("sync_frm", 0, 1, 1, "linear"),
    ("table_definition_cache", 400, 524288, 1400, "log"),
    ("thread_pool_idle_timeout", 1, 3600, 60, "log"),
    ("thread_pool_max_threads", 1, 65536, 65536, "log"),
    ("thread_pool_oversubscribe", 1, 1000, 3, "linear"),
    ("thread_pool_size", 1, 64, 16, "linear"),
    ("thread_pool_stall_limit", 4, 600, 500, "linear"),
    ("thread_stack", 128 * KIB, 16 * MIB, 256 * KIB, "log"),
    ("transaction_alloc_block_size", 1024, 131072, 8192, "log"),
    ("transaction_prealloc_size", 1024, 131072, 4096, "log"),
    ("wait_timeout", 1, 31536000, 28800, "log"),
    ("binlog_group_commit_sync_delay", 0, 1000000, 0, "linear"),
    ("binlog_group_commit_sync_no_delay_count", 0, 100000, 0, "linear"),
    ("binlog_max_flush_queue_time", 0, 100000, 0, "linear"),
    ("binlog_order_commits", 0, 1, 1, "linear"),
    ("innodb_adaptive_max_sleep_delay", 0, 1000000, 150000, "linear"),
    ("innodb_buffer_pool_chunk_size", 1 * MIB, 1 * GIB, 128 * MIB, "log"),
    ("innodb_disable_sort_file_cache", 0, 1, 0, "linear"),
    ("innodb_flush_sync", 0, 1, 1, "linear"),
    ("innodb_log_write_ahead_size", 512, 16 * KIB, 8192, "log"),
    ("innodb_max_dirty_pages_pct_lwm", 0, 99, 0, "linear"),
    ("innodb_max_undo_log_size", 10 * MIB, 16 * GIB, 1 * GIB, "log"),
    ("innodb_purge_rseg_truncate_frequency", 1, 128, 128, "linear"),
    ("innodb_stats_auto_recalc", 0, 1, 1, "linear"),
    ("innodb_sync_debug", 0, 1, 0, "linear"),
    ("ngram_token_size", 1, 10, 2, "linear"),
    ("range_optimizer_max_mem_size", 0, 4294967295, 8388608, "linear"),
    ("updatable_views_with_limit", 0, 1, 1, "linear"),
]

_MINOR_BOOL = [
    ("automatic_sp_privileges", True),
    ("autocommit", True),
    ("big_tables", False),
    ("binlog_direct_non_transactional_updates", False),
    ("binlog_rows_query_log_events", False),
    ("core_file", False),
    ("end_markers_in_json", False),
    ("explicit_defaults_for_timestamp", False),
    ("flush", False),
    ("foreign_key_checks", True),
    ("general_log", False),
    ("innodb_buffer_pool_dump_at_shutdown", False),
    ("innodb_buffer_pool_dump_now", False),
    ("innodb_buffer_pool_load_at_startup", False),
    ("innodb_checksums", True),
    ("innodb_cmp_per_index_enabled", False),
    ("innodb_file_format_check", True),
    ("innodb_file_per_table", True),
    ("innodb_force_load_corrupted", False),
    ("innodb_ft_enable_diag_print", False),
    ("innodb_ft_enable_stopword", True),
    ("innodb_large_prefix", False),
    ("innodb_locks_unsafe_for_binlog", False),
    ("innodb_log_checksums", True),
    ("innodb_log_compressed_pages", True),
    ("innodb_print_all_deadlocks", False),
    ("innodb_rollback_on_timeout", False),
    ("innodb_stats_include_delete_marked", False),
    ("innodb_stats_on_metadata", False),
    ("innodb_stats_persistent", True),
    ("innodb_status_output", False),
    ("innodb_status_output_locks", False),
    ("innodb_strict_mode", False),
    ("innodb_support_xa", True),
    ("innodb_use_native_aio", True),
    ("keep_files_on_create", False),
    ("local_infile", True),
    ("log_bin_trust_function_creators", False),
    ("log_queries_not_using_indexes", False),
    ("log_slave_updates", False),
    ("log_slow_admin_statements", False),
    ("log_slow_slave_statements", False),
    ("log_throttle_queries_not_using_indexes", False),
    ("low_priority_updates", False),
    ("master_verify_checksum", False),
    ("mysql_native_password_proxy_users", False),
    ("offline_mode", False),
    ("old_alter_table", False),
    ("old_passwords", False),
    ("query_cache_wlock_invalidate", False),
    ("read_only", False),
    ("relay_log_purge", True),
    ("relay_log_recovery", False),
    ("show_compatibility_56", False),
    ("show_old_temporals", False),
    ("skip_external_locking", True),
    ("skip_name_resolve", False),
    ("skip_networking", False),
    ("skip_show_database", False),
    ("slave_allow_batching", False),
    ("slave_compressed_protocol", False),
    ("slave_preserve_commit_order", False),
    ("slave_sql_verify_checksum", True),
    ("slow_query_log", False),
    ("sql_auto_is_null", False),
    ("sql_big_selects", True),
    ("sql_buffer_result", False),
    ("sql_log_off", False),
    ("sql_notes", True),
    ("sql_quote_show_create", True),
    ("sql_safe_updates", False),
    ("sql_warnings", False),
    ("transaction_read_only", False),
    ("unique_checks", True),
]

_MINOR_ENUM = [
    ("binlog_format", ("STATEMENT", "ROW", "MIXED"), 0),
    ("binlog_row_image", ("full", "minimal", "noblob"), 0),
    ("binlog_checksum", ("NONE", "CRC32"), 1),
    ("concurrent_insert", ("NEVER", "AUTO", "ALWAYS"), 1),
    ("delay_key_write", ("OFF", "ON", "ALL"), 1),
    ("enforce_gtid_consistency", ("OFF", "ON", "WARN"), 0),
    ("event_scheduler", ("OFF", "ON", "DISABLED"), 0),
    ("gtid_mode", ("OFF", "OFF_PERMISSIVE", "ON_PERMISSIVE", "ON"), 0),
    ("innodb_checksum_algorithm",
     ("innodb", "crc32", "none", "strict_innodb", "strict_crc32"), 0),
    ("innodb_default_row_format", ("REDUNDANT", "COMPACT", "DYNAMIC"), 2),
    ("innodb_stats_method",
     ("nulls_equal", "nulls_unequal", "nulls_ignored"), 0),
    ("master_info_repository", ("FILE", "TABLE"), 0),
    ("relay_log_info_repository", ("FILE", "TABLE"), 0),
    ("session_track_transaction_info", ("OFF", "STATE", "CHARACTERISTICS"), 0),
    ("slave_exec_mode", ("STRICT", "IDEMPOTENT"), 0),
    ("slave_rows_search_algorithms_ordinal",
     ("TABLE_SCAN", "INDEX_SCAN", "HASH_SCAN"), 1),
    ("transaction_isolation",
     ("READ-UNCOMMITTED", "READ-COMMITTED", "REPEATABLE-READ", "SERIALIZABLE"), 2),
    ("tx_isolation_binlog",
     ("READ-UNCOMMITTED", "READ-COMMITTED", "REPEATABLE-READ", "SERIALIZABLE"), 2),
    ("completion_type", ("NO_CHAIN", "CHAIN", "RELEASE"), 0),
]

# Blacklisted knobs (paper §5.2): kept in the catalog but never tuned.
_BLACKLIST_SPECS = [
    KnobSpec("innodb_page_size", KnobType.ENUM, choices=("4096", "8192", "16384"),
             default=2, tunable=False,
             description="page size is immutable after initialization"),
    KnobSpec("lower_case_table_names", KnobType.INTEGER, 0, 2, 0, tunable=False,
             description="changing it corrupts identifier lookup"),
    KnobSpec("innodb_data_file_path_segments", KnobType.INTEGER, 1, 8, 1,
             tunable=False,
             description="stand-in for path-valued knobs excluded by the DBA"),
    KnobSpec("innodb_undo_tablespaces", KnobType.INTEGER, 0, 95, 0, tunable=False,
             description="only settable at initialization"),
]


def _build_specs() -> list[KnobSpec]:
    specs = list(_MAJOR_SPECS)
    specs.extend(
        _i(name, lo, hi, default, scale=scale)
        for name, lo, hi, default, scale in _MINOR_INT
    )
    specs.extend(_b(name, default) for name, default in _MINOR_BOOL)
    specs.extend(_e(name, choices, idx) for name, choices, idx in _MINOR_ENUM)
    specs.extend(_BLACKLIST_SPECS)
    return specs


@functools.lru_cache(maxsize=None)
def mysql_registry() -> KnobRegistry:
    """The full CDB/MySQL catalog: exactly 266 tunable knobs plus blacklist.

    Built once per process and shared: ``KnobRegistry`` has no mutators,
    and every tuner and simulated database reads the same catalog.
    """
    registry = KnobRegistry(_build_specs())
    if registry.n_tunable != MYSQL_KNOB_COUNT:
        raise AssertionError(
            f"MySQL catalog drifted: {registry.n_tunable} tunable knobs, "
            f"expected {MYSQL_KNOB_COUNT}"
        )
    return registry
