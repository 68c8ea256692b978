(* Every kernel counter, declared once.  The id indexes each dcache's
   table ({!Stats.Counter.create}); the name is the counter's key in
   [Kernel.stats_snapshot] and its line in /proc/dcache/stats.  The
   declarations run at module initialisation, before any table exists. *)

let declare = Stats.Counter.declare

(* Syscall entries, one per syscall. *)
let sys_stat = declare "sys_stat"
let sys_lstat = declare "sys_lstat"
let sys_fstatat = declare "sys_fstatat"
let sys_fstat = declare "sys_fstat"
let sys_access = declare "sys_access"
let sys_faccessat = declare "sys_faccessat"
let sys_readlink = declare "sys_readlink"
let sys_readlinkat = declare "sys_readlinkat"
let sys_open = declare "sys_open"
let sys_openat = declare "sys_openat"
let sys_close = declare "sys_close"
let sys_read = declare "sys_read"
let sys_pread = declare "sys_pread"
let sys_write = declare "sys_write"
let sys_pwrite = declare "sys_pwrite"
let sys_getdents = declare "sys_getdents"
let sys_readdir_fill = declare "sys_readdir_fill"
let sys_lseek = declare "sys_lseek"
let sys_truncate = declare "sys_truncate"
let sys_mkdir = declare "sys_mkdir"
let sys_mkdirat = declare "sys_mkdirat"
let sys_unlink = declare "sys_unlink"
let sys_unlinkat = declare "sys_unlinkat"
let sys_rmdir = declare "sys_rmdir"
let sys_rename = declare "sys_rename"
let sys_link = declare "sys_link"
let sys_symlink = declare "sys_symlink"
let sys_symlinkat = declare "sys_symlinkat"
let sys_mkstemp = declare "sys_mkstemp"
let sys_chmod = declare "sys_chmod"
let sys_chown = declare "sys_chown"
let sys_set_label = declare "sys_set_label"
let sys_chdir = declare "sys_chdir"
let sys_fchdir = declare "sys_fchdir"
let sys_chroot = declare "sys_chroot"
let sys_getcwd = declare "sys_getcwd"
let sys_mount = declare "sys_mount"
let sys_umount = declare "sys_umount"
let sys_unshare = declare "sys_unshare"
let sys_invalidate_negatives = declare "sys_invalidate_negatives"
let sys_invalidate_path = declare "sys_invalidate_path"

(* Per-lookup path statistics (the paper's Table 1). *)
let path_lookup = declare "path_lookup"
let path_bytes = declare "path_bytes"
let path_comps = declare "path_comps"

(* The fastpath (§3). *)
let fastpath_hit = declare "fastpath_hit"
let fastpath_negative_hit = declare "fastpath_negative_hit"
let fastpath_fallback = declare "fastpath_fallback"
let fastpath_dotdot_sublookup = declare "fastpath_dotdot_sublookup"
let fastpath_lockless_retry = declare "fastpath_lockless_retry"
let fastpath_locked_probe = declare "fastpath_locked_probe"
let fastpath_prefix_resume = declare "fastpath_prefix_resume"
let fastpath_prefix_negfail = declare "fastpath_prefix_negfail"
let fastpath_prefix_stale = declare "fastpath_prefix_stale"
let fastpath_lease_fallback = declare "fastpath_lease_fallback"
let fastpath_pcc_refill = declare "fastpath_pcc_refill"
let fastpath_populated = declare "fastpath_populated"
let fastpath_eio_no_populate = declare "fastpath_eio_no_populate"
let fastpath_batch_deferred = declare "fastpath_batch_deferred"
let fastpath_batch_split = declare "fastpath_batch_split"
let mount_alias_resignature = declare "mount_alias_resignature"

(* The slowpath walk. *)
let walk_slowpath = declare "walk_slowpath"
let walk_components = declare "walk_components"
let walk_resumed = declare "walk_resumed"
let walk_refwalk_fallback = declare "walk_refwalk_fallback"
let walk_negative_hit = declare "walk_negative_hit"
let walk_stale_negative = declare "walk_stale_negative"
let complete_dir_negative = declare "complete_dir_negative"
let deep_negative_created = declare "deep_negative_created"
let symlink_alias_created = declare "symlink_alias_created"
let symlink_resolved = declare "symlink_resolved"
let netfs_revalidate = declare "netfs_revalidate"
let netfs_stale_dentry = declare "netfs_stale_dentry"

(* The dcache. *)
let dcache_hit = declare "dcache_hit"
let dcache_miss = declare "dcache_miss"
let dcache_evicted = declare "dcache_evicted"
let dcache_quarantined = declare "dcache_quarantined"
let negative_created = declare "negative_created"
let neg_evicted = declare "neg_evicted"
let neg_gen_invalidations = declare "neg_gen_invalidations"
let completeness_set = declare "completeness_set"
let completeness_lost = declare "completeness_lost"
let global_write_acquired = declare "global_write_acquired"
let invalidate_permission_dentries = declare "invalidate_permission_dentries"
let invalidate_structure_dentries = declare "invalidate_structure_dentries"

(* Mutations. *)
let files_created = declare "files_created"
let create_neg_shortcut = declare "create_neg_shortcut"
let sharded_create = declare "sharded_create"
let sharded_mkdir = declare "sharded_mkdir"
let sharded_unlink = declare "sharded_unlink"
let sharded_rmdir = declare "sharded_rmdir"
let sharded_rename = declare "sharded_rename"
let sharded_cb_invalidate = declare "sharded_cb_invalidate"

(* Listings (readdir). *)
let readdir_from_cache = declare "readdir_from_cache"
let readdir_from_fs = declare "readdir_from_fs"
let readdir_promoted = declare "readdir_promoted"
let readdir_scratch_fill = declare "readdir_scratch_fill"
let readdir_scratch_warm = declare "readdir_scratch_warm"

(* The batch ring (§3.9). *)
let batch_submit = declare "batch_submit"
let batch_ops = declare "batch_ops"
let batch_windows = declare "batch_windows"

(* Causes: why a lookup missed or a cache entry died.  Bumped off the warm
   path only. *)

(* The DLHT probe found no entry for the signature. *)
let cold = declare "cold"

(* Dentry shot down by a structural change (rename / alias retarget),
   counted per dentry at invalidation time. *)
let invalidated_by_rename = declare "invalidated_by_rename"

(* Dentry's PCC protection bumped by a permission change, counted per
   dentry at invalidation time. *)
let invalidated_by_chmod = declare "invalidated_by_chmod"

(* A stale-seq PCC entry was dropped, or a probe or walk retried after a
   seqcount change — the simulator's seqlock retries. *)
let seqcount_retry = declare "seqcount_retry"

(* A dcache miss had to ask the file system because the directory's cached
   listing is not complete (§5.1). *)
let dir_incomplete = declare "dir_incomplete"

(* Entry removed by a scrub pass (DLHT or dcache). *)
let quarantined = declare "quarantined"

(* /proc/dcache/causes, in this order. *)
let causes =
  [ cold; invalidated_by_rename; invalidated_by_chmod; seqcount_retry; dir_incomplete; quarantined ]
