(** The simulated kernel: directory cache + fastpath + LSMs + namespaces,
    bundled behind one handle.  Two kernels with different configurations
    (e.g. {!Dcache_vfs.Config.baseline} vs {!Dcache_vfs.Config.optimized})
    over the same workload are the paper's unmodified-vs-optimized pairs. *)

open Dcache_vfs.Types

type t

val create :
  ?config:Dcache_vfs.Config.t ->
  ?lsms:Dcache_cred.Lsm.hooks list ->
  root_fs:Dcache_fs.Fs_intf.t ->
  unit ->
  t

val config : t -> Dcache_vfs.Config.t
val dcache : t -> Dcache_vfs.Dcache.t
val fastpath : t -> Dcache_core.Fastpath.t
val registry : t -> Dcache_cred.Lsm.registry
val init_ns : t -> namespace

val root_cred : t -> Dcache_cred.Cred.t
(** The kernel's own root credential, the default of {!Proc.spawn}: every
    process spawned without a credential shares it, and so one PCC per
    namespace, which is freed with the kernel. *)

val root : t -> path_ref
val counters : t -> Dcache_util.Stats.Counter.t
val timers : t -> Dcache_util.Timers.t
val hot : t -> Dcache_util.Profiler.t

val make_superblock : t -> Dcache_fs.Fs_intf.t -> (superblock, Dcache_types.Errno.t) result
(** Superblocks are cached per fs instance, so mounting the same pseudo fs
    twice aliases the same dentries (§4.3). *)

val dnlc_find : t -> int -> int -> Dcache_fs.Fs_intf.dirent list option
(** [dnlc_find t id gen] is the Solaris-comparison side cache's listing of
    dentry [id] if it was stored at generation [gen]; only consulted when
    [dnlc_style_completeness] is set.  Safe from any domain. *)

val dnlc_store : t -> int -> int -> Dcache_fs.Fs_intf.dirent list -> unit
(** [dnlc_store t id gen listing] records a whole backend listing of
    dentry [id] read at generation [gen]. *)

val drop_caches : t -> unit
(** Evict every unpinned dentry — the cold-cache experiment setup (Table 2).
    The caller drops its page caches separately. *)

type scrub_report = {
  dcache_quarantined : int;
  dlht_quarantined : int;
  scrub_problems : string list;
}

val scrub : t -> scrub_report
(** Degraded-mode integrity pass (under the write lock): run
    {!Dcache_vfs.Dcache.scrub} then {!Dcache_core.Dlht.scrub} on the init
    namespace's table, quarantining inconsistent entries instead of serving
    them.  Cheap no-op on a healthy cache; tests and the [faults] bench run
    it after fault campaigns. *)

(** Crash points inside the stripe-scope mutation sections (see
    {!Syscalls.install_crash_sites}); [None], the default, disarms them. *)
type crash_sites = {
  cs_create : Dcache_util.Fault.site;
  cs_unlink : Dcache_util.Fault.site;
  cs_rename : Dcache_util.Fault.site;
  cs_invalidate : Dcache_util.Fault.site;
  cs_mkdir : Dcache_util.Fault.site;
  cs_rmdir : Dcache_util.Fault.site;
  cs_readdir : Dcache_util.Fault.site;
}

val crash_sites : t -> crash_sites option
val set_crash_sites : t -> crash_sites option -> unit

val stats_snapshot : t -> (string * int) list
(** Every declared counter ({!Dcache_util.Counters}), zeros included,
    sorted by name. *)

val reset_stats : t -> unit
(** Zeroes every counter (the causes included), the timer table and the
    per-directory sketch. *)
