(** The POSIX-ish system call surface over the simulated kernel.

    Every path-based call resolves through the configured lookup machinery
    (baseline slowpath or the optimized fastpath) and performs the same
    dcache maintenance the paper's Linux prototype does: invalidation before
    permission/structure changes (§3.2), negative-dentry conversion on
    unlink/rename (§5.2), completeness tracking around mkdir and readdir
    sequences (§5.1).

    All calls return [('a, Errno.t) result]; no exceptions escape. *)

type 'a r = ('a, Dcache_types.Errno.t) result

module Batch = Batch
(** Vectored submission/completion rings (§3.9): enqueue stat probes,
    {!Batch.submit} them in one amortized-validation run, read completions
    from the CQ. *)

(** {1 Metadata} *)

val stat : Proc.t -> string -> Dcache_types.Attr.t r
val lstat : Proc.t -> string -> Dcache_types.Attr.t r
val fstatat : Proc.t -> int -> string -> ?follow:bool -> unit -> Dcache_types.Attr.t r
val fstat : Proc.t -> int -> Dcache_types.Attr.t r
val access : Proc.t -> string -> Dcache_types.Access.t -> unit r
val readlink : Proc.t -> string -> string r

(** {1 Files} *)

val openf : ?mode:Dcache_types.Mode.t -> Proc.t -> string -> Proc.open_flag list -> int r
val openat :
  ?mode:Dcache_types.Mode.t -> Proc.t -> int -> string -> Proc.open_flag list -> int r
val close : Proc.t -> int -> unit r
val read : Proc.t -> int -> int -> string r
val write : Proc.t -> int -> string -> int r
val pread : Proc.t -> int -> off:int -> len:int -> string r
val pwrite : Proc.t -> int -> off:int -> string -> int r

val lseek : Proc.t -> int -> int -> int r
(** Absolute positioning only ([SEEK_SET]).  On a directory fd, seeking to
    [k > 0] serves the stream's snapshot from entry [k]; seeking to 0 drops
    the snapshot, so the next {!getdents} lists the directory afresh. *)

val getdents : Proc.t -> int -> int -> Dcache_fs.Fs_intf.dirent list r
(** Up to [count] entries; [\[\]] means end of directory.  A
    scratch-filling call: a stream's first call (and its first after a
    rewind) lists the directory once through {!readdir_fill}'s path and
    copies the scratch into the stream's snapshot; later chunks come from
    that copy, so mutations in between do not show until a rewind (§5.1). *)

exception Readdir_errno of Dcache_types.Errno.t
(** Error escape for {!readdir_fill} (a [result] would box two words on
    its allocation-free warm path). *)

val readdir_fill : Proc.t -> int -> int
(** Fill the per-process dirent scratch ([Proc.dirents]) with the {e
    full} listing of the open directory fd; returns the entry count.
    Entries are readable through the scratch's parallel name/ino/kind
    arrays until the next scratch-filling call on the same process.  On a
    sharded configuration with directory completeness, a warm call — the
    directory is DIR_COMPLETE and no mutation races — is lockless,
    validated by the dcache write sequence, the directory's own-id stripe
    seqcount and [d_dir_gen], and performs zero minor-heap allocation
    after the scratch's first growth.  A cold call fills under the
    directory's stripe and promotes the backend listing so the next call
    is warm (with completeness off it lists the backend every time and
    promotes nothing).  Every listing — {!getdents},
    {!readdir_path} — goes through this fill.
    @raise Readdir_errno on failure. *)

val truncate : Proc.t -> string -> int -> unit r

(** {1 Namespace mutations}

    Create-open, mkdir, unlink, rmdir, rename and {!invalidate_path} each
    have one body, run under one of two lock scopes picked from cached
    state: the parent directory's stripe(s) under the dcache lock's read
    side when [dcache_stripes > 0] and the cached shape fits them (counted
    as [sharded_create], [sharded_mkdir], [sharded_unlink],
    [sharded_rmdir], [sharded_rename], [sharded_cb_invalidate]), the
    global write lock otherwise.  Both scopes give the same results; the
    [*at] variants resolve relative to the directory fd and share the
    same bodies. *)

val mkdir : ?mode:Dcache_types.Mode.t -> Proc.t -> string -> unit r
val rmdir : Proc.t -> string -> unit r
val unlink : Proc.t -> string -> unit r
val rename : Proc.t -> string -> string -> unit r
val link : Proc.t -> string -> string -> unit r
val symlink : Proc.t -> target:string -> string -> unit r

val mkstemp :
  ?prng:Dcache_util.Prng.t -> ?prefix:string -> Proc.t -> string -> (int * string) r
(** Secure temporary-file creation in the given directory: random names
    retried with [O_CREAT|O_EXCL] (§5.1's file-creation workload). *)

(** {1 Attributes and security} *)

val chmod : Proc.t -> string -> Dcache_types.Mode.t -> unit r
val chown : Proc.t -> string -> uid:int -> gid:int -> unit r
val set_label : Proc.t -> string -> string option -> unit r
(** Set or clear the MAC security label (root only). *)

(** {1 Process state} *)

val chdir : Proc.t -> string -> unit r
val fchdir : Proc.t -> int -> unit r
val chroot : Proc.t -> string -> unit r

(** {1 Mounts and namespaces} *)

val mount_fs :
  ?readonly:bool -> ?nosuid:bool -> Proc.t -> Dcache_fs.Fs_intf.t -> string -> unit r
val bind_mount : ?readonly:bool -> Proc.t -> src:string -> dst:string -> unit r
val umount : Proc.t -> string -> unit r
val unshare_mount_ns : Proc.t -> unit r
(** Give the process a private copy of its mount namespace; its root and
    cwd are rebased to the new namespace's root. *)

(** {1 The *at() family} *)

val mkdirat : ?mode:Dcache_types.Mode.t -> Proc.t -> int -> string -> unit r
val unlinkat : Proc.t -> int -> string -> unit r
val symlinkat : Proc.t -> target:string -> int -> string -> unit r
val readlinkat : Proc.t -> int -> string -> string r
val faccessat : Proc.t -> int -> string -> Dcache_types.Access.t -> unit r

val getcwd : Proc.t -> string r
(** Reconstruct the working directory's path relative to the process root,
    crossing mount boundaries; [ENOENT] if the directory was removed. *)

val invalidate_path : Proc.t -> string -> unit r
(** Evict a path's cached dentry subtree (without touching the file
    system).  This is the client half of a stateful network file system's
    staleness callback (paper §4.3, §3.7): wire it to a per-client
    {!Dcache_fs.Netfs.set_invalidate} hook.  With [dcache_stripes > 0] a
    shallow target is evicted under the parent + target stripe locks
    (counted as [sharded_cb_invalidate]) instead of the global write
    lock, so invalidation storms scale like the mutations that cause
    them. *)

val invalidate_negatives : Proc.t -> string -> unit r
(** Per-mount negative invalidation (§6.3, DragonFly-style): bump the
    negative generation of the superblock the path resolves on, so every
    cached negative dentry on it lazily reads as a miss at its next use.
    One integer store — no lock and no cache walk. *)

(** {1 Crash-fault coverage (stripe-scope sections)} *)

val install_crash_sites : Kernel.t -> Dcache_util.Fault.t -> unit
(** Register crash points inside the stripe-scope mutation sections —
    ["syscalls.sharded_create"], ["syscalls.sharded_unlink"],
    ["syscalls.sharded_rename"], ["syscalls.sharded_invalidate"],
    ["syscalls.sharded_mkdir"], ["syscalls.sharded_rmdir"] — on the
    given injector.  Each fires between the stripes' seqcount bump and
    the mutation body and raises {!Dcache_util.Fault.Crash} out of the
    syscall; the section releases its stripe(s) and the read lock on the
    way out, so a subsequent {!Kernel.scrub} fully repairs the cache.
    The sites belong to the kernel, as does the
    ["syscalls.sharded_readdir"] site of the stripe-locked readdir
    promotion; {!clear_crash_sites} detaches them. *)

val clear_crash_sites : Kernel.t -> unit

(** {1 Convenience} *)

val read_file : Proc.t -> string -> string r
val write_file : Proc.t -> string -> string -> unit r
val readdir_path : Proc.t -> string -> Dcache_fs.Fs_intf.dirent list r
(** open + {!readdir_fill} + close, with the scratch copied into a list.
    A scratch-filling call. *)

val mkdir_p : Proc.t -> string -> unit r
