(** Path resolution: the component-at-a-time slowpath (paper §2.2).

    This is the faithful model of Linux's [link_path_walk]: for every
    component, check search permission on the directory (through the LSM
    stack), probe the primary hash table, fill from the low-level file
    system on a miss, resolve symlinks with a depth limit, and cross mount
    points.  Cost is linear in the number of components — exactly what the
    optimized fastpath (in [dcache_core]) avoids.

    Like Linux's RCU-walk/ref-walk split, resolution first runs in {!Rcu}
    mode under the read lock (no cache mutation allowed; raises internally
    and retries) and falls back to {!Ref} mode under the write lock when the
    cache must be filled.  In [Ref] mode the walk also performs the paper's
    mutation-side caching: deep negative dentries (§5.2) and symlink alias
    dentries (§4.2), when enabled in the configuration. *)

open Types

type ctx = {
  cred : Dcache_cred.Cred.t;
  root : path_ref;
  cwd : path_ref;
  ns : namespace;
  registry : Dcache_cred.Lsm.registry;
}

type mode = Rcu  (** read-locked; no cache mutation *) | Ref  (** write-locked *)

type flags = {
  follow_last : bool;  (** follow a trailing symlink (stat vs lstat) *)
  must_dir : bool;  (** final component must be a directory *)
  collect : bool;  (** record the visited chain for DLHT/PCC population *)
}

val default_flags : flags
(** [{follow_last = true; must_dir = false; collect = false}] *)

type result_ = {
  outcome : (path_ref, Dcache_types.Errno.t) result;
      (** The final (mount, dentry), after mount traversal; negative results
          surface as the errno. *)
  visited : path_ref list;
      (** With [collect]: the literal-path chain in walk order — every
          directory whose search permission passed, symlink-alias dentries
          where applicable, and the final dentry (even a negative one). *)
  absolute : bool;  (** the walk started at the process root *)
}

val resolve_in_mode : mode -> Dcache.t -> ctx -> ?flags:flags -> string -> result_
(** Caller already holds the matching lock side.  In [Rcu] mode, a needed
    mutation aborts the walk with outcome [Error EAGAIN]-like retry: the
    exception is mapped to [Need_refwalk]. *)

val resolve_resumed :
  Dcache.t -> ctx -> ?flags:flags -> start_at:path_ref -> string -> result_
(** Prefix-resumed slowpath entry (§3.5): resolve the remaining [suffix]
    of a missed path starting at [start_at], the longest cached ancestor,
    instead of the root/cwd.  Runs in {!Ref} mode — the caller must hold
    the write lock and must already have re-validated [start_at] under it
    (cached, PCC-covered, positive directory, mount-traversed).  The
    result's [visited] covers only the suffix components walked, and
    [absolute] is [false] regardless of the suffix text, so population
    applies the directory-reference rule against [start_at].

    Its one caller is the fastpath's write-locked miss body, for every
    resumed miss, sequential or batched (§3.9).  It counts
    "walk_resumed" on top of the walk's own "walk_slowpath" and
    "walk_components", so a one-name suffix costs one component. *)

exception Need_refwalk
(** Raised (only) from [resolve_in_mode Rcu] when the walk cannot proceed
    without mutating the cache. *)

type parent_result = {
  parent : path_ref;  (** the containing directory (positive, searchable) *)
  last : string;  (** final component name *)
  child : dentry option;
      (** cached/filled child — positive or negative; [None] when the fs
          reports absence but does not cache negatives *)
  trailing_slash : bool;
  p_visited : path_ref list;
  p_absolute : bool;
}

val resolve_parent :
  mode -> Dcache.t -> ctx -> ?collect:bool -> string ->
  (parent_result, Dcache_types.Errno.t) result
(** Resolve all but the final component (used by create/unlink/rename-style
    operations).  The final component must be a plain name — [.] and [..]
    yield [EINVAL].  The child, if present, is returned as-is: no symlink
    following, no mount crossing. *)

val dentry_leased : (int -> bool) -> dentry -> bool
(** [dentry_leased live d]: whether the leasing fs's [live] check holds
    for [d]'s inode; a negative dentry holds no lease. *)

val check_exec : ctx -> Inode.t -> bool
(** Search-permission check on a directory inode via DAC + LSM stack. *)
